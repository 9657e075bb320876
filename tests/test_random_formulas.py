"""Random formula strings against the expression engine and the CLI.

The strings mix well-formed formulas over t and r (every operator and
function, constants up to 1e308 and down to subnormals) with token soup
that rarely parses.  Whatever they are, evaluation ends in a finite float
or a DomainError, and the CLI in 0, 1 or 2 with no traceback.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from svflow.cli import run
from svflow.fieldcalc import DomainError, evaluate, parse_expression

_ATOMS = ["t", "r", "pi", "0", "1", "2", "0.5", "3", "40", "1e308", "1e-320"]
_FUNCTIONS = ["exp", "log", "sqrt", "sin", "cos"]
_SOUP = _ATOMS + [f + "(" for f in _FUNCTIONS] + list("+-*/^() ") + ["x", "@", "1e999"]


def _extend(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "^"]), inner).map(
            lambda p: f"({p[0]} {p[1]} {p[2]})"
        ),
        st.tuples(st.sampled_from(_FUNCTIONS), inner).map(lambda p: f"{p[0]}({p[1]})"),
        inner.map(lambda s: f"-{s}"),
    )


WELL_FORMED = st.recursive(st.sampled_from(_ATOMS), _extend, max_leaves=10)
FORMULAS = st.one_of(
    WELL_FORMED,
    st.lists(st.sampled_from(_SOUP), max_size=12).map("".join),
)
VALUES = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, -0.0, 1e-320, -1e-320, 1e300, -1e300, 1e308]),
)


@settings(max_examples=150, deadline=None)
@given(WELL_FORMED, VALUES, VALUES)
def test_evaluation_is_finite_or_a_domain_error(text, t, r):
    e = parse_expression(text, ("t", "r"))
    try:
        v = evaluate(e, {"t": t, "r": r})
    except DomainError:
        return
    assert isinstance(v, float) and math.isfinite(v)


# Formulas go in as --flag=TEXT: argparse takes a separate argument that
# starts with "-" for an option.
def _assert_clean_exit(argv, tmp_path_factory, capsys):
    code = run(argv + ["--output", str(tmp_path_factory.mktemp("r"))])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("svflow:"), err


# capsys is read and so emptied in every example
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(FORMULAS)
def test_flow_field_formula_ends_cleanly(tmp_path_factory, capsys, text):
    _assert_clean_exit(
        ["flow", f"--field={text};1", "--vars", "t,r", "--point", "0.5,1.2",
         "--rho", "0.3", "--max-steps", "2048"],
        tmp_path_factory, capsys,
    )


# capsys is read and so emptied in every example
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(FORMULAS)
def test_primary_eps_formula_ends_cleanly(tmp_path_factory, capsys, text):
    _assert_clean_exit(["primary", f"--eps={text}", "--max-steps", "2048"],
                       tmp_path_factory, capsys)

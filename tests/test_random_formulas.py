"""Random formula strings and number lists against the expression engine
and the CLI.

The strings mix well-formed formulas over each chart's variables (every
operator and function, constants up to 1e308 and down to subnormals) with
token soup that rarely parses.  Whatever they are, evaluation ends in a
finite float or a DomainError, and every subcommand, fed them through
each formula flag, metric-file entry and number list, in 0, 1 or 2 with
one svflow: line and no traceback.  Series and displacement terms, which
run as one program, match the per-term path they replaced.
"""

import math
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from svflow import flowexp
from svflow.cli import run
from svflow.fieldcalc import (
    DomainError,
    Point,
    ScalarField,
    VectorField,
    evaluate,
    parse_expression,
)

_CONSTANTS = ["pi", "0", "1", "2", "0.5", "3", "40", "1e308", "1e-320"]
_FUNCTIONS = ["exp", "log", "sqrt", "sin", "cos"]


def _extend(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "^"]), inner).map(
            lambda p: f"({p[0]} {p[1]} {p[2]})"
        ),
        st.tuples(st.sampled_from(_FUNCTIONS), inner).map(lambda p: f"{p[0]}({p[1]})"),
        inner.map(lambda s: f"-{s}"),
    )


def _well_formed(names):
    return st.recursive(st.sampled_from([*names, *_CONSTANTS]), _extend, max_leaves=10)


def _formulas(names):
    """Well-formed formulas over names, or soup that may name others."""
    soup = [*names, *_CONSTANTS, *(f + "(" for f in _FUNCTIONS), *"+-*/^() ", "x", "@", "1e999"]
    return st.one_of(_well_formed(names), st.lists(st.sampled_from(soup), max_size=12).map("".join))


WELL_FORMED = _well_formed(("t", "r"))
FORMULAS = _formulas(("t", "r"))
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


# The series as it ran before its terms became one program: each term
# built by one more application of B.d + C and evaluated alone, in turn.
def _per_term_series(B, C, psi, x, order):
    u = psi.expression
    values = [evaluate(u, x)]
    for _ in range(order):
        u = flowexp.apply_operator(B, C, u)
        values.append(evaluate(u, x))
    return values


def _per_component_displacement(B, x, rho, order):
    return tuple(
        flowexp.taylor_sum([0.0, *_per_term_series(B, None, ScalarField(B.chart, comp), x,
                                                   order - 1)], rho)
        for comp in B.components
    )


def _outcome(fn, *args):
    """The values of fn(*args) bit for bit, or the class of its error."""
    try:
        return [v.hex() for v in fn(*args)]
    except DomainError as err:
        return type(err)


@settings(max_examples=60, deadline=None)
@given(st.lists(WELL_FORMED, min_size=4, max_size=4), VALUES, VALUES, VALUES,
       st.integers(0, 4))
def test_series_batch_matches_the_per_term_path(texts, t, r, rho, order):
    chart = ("t", "r")
    b_t, b_r, charge, psi = (parse_expression(s, chart) for s in texts)
    B = VectorField(chart, (b_t, b_r))
    C, psi = ScalarField(chart, charge), ScalarField(chart, psi)
    x = Point(chart, (t, r))
    assert _outcome(flowexp.series_terms, B, C, psi, x, order) == _outcome(
        _per_term_series, B, C, psi, x, order)
    # displacement orders 1 to 5: 0 to 4 applications of B.d per component
    assert _outcome(flowexp.displacement_series, B, x, rho, order + 1) == _outcome(
        _per_component_displacement, B, x, rho, order + 1)


# capsys is read and so emptied in every example
_CLI_EXAMPLES = settings(max_examples=40, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


# Formulas go in as --flag=TEXT: argparse takes a separate argument that
# starts with "-" for an option.  A warning is raised, not printed:
# outside pytest it would be a second stderr line.
def _assert_clean_exit(argv, tmp_path_factory, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv + ["--output", str(tmp_path_factory.mktemp("r"))])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("svflow:"), err
    return err


@_CLI_EXAMPLES
@given(FORMULAS)
def test_flow_field_formula_ends_cleanly(tmp_path_factory, capsys, text):
    _assert_clean_exit(
        ["flow", f"--field={text};1", "--vars", "t,r", "--point", "0.5,1.2",
         "--rho", "0.3", "--max-steps", "2048"],
        tmp_path_factory, capsys,
    )


@_CLI_EXAMPLES
@given(FORMULAS)
def test_primary_eps_formula_ends_cleanly(tmp_path_factory, capsys, text):
    _assert_clean_exit(["primary", f"--eps={text}", "--max-steps", "2048"],
                       tmp_path_factory, capsys)


@_CLI_EXAMPLES
@given(FORMULAS, FORMULAS)
def test_flow_charge_and_psi_formulas_end_cleanly(tmp_path_factory, capsys, charge, psi):
    _assert_clean_exit(
        ["flow", "--field=t;-r", "--vars", "t,r", "--point", "0.5,1.2", "--rho", "0.3",
         f"--charge={charge}", f"--psi={psi}", "--order", "2", "--max-steps", "2048"],
        tmp_path_factory, capsys,
    )


@_CLI_EXAMPLES
@given(_formulas(("t", "x")))
def test_nrlimit_psi_formula_ends_cleanly(tmp_path_factory, capsys, text):
    _assert_clean_exit(["nrlimit", f"--psi={text}"], tmp_path_factory, capsys)


@_CLI_EXAMPLES
@given(_formulas(("t",)))
def test_frame_worldline_formula_ends_cleanly(tmp_path_factory, capsys, text):
    _assert_clean_exit(["frame", f"--f={text}", "--grid", "0,0.5,-0.3,0.35,7,7",
                        "--max-iter", "5", "--max-steps", "2048"],
                       tmp_path_factory, capsys)


@_CLI_EXAMPLES
@given(FORMULAS, FORMULAS)
@example("1e308", "1e308")  # numpy warned on the overflowing determinant
def test_metric_file_entries_end_cleanly(tmp_path_factory, capsys, g00, g11):
    metric = tmp_path_factory.mktemp("m") / "random.metric"
    metric.write_text(f"dim = 2\ncoords = t, r\nsplit = t | r\n"
                      f"g[0,0] = {g00}\ng[1,1] = {g11}\n")
    _assert_clean_exit(["curvature", "--metric", str(metric), "--points", "3"],
                       tmp_path_factory, capsys)


# numbers as text: ordinary, extreme, non-finite and not numbers at all
_NUMBERS = ["0", "-0", "1", "-1", "0.5", "1.2", "-0.3", "3.7", "1e-320", "1e-300", "1e12",
            "1e300", "1e308", "-1e308", "inf", "nan", "x", ""]


def _number_lists(items, size):
    """Comma-separated numbers, half the time exactly size of them."""
    number = st.one_of(st.sampled_from(items), st.floats().map(repr))
    return st.one_of(st.lists(number, min_size=size, max_size=size),
                     st.lists(number, max_size=7)).map(",".join)


@_CLI_EXAMPLES
@given(st.sampled_from([
    (["flow", "--field=t;-r", "--vars", "t,r", "--max-steps", "2048"], 2),
    (["primary", "--max-steps", "2048"], 2),
    (["nrlimit"], 3),
]).flatmap(lambda cmd: st.tuples(st.just(cmd[0]), _number_lists(_NUMBERS, cmd[1]))))
def test_point_lists_end_cleanly(tmp_path_factory, capsys, argv_point):
    argv, point = argv_point
    _assert_clean_exit(argv + [f"--point={point}"], tmp_path_factory, capsys)


# grid line counts stay below 8 or far above accframe.MAX_GRID_POINTS
_COUNTS = ["-1", "0", "3", "4", "7", "3.7", "1e12", "1e308", "nan"]


@_CLI_EXAMPLES
@given(st.one_of(st.just(["0", "0.5", "-0.3", "0.35"]),
                 st.lists(st.sampled_from(_NUMBERS), min_size=4, max_size=4)),
       st.lists(st.sampled_from(_COUNTS), min_size=2, max_size=2))
def test_grid_lists_end_cleanly(tmp_path_factory, capsys, ranges, counts):
    grid = ",".join(ranges + counts)
    _assert_clean_exit(["frame", f"--grid={grid}", "--max-iter", "5", "--max-steps", "2048"],
                       tmp_path_factory, capsys)


@_CLI_EXAMPLES
@given(_number_lists(_NUMBERS + ["10", "100", "1000", "1e-10", "1e10"] * 3, 3))
def test_c_value_lists_end_cleanly(tmp_path_factory, capsys, c_values):
    _assert_clean_exit(["nrlimit", f"--c-values={c_values}"], tmp_path_factory, capsys)


# physical parameters: ordinary, near and beyond the edges of the double
# range, and not valid at all
_PARAMETERS = ["1", "0.5", "2", "-1", "0", "1e-320", "1e-200", "1e-160", "1e-100", "1e100",
               "1e154", "1e200", "1e308", "inf", "nan"]


@_CLI_EXAMPLES
@given(st.sampled_from([
    (["nrlimit"], ("m", "c", "h")),
    (["frame", "--f=0.2*t", "--grid", "0,0.5,-0.3,0.35,7,7", "--max-iter", "5",
      "--max-steps", "2048"], ("c",)),
    (["primary", "--max-steps", "2048"], ("m", "chi", "N")),
    (["virasoro", "--max-index", "1", "--points", "2"], ("m", "chi", "N")),
]).flatmap(lambda cmd: st.tuples(st.just(cmd[0]), st.lists(
    st.tuples(st.sampled_from(cmd[1]), st.sampled_from(_PARAMETERS)),
    min_size=1, max_size=3, unique_by=lambda flag: flag[0]))))
def test_physical_parameters_end_cleanly(tmp_path_factory, capsys, argv_flags):
    argv, flags = argv_flags
    err = _assert_clean_exit(argv + [f"--{name}={value}" for name, value in flags],
                             tmp_path_factory, capsys)
    # a parameter whose formula bound fails is refused by name
    assert "division by zero" not in err, err

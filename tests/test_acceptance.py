"""Acceptance gate: every criterion at its stated tolerance, one
pass/fail line printed per criterion (run pytest -s to see them live)."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from svflow import (
    GridSpec, InputError, RelParams, SVParams, Tolerance, Trajectory,
    cli, fieldcalc, flowexp, geomcurv, svgen, verification,
)
from svflow.cli import run
from svflow.verification import DEFAULT_SEED, RUNTIME_BUDGETS, run_all


@pytest.fixture(scope="module")
def suite():
    results, bundle = run_all(seed=DEFAULT_SEED)
    return {r.key: r for r in results}, bundle


def _check(suite, key):
    results, _ = suite
    r = results[key]
    print(f"{r.status} {r.key}: {r.detail}")
    budget = RUNTIME_BUDGETS.get(key)
    if budget is not None:
        assert r.runtime_s < budget, f"{key} took {r.runtime_s:.1f}s (budget {budget}s)"
    assert r.passed, f"{key} failed: {r.detail}"


def test_c01_flow_factorization(suite):
    _check(suite, "c01_flow_factorization")


def test_c02_key_lemma(suite):
    _check(suite, "c02_key_lemma")


def test_c03_virasoro_bracket(suite):
    _check(suite, "c03_virasoro_bracket")


def test_c04_primary_transform(suite):
    _check(suite, "c04_primary_transform")


def test_c05_scale_form(suite):
    _check(suite, "c05_scale_form")


def test_c06_nr_limit(suite):
    _check(suite, "c06_nr_limit")


def test_c07_barut_identity(suite):
    _check(suite, "c07_barut_identity")


def test_c08_curvature(suite):
    _check(suite, "c08_curvature")


def test_c09_frame(suite):
    _check(suite, "c09_frame")


def test_c10_correlator(suite):
    _check(suite, "c10_correlator")


def test_c11_determinism(suite):
    _check(suite, "c11_determinism")


def test_reports_cover_every_criterion(suite):
    results, bundle = suite
    for key in results:
        assert f"{key}.csv" in bundle
    assert "summary.csv" in bundle
    summary = bundle["summary.csv"].decode()
    for key in results:
        assert key in summary


def test_reports_match_golden_bundle(suite):
    # tests/golden holds the verify-all --seed 42 bundle; a refactor that
    # moves any reported value or byte must say so by updating it
    _, bundle = suite
    golden = Path(__file__).parent / "golden"
    assert sorted(bundle) == sorted(p.name for p in golden.glob("*.csv"))
    for name, payload in bundle.items():
        assert payload == (golden / name).read_bytes(), name


def _memo_recorder(seen, key="c99_memo"):
    """A stand-in criterion that records the derivative and program memos
    it runs in, then fills both."""

    def criterion(seed):
        memo, programs = fieldcalc._DERIVATIVES.get(), fieldcalc._PROGRAMS.get()
        fresh = memo == ({}, []) and len(programs) == 0
        seen.append((memo, fresh, programs))
        t = fieldcalc.Var("t")
        d = fieldcalc.differentiate(fieldcalc.Mul(t, fieldcalc.Sin(t)), "t")
        fieldcalc.evaluate(d, {"t": 0.5})
        assert len(programs) == 1
        return verification.CriterionResult(key, [], "", ("x",), [(1,)])

    return criterion


def test_each_criterion_call_starts_with_an_empty_derivative_memo(monkeypatch):
    seen = []
    fakes = tuple(_memo_recorder(seen, f"c9{k}_memo") for k in range(3))
    monkeypatch.setattr(verification, "CRITERIA", fakes)
    results, _ = run_all(seed=1)
    assert [r.key for r in results][-1] == "c11_determinism" and results[-1].passed
    assert len(seen) == 6  # three criteria, two passes
    assert all(fresh for _, fresh, _ in seen)
    assert len({id(memo) for memo, _, _ in seen}) == 6
    assert len({id(programs) for _, _, programs in seen} | {id(fieldcalc._PROGRAMS.get(None))}) == 7
    assert fieldcalc._DERIVATIVES.get() is None


def test_each_cli_command_runs_in_a_derivative_memo(monkeypatch, tmp_path):
    seen = []
    criterion = _memo_recorder(seen)
    probe = cli._COMMANDS["correlator"]._replace(
        run=lambda args, cfg: cli._Report({}, [criterion(verification.DEFAULT_SEED).key], [])
    )
    monkeypatch.setitem(cli._COMMANDS, "correlator", probe)
    assert run(["correlator", "--output", str(tmp_path)]) == 0
    assert run(["correlator", "--output", str(tmp_path)]) == 0
    assert [fresh for _, fresh, _ in seen] == [True, True]
    assert seen[0][0] is not seen[1][0]
    assert len({id(seen[0][2]), id(seen[1][2]), id(fieldcalc._PROGRAMS.get(None))}) == 3
    assert fieldcalc._DERIVATIVES.get() is None


def _call_counts(monkeypatch, targets):
    """A dict, by key, of the calls made to each (owner, attr, key) target
    from here on."""
    counts = dict.fromkeys((key for _, _, key in targets), 0)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, attr, key in targets:
        monkeypatch.setattr(owner, attr, counted(key, getattr(owner, attr)))
    return counts


@pytest.mark.parametrize(
    "criterion, expected",
    [
        # c03: 7 monomials and 38 distinct bracket targets; 147 residuals
        # in one program
        (verification.criterion_virasoro, {"generators": 45, "compiles": 1, "bundles": 0}),
        # c08: 7 direct bundles and 14 block bundles; each bundle compiles
        # g and Gamma with dGamma, each split its cross-derivatives
        (verification.criterion_curvature, {"generators": 0, "compiles": 49, "bundles": 21}),
    ],
)
def test_c03_and_c08_do_each_piece_of_work_once(criterion, expected, monkeypatch):
    counts = _call_counts(monkeypatch, [
        (svgen, "build_generator", "generators"),
        (fieldcalc, "compile_expressions", "compiles"),
        (geomcurv.CurvatureBundle, "__init__", "bundles"),
    ])
    with fieldcalc.derivative_memo():
        criterion(DEFAULT_SEED)
    assert counts == expected


_CLI_GOLDEN_ARGV = {
    "flow": ["--field", "t;-r", "--vars", "t,r", "--point", "1,0.5",
             "--rho", "0.4", "--charge", "0.3*t", "--psi", "t*r"],
    "primary": ["--eps", "1 + 0.1*t + 0.05*t^2", "--chi", "0.7", "--m", "1.3",
                "--point", "0.5,1.2"],
    "virasoro": ["--max-index", "2", "--points", "4", "--seed", "7"],
}


@pytest.mark.parametrize(
    "name, expected",
    [
        # one transform, whose t' run carries dt'/dt, and the exp route's flow
        ("primary", {"flows": 2, "quadratures": 1}),
        # endpoint, steps, Jacobian, pushforward and exp route from one run
        ("flow", {"flows": 1, "quadratures": 0}),
        # c04: per grid point a transform and the exp route's flow, plus eps = t
        ("criterion_primary", {"flows": 51, "quadratures": 26}),
        # c05: per grid point one transform
        ("criterion_scale_form", {"flows": 25, "quadratures": 25}),
    ],
)
def test_each_flow_question_is_one_run(name, expected, monkeypatch, tmp_path):
    counts = _call_counts(monkeypatch, [
        (flowexp, "integrate_flow", "flows"),
        (svgen, "adaptive_simpson", "quadratures"),
    ])
    if name in _CLI_GOLDEN_ARGV:
        assert run([name, *_CLI_GOLDEN_ARGV[name], "--output", str(tmp_path)]) == 0
    else:
        with fieldcalc.derivative_memo():
            getattr(verification, name)(DEFAULT_SEED)
    assert counts == expected


@pytest.mark.parametrize("name, argv", list(_CLI_GOLDEN_ARGV.items()))
def test_cli_reports_match_golden(name, argv, tmp_path, capsys):
    # tests/golden/cli holds each subcommand's CSV and stdout, byte for byte
    golden = Path(__file__).parent / "golden" / "cli"
    assert run([name, *argv, "--output", str(tmp_path)]) == 0
    assert capsys.readouterr().out.encode() == (golden / f"{name}.stdout").read_bytes()
    assert (tmp_path / f"{name}.csv").read_bytes() == (golden / f"{name}.csv").read_bytes()


@pytest.mark.parametrize(
    "name, bound, label",
    [("flow", "PUSHFORWARD_TOL_FACTOR", "pushforward residual"),
     ("primary", "PRIMARY_FLOW_BOUND", "primary/flow residual"),
     ("virasoro", "BRACKET_BOUND", "bracket residual")],
)
def test_a_failing_subcommand_still_writes_and_prints_its_report(
    name, bound, label, monkeypatch, tmp_path, capsys
):
    # bounds enter no report, so the CSV and stdout are the golden ones
    monkeypatch.setattr(verification, bound, -1)
    golden = Path(__file__).parent / "golden" / "cli"
    assert run([name, *_CLI_GOLDEN_ARGV[name], "--output", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out.encode() == (golden / f"{name}.stdout").read_bytes()
    assert (tmp_path / f"{name}.csv").read_bytes() == (golden / f"{name}.csv").read_bytes()
    assert err.startswith(f"svflow: verification FAILED: {label} ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "patch, failing, failure",
    [(("KEY_LEMMA_BOUND", -1.0), ["c02_key_lemma"], "failing criteria 1 above 0"),
     (("RUNTIME_BUDGETS", {"c02_key_lemma": 0.0}), [],
      "criteria over runtime budget 1 above 0")],
)
def test_a_failing_verify_all_still_writes_and_prints_its_report(
    patch, failing, failure, monkeypatch, tmp_path, capsys
):
    monkeypatch.setattr(verification, *patch)
    assert run(["verify-all", "--output", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert err == f"svflow: verification FAILED: {failure}\n"
    golden = sorted(p.name for p in (Path(__file__).parent / "golden").glob("*.csv"))
    assert sorted(p.name for p in tmp_path.iterdir()) == golden  # 11 criteria, summary
    keys = [name[:-4] for name in golden if name != "summary.csv"]
    lines = out.splitlines()
    assert [line.split()[:2] for line in lines[:-1]] == [
        ["FAIL" if key in failing else "PASS", key] for key in keys
    ]
    assert lines[-1] == f"reports written to {tmp_path}"


def _compensated_sum(values, start=0):
    """sum() as Python 3.12 adds floats: Neumaier's compensated summation."""
    total, compensation = float(start), 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            compensation += (total - t) + v
        else:
            compensation += (v - t) + total
        total = t
    return total + compensation


def test_c01_does_not_depend_on_how_sum_adds_floats(monkeypatch):
    # builtin sum() compensates float rounding from Python 3.12 on; c01's
    # Taylor sums must give the golden bytes under either behaviour
    monkeypatch.setattr(verification, "sum", _compensated_sum, raising=False)
    result = verification.criterion_flow_factorization()
    golden = Path(__file__).parent / "golden" / "c01_flow_factorization.csv"
    assert verification.render_csv(result.columns, result.rows) == golden.read_bytes()


def test_c01_fails_its_slope_gate_when_too_few_gaps_clear_the_fit_floor(monkeypatch):
    # with the exponential route replaced by the series itself every gap is
    # 0, so no slope is fit: the gate reads inf and the slope row nan
    def series_route(B, C, psi, x, rho, tol):
        return flowexp.taylor_sum(flowexp.series_terms(B, C, psi, x, 6), rho)

    monkeypatch.setattr(flowexp, "apply_exponential", series_route)
    result = verification.criterion_flow_factorization()
    slopes = [g for g in result.gates if "slope distance" in g.label]
    assert len(slopes) == 5 and all(g.value == math.inf and not g.passed for g in slopes)
    rows = [row for row in result.rows if row[1] == "slope"]
    assert len(rows) == 5 and all(math.isnan(row[2]) for row in rows)
    assert not result.passed


@pytest.mark.parametrize("criterion", [
    verification.criterion_flow_factorization, verification.criterion_key_lemma,
    verification.criterion_primary, verification.criterion_scale_form,
    verification.criterion_barut,
], ids=lambda fn: fn.__name__)
def test_flow_criteria_match_golden_on_the_list_loop(criterion, monkeypatch):
    # every flow program of verify-all is within MAX_STEPPER_OPS, so its
    # stepper writes out the operations; the stepper of a larger program,
    # whose stages hand the program their state as a list, must give the
    # same golden bytes
    steppers = []
    stepper = flowexp._stepper
    monkeypatch.setattr(flowexp, "_stepper",
                        lambda *args: steppers.append(1) or stepper(*args))
    monkeypatch.setattr(flowexp, "MAX_STEPPER_OPS", -1)
    result = verification._run_criterion(criterion, DEFAULT_SEED)
    golden = Path(__file__).parent / "golden" / f"{result.key}.csv"
    assert steppers and verification.render_csv(result.columns, result.rows) == golden.read_bytes()


def test_csv_floats_do_not_depend_on_numpy():
    # numpy 2 writes the repr of a float64 as np.float64(...), numpy 1 as 0.1
    assert verification.render_csv(("v",), [(np.float64(0.1),)]) == b"v\n0.1\n"


def test_goldens_hold_under_other_blas_kernels():
    # OpenBLAS picks its kernel when it loads, so each kernel needs its own
    # process; the variable is set in the children's environment only
    here = Path(__file__)
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            str(here), "-k", "golden and not kernels"]
    children = {
        kernel: subprocess.Popen(
            argv, cwd=here.parent.parent, env=dict(os.environ, OPENBLAS_CORETYPE=kernel),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for kernel in ("Haswell", "Sandybridge")
    }
    for kernel, child in children.items():
        out, _ = child.communicate(timeout=600)
        assert child.returncode == 0, f"OPENBLAS_CORETYPE={kernel}:\n{out[-3000:]}"


def test_curvature_makes_no_lapack_call(monkeypatch, tmp_path):
    # det g and g^-1 come from each bundle's own programs, the inverse the
    # one Gamma is built from
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np.linalg, "det", refuse)
    assert verification.criterion_curvature().passed
    metric = tmp_path / "cross_4d.metric"
    metric.write_text(
        "dim = 4\ncoords = x1, x2, y1, y2\nsplit = x1 x2 | y1 y2\n"
        "g[0,0] = 1 + 0.2*y1\ng[0,1] = 0.1*y2\ng[1,1] = 1 + 0.1*x1^2\n"
        "g[2,2] = 1 + 0.1*x1\ng[2,3] = 0.05*x2\ng[3,3] = 1 + 0.1*y1^2\n"
    )
    assert run(["curvature", "--metric", str(metric), "--output", str(tmp_path / "r")]) == 0


@pytest.mark.parametrize("make, message", [
    (lambda: Tolerance(absolute="x"), "tolerance absolute is not a number: 'x'"),
    (lambda: Tolerance(max_steps=None), "tolerance max_steps is not a number: None"),
    (lambda: RelParams(m="1", c=1, h=1), "m is not a number: '1'"),
    (lambda: SVParams(m=1, chi=None), "chi is not a number: None"),
    (lambda: SVParams(m=1, chi=0.7, N="2"), "N is not a number: '2'"),
    (lambda: Trajectory.from_formula("0.5*t", c="1"), "c is not a number: '1'"),
    (lambda: GridSpec("0", 1, 0, 1, 5, 5), "grid t_min is not a number: '0'"),
], ids=["tol_absolute", "tol_max_steps", "rel_m", "sv_chi", "sv_N", "trajectory_c", "grid_t_min"])
def test_a_parameter_record_names_a_value_that_is_not_a_number(make, message):
    # each ended in a bare TypeError from a comparison or an operator
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        make()


SPHERE_METRIC = "dim = 2\ncoords = theta, phi\nsplit = theta | phi\ng[0,0] = 1\ng[1,1] = sin(theta)^2\n"


@pytest.mark.parametrize(
    "bound, criterion, argv, label",
    [
        ("BRACKET_BOUND", "criterion_virasoro",
         ["virasoro", "--max-index", "1", "--points", "2"], "bracket residual"),
        ("PRIMARY_FLOW_BOUND", "criterion_primary", ["primary"], "primary/flow residual"),
        ("WEIGHT_FORM_BOUND", "criterion_scale_form", ["primary"], "weight-form residual"),
        ("NR_IDENTITY_BOUND", "criterion_nr_limit", ["nrlimit"], "contraction residual"),
        ("DEFECT_SLOPE_BOUND", "criterion_nr_limit", ["nrlimit"], "defect slope distance"),
        ("BLOCK_RIEMANN_BOUND", "criterion_curvature",
         ["curvature", "--metric", "{metric}"], "block Riemann formula vs direct"),
        ("FRAME_BOUNDARY_BOUND", "criterion_frame", ["frame"], "boundary x' residual"),
    ],
)
def test_a_bound_is_read_by_its_criterion_and_its_subcommand(
    bound, criterion, argv, label, monkeypatch, tmp_path, capsys
):
    # -1 lies below every measured residual, distance and count
    monkeypatch.setattr(verification, bound, -1.0)
    assert not getattr(verification, criterion)().passed
    metric = tmp_path / "sphere.metric"
    metric.write_text(SPHERE_METRIC)
    argv = [a.format(metric=metric) for a in argv]
    assert run([*argv, "--output", str(tmp_path / "r")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"svflow: verification FAILED: {label} ")
    assert lines[0].endswith(" above -1")


@pytest.mark.parametrize(
    "bound, text",
    [(1e-8, "1e-8"), (1e-10, "1e-10"), (1e-12, "1e-12"), (0.05, "0.05"),
     (-2.0, "-2"), (7.0, "7"), (0, "0"), (1.1e-8, "1.1e-8"), (1e6, "1e6")],
)
def test_bounds_print_as_the_reports_write_them(bound, text):
    assert verification.fmt_bound(bound) == text

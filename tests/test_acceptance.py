"""Acceptance gate: every criterion at its stated tolerance, one
pass/fail line printed per criterion (run pytest -s to see them live)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from svflow import cli, fieldcalc, verification
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
        return verification.CriterionResult(key, "memo probe", True, "", ("x",), [(1,)])

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
        run=lambda args, cfg, out: [criterion(verification.DEFAULT_SEED).key]
    )
    monkeypatch.setitem(cli._COMMANDS, "correlator", probe)
    assert run(["correlator", "--output", str(tmp_path)]) == 0
    assert run(["correlator", "--output", str(tmp_path)]) == 0
    assert [fresh for _, fresh, _ in seen] == [True, True]
    assert seen[0][0] is not seen[1][0]
    assert len({id(seen[0][2]), id(seen[1][2]), id(fieldcalc._PROGRAMS.get(None))}) == 3
    assert fieldcalc._DERIVATIVES.get() is None


@pytest.mark.parametrize(
    "name, argv",
    [
        ("flow", ["--field", "t;-r", "--vars", "t,r", "--point", "1,0.5",
                  "--rho", "0.4", "--charge", "0.3*t", "--psi", "t*r"]),
        ("primary", ["--eps", "1 + 0.1*t + 0.05*t^2", "--chi", "0.7", "--m", "1.3",
                     "--point", "0.5,1.2"]),
        ("virasoro", ["--max-index", "2", "--points", "4", "--seed", "7"]),
    ],
)
def test_cli_reports_match_golden(name, argv, tmp_path, capsys):
    # tests/golden/cli holds each subcommand's CSV and stdout, byte for byte
    golden = Path(__file__).parent / "golden" / "cli"
    assert run([name, *argv, "--output", str(tmp_path)]) == 0
    assert capsys.readouterr().out.encode() == (golden / f"{name}.stdout").read_bytes()
    assert (tmp_path / f"{name}.csv").read_bytes() == (golden / f"{name}.csv").read_bytes()


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

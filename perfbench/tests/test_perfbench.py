"""Tests of the benchmark itself: the tracer's self-time arithmetic and
wrapping, and a tiny-size smoke run of each workload.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def synthetic_tracer(spans) -> layertrace.Tracer:
    """A tracer holding the given (name, parent, start, end) spans."""
    tracer = layertrace.Tracer()
    for name, parent, start, end in spans:
        tracer.span_name.append(tracer.name_id(name))
        tracer.span_parent.append(parent)
        tracer.span_start.append(start)
        tracer.span_end.append(end)
    return tracer


# root [0, 10] holds a [1, 4] (which holds b [2, 3]) and a second a [5, 9]
TREE = [
    ("root", -1, 0.0, 10.0),
    ("a", 0, 1.0, 4.0),
    ("b", 1, 2.0, 3.0),
    ("a", 0, 5.0, 9.0),
]


def test_self_time_is_span_minus_children():
    parent = np.array([p for _, p, _, _ in TREE], dtype=np.int32)
    start = np.array([s for _, _, s, _ in TREE])
    end = np.array([e for _, _, _, e in TREE])
    own = layertrace.self_times(parent, start, end)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == 10.0


def test_layer_totals_count_each_second_once():
    tracer = synthetic_tracer(TREE)
    totals = tracer.layer_totals()
    assert totals == {"root": 3.0, "a": 6.0, "b": 1.0}
    assert sum(totals.values()) == tracer.top_level_seconds() == 10.0


def test_phase_metrics_add_setup_to_one_sweep():
    tracer = synthetic_tracer([
        (layertrace.SETUP_SPAN, -1, 0.0, 2.0),
        ("fieldcalc.parse_s", 0, 0.5, 1.5),
        (layertrace.OP_SPAN, -1, 3.0, 7.0),
        ("fieldcalc.eval_s", 2, 3.0, 6.0),
        (layertrace.OP_SPAN, -1, 8.0, 12.0),
        ("fieldcalc.eval_s", 4, 8.0, 11.0),
    ])
    zero = dict.fromkeys(tracer.counts, 0)
    start = layertrace.Mark(0, zero, dict(tracer.maxima))
    setup_done = layertrace.Mark(2, {**zero, "fieldcalc.parse_calls": 1},
                                 dict(tracer.maxima))
    stop = layertrace.Mark(6, {**zero, "fieldcalc.parse_calls": 1,
                               "fieldcalc.eval_calls": 4}, dict(tracer.maxima))
    out = layertrace.phase_metrics(tracer, start, setup_done, stop, sweeps=2)
    assert out["fieldcalc.parse_s"] == 1.0
    assert out["fieldcalc.eval_s"] == 3.0
    assert out["trace.unattributed_s"] == 1.0 + 1.0
    assert out["trace.traced_s"] == 2.0 + 4.0
    assert out["fieldcalc.parse_calls"] == 1.0
    assert out["fieldcalc.eval_calls"] == 2.0


def test_install_rebinds_names_where_callers_bound_them():
    from svflow import accframe, fieldcalc, flowexp, quadrature, svgen, verification

    originals = (fieldcalc.compile_expression, flowexp.compile_expression,
                 flowexp.evaluate, svgen.adaptive_simpson,
                 accframe.adaptive_simpson, verification.CRITERIA)
    installation = layertrace.install(layertrace.Tracer())
    try:
        assert flowexp.compile_expression is fieldcalc.compile_expression
        assert flowexp.compile_expression is not originals[0]
        assert flowexp.evaluate is fieldcalc.evaluate is not originals[2]
        assert svgen.adaptive_simpson is quadrature.adaptive_simpson
        assert accframe.adaptive_simpson is not originals[4]
        assert verification.CRITERIA != originals[5]
    finally:
        installation.uninstall()
    assert (fieldcalc.compile_expression, flowexp.compile_expression,
            flowexp.evaluate, svgen.adaptive_simpson,
            accframe.adaptive_simpson, verification.CRITERIA) == originals


def test_traced_layers_account_for_the_op():
    from svflow import fieldcalc, flowexp

    tracer = layertrace.Tracer()
    installation = layertrace.install(tracer)
    try:
        B = fieldcalc.vector_field(["0.4*t^2 + 0.6"], ("t",))
        C = fieldcalc.scalar_field("0.5*t", ("t",))
        psi = fieldcalc.scalar_field("t^2 + t", ("t",))
        x = fieldcalc.Point(("t",), (0.7,))
        tracer.active = True
        with tracer.span(layertrace.OP_SPAN):
            flowexp.series_terms(B, C, psi, x, 3)
            flowexp.apply_exponential(B, C, psi, x, 0.1)
        tracer.active = False
    finally:
        installation.uninstall()
    # recursion inside differentiate opens no span of its own
    assert tracer.counts["fieldcalc.differentiate_calls"] == 3
    assert tracer.counts["flowexp.flow_calls"] == 1
    assert tracer.counts["fieldcalc.eval_calls"] > 0
    totals = tracer.layer_totals()
    assert sum(totals.values()) == pytest.approx(tracer.top_level_seconds(), rel=1e-9)
    assert all(v >= 0.0 for v in totals.values())


def test_series_check_sees_term_six():
    ops = {op.name: op for op in workloads.SeriesDeep(3, bracket_max=0).ops(0)}
    op = ops["series_terms/exp1d"]
    terms = op.run()
    assert op.check(terms) is None
    for factor in (2.0, 0.0):
        wrong = list(terms)
        wrong[workloads.ORDER] *= factor
        assert op.check(wrong) is not None


def test_pointwise_draws_new_points_each_sweep():
    w = workloads.Pointwise(3, n_at=1, n_block=1, n_flow=1, n_primary=1)
    w.setup()
    first, second = w.ops(0), w.ops(1)
    assert [op.name for op in first] == [op.name for op in second]
    flows = [next(op for op in ops if op.name.startswith("apply_exponential/"))
             for ops in (first, second)]
    assert flows[0].run() != flows[1].run()


def test_tracer_computes_every_declared_layer_metric():
    assert set(layertrace.LAYER_METRICS) == set(PER_LAYER)


@pytest.mark.parametrize("workload", ["series_deep", "pointwise"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_in_process_run(workload, trace):
    outcome, metrics = run.run_in_process(
        workload, seed=3, seconds=0.0, trace=trace, tiny=True, setup_samples=1
    )
    result = run.report(workload, outcome, metrics, trace)
    assert result["failed"] == 0 and result["correct"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == (PER_LAYER if trace else END_TO_END)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_verify_all_traced_run_passes_every_criterion():
    outcome, layers = run.run_verify_all(seed=5, seconds=0.0, trace=True)
    assert outcome.attempted == 2 * len(run.CRITERIA)
    assert outcome.failed == 0
    assert layers["verification.c01_s"] > 0
    accounted = sum(layers[n] for n in layertrace.SELF_TIMES)
    assert accounted == pytest.approx(layers["trace.traced_s"], rel=1e-6)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pointwise",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

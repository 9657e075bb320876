"""Per-layer tracing of svflow from outside the package.

`install` replaces the public functions of each svflow module with thin
wrappers, everywhere a caller has bound them: `flowexp` binds
`compile_expression` and `evaluate` with `from .fieldcalc import ...`,
`svgen` and `accframe` bind `adaptive_simpson` the same way, and
`verification.run_all` iterates the `CRITERIA` tuple.  A wrapper records
a span (layer name, parent span, start, end) while the tracer is active
and calls straight through while it is not.  Spans stay in memory in
flat arrays; the self time of a layer is the duration of its spans minus
the part covered by their child spans, so every traced second belongs to
exactly one layer.

Layer names are the per-layer metric names of BENCHMARK.json.  Counts
are kept beside the spans at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Spans opened by the benchmark itself; their self time is code that no
# wrapped layer covers (benchmark glue and unwrapped svflow helpers).
SETUP_SPAN = "bench.setup"
OP_SPAN = "bench.op"
BENCH_SPANS = (SETUP_SPAN, OP_SPAN)
# Time spent computing counts that need a walk over the expression.
BOOKKEEPING_SPAN = "trace.bookkeeping_s"

TIME_LAYERS = (
    "fieldcalc.parse_s",
    "fieldcalc.differentiate_s",
    "fieldcalc.node_count_s",
    "fieldcalc.compile_s",
    "fieldcalc.eval_s",
    "flowexp.apply_operator_s",
    "flowexp.flow_s",
    "quadrature.s",
    "svgen.bracket_s",
    "svgen.primary_s",
    "geomcurv.bundle_build_s",
    "geomcurv.assembly_s",
    "geomcurv.block_s",
    "nrlimit.s",
    "accframe.solve_s",
    *(f"verification.c{k:02d}_s" for k in range(1, 11)),
    "verification.run_all_s",
    "verification.render_csv_s",
    "cli.s",
)

COUNTS = (
    "fieldcalc.parse_calls",
    "fieldcalc.differentiate_calls",
    "fieldcalc.compile_calls",
    "fieldcalc.compiled_nodes",
    "fieldcalc.eval_calls",
    "flowexp.flow_calls",
    "flowexp.rk4_steps",
    "quadrature.calls",
    "quadrature.integrand_evals",
    "geomcurv.bundle_builds",
    "geomcurv.at_calls",
    "accframe.iterations",
)
# Kept as a maximum, not a sum.
MAX_COUNTS = ("fieldcalc.max_tree_nodes",)
# Evaluations of compiled fields made inside a flow span.
_FLOW_EVALS = "flow_evals"

RATIOS = ("fieldcalc.evals_per_compile", "flowexp.field_evals_per_flow")
TRACE_METRICS = (
    "trace.overhead_frac",
    "trace.traced_s",
    "trace.unattributed_s",
    BOOKKEEPING_SPAN,
)

LAYER_METRICS = TIME_LAYERS + COUNTS + MAX_COUNTS + RATIOS + TRACE_METRICS
# Together these cover the traced time exactly once.
SELF_TIMES = TIME_LAYERS + ("trace.unattributed_s", BOOKKEEPING_SPAN)


class Tracer:
    """Span and count store for one traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = dict.fromkeys(COUNTS + (_FLOW_EVALS,), 0)
        self.maxima: dict[str, float] = dict.fromkeys(MAX_COUNTS, 0)
        self.active = False
        self.flow_depth = 0
        self.diff_depth = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        return _Span(self, self.name_id(name))

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    def peak(self, key: str, value: float) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def mark(self) -> "Mark":
        """Position that splits spans and counts into phases."""
        return Mark(len(self.span_start), dict(self.counts), dict(self.maxima))

    def layer_totals(self, lo: int = 0, hi: int | None = None) -> dict[str, float]:
        """Self time per span name over spans [lo, hi)."""
        if hi is None:
            hi = len(self.span_start)
        own = self_times(
            np.frombuffer(self.span_parent, dtype=np.int32),
            np.frombuffer(self.span_start, dtype=np.float64),
            np.frombuffer(self.span_end, dtype=np.float64),
        )
        names = np.frombuffer(self.span_name, dtype=np.int32)[lo:hi]
        sums = np.bincount(names, weights=own[lo:hi], minlength=len(self.names))
        return {name: float(sums[i]) for i, name in enumerate(self.names)}

    def top_level_seconds(self, lo: int = 0, hi: int | None = None) -> float:
        """Total duration of the spans in [lo, hi) that have no parent."""
        if hi is None:
            hi = len(self.span_start)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)[lo:hi]
        dur = (
            np.frombuffer(self.span_end, dtype=np.float64)[lo:hi]
            - np.frombuffer(self.span_start, dtype=np.float64)[lo:hi]
        )
        return float(dur[parent < 0].sum())

    def dump(self, path) -> None:
        """Write every span to an .npz file: names plus four flat arrays."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


class _Span:
    def __init__(self, tracer: Tracer, name_id: int) -> None:
        self._tracer = tracer
        self._name_id = name_id
        self._index = -1

    def __enter__(self) -> "_Span":
        self._index = self._tracer.begin(self._name_id)
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.end(self._index)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the summed durations of the
    span's direct children.  Children of one span never overlap, because
    one thread runs them one after another."""
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - covered


class Mark:
    def __init__(self, index: int, counts: dict, maxima: dict) -> None:
        self.index = index
        self.counts = counts
        self.maxima = maxima


def phase_metrics(
    tracer: Tracer, start: Mark, setup_done: Mark, stop: Mark, sweeps: int
) -> dict[str, float]:
    """Per-layer metrics for one set-up plus one sweep.

    The set-up phase runs from `start` to `setup_done`; the op phase runs
    from `setup_done` to `stop`, holds `sweeps` sweeps and is divided by
    their number.
    """

    def per_sweep(setup_value: float, ops_value: float) -> float:
        return setup_value + ops_value / sweeps

    setup = tracer.layer_totals(start.index, setup_done.index)
    ops = tracer.layer_totals(setup_done.index, stop.index)
    out: dict[str, float] = {}
    for name in TIME_LAYERS + (BOOKKEEPING_SPAN,):
        out[name] = per_sweep(setup.get(name, 0.0), ops.get(name, 0.0))
    out["trace.unattributed_s"] = sum(
        per_sweep(setup.get(n, 0.0), ops.get(n, 0.0)) for n in BENCH_SPANS
    )
    out["trace.traced_s"] = per_sweep(
        tracer.top_level_seconds(start.index, setup_done.index),
        tracer.top_level_seconds(setup_done.index, stop.index),
    )
    counts = {
        k: per_sweep(
            setup_done.counts[k] - start.counts[k],
            stop.counts[k] - setup_done.counts[k],
        )
        for k in stop.counts
    }
    for k in COUNTS:
        out[k] = float(counts[k])
    for k in MAX_COUNTS:
        out[k] = float(stop.maxima[k])
    out["fieldcalc.evals_per_compile"] = _ratio(
        counts["fieldcalc.eval_calls"], counts["fieldcalc.compile_calls"]
    )
    out["flowexp.field_evals_per_flow"] = _ratio(
        counts[_FLOW_EVALS], counts["flowexp.flow_calls"]
    )
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# --------------------------------------------------------------------------
# Wrapping


class Installation:
    """Remembers every replaced binding so `uninstall` can restore it."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, original, wrapper) -> None:
        """Point every svflow module attribute bound to `original` at
        `wrapper`."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "svflow" or mod_name.startswith("svflow.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def _spanned(tracer: Tracer, fn, layer: str, after=None):
    """Wrapper that opens a `layer` span around `fn` while tracing;
    `after(result)` updates counts once the span is closed."""
    name_id = tracer.name_id(layer)
    begin, end = tracer.begin, tracer.end

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        index = begin(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            end(index)
        if after is not None:
            after(result)
        return result

    return wrapper


def install(tracer: Tracer) -> Installation:
    """Wrap the svflow layers for `tracer`.  svflow must be importable."""
    from svflow import (
        accframe,
        cli,
        fieldcalc,
        flowexp,
        geomcurv,
        nrlimit,
        quadrature,
        svgen,
        verification,
    )

    inst = Installation()
    orig_node_count = fieldcalc.node_count

    def wrap(module, attr: str, layer: str, after=None) -> None:
        original = getattr(module, attr)
        inst.rebind(original, _spanned(tracer, original, layer, after))

    # -- fieldcalc ---------------------------------------------------------
    wrap(fieldcalc, "parse_expression", "fieldcalc.parse_s",
         lambda r: tracer.count("fieldcalc.parse_calls"))
    wrap(fieldcalc, "node_count", "fieldcalc.node_count_s",
         lambda r: tracer.peak("fieldcalc.max_tree_nodes", r))
    wrap(fieldcalc, "evaluate", "fieldcalc.eval_s")

    differentiate = fieldcalc.differentiate
    diff_id = tracer.name_id("fieldcalc.differentiate_s")

    @functools.wraps(differentiate)
    def traced_differentiate(e, var):
        # recursive calls reach this wrapper too; only the outermost one
        # opens a span and counts
        if not tracer.active or tracer.diff_depth:
            return differentiate(e, var)
        tracer.diff_depth = 1
        index = tracer.begin(diff_id)
        try:
            return differentiate(e, var)
        finally:
            tracer.end(index)
            tracer.diff_depth = 0
            tracer.count("fieldcalc.differentiate_calls")

    inst.rebind(differentiate, traced_differentiate)

    compile_expression = fieldcalc.compile_expression
    compile_id = tracer.name_id("fieldcalc.compile_s")
    eval_id = tracer.name_id("fieldcalc.eval_s")
    book_id = tracer.name_id(BOOKKEEPING_SPAN)

    def traced_closure(run):
        @functools.wraps(run)
        def traced_run(env):
            if not tracer.active:
                return run(env)
            index = tracer.begin(eval_id)
            try:
                return run(env)
            finally:
                tracer.end(index)
                tracer.count("fieldcalc.eval_calls")
                if tracer.flow_depth:
                    tracer.count(_FLOW_EVALS)

        return traced_run

    @functools.wraps(compile_expression)
    def traced_compile(e):
        if not tracer.active:
            return compile_expression(e)
        index = tracer.begin(compile_id)
        try:
            run = compile_expression(e)
        finally:
            tracer.end(index)
        index = tracer.begin(book_id)
        nodes = orig_node_count(e)
        tracer.end(index)
        tracer.count("fieldcalc.compile_calls")
        tracer.count("fieldcalc.compiled_nodes", nodes)
        tracer.peak("fieldcalc.max_tree_nodes", nodes)
        return traced_closure(run)

    inst.rebind(compile_expression, traced_compile)

    # -- flowexp -----------------------------------------------------------
    wrap(flowexp, "apply_operator", "flowexp.apply_operator_s")
    flow_id = tracer.name_id("flowexp.flow_s")

    def flow_wrapper(fn):
        @functools.wraps(fn)
        def traced_flow(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if not tracer.flow_depth:
                tracer.count("flowexp.flow_calls")
            tracer.flow_depth += 1
            index = tracer.begin(flow_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)
                tracer.flow_depth -= 1

        return traced_flow

    for attr in ("integrate_flow", "flow_jacobian", "accumulate_phase",
                 "flow_with_phase", "pushforward_residual"):
        original = getattr(flowexp, attr, None)
        if original is not None:
            inst.rebind(original, flow_wrapper(original))
    rk4_run = getattr(flowexp, "_rk4_run", None)
    if rk4_run is not None:
        # private: the only place that knows how many RK4 steps ran,
        # step-doubling rounds included
        @functools.wraps(rk4_run)
        def counted_rk4(deriv, y0, rho, n, *args, **kwargs):
            if tracer.active:
                tracer.count("flowexp.rk4_steps", n)
            return rk4_run(deriv, y0, rho, n, *args, **kwargs)

        inst.replace(flowexp, "_rk4_run", counted_rk4)

    # -- quadrature --------------------------------------------------------
    simpson = quadrature.adaptive_simpson
    quad_id = tracer.name_id("quadrature.s")

    @functools.wraps(simpson)
    def traced_simpson(f, *args, **kwargs):
        if not tracer.active:
            return simpson(f, *args, **kwargs)

        def counted(x):
            tracer.counts["quadrature.integrand_evals"] += 1
            return f(x)

        tracer.count("quadrature.calls")
        index = tracer.begin(quad_id)
        try:
            return simpson(counted, *args, **kwargs)
        finally:
            tracer.end(index)

    inst.rebind(simpson, traced_simpson)

    # -- svgen ---------------------------------------------------------------
    wrap(svgen, "bracket_residual", "svgen.bracket_s")
    for attr in ("primary_transform", "primary_vs_flow_residual",
                 "weight_form_residual", "solve_tprime"):
        wrap(svgen, attr, "svgen.primary_s")

    # -- geomcurv ------------------------------------------------------------
    bundle = geomcurv.CurvatureBundle
    inst.replace(bundle, "__init__", _spanned(
        tracer, bundle.__init__, "geomcurv.bundle_build_s",
        lambda r: tracer.count("geomcurv.bundle_builds")))
    inst.replace(bundle, "at", _spanned(
        tracer, bundle.at, "geomcurv.assembly_s",
        lambda r: tracer.count("geomcurv.at_calls")))
    for attr in ("riemann_block", "mixed_block", "ricci_block", "scalar_block"):
        factory = getattr(geomcurv, attr)

        def traced_factory(*args, _factory=factory, **kwargs):
            # building the formula's block pieces is bundle building; the
            # returned evaluator is the block layer
            evaluator = _factory(*args, **kwargs)
            return _spanned(tracer, evaluator, "geomcurv.block_s")

        inst.rebind(factory, _spanned(
            tracer, functools.wraps(factory)(traced_factory),
            "geomcurv.bundle_build_s"))

    # -- nrlimit, accframe -----------------------------------------------------
    for attr in ("lift_expression", "lift_wavefunction", "contraction_residual",
                 "kg_diffusion_residual", "diffusion_defect_scaling",
                 "heat_kernel", "barut_flow_identity"):
        wrap(nrlimit, attr, "nrlimit.s")
    wrap(accframe, "proper_time", "accframe.solve_s")
    wrap(accframe, "solve_frame_map", "accframe.solve_s",
         lambda r: tracer.count("accframe.iterations", r.iterations))

    # -- verification and the CLI ------------------------------------------------
    criteria = []
    for k, fn in enumerate(verification.CRITERIA, start=1):
        wrapped = _spanned(tracer, fn, f"verification.c{k:02d}_s")
        inst.rebind(fn, wrapped)
        criteria.append(wrapped)
    inst.replace(verification, "CRITERIA", tuple(criteria))
    wrap(verification, "run_all", "verification.run_all_s")
    wrap(verification, "render_csv", "verification.render_csv_s")
    wrap(cli, "run", "cli.s")
    return inst

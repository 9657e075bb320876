"""svflow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload for S seconds from the root of a source checkout, with
svflow imported from ./src, as a closed loop: one client, one op at a
time, no extra threads.  The seed only selects inputs.  Every op's result
is checked against an independent route outside its timing; a failed op
stays in the latency sample.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
reports the per-layer metrics from a traced run (see layertrace.py).  The
last line of stdout is one JSON object; the lines before it print every
metric by name and unit.  Reports and span files go to
.bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("verify_all", "series_deep", "pointwise")
SETUP_SAMPLES = 5
# share of --seconds spent untraced in a --trace 1 run, for the overhead
UNTRACED_SHARE = 0.4
CHILD_TIMEOUT_S = 170.0
# every criterion verify-all must report as PASS
CRITERIA = (
    "c01_flow_factorization",
    "c02_key_lemma",
    "c03_virasoro_bracket",
    "c04_primary_transform",
    "c05_scale_form",
    "c06_nr_limit",
    "c07_barut_identity",
    "c08_curvature",
    "c09_frame",
    "c10_correlator",
    "c11_determinism",
)


class Outcome:
    """Latency samples and failures of the ops of one run, sweep by sweep."""

    def __init__(self) -> None:
        # op latencies, one list per sweep
        self.sweeps: list[list[float]] = []
        self.sweep_seconds: list[float] = []
        self.failed = 0
        self.first_failures: list[str] = []

    @property
    def attempted(self) -> int:
        return sum(len(sweep) for sweep in self.sweeps)

    def start_sweep(self) -> None:
        self.sweeps.append([])

    def record(self, name: str, seconds: float, problem: str | None) -> None:
        self.sweeps[-1].append(seconds)
        if problem is not None:
            self.failed += 1
            if len(self.first_failures) < 5:
                self.first_failures.append(f"{name}: {problem}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def end_to_end(outcome: Outcome, setup: list[float], rss_mb: float) -> dict:
    """Every sweep runs the same mix of ops, so each sweep's percentile
    falls on the same rank of that mix; the timings are means over the
    run's sweeps.  The host's speed switches between a fast and a slow
    state that each last tens of seconds: a mean moves smoothly with the
    share of the run spent in each, where a median jumps between them."""
    return {
        "wall_s": statistics.fmean(outcome.sweep_seconds),
        "setup_s": statistics.median(setup),
        "ops_per_s": outcome.attempted / sum(outcome.sweep_seconds),
        "op_p50_ms": 1e3 * statistics.fmean(
            statistics.median(sweep) for sweep in outcome.sweeps
        ),
        "op_p95_ms": 1e3 * statistics.fmean(
            percentile(sweep, 95) for sweep in outcome.sweeps
        ),
        "peak_rss_mb": rss_mb,
    }


def repeat(seconds: float, sweep, probe=None, probes: int = 0) -> list[float]:
    """Call sweep(0), sweep(1), ... at least once, and stop at the sweep
    boundary nearest to `seconds` of sweeping, judged by the mean sweep so
    far.  Between sweeps, call `probe` `probes` times, spread evenly over
    the run so that they sample the host's speed at its start, middle and
    end; probing does not count towards `seconds`.  Returns what the
    probes returned."""
    results: list[float] = []
    start = time.perf_counter()
    n = 0
    while n == 0 or (time.perf_counter() - start) * (1.0 + 0.5 / n) < seconds:
        share = (time.perf_counter() - start) / seconds if seconds > 0 else 1.0
        while len(results) < probes and len(results) <= share * probes:
            t0 = time.perf_counter()
            results.append(probe())
            start += time.perf_counter() - t0
        sweep(n)
        n += 1
    while len(results) < probes:
        results.append(probe())
    return results


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its inputs being built."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0", "--probe-setup"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        status = proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or status != 0:
        raise RuntimeError(f"set-up probe of {workload} failed with status {status}")
    return elapsed


def build_inputs(workload: str, seed: int, tiny: bool = False):
    """The workload's inputs; for verify_all the CLI imported and its
    arguments parsed, which is all a verify-all process sets up before
    its first criterion."""
    if workload == "verify_all":
        from svflow import cli

        return cli.build_parser().parse_args(["verify-all", "--seed", str(seed)])
    import workloads

    cls = workloads.WORKLOADS[workload]
    if tiny:
        sizes = (
            {"bracket_max": 1} if workload == "series_deep"
            else {"n_at": 1, "n_block": 1, "n_flow": 1, "n_primary": 1}
        )
        inputs = cls(seed, **sizes)
    else:
        inputs = cls(seed)
    inputs.setup()
    return inputs


# --------------------------------------------------------------------------
# In-process workloads


def run_sweeps(inputs, seconds: float, outcome: Outcome, tracer=None,
               probe=None, probes: int = 0) -> list[float]:
    """Repeat whole sweeps until `seconds` have passed, with `probes` calls
    of `probe` spread over them (see repeat); returns the probe results.
    With a tracer, each op runs inside an op span with tracing active and
    its check runs with tracing off."""
    op_id = tracer.name_id("bench.op") if tracer is not None else None

    def sweep(n: int) -> None:
        ops = inputs.ops(n)
        # every sweep starts from the same collector state, so collections
        # fall at the same points of every sweep
        gc.collect()
        outcome.sweep_seconds.append(run_sweep(ops, outcome, tracer, op_id))

    return repeat(seconds, sweep, probe, probes)


def run_sweep(ops, outcome: Outcome, tracer, op_id) -> float:
    """Run one sweep's ops; returns their summed time."""
    outcome.start_sweep()
    total = 0.0
    for op in ops:
        if tracer is not None:
            tracer.active = True
            span = tracer.begin(op_id)
        t0 = time.perf_counter()
        try:
            result = op.run()
            problem = None
        except Exception as err:  # an op that raises is a failed op
            result = None
            problem = f"{type(err).__name__}: {err}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(span)
            tracer.active = False
        if problem is None:
            problem = op.check(result)
        outcome.record(op.name, elapsed, problem)
        total += elapsed
    return total


def run_in_process(workload: str, seed: int, seconds: float, trace: bool,
                   tiny: bool = False, setup_samples: int = SETUP_SAMPLES):
    outcome = Outcome()
    if not trace:
        inputs = build_inputs(workload, seed, tiny)
        inputs.prepare_checks()
        setup = run_sweeps(inputs, seconds, outcome,
                           probe=lambda: probe_setup(workload, seed),
                           probes=setup_samples)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return outcome, end_to_end(outcome, setup, rss)

    import layertrace

    inputs = build_inputs(workload, seed, tiny)
    inputs.prepare_checks()
    run_sweeps(inputs, UNTRACED_SHARE * seconds, outcome)
    untraced = statistics.median(outcome.sweep_seconds)

    traced_outcome = Outcome()
    tracer = layertrace.Tracer()
    installation = layertrace.install(tracer)
    try:
        start = tracer.mark()
        tracer.active = True
        with tracer.span(layertrace.SETUP_SPAN):
            inputs = build_inputs(workload, seed, tiny)
        tracer.active = False
        setup_done = tracer.mark()
        inputs.prepare_checks()
        run_sweeps(inputs, (1.0 - UNTRACED_SHARE) * seconds, traced_outcome, tracer)
        stop = tracer.mark()
    finally:
        installation.uninstall()
    layers = layertrace.phase_metrics(
        tracer, start, setup_done, stop, len(traced_outcome.sweeps)
    )
    layers["trace.overhead_frac"] = (
        statistics.median(traced_outcome.sweep_seconds) / untraced - 1.0
    )
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.dump(WORK / f"spans-{workload}.npz")
    outcome.sweeps += traced_outcome.sweeps
    outcome.failed += traced_outcome.failed
    outcome.first_failures += traced_outcome.first_failures
    return outcome, layers


# --------------------------------------------------------------------------
# verify_all: one `svflow verify-all` process per op batch


def run_cli(seed: int, trace: bool) -> tuple[float, dict | None, str, int]:
    """One verify-all process; returns wall seconds, its info record (None
    if it wrote none), its stdout and its exit status."""
    WORK.mkdir(parents=True, exist_ok=True)
    info_path = WORK / "verify_all-info.json"
    info_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "cli_child.py"), "--src", str(SRC),
           "--info", str(info_path)]
    if trace:
        cmd += ["--spans", str(WORK / "spans-verify_all.npz")]
    cmd += ["--", "verify-all", "--seed", str(seed),
            "--output", str(WORK / "reports")]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - start
    info = None
    if info_path.exists():
        info = json.loads(info_path.read_text(encoding="utf-8"))
    return wall, info, proc.stdout, proc.returncode


def record_verdicts(outcome: Outcome, wall: float, info: dict | None,
                    stdout: str, status: int) -> None:
    """Each criterion verdict is one op, timed by the criterion itself;
    one process is one sweep."""
    outcome.start_sweep()
    runtimes = info["runtimes"] if info else {}
    lines = stdout.splitlines()
    for key in CRITERIA:
        passed = status == 0 and any(ln.startswith(f"PASS {key} ") for ln in lines)
        problem = None if passed else f"no PASS line (exit status {status})"
        outcome.record(key, runtimes.get(key, wall), problem)


def run_verify_all(seed: int, seconds: float, trace: bool,
                   setup_samples: int = SETUP_SAMPLES):
    outcome = Outcome()
    if not trace:
        rss = 0.0

        def sweep(_: int) -> None:
            nonlocal rss
            wall, info, stdout, status = run_cli(seed, trace=False)
            record_verdicts(outcome, wall, info, stdout, status)
            outcome.sweep_seconds.append(wall)
            if info:
                rss = max(rss, info["peak_rss_mb"])

        setup = repeat(seconds, sweep, lambda: probe_setup("verify_all", seed),
                       setup_samples)
        return outcome, end_to_end(outcome, setup, rss)

    untraced: list[float] = []
    layer_runs: list[dict] = []
    traced: list[float] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for tracing in (False, True):
            wall, info, stdout, status = run_cli(seed, trace=tracing)
            record_verdicts(outcome, wall, info, stdout, status)
            (traced if tracing else untraced).append(wall)
            if tracing and info:
                layer_runs.append(info["layers"])
    if not layer_runs:
        raise RuntimeError("the traced verify-all process wrote no layer metrics")
    layers = {k: statistics.mean(r[k] for r in layer_runs) for k in layer_runs[0]}
    layers["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
    )
    return outcome, layers


# --------------------------------------------------------------------------


def report(workload: str, outcome: Outcome, metrics: dict, trace: bool) -> dict:
    """Print every metric by name and unit; return the result record."""
    attempted = outcome.attempted
    print(f"workload {workload}: {attempted} ops, {outcome.failed} failed "
          f"(ops_failed_frac = {outcome.failed / attempted:g})")
    for failure in outcome.first_failures:
        print(f"  FAILED {failure}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    if trace:
        import layertrace

        accounted = sum(metrics[name] for name in layertrace.SELF_TIMES)
        print(f"  self times of all layers sum to {accounted:.6g} s "
              f"of {metrics['trace.traced_s']:.6g} s traced per set-up and sweep")
    else:
        ops = len(outcome.sweeps[0])
        beyond = ops - math.ceil(0.95 * ops)
        print(f"  op_p95_ms has {beyond} of {ops} ops beyond it in each of "
              f"{len(outcome.sweeps)} sweeps")
    out = {}
    for name, unit in units.items():
        value = float(metrics[name])
        print(f"  {name:32s} {value:14.6g} {unit}")
        out[name] = {"value": value, "unit": unit}
    return {
        "correct": outcome.failed == 0,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": out,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="build the inputs, print 'ready' and exit")
    args = parser.parse_args(argv)

    if not (SRC / "svflow" / "__init__.py").is_file():
        print(f"perfbench: no svflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.probe_setup:
        build_inputs(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    trace = bool(args.trace)
    if args.workload == "verify_all":
        outcome, metrics = run_verify_all(args.seed, args.seconds, trace)
    else:
        outcome, metrics = run_in_process(args.workload, args.seed, args.seconds, trace)
    result = report(args.workload, outcome, metrics, trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

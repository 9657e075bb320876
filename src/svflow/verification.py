"""The acceptance suite: one function per criterion, shared by the CLI
and the test suite.

Every criterion runs fixed, versioned cases at pinned tolerances and
returns a CriterionResult carrying a pass flag, a human-readable detail
line, and the rows of its CSV report.  Randomness enters only through an
explicit seed, so two runs with the same seed produce byte-identical
reports.

One numerically forced accommodation, documented here on purpose: the
seventh-order convergence fit for the flow factorization excludes
samples whose flow-vs-series difference sits below 1e-12.  At the stated
case scales the true difference near rho = 1e-3 is ~1e-21, far below
one ulp of the operands, so those samples measure double-precision
rounding, not convergence order.  The fit keeps every sample that
carries signal and still spans five decades of difference.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import accframe, flowexp, geomcurv, nrlimit, svgen
from .fieldcalc import (
    Point,
    ScalarField,
    VectorField,
    derivative_memo,
    scalar_field,
    vector_field,
)
from .flowexp import Tolerance

FIT_FLOOR = 1e-12
FIT_RHOS = tuple(float(r) for r in np.geomspace(1e-3, 1e-1, 9))
TIGHT = Tolerance(absolute=1e-13, relative=1e-13)
DEFAULT_SEED = 42

RUNTIME_BUDGETS = {
    "c01_flow_factorization": 10.0,
    "c03_virasoro_bracket": 30.0,
    "c08_curvature": 60.0,
    "c09_frame": 30.0,
}


@dataclass
class CriterionResult:
    key: str
    title: str
    passed: bool
    detail: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    runtime_s: float = 0.0

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


def fmt_csv_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_csv(columns, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([fmt_csv_value(v) for v in row])
    return buf.getvalue().encode("utf-8")


# --------------------------------------------------------------------------
# Fixed case suites


@dataclass(frozen=True)
class FlowCase:
    name: str
    B: VectorField
    C: ScalarField
    psi: ScalarField
    x: Point


def flow_cases() -> list[FlowCase]:
    """Five fixed polynomial/exponential cases in dimensions 1 to 3,
    scaled so the seventh-order term is measurable in doubles."""
    return [
        FlowCase(
            "poly1d",
            vector_field(["0.4*t^2 + 0.6"], ("t",)),
            scalar_field("0.5*t", ("t",)),
            scalar_field("t^2 + t", ("t",)),
            Point(("t",), (0.7,)),
        ),
        FlowCase(
            "exp1d",
            vector_field(["0.8*t"], ("t",)),
            scalar_field("0.4*t", ("t",)),
            scalar_field("exp(0.5*t)", ("t",)),
            Point(("t",), (0.9,)),
        ),
        FlowCase(
            "rot2d",
            vector_field(["r", "-t"], ("t", "r")),
            scalar_field("0.4*t*r", ("t", "r")),
            scalar_field("t^2 + 0.5*r^2 + t", ("t", "r")),
            Point(("t", "r"), (0.8, 0.5)),
        ),
        FlowCase(
            "shear2d",
            vector_field(["0.7*t + 0.3*r", "0.5*r"], ("t", "r")),
            scalar_field("0.6*r", ("t", "r")),
            scalar_field("exp(0.3*t) * r", ("t", "r")),
            Point(("t", "r"), (0.6, 0.9)),
        ),
        FlowCase(
            "mix3d",
            vector_field(["v", "0.6*w", "0.5*u"], ("u", "v", "w")),
            scalar_field("0.5*u + 0.3*v*w", ("u", "v", "w")),
            scalar_field("u*v + w^2 + u", ("u", "v", "w")),
            Point(("u", "v", "w"), (0.5, 0.7, 0.6)),
        ),
    ]


def _fit_slope(rhos, diffs, floor=FIT_FLOOR):
    kept = [(rho, d) for rho, d in zip(rhos, diffs) if d > floor]
    if len(kept) < 3:
        return None
    return nrlimit.log_log_slope([rho for rho, _ in kept], [d for _, d in kept])


# --------------------------------------------------------------------------
# Criteria 1..11


def criterion_flow_factorization(seed: int = DEFAULT_SEED) -> CriterionResult:
    rows = []
    passed = True
    details = []
    for case in flow_cases():
        terms = flowexp.series_terms(case.B, case.C, case.psi, case.x, 6)
        diffs = []
        for rho in FIT_RHOS:
            lhs = flowexp.apply_exponential(
                case.B, case.C, case.psi, case.x, rho, TIGHT
            )
            rhs = sum(
                rho**n / math.factorial(n) * terms[n] for n in range(7)
            )
            d = abs(lhs - rhs)
            diffs.append(d)
            rows.append((case.name, rho, d))
        slope = _fit_slope(FIT_RHOS, diffs)
        ok = (
            slope is not None
            and abs(slope - 7.0) <= 0.3
            and diffs[-1] <= 1e-7
        )
        passed &= ok
        rows.append((case.name, "slope", slope if slope is not None else math.nan))
        details.append(f"{case.name}: slope={slope:.3f} diff(0.1)={diffs[-1]:.2e}")
    return CriterionResult(
        key="c01_flow_factorization",
        title="flow factorization: |exp route - series order 6| ~ rho^7",
        passed=passed,
        detail="; ".join(details),
        columns=("case", "rho", "difference"),
        rows=rows,
    )


def criterion_key_lemma(seed: int = DEFAULT_SEED) -> CriterionResult:
    rows = []
    worst = 0.0
    for case in flow_cases():
        res = flowexp.pushforward_residual(case.B, case.x, 0.5)
        rows.append((case.name, res))
        worst = max(worst, res)
    return CriterionResult(
        key="c02_key_lemma",
        title="pushforward residual at rho = 0.5",
        passed=worst <= 1e-8,
        detail=f"worst residual {worst:.2e} (bound 1e-8)",
        columns=("case", "residual"),
        rows=rows,
    )


VIRASORO_TEST_FUNCTIONS = ("t^2 * r", "exp(t) * r^2", "t*r + r^3")


def virasoro_residuals(
    p: svgen.SVParams, seed: int, max_index: int = 3, n_points: int = 10
) -> list[tuple[int, int, float]]:
    """(m, n, worst bracket residual) for every monomial pair
    |m|, |n| <= max_index, over the three test functions at n_points
    seeded points."""
    rng = np.random.default_rng(seed)
    points = [
        Point(svgen.CHART, (float(rng.uniform(0.6, 1.6)), float(rng.uniform(0.5, 1.5))))
        for _ in range(n_points)
    ]
    tests = [scalar_field(s, svgen.CHART) for s in VIRASORO_TEST_FUNCTIONS]
    span = range(-max_index, max_index + 1)
    return [
        (m, n, max(
            svgen.bracket_residual(
                svgen.EpsilonFn.monomial(m), svgen.EpsilonFn.monomial(n),
                p, psi, points,
            )
            for psi in tests
        ))
        for m in span
        for n in span
    ]


def criterion_virasoro(seed: int = DEFAULT_SEED) -> CriterionResult:
    p = svgen.SVParams(m=1.3, chi=0.7, N=1.0)
    table = virasoro_residuals(p, seed)
    rows = [(m, n, res, seed) for m, n, res in table]
    worst = max(res for _, _, res in table)
    algebra_ok = all(
        svgen.monomial_bracket(m, n) == (float(m - n), m + n)
        for m in range(-3, 4)
        for n in range(-3, 4)
    )
    passed = worst <= 1e-8 and algebra_ok
    return CriterionResult(
        key="c03_virasoro_bracket",
        title="Virasoro bracket residuals, |m|,|n| <= 3",
        passed=passed,
        detail=f"worst residual {worst:.2e} (bound 1e-8); "
        f"monomial table {'exact' if algebra_ok else 'WRONG'}; seed {seed}",
        columns=("m", "n", "max_residual", "seed"),
        rows=rows,
    )


PRIMARY_EPS = svgen.EpsilonFn.from_coefficients({-1: 1.0, 0: 0.1, 1: 0.05})
PRIMARY_PARAMS = svgen.SVParams(m=1.3, chi=0.7, N=1.0)
PRIMARY_GRID_T = tuple(float(t) for t in np.linspace(0.2, 1.0, 5))
PRIMARY_GRID_R = tuple(float(r) for r in np.linspace(0.5, 2.0, 5))


def criterion_primary(seed: int = DEFAULT_SEED) -> CriterionResult:
    psi = scalar_field("exp(-r^2 / (1 + t^2))", svgen.CHART)
    rows = []
    worst = 0.0
    for t in PRIMARY_GRID_T:
        for r in PRIMARY_GRID_R:
            res = svgen.primary_vs_flow_residual(
                PRIMARY_EPS, PRIMARY_PARAMS, psi, t, r
            )
            worst = max(worst, res)
            rows.append((t, r, res))
    tr = svgen.primary_transform(
        svgen.EpsilonFn.monomial(0), PRIMARY_PARAMS, 1.0, 1.0, 1.0, TIGHT
    )
    closed = (
        abs(tr.t_prime - math.e),
        abs(tr.r_prime - math.sqrt(math.e)),
        abs(tr.prefactor - math.exp(PRIMARY_PARAMS.chi / 2.0)),
    )
    rows.append(("closed_form_t", "", closed[0]))
    rows.append(("closed_form_r", "", closed[1]))
    rows.append(("closed_form_prefactor", "", closed[2]))
    passed = worst <= 1e-7 and max(closed) <= 1e-10
    return CriterionResult(
        key="c04_primary_transform",
        title="primary transformation law vs flow route",
        passed=passed,
        detail=f"worst grid residual {worst:.2e} (bound 1e-7); "
        f"closed-form errors {max(closed):.2e} (bound 1e-10)",
        columns=("t", "r", "residual"),
        rows=rows,
    )


def criterion_scale_form(seed: int = DEFAULT_SEED) -> CriterionResult:
    rows = []
    worst_form = 0.0
    worst_jac = 0.0
    for t in PRIMARY_GRID_T:
        for r in PRIMARY_GRID_R:
            jac_res, defect = svgen.weight_form_terms(PRIMARY_EPS, PRIMARY_PARAMS, t, r)
            form_res = jac_res + defect
            worst_form = max(worst_form, form_res)
            worst_jac = max(worst_jac, jac_res)
            rows.append((t, r, form_res, jac_res))
    passed = worst_form <= 1e-8 and worst_jac <= 1e-8
    return CriterionResult(
        key="c05_scale_form",
        title="time-dependent-scale reformulation",
        passed=passed,
        detail=f"worst form residual {worst_form:.2e}, "
        f"worst dt'/dt residual {worst_jac:.2e} (bounds 1e-8)",
        columns=("t", "r", "form_residual", "jacobian_residual"),
        rows=rows,
    )


NR_TEST_FUNCTIONS = (
    "t",
    "exp(0.4*x + 0.3*t)",
    "sin(x) * exp(0.2*t)",
    "t^2 * x + x^3",
    "exp(-x^2) * (1 + t^2)",
)


def criterion_nr_limit(seed: int = DEFAULT_SEED) -> CriterionResult:
    p = nrlimit.RelParams(m=1.1, c=2.0, h=1.0)
    point = (0.5, 0.25, 0.8)
    rows = []
    worst = 0.0
    for text in NR_TEST_FUNCTIONS:
        psi = scalar_field(text, nrlimit.PSI_CHART)
        contraction = nrlimit.contraction_residual(psi, p, *point)
        kg = nrlimit.kg_diffusion_residual(psi, p, point)
        worst = max(worst, contraction, kg.identity_residual)
        rows.append((text, contraction, kg.identity_residual))
    heat = nrlimit.heat_kernel(nrlimit.RelParams(m=1.0, c=1.0, h=1.0))
    slope = nrlimit.diffusion_defect_scaling(
        heat,
        nrlimit.RelParams(m=1.0, c=1.0, h=1.0),
        [10.0, 100.0, 1000.0],
        (0.9, 0.0, 0.3),
    )
    rows.append(("heat_kernel_defect_slope", slope, ""))
    passed = worst <= 1e-10 and abs(slope + 2.0) <= 0.05
    return CriterionResult(
        key="c06_nr_limit",
        title="contraction and KG/diffusion identities, defect scaling",
        passed=passed,
        detail=f"worst identity residual {worst:.2e} (bound 1e-10); "
        f"defect slope {slope:.4f} (target -2 +- 0.05)",
        columns=("psi", "contraction_residual", "kg_identity_residual"),
        rows=rows,
    )


BARUT_CASES = (("1", 0.5), ("t", 1.0), ("1 + t^2", 0.3))


def criterion_barut(seed: int = DEFAULT_SEED) -> CriterionResult:
    p = nrlimit.RelParams(m=1.0, c=1.0, h=1.0)
    from .fieldcalc import parse_expression

    rows = []
    worst = 0.0
    for text, t_start in BARUT_CASES:
        f = parse_expression(text, ("t",))
        for rho in (0.25, 0.5):
            res = nrlimit.barut_flow_identity(f, p, t_start, rho, TIGHT)
            worst = max(worst, res)
            rows.append((text, rho, res))
    return CriterionResult(
        key="c07_barut_identity",
        title="reparametrized lift identity for f in {1, t, 1+t^2}",
        passed=worst <= 1e-8,
        detail=f"worst residual {worst:.2e} (bound 1e-8)",
        columns=("f", "rho", "residual"),
        rows=rows,
    )


BLOCK_RIEMANN_BOUND = 1e-7  # block Riemann formula against the direct pipeline


def block_riemann_failure(rep: geomcurv.BlockComparisonReport) -> str | None:
    """Why rep's block Riemann residual is above BLOCK_RIEMANN_BOUND, or None."""
    worst, bound = rep.max_residuals["riemann_block"], BLOCK_RIEMANN_BOUND
    return f"block Riemann residual {worst:.2e} above {bound:g}" if worst > bound else None


def criterion_curvature(seed: int = DEFAULT_SEED) -> CriterionResult:
    rows = []
    checks = []

    sphere = geomcurv.METRIC_SUITE["sphere_unit"]
    bundle = geomcurv.curvature_direct(sphere.metric)
    sphere_err = max(
        abs(bundle.at(env).scalar - 2.0) for env in sphere.sample_envs(8)
    )
    rows.append(("sphere_unit", "scalar_minus_2", -1, sphere_err))
    checks.append(("R(unit sphere) = 2", sphere_err <= 1e-9))

    sym_worst = 0.0
    for name in ("sphere_radius", "warped_exp", "offdiag_block", "cross_4d"):
        s = geomcurv.METRIC_SUITE[name]
        b = geomcurv.curvature_direct(s.metric)
        for k, env in enumerate(s.sample_envs(5)):
            R = b.at(env).riemann
            sym = max(
                float(np.max(np.abs(R + R.transpose(1, 0, 2, 3)))),
                float(np.max(np.abs(R + R.transpose(0, 1, 3, 2)))),
                float(np.max(np.abs(R - R.transpose(2, 3, 0, 1)))),
                float(
                    np.max(
                        np.abs(R + R.transpose(0, 2, 3, 1) + R.transpose(0, 3, 1, 2))
                    )
                ),
            )
            sym_worst = max(sym_worst, sym)
            rows.append((name, "riemann_symmetries", k, sym))
    checks.append(("Riemann symmetries", sym_worst <= 1e-9))

    eq37_ok, report_worst = True, dict.fromkeys(geomcurv.FORMULA_NAMES, 0.0)
    for name, s in geomcurv.METRIC_SUITE.items():
        rep = geomcurv.block_vs_direct_residual(s.metric, s.split, s.sample_envs(20))
        eq37_ok = block_riemann_failure(rep) is None and eq37_ok
        rows += [(name, *row) for row in rep.rows]
        report_worst = {k: max(v, rep.max_residuals[k]) for k, v in report_worst.items()}
    checks.append(("block Riemann formula vs direct", eq37_ok))

    prod = geomcurv.METRIC_SUITE["spheres_product"]
    expected = 2.0 / 1.3**2 + 2.0 / 0.7**2
    add_err = max(
        abs(geomcurv.curvature_direct(prod.metric).at(env).scalar - expected)
        for env in prod.sample_envs(6)
    )
    rows.append(("spheres_product", "additivity", -1, add_err))
    checks.append(("scalar additivity", add_err <= 1e-9))

    passed = all(ok for _, ok in checks)
    report_txt = ", ".join(f"{k}={v:.1e}" for k, v in report_worst.items())
    return CriterionResult(
        key="c08_curvature",
        title="curvature oracle gates and block-formula report",
        passed=passed,
        detail="; ".join(
            f"{label}: {'ok' if ok else 'FAIL'}" for label, ok in checks
        )
        + f"; informational residuals: {report_txt}",
        columns=("metric", "quantity", "point", "value"),
        rows=rows,
    )


def criterion_frame(seed: int = DEFAULT_SEED) -> CriterionResult:
    rows = []

    traj = accframe.Trajectory.from_formula("0.6*t", c=1.0)
    grid = accframe.GridSpec(0.0, 1.0, -1.0, 1.2, nt=200, nx=200)
    fm = accframe.solve_frame_map(
        traj, grid, Tolerance(absolute=1e-10, relative=1e-10)
    )
    gamma = 1.25
    T, X = np.meshgrid(fm.t_grid, fm.x_grid, indexing="ij")
    lorentz_err = max(
        float(np.max(np.abs(fm.x_prime - gamma * (X - 0.6 * T)))),
        float(np.max(np.abs(fm.t_prime - gamma * (T - 0.6 * X)))),
    )
    bx, bt = fm.boundary_residuals()
    rows.append(("lorentz_max_error", lorentz_err))
    rows.append(("boundary_x_residual", bx))
    rows.append(("boundary_t_residual", bt))

    acc = accframe.Trajectory.from_formula("0.25*t^2", c=1.0)
    closed = 0.5 * math.sqrt(0.75) + math.asin(0.5)
    tau_err = abs(accframe.proper_time(acc, 0.0, 1.0, TIGHT) - closed)
    rows.append(("proper_time_error", tau_err))

    passed = (
        fm.converged
        and lorentz_err <= 1e-6
        and tau_err <= 1e-9
        and bx <= 1e-8
        and bt <= 1e-8
    )
    return CriterionResult(
        key="c09_frame",
        title="accelerated-frame solver gates",
        passed=passed,
        detail=f"lorentz error {lorentz_err:.2e} (bound 1e-6); proper-time error "
        f"{tau_err:.2e} (bound 1e-9); boundary ({bx:.1e}, {bt:.1e}) (bound 1e-8); "
        f"converged={fm.converged} in {fm.iterations} iteration(s)",
        columns=("quantity", "value"),
        rows=rows,
    )


def criterion_correlator(seed: int = DEFAULT_SEED) -> CriterionResult:
    rng = np.random.default_rng(seed)
    pure = svgen.SVParams(m=0.0, chi=0.0)
    rows = []
    worst = 0.0
    for k in range(100):
        T = float(rng.uniform(0.5, 2.0))
        Tp = float(rng.uniform(0.5, 2.0))
        t = float(rng.uniform(-1.0, 1.0))
        r = float(rng.uniform(0.1, 2.0))
        d = int(rng.integers(3, 6))
        tp, rp = svgen.map_halfspace(t, r, T, Tp)
        corr = svgen.halfspace_correlator(tp, rp, pure, T, Tp, d)
        flat = (r**2 + t**2) ** (-(d - 2) / 2.0)
        err = abs(corr - flat) / abs(flat)
        worst = max(worst, err)
        rows.append((k, T, Tp, t, r, d, err, seed))
    special = svgen.halfspace_correlator(
        math.e, 0.0, svgen.SVParams(m=1.0, chi=0.0), 1.0, 1.0, 4
    )
    special_err = abs(special - 1.0)
    rows.append(("special_case", 1.0, 1.0, "", 0.0, 4, special_err, seed))
    passed = worst <= 1e-10 and special_err <= 1e-12
    return CriterionResult(
        key="c10_correlator",
        title="half-space correlator vs flat propagator composition",
        passed=passed,
        detail=f"worst composition error {worst:.2e} (bound 1e-10); "
        f"special-case error {special_err:.2e}; seed {seed}",
        columns=("case", "T", "T_prime", "t", "r", "d", "relative_error", "seed"),
        rows=rows,
    )


CRITERIA = (
    criterion_flow_factorization,
    criterion_key_lemma,
    criterion_virasoro,
    criterion_primary,
    criterion_scale_form,
    criterion_nr_limit,
    criterion_barut,
    criterion_curvature,
    criterion_frame,
    criterion_correlator,
)


def _csv_bundle(results: list[CriterionResult], seed: int) -> dict[str, bytes]:
    bundle = {f"{r.key}.csv": render_csv(r.columns, r.rows) for r in results}
    bundle["summary.csv"] = render_csv(
        ("criterion", "status", "detail", "seed"),
        [(r.key, r.status, r.detail, seed) for r in results],
    )
    return bundle


def _run_criterion(fn, seed: int) -> CriterionResult:
    # a fresh derivative memo per call: criteria and passes share no work;
    # runtime_s is the criterion call alone
    with derivative_memo():
        t0 = time.perf_counter()
        result = fn(seed)
        result.runtime_s = time.perf_counter() - t0
    return result


def run_all(seed: int = DEFAULT_SEED) -> tuple[list[CriterionResult], dict[str, bytes]]:
    """All eleven criteria.  The determinism criterion runs the other ten
    twice with the same seed and byte-compares their CSV payloads, so a
    full invocation costs two passes of the suite, each criterion call
    with its own derivative memo.  Returns the results plus the report
    files to write."""
    t0 = time.perf_counter()
    first = [_run_criterion(fn, seed) for fn in CRITERIA]
    second = [_run_criterion(fn, seed) for fn in CRITERIA]
    bundle1 = _csv_bundle(first, seed)
    bundle2 = _csv_bundle(second, seed)
    same = bundle1.keys() == bundle2.keys() and all(
        bundle1[k] == bundle2[k] for k in bundle1
    )
    det = CriterionResult(
        key="c11_determinism",
        title="two same-seed runs produce identical CSV bytes",
        passed=same,
        detail=f"{len(bundle1)} report files compared, "
        f"{'identical' if same else 'DIFFER'}; seed {seed}",
        columns=("file", "bytes", "identical"),
        rows=[
            (k, len(v), bundle1[k] == bundle2.get(k))
            for k, v in sorted(bundle1.items())
        ],
        runtime_s=time.perf_counter() - t0,
    )
    results = first + [det]
    return results, _csv_bundle(results, seed)

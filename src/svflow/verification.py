"""The acceptance suite: one function per criterion, shared by the CLI
and the test suite.

Every criterion runs fixed, versioned cases at pinned tolerances and
returns a CriterionResult carrying its gates, a human-readable detail
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
    parse_expression,
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


# --------------------------------------------------------------------------
# Gates.  A gate is one pass/fail check of a claim: a measured value and
# its bound, passing when value <= bound.  Each bound is written once,
# here; the criteria check it on their fixed cases and the CLI
# subcommands on the user's values, through the same gate builders.

FLOW_ORDER = 7.0  # c01: the log-log slope of the factorization gap
FLOW_SLOPE_BOUND = 0.3  # c01: |slope - FLOW_ORDER|
FLOW_GAP_BOUND = 1e-7  # c01: the gap at rho = 0.1
KEY_LEMMA_BOUND = 1e-8  # c02
BRACKET_BOUND = 1e-8  # c03, virasoro
PRIMARY_FLOW_BOUND = 1e-7  # c04, primary
CLOSED_FORM_BOUND = 1e-10  # c04
WEIGHT_FORM_BOUND = 1e-8  # c05, primary: the form residual and dt'/dt alike
NR_IDENTITY_BOUND = 1e-10  # c06, nrlimit: contraction and KG identity alike
DEFECT_SLOPE = -2.0  # c06, nrlimit: the heat-kernel defect slope vs c
DEFECT_SLOPE_BOUND = 0.05  # |slope - DEFECT_SLOPE|
BARUT_BOUND = 1e-8  # c07
ORACLE_BOUND = 1e-9  # c08: unit sphere, Riemann symmetries, additivity
BLOCK_RIEMANN_BOUND = 1e-7  # c08, curvature --metric
LORENTZ_BOUND = 1e-6  # c09
PROPER_TIME_BOUND = 1e-9  # c09
FRAME_BOUNDARY_BOUND = 1e-8  # c09, frame: both boundary residuals
CORRELATOR_BOUND = 1e-10  # c10
SPECIAL_CASE_BOUND = 1e-12  # c10
PUSHFORWARD_TOL_FACTOR = 10  # flow: the bound in units of abs + rel tolerance
EXACT = 0  # a count of mismatches: c03's table, c09's convergence, c11's files


def fmt_bound(v: float) -> str:
    """A bound as the reports print it: 1e-8, 0.05, -2."""
    mantissa, e, exponent = f"{v:g}".partition("e")
    return mantissa + e + str(int(exponent)) if e else mantissa


@dataclass(frozen=True)
class Gate:
    label: str
    value: float  # an int for a count
    bound: float

    @property
    def passed(self) -> bool:
        return self.value <= self.bound

    def failure(self) -> str:
        value = self.value if isinstance(self.value, int) else f"{self.value:.3e}"
        return f"{self.label} {value} above {fmt_bound(self.bound)}"

    def report(self, what: str) -> str:
        return f"{what} {self.value:.2e} (bound {fmt_bound(self.bound)})"


def bracket_gate(worst: float) -> Gate:
    return Gate("bracket residual", worst, BRACKET_BOUND)


def primary_flow_gate(worst: float) -> Gate:
    return Gate("primary/flow residual", worst, PRIMARY_FLOW_BOUND)


def weight_form_gates(form: float, jacobian: float) -> list[Gate]:
    return [Gate("weight-form residual", form, WEIGHT_FORM_BOUND),
            Gate("dt'/dt residual", jacobian, WEIGHT_FORM_BOUND)]


def nr_identity_gates(contraction: float, kg_identity: float) -> list[Gate]:
    return [Gate("contraction residual", contraction, NR_IDENTITY_BOUND),
            Gate("KG identity residual", kg_identity, NR_IDENTITY_BOUND)]


def defect_slope_gate(slope: float) -> Gate:
    label = f"defect slope distance from {fmt_bound(DEFECT_SLOPE)}"
    return Gate(label, abs(slope - DEFECT_SLOPE), DEFECT_SLOPE_BOUND)


def block_riemann_gate(max_residuals: dict[str, float]) -> Gate:
    """From the max_residuals of one or more BlockComparisonReports."""
    worst = max_residuals["riemann_block"]
    return Gate("block Riemann formula vs direct", worst, BLOCK_RIEMANN_BOUND)


def frame_gates(converged: bool, bx: float, bt: float) -> list[Gate]:
    """A frame solve's convergence and its two boundary residuals."""
    return [Gate("unconverged frame solves", int(not converged), EXACT),
            Gate("boundary x' residual", bx, FRAME_BOUNDARY_BOUND),
            Gate("boundary t' residual", bt, FRAME_BOUNDARY_BOUND)]


def pushforward_gate(residual: float, tol: Tolerance) -> Gate:
    bound = PUSHFORWARD_TOL_FACTOR * (tol.absolute + tol.relative)
    return Gate("pushforward residual", residual, bound)


@dataclass
class CriterionResult:
    key: str
    title: str
    gates: list[Gate]
    detail: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    runtime_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(gate.passed for gate in self.gates)

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


def render_csv(columns, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else str(v) for v in row])
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


# name, chart, B's components, C, psi, start point
_FLOW_CASES = (
    ("poly1d", ("t",), ["0.4*t^2 + 0.6"], "0.5*t", "t^2 + t", (0.7,)),
    ("exp1d", ("t",), ["0.8*t"], "0.4*t", "exp(0.5*t)", (0.9,)),
    ("rot2d", ("t", "r"), ["r", "-t"], "0.4*t*r", "t^2 + 0.5*r^2 + t", (0.8, 0.5)),
    ("shear2d", ("t", "r"), ["0.7*t + 0.3*r", "0.5*r"], "0.6*r", "exp(0.3*t) * r", (0.6, 0.9)),
    ("mix3d", ("u", "v", "w"), ["v", "0.6*w", "0.5*u"], "0.5*u + 0.3*v*w", "u*v + w^2 + u",
     (0.5, 0.7, 0.6)),
)


def flow_cases() -> list[FlowCase]:
    """Five fixed polynomial/exponential cases in dimensions 1 to 3,
    scaled so the seventh-order term is measurable in doubles."""
    return [
        FlowCase(name, vector_field(B, chart), scalar_field(C, chart),
                 scalar_field(psi, chart), Point(chart, x))
        for name, chart, B, C, psi, x in _FLOW_CASES
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
    gates = []
    details = []
    for case in flow_cases():
        terms = flowexp.series_terms(case.B, case.C, case.psi, case.x, 6)
        diffs = []
        for rho in FIT_RHOS:
            lhs = flowexp.apply_exponential(case.B, case.C, case.psi, case.x, rho, TIGHT)
            rhs = flowexp.taylor_sum(terms, rho)
            d = abs(lhs - rhs)
            diffs.append(d)
            rows.append((case.name, rho, d))
        slope = _fit_slope(FIT_RHOS, diffs)
        distance = math.inf if slope is None else abs(slope - FLOW_ORDER)
        gates += [
            Gate(f"{case.name} slope distance from {fmt_bound(FLOW_ORDER)}", distance,
                 FLOW_SLOPE_BOUND),
            Gate(f"{case.name} gap at rho = 0.1", diffs[-1], FLOW_GAP_BOUND),
        ]
        slope = math.nan if slope is None else slope
        rows.append((case.name, "slope", slope))
        details.append(f"{case.name}: slope={slope:.3f} diff(0.1)={diffs[-1]:.2e}")
    return CriterionResult(
        key="c01_flow_factorization",
        title="flow factorization: |exp route - series order 6| ~ rho^7",
        gates=gates,
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
    gate = Gate("pushforward residual", worst, KEY_LEMMA_BOUND)
    return CriterionResult(
        key="c02_key_lemma",
        title="pushforward residual at rho = 0.5",
        gates=[gate],
        detail=gate.report("worst residual"),
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
    pairs = [(m, n) for m in span for n in span]
    eps = {m: svgen.EpsilonFn.monomial(m) for m in span}
    worst = svgen.bracket_residuals([(eps[m], eps[n]) for m, n in pairs], p, tests, points)
    return [(m, n, res) for (m, n), res in zip(pairs, worst)]


def criterion_virasoro(seed: int = DEFAULT_SEED) -> CriterionResult:
    p = svgen.SVParams(m=1.3, chi=0.7, N=1.0)
    table = virasoro_residuals(p, seed)
    rows = [(m, n, res, seed) for m, n, res in table]
    bracket = bracket_gate(max(res for _, _, res in table))
    span = range(-3, 4)
    wrong = sum(svgen.monomial_bracket(m, n) != (m - n, m + n) for m in span for n in span)
    monomials = Gate("monomial table mismatches", wrong, EXACT)
    return CriterionResult(
        key="c03_virasoro_bracket",
        title="Virasoro bracket residuals, |m|,|n| <= 3",
        gates=[bracket, monomials],
        detail=f"{bracket.report('worst residual')}; "
        f"monomial table {'exact' if monomials.passed else 'WRONG'}; seed {seed}",
        columns=("m", "n", "max_residual", "seed"),
        rows=rows,
    )


PRIMARY_EPS = svgen.EpsilonFn.from_coefficients({-1: 1.0, 0: 0.1, 1: 0.05})
PRIMARY_PARAMS = svgen.SVParams(m=1.3, chi=0.7, N=1.0)
PRIMARY_GRID_T = tuple(float(t) for t in np.linspace(0.2, 1.0, 5))
PRIMARY_GRID_R = tuple(float(r) for r in np.linspace(0.5, 2.0, 5))
PRIMARY_PSI = "exp(-r^2 / (1 + t^2))"  # c04, primary: the test function


def criterion_primary(seed: int = DEFAULT_SEED) -> CriterionResult:
    psi = scalar_field(PRIMARY_PSI, svgen.CHART)
    rows = []
    worst = 0.0
    for t in PRIMARY_GRID_T:
        for r in PRIMARY_GRID_R:
            res = svgen.primary_vs_flow_residual(PRIMARY_EPS, PRIMARY_PARAMS, psi, t, r)
            worst = max(worst, res)
            rows.append((t, r, res))
    eps_t = svgen.EpsilonFn.monomial(0)
    tr = svgen.primary_transform(eps_t, PRIMARY_PARAMS, 1.0, 1.0, 1.0, TIGHT)
    closed = (
        abs(tr.t_prime - math.e),
        abs(tr.r_prime - math.sqrt(math.e)),
        abs(tr.prefactor - math.exp(PRIMARY_PARAMS.chi / 2.0)),
    )
    for name, err in zip(("closed_form_t", "closed_form_r", "closed_form_prefactor"), closed):
        rows.append((name, "", err))
    flow = primary_flow_gate(worst)
    closed_form = Gate("closed-form error", max(closed), CLOSED_FORM_BOUND)
    return CriterionResult(
        key="c04_primary_transform",
        title="primary transformation law vs flow route",
        gates=[flow, closed_form],
        detail=f"{flow.report('worst grid residual')}; "
        f"{closed_form.report('closed-form errors')}",
        columns=("t", "r", "residual"),
        rows=rows,
    )


def criterion_scale_form(seed: int = DEFAULT_SEED) -> CriterionResult:
    rows = []
    worst_form = worst_jac = 0.0
    for t in PRIMARY_GRID_T:
        for r in PRIMARY_GRID_R:
            jac_res, defect = svgen.primary_transform(
                PRIMARY_EPS, PRIMARY_PARAMS, t, r).weight_form_terms()
            form_res = jac_res + defect
            worst_form = max(worst_form, form_res)
            worst_jac = max(worst_jac, jac_res)
            rows.append((t, r, form_res, jac_res))
    gates = weight_form_gates(worst_form, worst_jac)
    return CriterionResult(
        key="c05_scale_form",
        title="time-dependent-scale reformulation",
        gates=gates,
        detail=f"worst form residual {worst_form:.2e}, worst dt'/dt residual "
        f"{worst_jac:.2e} (bounds {fmt_bound(gates[0].bound)})",
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
    worst_contraction = worst_kg = 0.0
    for text in NR_TEST_FUNCTIONS:
        psi = scalar_field(text, nrlimit.PSI_CHART)
        contraction = nrlimit.contraction_residual(psi, p, *point)
        kg = nrlimit.kg_diffusion_residual(psi, p, point)
        worst_contraction = max(worst_contraction, contraction)
        worst_kg = max(worst_kg, kg.identity_residual)
        rows.append((text, contraction, kg.identity_residual))
    unit = nrlimit.RelParams(m=1.0, c=1.0, h=1.0)
    slope = nrlimit.diffusion_defect_scaling(
        nrlimit.heat_kernel(unit), unit, [10.0, 100.0, 1000.0], (0.9, 0.0, 0.3)
    )
    rows.append(("heat_kernel_defect_slope", slope, ""))
    identity = nr_identity_gates(worst_contraction, worst_kg)
    slope_gate = defect_slope_gate(slope)
    worst = max(worst_contraction, worst_kg)
    return CriterionResult(
        key="c06_nr_limit",
        title="contraction and KG/diffusion identities, defect scaling",
        gates=[*identity, slope_gate],
        detail=f"worst identity residual {worst:.2e} "
        f"(bound {fmt_bound(identity[0].bound)}); defect slope {slope:.4f} "
        f"(target {fmt_bound(DEFECT_SLOPE)} +- {fmt_bound(slope_gate.bound)})",
        columns=("psi", "contraction_residual", "kg_identity_residual"),
        rows=rows,
    )


BARUT_CASES = (("1", 0.5), ("t", 1.0), ("1 + t^2", 0.3))


def criterion_barut(seed: int = DEFAULT_SEED) -> CriterionResult:
    p = nrlimit.RelParams(m=1.0, c=1.0, h=1.0)
    rows = []
    worst = 0.0
    for text, t_start in BARUT_CASES:
        f = parse_expression(text, ("t",))
        for rho in (0.25, 0.5):
            res = nrlimit.barut_flow_identity(f, p, t_start, rho, TIGHT)
            worst = max(worst, res)
            rows.append((text, rho, res))
    gate = Gate("lift identity residual", worst, BARUT_BOUND)
    return CriterionResult(
        key="c07_barut_identity",
        title="reparametrized lift identity for f in {1, t, 1+t^2}",
        gates=[gate],
        detail=gate.report("worst residual"),
        columns=("f", "rho", "residual"),
        rows=rows,
    )


def criterion_curvature(seed: int = DEFAULT_SEED) -> CriterionResult:
    rows = []
    suite = geomcurv.METRIC_SUITE
    # one direct bundle per suite metric, shared by every check below
    direct = {name: geomcurv.curvature_direct(s.metric) for name, s in suite.items()}

    sphere_err = max(abs(direct["sphere_unit"].at(env).scalar - 2.0)
                     for env in suite["sphere_unit"].sample_envs(8))
    rows.append(("sphere_unit", "scalar_minus_2", -1, sphere_err))

    sym_worst = 0.0
    for name in ("sphere_radius", "warped_exp", "offdiag_block", "cross_4d"):
        for k, env in enumerate(suite[name].sample_envs(5)):
            R = direct[name].at(env).riemann
            sym = max(float(np.max(np.abs(defect))) for defect in (
                R + R.transpose(1, 0, 2, 3),
                R + R.transpose(0, 1, 3, 2),
                R - R.transpose(2, 3, 0, 1),
                R + R.transpose(0, 2, 3, 1) + R.transpose(0, 3, 1, 2),
            ))
            sym_worst = max(sym_worst, sym)
            rows.append((name, "riemann_symmetries", k, sym))

    report_worst = dict.fromkeys(geomcurv.FORMULA_NAMES, 0.0)
    for name, s in suite.items():
        rep = geomcurv.block_vs_direct_residual(direct[name], s.split, s.sample_envs(20))
        rows += [(name, *row) for row in rep.rows]
        report_worst = {k: max(v, rep.max_residuals[k]) for k, v in report_worst.items()}

    expected = 2.0 / 1.3**2 + 2.0 / 0.7**2
    add_err = max(abs(direct["spheres_product"].at(env).scalar - expected)
                  for env in suite["spheres_product"].sample_envs(6))
    rows.append(("spheres_product", "additivity", -1, add_err))

    gates = [
        Gate("R(unit sphere) = 2", sphere_err, ORACLE_BOUND),
        Gate("Riemann symmetries", sym_worst, ORACLE_BOUND),
        block_riemann_gate(report_worst),
        Gate("scalar additivity", add_err, ORACLE_BOUND),
    ]
    report_txt = ", ".join(f"{k}={v:.1e}" for k, v in report_worst.items())
    return CriterionResult(
        key="c08_curvature",
        title="curvature oracle gates and block-formula report",
        gates=gates,
        detail="; ".join(f"{g.label}: {'ok' if g.passed else 'FAIL'}" for g in gates)
        + f"; informational residuals: {report_txt}",
        columns=("metric", "quantity", "point", "value"),
        rows=rows,
    )


def criterion_frame(seed: int = DEFAULT_SEED) -> CriterionResult:
    traj = accframe.Trajectory.from_formula("0.6*t", c=1.0)
    grid = accframe.GridSpec(0.0, 1.0, -1.0, 1.2, nt=200, nx=200)
    fm = accframe.solve_frame_map(traj, grid, Tolerance(absolute=1e-10, relative=1e-10))
    gamma = 1.25
    T, X = np.meshgrid(fm.t_grid, fm.x_grid, indexing="ij")
    lorentz_err = max(
        float(np.max(np.abs(fm.x_prime - gamma * (X - 0.6 * T)))),
        float(np.max(np.abs(fm.t_prime - gamma * (T - 0.6 * X)))),
    )
    bx, bt = fm.boundary_residuals()

    acc = accframe.Trajectory.from_formula("0.25*t^2", c=1.0)
    closed = 0.5 * math.sqrt(0.75) + math.asin(0.5)
    tau_err = abs(accframe.proper_time(acc, 0.0, 1.0, TIGHT) - closed)
    rows = [
        ("lorentz_max_error", lorentz_err),
        ("boundary_x_residual", bx),
        ("boundary_t_residual", bt),
        ("proper_time_error", tau_err),
    ]
    lorentz = Gate("lorentz error", lorentz_err, LORENTZ_BOUND)
    tau = Gate("proper-time error", tau_err, PROPER_TIME_BOUND)
    solve = frame_gates(fm.converged, bx, bt)
    return CriterionResult(
        key="c09_frame",
        title="accelerated-frame solver gates",
        gates=[lorentz, tau, *solve],
        detail=f"{lorentz.report('lorentz error')}; {tau.report('proper-time error')}; "
        f"boundary ({bx:.1e}, {bt:.1e}) (bound {fmt_bound(solve[1].bound)}); "
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
    composition = Gate("composition error", worst, CORRELATOR_BOUND)
    return CriterionResult(
        key="c10_correlator",
        title="half-space correlator vs flat propagator composition",
        gates=[composition, Gate("special-case error", special_err, SPECIAL_CASE_BOUND)],
        detail=f"{composition.report('worst composition error')}; "
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
    differing = Gate(
        "differing report files",
        sum(bundle1.get(k) != bundle2.get(k) for k in bundle1.keys() | bundle2.keys()),
        EXACT,
    )
    det = CriterionResult(
        key="c11_determinism",
        title="two same-seed runs produce identical CSV bytes",
        gates=[differing],
        detail=f"{len(bundle1)} report files compared, "
        f"{'identical' if differing.passed else 'DIFFER'}; seed {seed}",
        columns=("file", "bytes", "identical"),
        rows=[(k, len(v), bundle1[k] == bundle2.get(k)) for k, v in sorted(bundle1.items())],
        runtime_s=time.perf_counter() - t0,
    )
    results = first + [det]
    return results, _csv_bundle(results, seed)

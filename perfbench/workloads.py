"""Inputs, ops and correctness checks of the in-process workloads.

An op is one call into svflow whose latency is measured; its check runs
afterwards, outside the timing, against an independent route.  A sweep is
the fixed list of ops a workload runs; the benchmark repeats sweeps until
its time is up.

series_deep builds large symbolic trees once per op.  Each sweep draws
fresh coefficients (within 10% of the fixed flow cases) and start points
from the seed, so no two sweeps share a tree: whatever a cache inside the
expression engine saves, it saves within one op, as it would for a user
who expands a series once.

pointwise builds small expressions once, in set-up, and evaluates them
at many seeded points.  Every sweep runs the same ops at points drawn
anew from the seed and the sweep number, so a cache keyed on points
cannot save work across sweeps either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from svflow import fieldcalc, flowexp, geomcurv, svgen
from svflow.fieldcalc import Point
from svflow.flowexp import Tolerance

TIGHT = Tolerance(absolute=1e-13, relative=1e-13)


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    # returns a failure message, or None when the result is correct
    check: Callable[[object], str | None]


def _within(label: str, value: float, bound: float) -> str | None:
    if math.isfinite(value) and value <= bound:
        return None
    return f"{label} {value:.3e} above bound {bound:.1e}"


# --------------------------------------------------------------------------
# Flow cases: the five cases of the c01 criterion, with their coefficients
# as parameters.  Templates keep the tree shapes of the fixed cases.

FLOW_CASES = (
    ("poly1d", ("t",), ("{a}*t^2 + {b}",), "{c}*t", "t^2 + t",
     {"a": 0.4, "b": 0.6, "c": 0.5}),
    ("exp1d", ("t",), ("{a}*t",), "{c}*t", "exp(0.5*t)",
     {"a": 0.8, "c": 0.4}),
    ("rot2d", ("t", "r"), ("r", "-t"), "{c}*t*r", "t^2 + 0.5*r^2 + t",
     {"c": 0.4}),
    ("shear2d", ("t", "r"), ("{a}*t + {b}*r", "{d}*r"), "{c}*r", "exp(0.3*t) * r",
     {"a": 0.7, "b": 0.3, "c": 0.6, "d": 0.5}),
    ("mix3d", ("u", "v", "w"), ("v", "{a}*w", "{b}*u"), "{c}*u + {d}*v*w",
     "u*v + w^2 + u", {"a": 0.6, "b": 0.5, "c": 0.5, "d": 0.3}),
)


@dataclass(frozen=True)
class FlowCase:
    name: str
    B: fieldcalc.VectorField
    C: fieldcalc.ScalarField
    psi: fieldcalc.ScalarField


def flow_cases(rng: np.random.Generator | None = None) -> list[FlowCase]:
    """The five flow cases; with `rng`, each coefficient is scaled by a
    factor drawn from [0.9, 1.1]."""
    cases = []
    for name, chart, b_texts, c_text, psi_text, coeffs in FLOW_CASES:
        values = {
            k: repr(v if rng is None else v * float(rng.uniform(0.9, 1.1)))
            for k, v in coeffs.items()
        }
        cases.append(FlowCase(
            name,
            fieldcalc.vector_field([b.format(**values) for b in b_texts], chart),
            fieldcalc.scalar_field(c_text.format(**values), chart),
            fieldcalc.scalar_field(psi_text, chart),
        ))
    return cases


def _point(chart, rng: np.random.Generator, lo: float, hi: float) -> Point:
    return Point(chart, tuple(float(v) for v in rng.uniform(lo, hi, len(chart))))


# --------------------------------------------------------------------------
# series_deep

# series_deep expands to this order.  Order 7 takes 10 to 12 s a sweep;
# order 8 on rot2d, shear2d and mix3d exceeds flowexp.DEFAULT_MAX_NODES.
ORDER = 6

# A series truncated after ORDER terms misses the flow F by the gap
# G(rho) = S(rho) - F(rho) = g7 rho^7 + g8 rho^8 + ...  The residual
# R = G(rho) - 2^7 G(rho/2) = g8 rho^8 / 2 + ... cancels the order-7 tail,
# while an error e in term n <= ORDER stays in R as
# e rho^n / n! * (2^(7-n) - 1), at least the wrong term's own size.
CHECK_RHO = 0.1
# Per flow case: 4 times the largest |R| measured over seeds 1-20, three
# sweeps each.  At CHECK_RHO the smallest term 6 measured is 17 to 68
# times that largest |R| for the series and 36 to 162 times for the
# displacement, so doubling or dropping any term up to order 6 fails.
SERIES_RESIDUAL_BOUND = {
    "poly1d": 3.8e-8, "exp1d": 6.4e-10, "rot2d": 3.1e-9,
    "shear2d": 1.1e-9, "mix3d": 1.3e-8,
}
DISPLACEMENT_RESIDUAL_BOUND = {
    "poly1d": 4.6e-10, "exp1d": 9.4e-12, "rot2d": 2.1e-11,
    "shear2d": 9.8e-12, "mix3d": 4.0e-12,
}


def series_residual(case: FlowCase, x: Point, terms) -> float:
    """|R| of the truncated series sum_n rho^n/n! terms[n] against the flow."""
    def gap(rho):
        truncated = sum(rho**n / math.factorial(n) * v for n, v in enumerate(terms))
        return truncated - flowexp.apply_exponential(
            case.B, case.C, case.psi, x, rho, TIGHT
        )

    return abs(gap(CHECK_RHO) - 2 ** (ORDER + 1) * gap(CHECK_RHO / 2))


def displacement_residual(case: FlowCase, x: Point, offsets) -> float:
    """|R| of the displacement series, with `offsets` its value at
    CHECK_RHO; its value at CHECK_RHO / 2 is computed here."""
    def gap(rho, offsets):
        end = flowexp.integrate_flow(case.B, x, rho, TIGHT).endpoint
        return np.array([a - (e - s) for a, e, s in zip(offsets, end.coords, x.coords)])

    half = flowexp.displacement_series(case.B, x, CHECK_RHO / 2, ORDER)
    residual = gap(CHECK_RHO, offsets) - 2 ** (ORDER + 1) * gap(CHECK_RHO / 2, half)
    return float(np.max(np.abs(residual)))


BRACKET_BOUND = 1e-8  # criterion c03
VIRASORO_TESTS = ("t^2 * r", "exp(t) * r^2", "t*r + r^3")


class SeriesDeep:
    """Series expansions of the flow cases up to ORDER, plus Virasoro
    bracket residuals over the monomial pairs |m|, |n| <= `bracket_max`."""

    def __init__(self, seed: int, bracket_max: int = 3):
        self.seed = seed
        self.bracket_max = bracket_max
        self._first: list[Op] | None = None

    def setup(self) -> None:
        self._first = self._build(0)

    def prepare_checks(self) -> None:
        pass

    def ops(self, sweep: int) -> list[Op]:
        if sweep == 0 and self._first is not None:
            return self._first
        return self._build(sweep)

    def _build(self, sweep: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, sweep])
        series = []
        for case in flow_cases(rng):
            x = _point(case.B.chart, rng, 0.5, 1.0)
            series.append(self._series_op(case, x))
            series.append(self._displacement_op(case, x))
        brackets = self._bracket_ops(rng)
        # Spread the short bracket ops between the long series ops, so
        # their latencies sample the whole sweep rather than its last
        # fraction of a second; the host's speed drifts over seconds.
        ops = []
        for k, op in enumerate(series):
            ops.append(op)
            ops.extend(brackets[k::len(series)])
        return ops

    @staticmethod
    def _series_op(case: FlowCase, x: Point) -> Op:
        return Op(
            f"series_terms/{case.name}",
            lambda: flowexp.series_terms(case.B, case.C, case.psi, x, ORDER),
            lambda terms: _within(
                "series residual", series_residual(case, x, terms),
                SERIES_RESIDUAL_BOUND[case.name],
            ),
        )

    @staticmethod
    def _displacement_op(case: FlowCase, x: Point) -> Op:
        return Op(
            f"displacement_series/{case.name}",
            lambda: flowexp.displacement_series(case.B, x, CHECK_RHO, ORDER),
            lambda offsets: _within(
                "displacement residual", displacement_residual(case, x, offsets),
                DISPLACEMENT_RESIDUAL_BOUND[case.name],
            ),
        )

    def _bracket_ops(self, rng: np.random.Generator) -> list[Op]:
        params = svgen.SVParams(
            m=float(rng.uniform(1.1, 1.5)), chi=float(rng.uniform(0.5, 0.9)), N=1.0
        )
        span = range(-self.bracket_max, self.bracket_max + 1)
        eps = {
            m: svgen.EpsilonFn.monomial(m, float(rng.uniform(0.8, 1.2))) for m in span
        }
        points = [
            Point(svgen.CHART, (float(rng.uniform(0.6, 1.6)), float(rng.uniform(0.5, 1.5))))
            for _ in range(10)
        ]
        tests = [fieldcalc.scalar_field(s, svgen.CHART) for s in VIRASORO_TESTS]
        ops = []
        for m in span:
            for n in span:
                # one op per pair, over the three test functions, as c03
                def run(a=eps[m], b=eps[n]):
                    return max(
                        svgen.bracket_residual(a, b, params, psi, points)
                        for psi in tests
                    )

                ops.append(Op(
                    f"bracket_residual/{m},{n}",
                    run,
                    lambda r: _within("bracket residual", r, BRACKET_BOUND),
                ))
        return ops


# --------------------------------------------------------------------------
# pointwise

SYMMETRY_BOUND = 1e-9     # criterion c08
SCALAR_BOUND = 1e-9       # criterion c08
BLOCK_RIEMANN_BOUND = 1e-7  # criterion c08
PUSHFORWARD_BOUND = 1e-8  # criterion c02
PRIMARY_BOUND = 1e-7      # criterion c04
WEIGHT_FORM_BOUND = 1e-8  # criterion c05
# apply_exponential at rho <= EXPONENTIAL_RHO against the order-5 series:
# the truncation term is below 1e-7 on these cases
EXPONENTIAL_RHO = 0.05
EXPONENTIAL_BOUND = 1e-6
ORACLE_ORDER = 5

# Closed-form scalar curvature of the suite metrics that have one.
_A, _B = 1.3, 0.7
EXACT_SCALAR = {
    "flat3": 0.0,
    "sphere_unit": 2.0,
    "sphere_radius": 2.0 / _A**2,
    "spheres_product": 2.0 / _A**2 + 2.0 / _B**2,
    "warped_exp": -6.0,
}

PRIMARY_EPS = {-1: 1.0, 0: 0.1, 1: 0.05}
PRIMARY_PSI = "exp(-r^2 / (1 + t^2))"


def riemann_symmetry_defect(R: np.ndarray) -> float:
    return max(
        float(np.max(np.abs(R + R.transpose(1, 0, 2, 3)))),
        float(np.max(np.abs(R + R.transpose(0, 1, 3, 2)))),
        float(np.max(np.abs(R - R.transpose(2, 3, 0, 1)))),
        float(np.max(np.abs(R + R.transpose(0, 2, 3, 1) + R.transpose(0, 3, 1, 2)))),
    )


def _envs(suite: geomcurv.SuiteMetric, rng: np.random.Generator, n: int):
    return [
        {name: float(rng.uniform(*suite.ranges[name])) for name in suite.metric.coords}
        for _ in range(n)
    ]


class Pointwise:
    """Curvature stacks of the metric suite and the flow, primary and
    weight-form residuals, each evaluated at seeded points."""

    def __init__(self, seed: int, n_at: int = 8, n_block: int = 4,
                 n_flow: int = 4, n_primary: int = 16):
        self.seed = seed
        self.n_at = n_at
        self.n_block = n_block
        self.n_flow = n_flow
        self.n_primary = n_primary
        self.suite: list[tuple[str, geomcurv.SuiteMetric, object, dict]] = []
        self.cases: list[FlowCase] = []
        self._oracle: dict[str, list[Callable]] = {}

    def setup(self) -> None:
        """Build every expression the ops evaluate."""
        self.suite = [
            (name, suite, geomcurv.curvature_direct(suite.metric), {
                "riemann_block": geomcurv.riemann_block(suite.metric, suite.split),
                "mixed_block": geomcurv.mixed_block(suite.metric, suite.split),
                "ricci_block": geomcurv.ricci_block(suite.metric, suite.split),
                "scalar_block": geomcurv.scalar_block(suite.metric, suite.split),
            })
            for name, suite in geomcurv.METRIC_SUITE.items()
        ]
        self.cases = flow_cases()
        self.eps = svgen.EpsilonFn.from_coefficients(PRIMARY_EPS)
        self.params = svgen.SVParams(m=1.3, chi=0.7, N=1.0)
        self.psi = fieldcalc.scalar_field(PRIMARY_PSI, svgen.CHART)

    def ops(self, sweep: int) -> list[Op]:
        """The same ops in every sweep, at points drawn anew per sweep."""
        rng = np.random.default_rng([self.seed, sweep])
        ops: list[Op] = []
        for name, suite, direct, blocks in self.suite:
            for env in _envs(suite, rng, self.n_at):
                ops.append(self._at_op(name, direct, env))
            for env in _envs(suite, rng, self.n_block):
                ops.append(self._block_op(name, suite.split, direct, blocks, env))
        for case in self.cases:
            for _ in range(self.n_flow):
                x = _point(case.B.chart, rng, 0.4, 1.0)
                rho = float(rng.uniform(0.02, EXPONENTIAL_RHO))
                ops.append(self._exponential_op(case, x, rho))
                x = _point(case.B.chart, rng, 0.4, 1.0)
                ops.append(self._pushforward_op(case, x, float(rng.uniform(0.3, 0.6))))
        eps, params, psi = self.eps, self.params, self.psi
        for _ in range(self.n_primary):
            t, r = float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.5, 2.0))
            ops.append(Op(
                "primary_vs_flow_residual",
                lambda t=t, r=r: svgen.primary_vs_flow_residual(eps, params, psi, t, r),
                lambda v: _within("primary residual", v, PRIMARY_BOUND),
            ))
            t, r = float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.5, 2.0))
            ops.append(Op(
                "weight_form_residual",
                lambda t=t, r=r: svgen.weight_form_residual(eps, params, t, r),
                lambda v: _within("weight form residual", v, WEIGHT_FORM_BOUND),
            ))
        return ops

    def prepare_checks(self) -> None:
        """Compile the series oracle of each flow case: the independent
        route for apply_exponential.  Not part of the measured set-up."""
        for case in self.cases:
            u = case.psi.expression
            terms = [fieldcalc.compile_expression(u)]
            for _ in range(ORACLE_ORDER):
                u = flowexp.apply_operator(case.B, case.C, u)
                terms.append(fieldcalc.compile_expression(u))
            self._oracle[case.name] = terms

    @staticmethod
    def _at_op(name: str, bundle, env) -> Op:
        def check(values):
            problem = _within(
                "Riemann symmetry defect",
                riemann_symmetry_defect(values.riemann), SYMMETRY_BOUND,
            )
            if problem is None and name in EXACT_SCALAR:
                problem = _within(
                    "scalar curvature error",
                    abs(values.scalar - EXACT_SCALAR[name]), SCALAR_BOUND,
                )
            return problem

        return Op(f"curvature_at/{name}", lambda: bundle.at(env), check)

    @staticmethod
    def _block_op(name: str, split, direct, blocks, env) -> Op:
        """The direct stack and the four block formulas at one point, as
        geomcurv.block_vs_direct_residual evaluates them per point, with
        the evaluators built once in set-up."""
        fi = np.array(split.first)

        def check(result):
            dv, block_values = result
            residual = float(np.max(np.abs(
                block_values["riemann_block"] - dv.riemann[np.ix_(fi, fi, fi, fi)]
            )))
            return _within("block Riemann residual", residual, BLOCK_RIEMANN_BOUND)

        return Op(
            f"block_vs_direct/{name}",
            lambda: (direct.at(env), {k: f(env) for k, f in blocks.items()}),
            check,
        )

    def _exponential_op(self, case: FlowCase, x: Point, rho: float) -> Op:
        def check(value):
            env = x.env()
            series = sum(
                rho**n / math.factorial(n) * term(env)
                for n, term in enumerate(self._oracle[case.name])
            )
            return _within("exponential vs series gap", abs(value - series),
                           EXPONENTIAL_BOUND)

        return Op(
            f"apply_exponential/{case.name}",
            lambda: flowexp.apply_exponential(case.B, case.C, case.psi, x, rho),
            check,
        )

    @staticmethod
    def _pushforward_op(case: FlowCase, x: Point, rho: float) -> Op:
        return Op(
            f"pushforward_residual/{case.name}",
            lambda: flowexp.pushforward_residual(case.B, x, rho),
            lambda v: _within("pushforward residual", v, PUSHFORWARD_BOUND),
        )


WORKLOADS = {"series_deep": SeriesDeep, "pointwise": Pointwise}

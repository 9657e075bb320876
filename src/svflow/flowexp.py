"""Flows of vector fields and the factorized operator exponential.

The central statement being verified: applying exp(rho (B + C)) to a
smooth test function psi equals exp(T(x, rho)) * psi(x'(x, rho)), where
x' is the flow of B alone and T is the integral of C along that flow.
integrate_flow computes the flow, and on request the phase T and the
Jacobian (variational system), in one augmented run.  On top of it sit
the factorized exponential and the pushforward residual of the flow's
defining lemma; two independent series oracles check both.

Integration is classic fixed-step RK4 with a step-doubling Richardson
error estimate: deterministic and reproducible.  The phase and Jacobian
ride along as extra state variables of the same integrator, so flow and
quadrature share identical nodes.  The x-update never reads the extra
state, which keeps the flow endpoint bitwise independent of C.

The derivative of the state, the variational product (dB/dx) J included,
is one compiled program over the state list: RK4 runs on Python floats, the
Jacobian rounds alike on every host, and numpy only estimates the error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fieldcalc as fc
from .fieldcalc import (
    DomainError,
    Expression,
    Point,
    ScalarField,
    SvflowError,
    VectorField,
    compile_expression,  # unused here; perfbench/tests asserts the tracer rebinds it
    evaluate,
)

DEFAULT_BLOWUP_BOUND = 1e12
DEFAULT_MAX_ORDER = 8
# Budget on the distinct nodes (fieldcalc.node_count) of one expanded term.
DEFAULT_MAX_NODES = 2_000_000


class FlowError(SvflowError):
    pass


class StepLimitError(FlowError):
    """Step doubling hit the max-steps cap before reaching the tolerance."""


class BlowupError(FlowError):
    """A coordinate left the configured bound (or overflowed) during the flow."""


class SeriesOrderError(FlowError):
    """Requested expansion order above the configured maximum."""


class ExpressionSizeError(FlowError):
    """Symbolic expansion exceeded the budget of distinct nodes."""


@dataclass(frozen=True)
class Tolerance:
    absolute: float = 1e-10
    relative: float = 1e-9
    max_steps: int = 10**6

    def __post_init__(self):
        if self.absolute <= 0 or self.relative <= 0 or self.max_steps <= 0:
            raise ValueError("tolerance fields must be positive")


DEFAULT_TOLERANCE = Tolerance()


@dataclass(frozen=True)
class FlowResult:
    """One augmented run: the endpoint x', the phase T (0.0 without a
    charge) and, on request, the Jacobian dx'/dx."""

    endpoint: Point
    phase: float
    steps: int
    estimated_error: float
    jacobian: np.ndarray | None = None

    def factorized(self, psi: ScalarField) -> float:
        """exp(T) * psi(x'): the factorized exponential applied to psi."""
        return fc._eval_exp(self.phase) * psi.eval_at(self.endpoint)


def _require_same_chart(*objs):
    charts = {o.chart for o in objs if o is not None}
    if len(charts) > 1:
        raise ValueError(f"chart mismatch: {sorted(charts)}")


# --------------------------------------------------------------------------
# Core integrator


def _rk4_run(deriv, y0, rho, n, blowup_bound, n_coords):
    """n fixed RK4 steps from 0 to rho on a list of floats: each component
    sees the operations, in order, of y + (h/6)(k1 + 2 k2 + 2 k3 + k4)."""
    h = float(rho) / n
    half = 0.5 * h
    sixth = h / 6.0
    y = list(y0)
    for k in range(n):
        try:
            k1 = deriv(y)
            k2 = deriv([a + half * b for a, b in zip(y, k1)])
            k3 = deriv([a + half * b for a, b in zip(y, k2)])
            k4 = deriv([a + h * b for a, b in zip(y, k3)])
        except DomainError as err:
            if err.kind == "overflow":
                raise BlowupError(f"field evaluation overflowed: {err}") from err
            raise
        y = [
            a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        ]
        for v in y[:n_coords]:
            if not math.isfinite(v) or abs(v) > blowup_bound:
                raise BlowupError(
                    f"coordinate magnitude exceeded {blowup_bound:g} at step {k + 1}/{n}"
                )
    return y


def _integrate(deriv, y0, rho, tol, blowup_bound, n_coords, n_steps=None):
    """Step doubling over _rk4_run.  Returns (state, steps, est_error);
    the error estimate compares whole runs, once per round, on arrays."""
    if rho == 0.0:
        return np.array(y0, dtype=float), 0, 0.0
    if n_steps is not None:
        if n_steps < 2 or n_steps % 2 != 0:
            raise ValueError("n_steps must be a positive even integer")
        coarse = _rk4_run(deriv, y0, rho, n_steps // 2, blowup_bound, n_coords)
        fine = np.array(_rk4_run(deriv, y0, rho, n_steps, blowup_bound, n_coords))
        est = float(np.max(np.abs(fine - coarse))) / 15.0
        return fine, n_steps, est
    n = 8
    y_coarse = np.array(_rk4_run(deriv, y0, rho, n, blowup_bound, n_coords))
    while True:
        if 2 * n > tol.max_steps:
            raise StepLimitError(
                f"error estimate above tolerance at {n} steps (max {tol.max_steps})"
            )
        y_fine = np.array(_rk4_run(deriv, y0, rho, 2 * n, blowup_bound, n_coords))
        err = np.abs(y_fine - y_coarse) / 15.0
        scale = tol.absolute + tol.relative * np.abs(y_fine)
        if np.all(err <= scale):
            return y_fine, 2 * n, float(np.max(err))
        n *= 2
        y_coarse = y_fine


def _field_deriv(B: VectorField, C: ScalarField | None = None,
                 with_jacobian=False):
    """Derivative of the stacked state [x, T?, J?] of the augmented system:
    one program over [B..., C?, (dB/dx) J...] that reads the state list by
    position.  Entry (i, j) of the variational product sums
    dB^i/dx^k * J_kj over ascending k; the smart constructors drop the
    terms whose derivative is the constant zero."""
    d = B.dimension
    # names of the state beyond x: each is longer than every coordinate
    # name, so none can clash with the chart
    pad = "_" * max(map(len, B.chart))
    order = list(B.chart)
    exprs = list(B.components)
    if C is not None:
        order.append(pad + "T")
        exprs.append(C.expression)
    if with_jacobian:
        names = [f"{pad}J[{k},{j}]" for k in range(d) for j in range(d)]
        order += names
        for comp in B.components:
            grad = [fc.differentiate(comp, name) for name in B.chart]
            for j in range(d):
                entry = fc.ZERO
                for k in range(d):
                    entry = fc.add(entry, fc.mul(grad[k], fc.Var(names[k * d + j])))
                exprs.append(entry)
    return fc.compile_expressions(exprs, order)


# --------------------------------------------------------------------------
# Public operations


def integrate_flow(
    B: VectorField,
    x: Point,
    rho: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
    *,
    charge: ScalarField | None = None,
    jacobian: bool = False,
    blowup_bound: float = DEFAULT_BLOWUP_BOUND,
    n_steps: int | None = None,
) -> FlowResult:
    """Solve dx'/drho = B(x') from x over [0, rho] in one augmented run.

    With a charge C the phase T = integral of C along the flow rides along
    as an extra state variable; with jacobian=True so does the variational
    system dJ/drho = (dB/dx)(x') J, J(0) = identity, giving
    J^nu_mu = dx'^nu/dx^mu.  The step-doubling error estimate covers the
    whole state.  The x-update never reads the extra state, so at fixed
    n_steps the endpoint is bitwise the same in every mode.
    """
    _require_same_chart(B, charge)
    if x.chart != B.chart:
        raise ValueError(f"point chart {x.chart} does not match field {B.chart}")
    if not math.isfinite(rho):
        raise ValueError("rho must be finite")
    d = B.dimension
    y0 = list(x.coords)
    if charge is not None:
        y0.append(0.0)
    if jacobian:
        y0.extend(float(i == j) for i in range(d) for j in range(d))
    deriv = _field_deriv(B, charge, with_jacobian=jacobian)
    y, steps, est = _integrate(
        deriv, y0, rho, tol, blowup_bound, d, n_steps=n_steps
    )
    return FlowResult(
        endpoint=Point(B.chart, tuple(y[:d])),
        phase=float(y[d]) if charge is not None else 0.0,
        steps=steps,
        estimated_error=est,
        jacobian=y[-d * d:].reshape(d, d) if jacobian else None,
    )


def apply_exponential(
    B: VectorField,
    C: ScalarField | None,
    psi: ScalarField,
    x: Point,
    rho: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
    *,
    blowup_bound: float = DEFAULT_BLOWUP_BOUND,
) -> float:
    """exp(T(x, rho)) * psi(x'(x, rho)): the factorized exponential."""
    _require_same_chart(B, C, psi)
    return integrate_flow(B, x, rho, tol, charge=C, blowup_bound=blowup_bound).factorized(psi)


def apply_operator(B: VectorField, C: ScalarField | None,
                   u: Expression) -> Expression:
    """(B.d + C) u, exactly."""
    total: Expression | None = None
    for name, comp in zip(B.chart, B.components):
        term = fc.mul(comp, fc.differentiate(u, name))
        total = term if total is None else fc.add(total, term)
    if C is not None:
        total = fc.add(total, fc.mul(C.expression, u))
    return total


def series_terms(
    B: VectorField,
    C: ScalarField | None,
    psi: ScalarField,
    x: Point,
    order: int,
    *,
    max_order: int = DEFAULT_MAX_ORDER,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> list[float]:
    """Values ((B.d + C)^n psi)(x) for n = 0..order, by repeated exact
    symbolic application."""
    _require_same_chart(B, C, psi)
    if order < 0:
        raise ValueError("order must be non-negative")
    if order > max_order:
        raise SeriesOrderError(f"order {order} above configured maximum {max_order}")
    u = psi.expression
    values = [evaluate(u, x)]
    for _ in range(order):
        u = apply_operator(B, C, u)
        if fc.node_count(u) > max_nodes:
            raise ExpressionSizeError(
                f"series expansion exceeded {max_nodes} distinct nodes"
            )
        values.append(evaluate(u, x))
    return values


def series_oracle(
    B: VectorField,
    C: ScalarField | None,
    psi: ScalarField,
    x: Point,
    rho: float,
    order: int,
    *,
    max_order: int = DEFAULT_MAX_ORDER,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> float:
    """Truncated sum over rho^n / n! ((B.d + C)^n psi)(x)."""
    terms = series_terms(B, C, psi, x, order, max_order=max_order, max_nodes=max_nodes)
    return taylor_sum(terms, rho)


def taylor_sum(terms: list[float], rho: float) -> float:
    """sum_n rho^n / n! terms[n], added left to right.  Builtin sum()
    compensates float rounding from Python 3.12 on, so with it the
    reports would depend on the interpreter's version."""
    total = 0.0
    for n, v in enumerate(terms):
        total += rho**n / math.factorial(n) * v
    return total


def displacement_series(
    B: VectorField,
    x: Point,
    rho: float,
    order: int,
    *,
    max_order: int = DEFAULT_MAX_ORDER,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> tuple[float, ...]:
    """Truncated displacement A^mu(x) = sum_{n>=1} rho^n/n! ((B.d)^{n-1} B^mu)(x).

    Approximates (flow endpoint - x) to order rho^{order+1}.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > max_order:
        raise SeriesOrderError(f"order {order} above configured maximum {max_order}")
    offsets = []
    for comp in B.components:
        values = series_terms(B, None, ScalarField(B.chart, comp), x, order - 1,
                              max_order=max_order, max_nodes=max_nodes)
        offsets.append(taylor_sum([0.0, *values], rho))
    return tuple(offsets)


def pushforward_defect(B: VectorField, x: Point, flow: FlowResult) -> float:
    """max over nu of |B^nu(x') - sum_mu B^mu(x) dx'^nu/dx^mu| for a flow
    from x integrated with jacobian=True."""
    run = fc.compile_expressions(B.components)
    b_origin = np.array(run(x))
    b_end = np.array(run(flow.endpoint))
    return float(np.max(np.abs(b_end - flow.jacobian @ b_origin)))


def pushforward_residual(
    B: VectorField,
    x: Point,
    rho: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
    *,
    blowup_bound: float = DEFAULT_BLOWUP_BOUND,
) -> float:
    """The pushforward defect of the flow over [0, rho].

    Zero (to integrator accuracy) exactly when the flow pushes B forward
    onto itself, which is the lemma underlying the factorization.
    """
    flow = integrate_flow(B, x, rho, tol, jacobian=True, blowup_bound=blowup_bound)
    return pushforward_defect(B, x, flow)

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
is one compiled program over the state list, built once per field and memo
scope together with its RK4 stepper: one generated function that runs all
steps of a run with the state in local variables.  RK4 and step doubling
run on Python floats, so the Jacobian rounds alike on every host.  A
coordinate above BLOWUP_BOUND in magnitude ends the flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import reduce
from typing import Callable

import numpy as np

from . import fieldcalc as fc
from .fieldcalc import (
    DomainError,
    Expression,
    InputError,
    Point,
    ScalarField,
    SvflowError,
    VectorField,
    # neither is used here; perfbench/tests asserts the tracer rebinds both
    compile_expression,
    evaluate,
)

BLOWUP_BOUND = 1e12
DEFAULT_MAX_ORDER = 8
# Budget on the distinct nodes of all the expressions one series or bracket
# call builds, which is what its one program holds.
DEFAULT_MAX_NODES = 2_000_000


class FlowError(SvflowError):
    pass


class StepLimitError(FlowError):
    """Step doubling hit the max-steps cap before reaching the tolerance."""


class BlowupError(FlowError):
    """A coordinate left BLOWUP_BOUND (or overflowed) during the flow."""


class SeriesOrderError(FlowError, InputError):
    """Requested expansion order above the configured maximum."""


class ExpressionSizeError(FlowError):
    """Symbolic expansion exceeded the budget of distinct nodes."""


@dataclass(frozen=True)
class Tolerance:
    absolute: float = 1e-10
    relative: float = 1e-9
    max_steps: int = 10**6

    def __post_init__(self):
        fc._require_finite({f"tolerance {f.name}": getattr(self, f.name) for f in fields(self)})
        for f in fields(self):
            value = getattr(self, f.name)
            if not value > 0:
                raise InputError(f"tolerance {f.name} must be positive, got {value:g}")


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
        return fc._eval_mul(fc._eval_exp(self.phase), psi.eval_at(self.endpoint))


def _check_rho(rho: float) -> None:
    if not fc._is_finite("rho", rho):
        raise InputError("rho must be finite")


def _require_same_chart(*objs):
    charts = {o.chart for o in objs if o is not None}
    if len(charts) > 1:
        raise InputError(f"chart mismatch: {sorted(charts)}")


# --------------------------------------------------------------------------
# Core integrator


# MAX_STEPPER_OPS: a stepper that writes out the program's operations holds
# them four times, and its compile() peaks at about 36 KB per operation
# (96 ops 3.4 MB), against the 4 MB bound of fieldcalc.MAX_MEMO_OPS.  A
# larger program gets one call of its interpreter per stage instead, which
# generates itself as any other program does.  Measured on 2 cores with
# Python 3.11.7, a written-out stepper takes 0.76 to 3.6 ms to generate and
# an RK4 step 1.0 to 6.4 us against 11 to 27 us through four calls, so it
# pays back after 74 to 146 steps.  The 34 flow programs of run_all (0 to
# 13 operations) run 48 to 1,264 steps each, median 248: 41 ms of
# generation in all.
MAX_STEPPER_OPS = 96

# How each RK4 stage reads state variable k: the state, then the state
# plus a multiple of the previous stage's value.
_STAGE_LOADS = (
    lambda k: f"y{k}",
    lambda k: f"y{k} + half * k1_{k}",
    lambda k: f"y{k} + half * k2_{k}",
    lambda k: f"y{k} + h * k3_{k}",
)


def _stepper(program: fc._Program, n_coords: int) -> Callable:
    """step(state, rho, n, bound): n RK4 steps of y' = program(y) from 0 to
    rho with the state in local variables, where the program reads state
    variable k from env[k] and its root k is the derivative of y[k].  A
    stage writes out the program's operations, or for a program above
    MAX_STEPPER_OPS operations calls program.interpret on the stage's
    state.  Every component sees the operations, in order, of
    y + (h/6)(((k1 + 2 k2) + 2 k3) + k4), so both kinds give bitwise the
    same values and first error.  Returns (state, 0), or (None, k) when
    after step k one of the first n_coords components is infinite, NaN or
    above bound in magnitude."""
    bound: dict[str, object] = {"run": program.interpret}
    n_state = len(program.code[3])
    loop = []
    for stage, load in enumerate(_STAGE_LOADS, start=1):
        if len(program.ops) <= MAX_STEPPER_OPS:
            lines, roots = fc._emit(program.code, load, bound)
        else:
            roots = [f"v{p}" for p in range(n_state)]
            lines = [f"{', '.join(roots)}, = run([{', '.join(map(load, range(n_state)))}])"]
        loop += lines
        if stage < 4:
            loop += [f"k{stage}_{p} = {r}" for p, r in enumerate(roots)]
    loop += [f"y{p} = y{p} + sixth * (((k1_{p} + 2.0 * k2_{p}) + 2.0 * k3_{p}) + {r})"
             for p, r in enumerate(roots)]
    loop += [f"if y{p} - y{p} != 0.0 or abs(y{p}) > bound: return None, k + 1"
             for p in range(n_coords)]
    state = ", ".join(f"y{p}" for p in range(n_state))
    lines = [f"{state}, = state", "h = rho / n", "half = 0.5 * h", "sixth = h / 6.0",
             "for k in range(n):", *(f"    {line}" for line in loop),
             f"return [{state}], 0"]
    return fc._define("step(state, rho, n, bound)", lines, bound)


def _rk4_run(step, y0, rho, n, n_coords, phase):
    """n fixed RK4 steps from 0 to rho by step (a _stepper), the state
    being [x (n_coords), T if phase, J...]."""
    try:
        y, failed = step(y0, float(rho), n, BLOWUP_BOUND)
    except DomainError as err:
        if err.kind == "overflow":
            raise BlowupError(f"field evaluation overflowed: {err}") from err
        # a stage read a Jacobian entry, or a coordinate it had just
        # stepped, that came out infinite or NaN; the program never reads
        # the phase, and a coordinate infinite from the start stays a
        # VariableError
        if isinstance(err, fc.VariableError):
            if err.key >= n_coords:
                raise BlowupError(f"the Jacobian overflowed within {n} steps") from err
            if math.isfinite(y0[err.key]):
                raise BlowupError(
                    f"coordinate {err.name} overflowed within {n} steps"
                ) from err
        raise
    if failed:
        raise BlowupError(
            f"coordinate magnitude exceeded {BLOWUP_BOUND:g} at step {failed}/{n}"
        )
    # the phase and Jacobian have no bound, and once infinite they stay so
    if phase and not math.isfinite(y[n_coords]):
        raise BlowupError(f"the phase overflowed within {n} steps")
    if not all(map(math.isfinite, y[n_coords + phase:])):
        raise BlowupError(f"the Jacobian overflowed within {n} steps")
    return y


def _integrate(step, y0, rho, tol, n_coords, phase, n_steps=None):
    """Step doubling on _rk4_run's lists of floats.  Each round compares a
    run of 2n steps with one of n, from n = 8 doubling until every
    component's |fine - coarse| / 15 is within tol; a fixed n_steps run is
    the single round, from n = n_steps / 2.  Returns (state, steps, est_error)."""
    # a bool is an int below 2
    if n_steps is not None and (not isinstance(n_steps, int) or n_steps < 2 or n_steps % 2 != 0):
        raise InputError("n_steps must be a positive even integer")
    if rho == 0.0:
        return list(y0), 0, 0.0
    n = 8 if n_steps is None else n_steps // 2
    coarse = _rk4_run(step, y0, rho, n, n_coords, phase)
    while True:
        if n_steps is None and 2 * n > tol.max_steps:
            raise StepLimitError(f"error estimate above tolerance at {n} steps"
                                 f" (max {tol.max_steps})")
        fine = _rk4_run(step, y0, rho, 2 * n, n_coords, phase)
        err = [abs(f - c) / 15.0 for f, c in zip(fine, coarse)]
        if n_steps is not None or all(
                e <= tol.absolute + tol.relative * abs(f) for e, f in zip(err, fine)):
            return fine, 2 * n, max(err)
        n, coarse = 2 * n, fine


def _field_deriv(B: VectorField, C: ScalarField | None = None,
                 with_jacobian=False) -> tuple[fc._Program, Callable]:
    """Derivative of the stacked state [x, T?, J?] of the augmented system:
    one program over [B..., C?, (dB/dx) J...] that reads the state list by
    position, and its _stepper.  Entry (i, j) of the variational product
    sums dB^i/dx^k * J_kj over ascending k; the smart constructors drop
    the terms whose derivative is the constant zero.  The pair is memoized
    with fieldcalc's programs, keyed on the field's nodes, so B is
    differentiated once per memo scope."""

    def build():
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
        program = fc._Program(exprs, tuple(order))
        return program, _stepper(program, d)

    key = (B.chart, B.components, None if C is None else C.expression, with_jacobian)
    return fc.memoized(key, build)


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
    _require_same_chart(B, charge, x)
    _check_rho(rho)
    d = B.dimension
    y0 = list(x.coords)
    if charge is not None:
        y0.append(0.0)
    if jacobian:
        y0.extend(float(i == j) for i in range(d) for j in range(d))
    _, step = _field_deriv(B, charge, with_jacobian=jacobian)
    y, steps, est = _integrate(
        step, y0, rho, tol, d, charge is not None, n_steps=n_steps
    )
    return FlowResult(
        endpoint=Point(B.chart, tuple(y[:d])),
        phase=y[d] if charge is not None else 0.0,
        steps=steps,
        estimated_error=est,
        jacobian=np.array(y[-d * d:]).reshape(d, d) if jacobian else None,
    )


def apply_exponential(
    B: VectorField,
    C: ScalarField | None,
    psi: ScalarField,
    x: Point,
    rho: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> float:
    """exp(T(x, rho)) * psi(x'(x, rho)): the factorized exponential."""
    _require_same_chart(B, C, psi)
    return integrate_flow(B, x, rho, tol, charge=C).factorized(psi)


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


def _within_budget(e: Expression, seen: set[int], what: str) -> None:
    """Add the ids of e's nodes to seen, the nodes one call has built so
    far; ExpressionSizeError once they pass DEFAULT_MAX_NODES.  The caller
    keeps e alive, so no id is reused."""
    fc._nodes(e, seen)
    if len(seen) > DEFAULT_MAX_NODES:
        raise ExpressionSizeError(f"{what} exceeded {DEFAULT_MAX_NODES} distinct nodes")


def _expand(B: VectorField, C: ScalarField | None, roots, order: int) -> list[Expression]:
    """(B.d + C)^n u for each root u and n = 0..order, root after root.
    The node budget counts all terms built so far and is checked after
    each, so no term past it is built."""
    seen: set[int] = set()
    terms = []
    for u in roots:
        for n in range(order + 1):
            if n:
                u = apply_operator(B, C, u)
            _within_budget(u, seen, "series expansion")
            terms.append(u)
    return terms


def _check_order(order: int, least: int) -> None:
    if isinstance(order, bool) or not isinstance(order, int):
        raise InputError(f"order must be an integer, got {order!r}")
    if order < least:
        raise InputError(f"order must be at least {least}")
    if order > DEFAULT_MAX_ORDER:
        raise SeriesOrderError(f"order {order} above configured maximum {DEFAULT_MAX_ORDER}")


def series_terms(B: VectorField, C: ScalarField | None, psi: ScalarField, x: Point,
                 order: int) -> list[float]:
    """Values ((B.d + C)^n psi)(x) for n = 0..order, by repeated exact
    symbolic application; all terms run as one program."""
    _require_same_chart(B, C, psi, x)
    _check_order(order, 0)
    return fc.compile_expressions(_expand(B, C, [psi.expression], order))(x)


def series_oracle(B: VectorField, C: ScalarField | None, psi: ScalarField, x: Point,
                  rho: float, order: int) -> float:
    """Truncated sum over rho^n / n! ((B.d + C)^n psi)(x)."""
    _check_rho(rho)
    return taylor_sum(series_terms(B, C, psi, x, order), rho)


def taylor_sum(terms: list[float], rho: float) -> float:
    """sum_n rho^n / n! terms[n], added left to right by the checked
    helpers, so an overflow is a DomainError.  Builtin sum() compensates
    float rounding from Python 3.12 on, so with it the reports would
    depend on the interpreter's version."""
    total = 0.0
    for n, v in enumerate(terms):
        total = fc._eval_add(total, fc._eval_mul(fc._eval_pow(rho, n) / math.factorial(n), v))
    return total


def displacement_series(B: VectorField, x: Point, rho: float, order: int) -> tuple[float, ...]:
    """Truncated displacement A^mu(x) = sum_{n>=1} rho^n/n! ((B.d)^{n-1} B^mu)(x).

    Approximates (flow endpoint - x) to order rho^{order+1}.  The terms of
    all components run as one program.
    """
    _require_same_chart(B, x)
    _check_order(order, 1)
    _check_rho(rho)
    values = fc.compile_expressions(_expand(B, None, B.components, order - 1))(x)
    return tuple(taylor_sum([0.0, *values[k:k + order]], rho)
                 for k in range(0, len(values), order))


def pushforward_defect(B: VectorField, x: Point, flow: FlowResult) -> float:
    """max over nu of |B^nu(x') - sum_mu B^mu(x) dx'^nu/dx^mu| for a flow
    from x integrated with jacobian=True.  Each sum runs over ascending mu,
    left to right, as the flow sums its variational product; an overflow
    is a DomainError."""
    run = fc.compile_expressions(B.components)
    b_origin = run(x)
    pushed = [reduce(fc._eval_add, map(fc._eval_mul, row, b_origin))
              for row in flow.jacobian.tolist()]
    return max(abs(fc._eval_sub(end, p)) for end, p in zip(run(flow.endpoint), pushed))


def pushforward_residual(B: VectorField, x: Point, rho: float) -> float:
    """The pushforward defect of the flow over [0, rho] at DEFAULT_TOLERANCE.

    Zero (to integrator accuracy) exactly when the flow pushes B forward
    onto itself, which is the lemma underlying the factorization.
    """
    flow = integrate_flow(B, x, rho, jacobian=True)
    return pushforward_defect(B, x, flow)

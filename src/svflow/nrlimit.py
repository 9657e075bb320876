"""Group-contraction lift and the Klein-Gordon / diffusion operator identity.

Lifting a function psi(t, x) to

    Psi_{x0}(t, x) = exp(2 pi m c x0 / h) psi(t + x0/c, x)

turns the flat Klein-Gordon operator acting in (x0, x) into

    (4 pi m / h) d_t - d_x^2 + (1/c^2) d_t^2

acting on psi, exactly; the 1/c^2 term is the only piece that survives
as a defect against the pure diffusion operator and dies out as the
speed of light grows.  Everything here is real-exponential, exactly as
the lift is written, and one spatial dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import fieldcalc as fc
from . import flowexp
from .fieldcalc import (
    Const, Expression, Point, ScalarField, SvflowError, Var, VectorField,
)
from .flowexp import DEFAULT_TOLERANCE, Tolerance

PSI_CHART = ("t", "x")
EXP_CAP = 700.0


class PhaseOverflowError(SvflowError):
    """The lift exponent or a flow phase exceeded EXP_CAP, where exp overflows."""


class DegenerateFitError(SvflowError):
    """All defect samples vanished; no slope can be fitted."""


class RootOnPathError(SvflowError):
    """The reparametrizing function vanishes at the expansion point."""


@dataclass(frozen=True)
class RelParams:
    """Mass, speed of light and Planck constant (dimensionless tests)."""

    m: float
    c: float
    h: float

    def __post_init__(self):
        if self.m <= 0 or self.c <= 0 or self.h <= 0:
            raise ValueError("m, c, h must all be positive")

    @property
    def lift_rate(self) -> float:
        """2 pi m c / h, the x0-growth rate of the lift."""
        return 2.0 * math.pi * self.m * self.c / self.h


def _require_psi_chart(psi: ScalarField):
    if psi.chart != PSI_CHART:
        raise ValueError(f"psi must live on chart {PSI_CHART}, got {psi.chart}")


def lift_expression(psi: ScalarField, p: RelParams) -> Expression:
    """The lifted field as an expression over (t, x0, x)."""
    _require_psi_chart(psi)
    shifted = fc.substitute(
        psi.expression,
        "t",
        fc.add(Var("t"), fc.div(Var("x0"), Const(p.c))),
    )
    phase = fc.exp_(fc.mul(Const(p.lift_rate), Var("x0")))
    return fc.mul(phase, shifted)


def lift_wavefunction(
    psi: ScalarField, p: RelParams, t: float, x0: float, x: float
) -> float:
    """exp(2 pi m c x0 / h) * psi(t + x0/c, x)."""
    _require_psi_chart(psi)
    arg = p.lift_rate * x0
    if abs(arg) > EXP_CAP:
        raise PhaseOverflowError(f"lift exponent {arg:.3g} beyond cap {EXP_CAP:g}")
    value = psi.eval_at(Point(PSI_CHART, (t + x0 / p.c, x)))
    return math.exp(arg) * value


def contraction_residual(
    psi: ScalarField, p: RelParams, t: float, x0: float, x: float
) -> float:
    """|d_{x0} Phi - (2 pi m c / h + (1/c) d_t) Psi| at the given point.

    Identically zero for smooth psi: this is the derivative identity that
    carries the group contraction.  Evaluated exact-symbolically.
    """
    E = lift_expression(psi, p)
    residual = fc.sub(
        fc.differentiate(E, "x0"),
        fc.add(fc.mul(Const(p.lift_rate), E), fc.div(fc.differentiate(E, "t"), Const(p.c))),
    )
    return abs(fc.evaluate(residual, {"t": t, "x0": x0, "x": x}))


@dataclass(frozen=True)
class KGResidual:
    """Split of the Klein-Gordon vs diffusion comparison at one point."""

    identity_residual: float
    diffusion_term: float
    relativistic_term: float

    @property
    def total_defect(self) -> float:
        return self.diffusion_term + self.relativistic_term


def kg_diffusion_residual(
    psi: ScalarField, p: RelParams, point: tuple[float, float, float]
) -> KGResidual:
    """Check (d0^2 - dx^2 - (2 pi m c / h)^2) Phi against
    ((4 pi m / h) d_t - dx^2 + (1/c^2) d_t^2) Psi.

    identity_residual must vanish for any smooth psi; the two defect
    terms are reported separately so the 1/c^2 scaling can be studied.
    """
    t, x0, x = point
    E = lift_expression(psi, p)
    a = p.lift_rate

    d00 = fc.differentiate(fc.differentiate(E, "x0"), "x0")
    dxx = fc.differentiate(fc.differentiate(E, "x"), "x")
    dt = fc.differentiate(E, "t")
    dtt = fc.differentiate(dt, "t")

    lhs = fc.sub(fc.sub(d00, dxx), fc.mul(Const(a * a), E))
    diffusion = fc.sub(fc.mul(Const(4.0 * math.pi * p.m / p.h), dt), dxx)
    relativistic = fc.mul(Const(1.0 / p.c**2), dtt)
    rhs = fc.add(diffusion, relativistic)

    run = fc.compile_expressions([fc.sub(lhs, rhs), diffusion, relativistic])
    return KGResidual(*(abs(v) for v in run({"t": t, "x0": x0, "x": x})))


def check_c_values(c_values: list[float]) -> list[float]:
    """The c values as floats, if they are at least three positive values
    spanning at least two decades; else ValueError."""
    cs = [float(c) for c in c_values]
    if len(cs) < 3:
        raise ValueError("need at least 3 values of c")
    if any(c <= 0 for c in cs):
        raise ValueError("c values must be positive")
    if max(cs) / min(cs) < 100.0:
        raise ValueError("c values must span at least two decades")
    return cs


def diffusion_defect_scaling(
    psi: ScalarField,
    p_template: RelParams,
    c_values: list[float],
    point: tuple[float, float, float],
) -> float:
    """Least-squares slope of log(relativistic defect) against log(c).

    For psi solving the pure diffusion equation the defect is exactly the
    1/c^2 term, so the slope is -2.  The c values must pass check_c_values.
    """
    cs = check_c_values(c_values)
    defects = []
    for c in cs:
        p = RelParams(m=p_template.m, c=c, h=p_template.h)
        defects.append(kg_diffusion_residual(psi, p, point).relativistic_term)
    if any(d == 0.0 for d in defects):
        raise DegenerateFitError("relativistic defect vanished; cannot fit a slope")
    return log_log_slope(cs, defects)


def log_log_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x, for positive ys and
    positive xs that are not all equal.

    Centred sums over Python floats, each exactly rounded by math.fsum,
    so the value does not depend on the BLAS or LAPACK build that numpy
    happens to load.
    """
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = math.fsum(lx) / len(lx)
    my = math.fsum(ly) / len(ly)
    dx = [x - mx for x in lx]
    sxy = math.fsum(d * (y - my) for d, y in zip(dx, ly))
    return sxy / math.fsum(d * d for d in dx)


def heat_kernel(p: RelParams) -> ScalarField:
    """t^{-1/2} exp(-pi m x^2 / (h t)): solves (4 pi m / h) psi_t = psi_xx."""
    t, x = Var("t"), Var("x")
    gauss = fc.exp_(
        fc.neg(fc.div(fc.mul(Const(math.pi * p.m / p.h), fc.pow_(x, Const(2.0))), t))
    )
    return ScalarField(PSI_CHART, fc.mul(fc.pow_(t, Const(-0.5)), gauss))


def barut_flow_identity(
    f: Expression,
    p: RelParams,
    t: float,
    rho: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
    psi: ScalarField | None = None,
) -> float:
    """Residual of exp(rho f(t) (2 pi m c^2/h + d_t)) psi
    = exp((2 pi m c^2/h)(t' - t)) psi(t').

    The flow route integrates B = f d_t with charge C = (2 pi m c^2/h) f;
    because C/B is that constant, the accumulated phase must equal
    (2 pi m c^2/h)(t' - t), which is what the returned difference probes.
    psi defaults to 1.
    """
    extra = fc.variables_of(f) - {"t"}
    if extra:
        raise ValueError(f"f must be an expression in t only, found {sorted(extra)}")
    a = 2.0 * math.pi * p.m * p.c**2 / p.h
    f0 = fc.evaluate(f, {"t": t})
    if f0 == 0.0:
        raise RootOnPathError(f"f vanishes at the expansion point t = {t}")
    B = VectorField(("t",), (f,))
    C = ScalarField(("t",), fc.mul(Const(a), f))
    res = flowexp.integrate_flow(B, Point(("t",), (t,)), rho, tol, charge=C)
    t_prime = res.endpoint.coords[0]
    expected_phase = a * (t_prime - t)
    if abs(res.phase) > EXP_CAP or abs(expected_phase) > EXP_CAP:
        raise PhaseOverflowError("phase beyond the exponential overflow cap")
    psi_val = 1.0 if psi is None else psi.eval_at(res.endpoint)
    return abs(math.exp(res.phase) * psi_val - math.exp(expected_phase) * psi_val)

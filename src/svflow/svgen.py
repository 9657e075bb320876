"""Time-reparametrization generators on the (t, r) half-plane.

A Laurent polynomial eps(t) = sum_n eps_n t^{n+1} defines the first-order
operator

    -X_eps = eps(t) d_t + (N/2) eps'(t) (r d_r + chi) + (m r^{2/N} / 4) eps''(t)

whose vector-field part moves (t, r) and whose multiplicative part feeds
the phase of the factorized exponential.  The family satisfies the
classical Virasoro bracket [X_eps, X_eta] = X_{eps' eta - eps eta'}, with
monomials eps = t^{m+1} reproducing [X_m, X_n] = (m - n) X_{m+n}.

The finite transformation law: exp(-X_eps) psi (t, r) equals

    (eps(t')/eps(t))^{N chi / 2}
    * exp( (m/4) (r'^{2/N} eps'(t')/eps(t') - r^{2/N} eps'(t)/eps(t)) )
    * psi(t', r')

where t' reparametrizes time through  rho = int_t^{t'} dtau / eps(tau)
and r' = r (eps(t')/eps(t))^{N/2}.  This module computes t' by flowing
eps d_t (verifying the integral residual by independent quadrature),
evaluates the law, and cross-checks it against the flow machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from . import fieldcalc as fc
from . import flowexp
from .fieldcalc import (
    Const,
    DomainError,
    Expression,
    InputError,
    Point,
    ScalarField,
    SvflowError,
    Var,
    VectorField,
)
from .flowexp import DEFAULT_TOLERANCE, Tolerance
from .quadrature import QuadratureError, adaptive_simpson

CHART = ("t", "r")


class EpsilonRootError(SvflowError):
    """eps vanishes at the start point or on the reparametrization path."""


class NegativeScaleRatioError(SvflowError):
    """eps(t')/eps(t) <= 0: the transformation law has no real branch."""


class ReparametrizationError(SvflowError):
    """The integral residual of the t' equation exceeded its tolerance."""


class CorrelatorSingularityError(SvflowError):
    """Both terms of the correlator denominator vanish."""


@dataclass(frozen=True)
class EpsilonFn:
    """eps(t) = sum_n eps_n t^{n+1} with finitely many nonzero terms.

    Each n is an int given once, each coefficient finite.  Terms with
    n <= -2 make eps singular at t = 0; evaluation there raises
    DomainError, and so does a value or a derivative coefficient that
    overflows (kind "overflow").
    """

    terms: tuple[tuple[int, float], ...]

    def __post_init__(self):
        coeffs: dict[int, float] = {}
        for n, c in self.terms:
            if isinstance(n, bool) or not isinstance(n, int):
                raise InputError(f"eps index n of t^(n+1) must be an integer, got {n!r}")
            if n in coeffs:
                raise InputError(f"eps gives the coefficient of t^{n + 1} twice")
            fc._require_finite({f"eps coefficient of t^{n + 1}": c})
            coeffs[n] = float(c)
        cleaned = tuple(sorted((n, c) for n, c in coeffs.items() if c != 0.0))
        if not cleaned:
            raise InputError("eps needs at least one nonzero coefficient")
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def from_coefficients(cls, coeffs: dict[int, float]) -> "EpsilonFn":
        return cls(tuple(coeffs.items()))

    @classmethod
    def monomial(cls, n: int, coefficient: float = 1.0) -> "EpsilonFn":
        return cls(((n, coefficient),))

    @classmethod
    def from_formula(cls, text: str) -> "EpsilonFn":
        """Parse a Laurent-polynomial formula in t, e.g.
        '1 + 0.1*t + 0.05*t^2' or 't^-2 - 3/t'.  Coefficients are
        extracted structurally and exactly; non-polynomial formulas are
        rejected."""
        expr = fc.simplify(fc.parse_expression(text, ("t",)))
        return cls.from_coefficients({k - 1: c for k, c in _laurent_coefficients(expr).items()})

    @cached_property
    def derivatives(self) -> tuple[Expression, Expression, Expression]:
        """(eps, eps', eps'') in t, each summed term by term."""
        tower = []
        for order in range(3):
            total: Expression = fc.ZERO
            for n, c in self.terms:
                k = n + 1
                for _ in range(order):
                    c, k = fc._eval_mul(c, k), k - 1
                if c != 0.0:
                    term = fc.pow_(Var("t"), Const(float(k))) if k else fc.ONE
                    total = fc.add(total, fc.mul(Const(c), term))
            tower.append(total)
        return tuple(tower)

    def program(self) -> Callable[[Sequence[float]], list[float]]:
        """[eps(t), eps'(t)] from [t]: one compiled program.  It is fetched
        from the program memo on each call, so it lives in the innermost
        derivative_memo() block and turns into generated code when hot."""
        return fc.compile_expressions(self.derivatives[:2], ("t",))


# Largest |power of t| of a product in an eps formula: expanding costs
# about the square of the degree, and t^1e308 would never finish.
MAX_EPS_DEGREE = 64


def _product(left: dict[int, float], right: dict[int, float]) -> dict[int, float]:
    out: dict[int, float] = {}
    for k1, c1 in left.items():
        for k2, c2 in right.items():
            out[k1 + k2] = fc._eval_add(out.get(k1 + k2, 0.0), fc._eval_mul(c1, c2))
    if any(abs(k) > MAX_EPS_DEGREE for k in out):
        raise InputError(f"powers of t beyond +-{MAX_EPS_DEGREE}")
    return out


def _laurent_coefficients(e: fc.Expression) -> dict[int, float]:
    """Map power -> coefficient for an expression that is a Laurent
    polynomial in t; raises InputError otherwise."""
    return fc._fold([e], _laurent_node)[id(e)]


def _laurent_node(e: fc.Expression, ops: list[dict[int, float]]) -> dict[int, float]:
    # ops holds the coefficient maps of e's operands; they may be shared
    # by other nodes, so every case builds a new map
    if isinstance(e, Const):
        return {0: e.value}
    if isinstance(e, Var):
        return {1: 1.0}
    if isinstance(e, fc.Neg):
        return {k: -c for k, c in ops[0].items()}
    if isinstance(e, (fc.Add, fc.Sub)):
        left, right = ops
        sign = 1.0 if isinstance(e, fc.Add) else -1.0
        out = dict(left)
        for k, c in right.items():
            out[k] = fc._eval_add(out.get(k, 0.0), sign * c)
        return out
    if isinstance(e, fc.Mul):
        return _product(*ops)
    if isinstance(e, fc.Div):
        num, den = ops
        live = {k: c for k, c in den.items() if c != 0.0}
        if len(live) != 1:
            raise InputError("division only by a constant or a monomial in t")
        (k0, c0), = live.items()
        return {k - k0: fc._eval_div(c, c0) for k, c in num.items()}
    if isinstance(e, fc.Pow):
        if not isinstance(e.right, Const) or e.right.value != int(e.right.value):
            raise InputError("powers must have integer constant exponents")
        n = int(e.right.value)
        if abs(n) > MAX_EPS_DEGREE:
            raise InputError(f"exponent {e.right.value:g} beyond +-{MAX_EPS_DEGREE}")
        live = {k: c for k, c in ops[0].items() if c != 0.0}
        if n < 0:
            if len(live) != 1:
                raise InputError("negative powers only of a single monomial")
            (k0, c0), = live.items()
            return {k0 * n: fc._eval_pow(c0, n)}
        out = {0: 1.0}
        for _ in range(n):
            out = _product(out, live)
        return out
    raise InputError(f"not a Laurent polynomial in t: {fc.to_string(e)}")


def bracket_eps(eps: EpsilonFn, eta: EpsilonFn) -> dict[int, float]:
    """Coefficients of eps' eta - eps eta' in the same Laurent basis:
    the k-th coefficient is sum over m+n=k of (m - n) eps_m eta_n."""
    out: dict[int, float] = {}
    for m, a in eps.terms:
        for n, b in eta.terms:
            k = m + n
            out[k] = fc._eval_add(out.get(k, 0.0), fc._eval_mul(fc._eval_mul(m - n, a), b))
    return {k: v for k, v in out.items() if v != 0.0}


@dataclass(frozen=True)
class SVParams:
    """Physical parameters of the generator family.

    m is the mass coupling, chi the scaling dimension, N the anisotropy
    (N = 2/theta; N = 1 is the diffusive case).  Non-integer 2/N
    restricts evaluation to r > 0.
    """

    m: float
    chi: float
    N: float = 1.0

    def __post_init__(self):
        fc._require_finite({"m": self.m, "chi": self.chi, "N": self.N})
        if self.N == 0:
            raise InputError("N must be nonzero")
        # the exponents of r and of eps(t')/eps(t) in the law
        if not math.isfinite(self.r_exponent) or not math.isfinite(self.N * self.chi / 2.0):
            raise InputError(
                f"N = {self.N:g}, chi = {self.chi:g} put 2/N or N chi/2 beyond the double range"
            )

    @property
    def r_exponent(self) -> float:
        return 2.0 / self.N


@dataclass(frozen=True)
class PrimaryTransform:
    """primary_transform's arguments and result, with dt'/dt and [eps, eps']
    at t and t' from its t' run; its methods check the law without solving
    for t' again."""

    eps: EpsilonFn
    p: SVParams
    t: float
    r: float
    rho: float
    tol: Tolerance
    t_prime: float
    r_prime: float
    prefactor: float
    dtprime_dt: float
    eps_t: tuple[float, float]
    eps_tp: tuple[float, float]

    def flow_residual(self, psi: ScalarField) -> float:
        """|exp(rho (B + C)) psi  -  prefactor * psi(t', r')|: the flow route
        and the closed-form transformation law must agree."""
        B, C = build_generator(self.eps, self.p)
        lhs = flowexp.apply_exponential(B, C, psi, Point(CHART, (self.t, self.r)),
                                        self.rho, self.tol)
        return abs(lhs - self.prefactor * psi.eval_at(Point(CHART, (self.t_prime, self.r_prime))))

    def weight_form_terms(self) -> tuple[float, float]:
        """Check the time-dependent-scale form of the transformation law.

        With sigma = log eps, the law says the combination
        phi * (dt)^{N chi/2} * exp((m r^{2/N}/4) sigma'(t)) is invariant.
        Returns (|dt'/dt - eps(t')/eps(t)|, invariance defect), with dt'/dt
        computed independently through the variational equation.
        """
        (e_t, d_t), (e_tp, d_tp), jac, p = self.eps_t, self.eps_tp, self.dtprime_dt, self.p
        if e_t <= 0.0 or e_tp <= 0.0:
            raise DomainError("sigma = log(eps) needs eps > 0 at t and t'")
        k = p.r_exponent
        with fc.naming_params(p):
            lhs = fc._eval_mul(
                self.prefactor, fc._eval_exp((p.m / 4.0) * fc._eval_pow(self.r, k) * (d_t / e_t))
            )
            rhs = fc._eval_mul(fc._eval_pow(jac, p.N * p.chi / 2.0), fc._eval_exp(
                (p.m / 4.0) * fc._eval_pow(self.r_prime, k) * (d_tp / e_tp)
            ))
        return abs(jac - e_tp / e_t), abs(lhs - rhs)


def build_generator(eps: EpsilonFn, p: SVParams) -> tuple[VectorField, ScalarField]:
    """(B, C) on the (t, r) chart with -X_eps = B + C as a first-order
    operator: B = eps d_t + (N/2) eps' r d_r and
    C = (N/2) eps' chi + (m r^{2/N}/4) eps''.  Built once per eps and p
    in the program memo (fieldcalc.memoized): that of the innermost
    derivative_memo() block, else the context's."""
    return fc.memoized((build_generator, eps, p), lambda: _generator(eps, p))


def _generator(eps: EpsilonFn, p: SVParams) -> tuple[VectorField, ScalarField]:
    e0, e1, e2 = eps.derivatives
    half_n = Const(p.N / 2.0)
    b_t = e0
    b_r = fc.mul(fc.mul(half_n, e1), Var("r"))
    c_chi = fc.mul(fc.mul(half_n, Const(p.chi)), e1)
    r_pow = fc.pow_(Var("r"), Const(p.r_exponent))
    c_mass = fc.mul(fc.mul(Const(p.m / 4.0), r_pow), e2)
    return (
        VectorField(CHART, (b_t, b_r)),
        ScalarField(CHART, fc.add(c_chi, c_mass)),
    )


def bracket_residuals(pairs: Sequence[tuple[EpsilonFn, EpsilonFn]], p: SVParams,
                      tests: Sequence[ScalarField], points: list[Point]) -> list[float]:
    """Per (eps, eta) pair, the max over tests psi and points of
    |([X_eps, X_eta] - X_{eps' eta - eps eta'}) psi|, all exact-symbolic;
    flowexp.DEFAULT_MAX_NODES bounds the distinct nodes of all residuals
    together, which is what the one program holds.  Each generator is
    built once and all residuals run as that one program, so a DomainError
    is that of the first failing point."""
    if any(test.chart != CHART for test in tests):
        raise InputError(f"test function must live on chart {CHART}")
    generators: dict[EpsilonFn, tuple[VectorField, ScalarField]] = {}

    def X(eps: EpsilonFn, u: Expression) -> Expression:
        if eps not in generators:
            generators[eps] = build_generator(eps, p)
        return fc.neg(flowexp.apply_operator(*generators[eps], u))

    residuals = []
    seen: set[int] = set()
    for eps, eta in pairs:
        coeffs = bracket_eps(eps, eta)
        target = EpsilonFn.from_coefficients(coeffs) if coeffs else None
        for test in tests:
            u = test.expression
            lhs = fc.sub(X(eps, X(eta, u)), X(eta, X(eps, u)))
            residual = fc.sub(lhs, X(target, u) if target else fc.ZERO)
            flowexp._within_budget(residual, seen, "bracket residuals")
            residuals.append(residual)
    run = fc.compile_expressions(residuals)
    with fc.naming_params(p):
        rows = [[abs(v) for v in run(pt)] for pt in points]
    k = len(tests)
    return [max(max(row[i:i + k]) for row in rows) for i in range(0, len(residuals), k)]


def bracket_residual(eps: EpsilonFn, eta: EpsilonFn, p: SVParams, test: ScalarField,
                     points: list[Point]) -> float:
    """bracket_residuals for one pair and one test function."""
    return bracket_residuals([(eps, eta)], p, [test], points)[0]


def monomial_bracket(m_idx: int, n_idx: int) -> tuple[float, int]:
    """[X_m, X_n] = (m - n) X_{m+n} for the monomial basis eps = t^{m+1}."""
    return (float(m_idx - n_idx), m_idx + n_idx)


def solve_tprime(
    eps: EpsilonFn,
    t: float,
    rho: float = 1.0,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> float:
    """t' with int_t^{t'} dtau/eps(tau) = rho.

    Computed by integrating dt'/ds = eps(t') from s = 0 to rho; the
    defining integral is then re-evaluated by independent adaptive
    quadrature and must agree with rho.
    """
    return _solve_tprime(eps, t, rho, tol)[0]


def _solve_tprime(eps, t, rho, tol):
    """(t', dt'/dt, [eps, eps'] at t, the same at t'): eps d_t run with its Jacobian."""
    run = eps.program()
    eps_t = run([float(t)])
    if eps_t[0] == 0.0:
        raise EpsilonRootError(f"eps vanishes at the start point t = {t}")
    B = fc.memoized((_solve_tprime, eps), lambda: VectorField(("t",), eps.derivatives[:1]))
    res = flowexp.integrate_flow(B, Point(("t",), (t,)), rho, tol, jacobian=True)
    t_prime = res.endpoint.coords[0]

    sign = math.copysign(1.0, eps_t[0])

    def integrand(tau: float) -> float:
        v = run([tau])[0]
        if v == 0.0 or math.copysign(1.0, v) != sign:
            raise EpsilonRootError(f"eps root encountered on path at t = {tau}")
        return 1.0 / v

    try:
        q = adaptive_simpson(integrand, t, t_prime,
                             atol=tol.absolute / 10, rtol=tol.relative / 10)
    except QuadratureError as err:
        raise EpsilonRootError(f"quadrature failed near an eps root: {err}") from err
    budget = 100.0 * (tol.absolute + tol.relative * max(1.0, abs(rho)))
    if abs(q - rho) > budget:
        raise ReparametrizationError(
            f"integral residual {abs(q - rho):.3e} above budget {budget:.3e}"
        )
    return t_prime, float(res.jacobian[0, 0]), eps_t, run([t_prime])


def primary_transform(
    eps: EpsilonFn,
    p: SVParams,
    t: float,
    r: float,
    rho: float = 1.0,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> PrimaryTransform:
    """Finite transformation of a primary field: t', r' and the scalar
    prefactor multiplying psi(t', r')."""
    t_prime, dtprime_dt, (e_t, d_t), (e_tp, d_tp) = _solve_tprime(eps, t, rho, tol)
    ratio = e_tp / e_t
    if ratio <= 0.0:
        raise NegativeScaleRatioError(f"eps(t')/eps(t) = {ratio:.3e} is not positive")
    with fc.naming_params(p):
        r_prime = fc._eval_mul(r, fc._eval_pow(ratio, p.N / 2.0))
        k = p.r_exponent
        weight = fc._eval_pow(ratio, p.N * p.chi / 2.0)
        arg = (p.m / 4.0) * (
            fc._eval_pow(r_prime, k) * d_tp / e_tp - fc._eval_pow(r, k) * d_t / e_t
        )
        prefactor = fc._eval_mul(weight, fc._eval_exp(arg))
    return PrimaryTransform(eps, p, t, r, rho, tol, t_prime, r_prime, prefactor, dtprime_dt,
                            (e_t, d_t), (e_tp, d_tp))


def primary_vs_flow_residual(
    eps: EpsilonFn,
    p: SVParams,
    psi: ScalarField,
    t: float,
    r: float,
    rho: float = 1.0,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> float:
    """PrimaryTransform.flow_residual of primary_transform(eps, p, t, r, rho, tol)."""
    return primary_transform(eps, p, t, r, rho, tol).flow_residual(psi)


def weight_form_residual(
    eps: EpsilonFn,
    p: SVParams,
    t: float,
    r: float,
    rho: float = 1.0,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> float:
    """The sum of PrimaryTransform.weight_form_terms."""
    jac_res, defect = primary_transform(eps, p, t, r, rho, tol).weight_form_terms()
    return jac_res + defect


def _check_halfspace(args: dict[str, float]) -> None:
    fc._require_finite(args)
    if args["T"] <= 0.0 or args["T'"] <= 0.0:
        raise InputError("T and T' must be positive")


def map_halfspace(
    t: float, r: float, T: float, T_prime: float
) -> tuple[float, float]:
    """Exponential map from the flat (t, r) plane to the half-space
    0 < t' < infinity; a t' that underflows to 0 is a DomainError."""
    _check_halfspace({"t": t, "r": r, "T": T, "T'": T_prime})
    t_prime = fc._eval_mul(T_prime, fc._eval_exp(t / T))
    if t_prime == 0.0:
        raise DomainError("t' = T' exp(t/T) underflows to 0", kind="overflow")
    r_prime = fc._eval_mul(fc._eval_mul(r, fc._eval_sqrt(T_prime / T)),
                           fc._eval_exp(t / (2.0 * T)))
    return (t_prime, r_prime)


def halfspace_correlator(
    t_prime: float, r_prime: float, T: float, T_prime: float, d: int
) -> float:
    """The flat massless propagator of dimension (d-2)/2 composed with the
    inverse of map_halfspace: base^(-(d-2)/2) with
    base = (T/t') r'^2 + T^2 log(t'/T')^2."""
    _check_halfspace({"t'": t_prime, "r'": r_prime, "T": T, "T'": T_prime, "d": d})
    if t_prime <= 0.0:
        raise InputError("t' must lie in (0, infinity)")
    base = fc._eval_add(
        fc._eval_mul(T / t_prime, fc._eval_pow(r_prime, 2)),
        fc._eval_mul(fc._eval_pow(T, 2), fc._eval_pow(fc._eval_log(t_prime / T_prime), 2)),
    )
    if base == 0.0:
        raise CorrelatorSingularityError(
            "r' = 0 and t' = T' make both denominator terms vanish"
        )
    return fc._eval_pow(base, -(d - 2) / 2.0)

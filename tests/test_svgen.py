import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svflow import fieldcalc as fc
from svflow import flowexp
from svflow.fieldcalc import DomainError, Point, scalar_field
from svflow.flowexp import (
    BlowupError,
    ExpressionSizeError,
    StepLimitError,
    Tolerance,
    apply_operator,
)
from svflow.svgen import (
    CHART,
    CorrelatorSingularityError,
    EpsilonFn,
    EpsilonRootError,
    NegativeScaleRatioError,
    ReparametrizationError,
    SVParams,
    bracket_eps,
    bracket_residual,
    bracket_residuals,
    build_generator,
    halfspace_correlator,
    map_halfspace,
    monomial_bracket,
    primary_transform,
    primary_vs_flow_residual,
    solve_tprime,
    weight_form_residual,
)
from svflow import verification
from svflow.verification import VIRASORO_TEST_FUNCTIONS

TIGHT = Tolerance(absolute=1e-12, relative=1e-12)
EPS_ONE = EpsilonFn.monomial(-1)          # eps(t) = 1
EPS_T = EpsilonFn.monomial(0)             # eps(t) = t
EPS_T2 = EpsilonFn.monomial(1)            # eps(t) = t^2
EPS_POLY = EpsilonFn.from_coefficients({-1: 1.0, 0: 0.1, 1: 0.05})  # 1 + 0.1t + 0.05t^2


def rand_points(n, seed, t_range=(0.6, 1.6), r_range=(0.5, 1.5)):
    rng = np.random.default_rng(seed)
    return [
        Point(CHART, (float(rng.uniform(*t_range)), float(rng.uniform(*r_range))))
        for _ in range(n)
    ]


# ------------------------------------------------------------ EpsilonFn


def test_epsilon_requires_a_nonzero_coefficient():
    with pytest.raises(ValueError):
        EpsilonFn.from_coefficients({2: 0.0})


def test_epsilon_values_and_derivatives():
    eps = EPS_POLY
    for t in (0.3, 1.0, 2.2):
        assert eps.value(t) == pytest.approx(1 + 0.1 * t + 0.05 * t * t, rel=1e-15)
        assert eps.deriv(t) == pytest.approx(0.1 + 0.1 * t, rel=1e-15)
        assert fc.evaluate(eps.expression("t", 2), {"t": t}) == pytest.approx(0.1, rel=1e-15)


def test_epsilon_negative_terms_need_nonzero_t():
    eps = EpsilonFn.monomial(-3)  # t^{-2}
    assert eps.value(2.0) == 0.25
    with pytest.raises(DomainError):
        eps.value(0.0)


def test_epsilon_expression_matches_numeric():
    # eps = 0.5 t^-2 + 1.2 t - 0.3 t^3
    eps = EpsilonFn.from_coefficients({-3: 0.5, 0: 1.2, 2: -0.3})
    second = fc.compile_expression(eps.expression("t", 2))
    for t in (0.4, 1.0, 1.7):
        assert eps.value(t) == pytest.approx(0.5 / t**2 + 1.2 * t - 0.3 * t**3, rel=1e-13)
        assert eps.deriv(t) == pytest.approx(-1.0 / t**3 + 1.2 - 0.9 * t**2, rel=1e-13)
        assert second({"t": t}) == pytest.approx(3.0 / t**4 - 1.8 * t, rel=1e-13)


def _summed(eps, t, order):
    """eps (order 0) or eps' (1) as EpsilonFn summed them term by term
    before it compiled them: the reference for the compiled program."""

    def power(k):
        if k == 0:
            return 1.0
        if t == 0.0 and k < 0:
            raise DomainError("eps term with negative power evaluated at t = 0")
        return fc._eval_pow(float(t), k)

    if order == 0:
        total = sum(c * power(n + 1) for n, c in eps.terms)
    else:
        total = sum(c * (n + 1) * power(n) for n, c in eps.terms if n + 1 != 0)
    return fc._check_finite(total, "eps")


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.integers(-4, 5),
        st.floats(-10.0, 10.0).filter(lambda c: c != 0.0),
        min_size=1,
        max_size=6,
    ),
    st.floats(0.05, 4.0) | st.floats(-4.0, -0.05) | st.just(0.0),
)
def test_compiled_epsilon_matches_the_term_sums(coeffs, t):
    # equal as floats: bitwise, but for the sign of a zero, which the sum's
    # leading integer 0 drops
    eps = EpsilonFn.from_coefficients(coeffs)
    try:
        expected = (_summed(eps, t, 0), _summed(eps, t, 1))
    except DomainError:
        for method in (eps.value, eps.deriv):
            with pytest.raises(DomainError):
                method(t)
        return
    assert (eps.value(t), eps.deriv(t)) == expected


# ------------------------------------------------------------ generator


def test_generator_pure_time_translation():
    B, C = build_generator(EPS_ONE, SVParams(m=1.0, chi=0.5))
    p = Point(CHART, (0.7, 1.3))
    assert B.eval_at(p) == [1.0, 0.0]
    assert C.eval_at(p) == 0.0


def test_generator_dilation_case():
    # eps = t, N = 1: B = (t, r/2), C = chi/2
    p = SVParams(m=2.0, chi=0.8, N=1.0)
    B, C = build_generator(EPS_T, p)
    pt = Point(CHART, (1.4, 0.6))
    bt, br = B.eval_at(pt)
    assert bt == pytest.approx(1.4, rel=1e-15)
    assert br == pytest.approx(0.3, rel=1e-15)
    assert C.eval_at(pt) == pytest.approx(0.4, rel=1e-15)


def test_generator_accelerated_case():
    # eps = t^2, N = 1: eps'' = 2  =>  C = chi t + (m r^2 / 4) * 2
    p = SVParams(m=1.6, chi=0.3, N=1.0)
    _, C = build_generator(EPS_T2, p)
    pt = Point(CHART, (0.9, 1.1))
    expected = 0.3 * 0.9 + (1.6 * 1.1**2 / 4.0) * 2.0
    assert C.eval_at(pt) == pytest.approx(expected, rel=1e-14)


def test_generator_anisotropic_exponent():
    # N = 2 gives r^{2/N} = r, valid for any r
    p = SVParams(m=1.0, chi=0.0, N=2.0)
    _, C = build_generator(EPS_T2, p)
    pt = Point(CHART, (0.5, -1.5))
    assert C.eval_at(pt) == pytest.approx((1.0 * -1.5 / 4.0) * 2.0, rel=1e-14)


# ------------------------------------------------------------ bracket


def test_bracket_eps_monomial_oracle():
    # polynomial identity: eps' eta - eps eta' = (m - n) t^{m+n+1}
    for m, n in [(1, -1), (0, 2), (-3, 2), (2, 2), (-2, -1)]:
        coeffs = bracket_eps(EpsilonFn.monomial(m), EpsilonFn.monomial(n))
        em, en = EpsilonFn.monomial(m), EpsilonFn.monomial(n)
        for t in (0.7, 1.3):
            expected = em.deriv(t) * en.value(t) - em.value(t) * en.deriv(t)
            got = sum(c * t ** (k + 1) for k, c in coeffs.items())
            assert got == pytest.approx(expected, rel=1e-13, abs=1e-15)
        if m == n:
            assert coeffs == {}
        else:
            assert coeffs == {m + n: float(m - n)}


def test_monomial_bracket_values():
    assert monomial_bracket(1, -1) == (2.0, 0)
    assert monomial_bracket(3, 3) == (0.0, 6)
    assert monomial_bracket(0, 2) == (-2.0, 2)


def test_bracket_residual_antisymmetry_and_zero():
    p = SVParams(m=1.1, chi=0.6)
    psi = scalar_field("t^2 * r", CHART)
    pts = rand_points(5, seed=1)
    assert bracket_residual(EPS_T, EPS_T, p, psi, pts) == 0.0
    r1 = bracket_residual(EPS_ONE, EPS_T, p, psi, pts)
    r2 = bracket_residual(EPS_T, EPS_ONE, p, psi, pts)
    assert r1 <= 1e-10
    assert r2 == pytest.approx(r1, abs=1e-12)


def test_bracket_residual_laurent_case():
    p = SVParams(m=0.9, chi=0.4)
    psi = scalar_field("exp(t) * r^2", CHART)
    eps = EPS_T2
    eta = EpsilonFn.from_coefficients({-2: 1.0, -1: 1.0})  # t^{-1} + 1
    res = bracket_residual(eps, eta, p, psi, rand_points(6, seed=2))
    assert res <= 1e-10


def test_bracket_monomial_table():
    p = SVParams(m=1.3, chi=0.7)
    psi = scalar_field("t*r + r^2", CHART)
    pts = rand_points(4, seed=3)
    for m in range(-2, 3):
        for n in range(-2, 3):
            assert bracket_residual(
                EpsilonFn.monomial(m), EpsilonFn.monomial(n), p, psi, pts
            ) <= 1e-9


def _apply_generator(eps, p, u):
    """X_eps u, exactly: minus (B.d + C) u for the generator's B and C."""
    return fc.neg(apply_operator(*build_generator(eps, p), u))


def _pair_expression(eps, eta, p, test):
    u = test.expression
    lhs = fc.sub(
        _apply_generator(eps, p, _apply_generator(eta, p, u)),
        _apply_generator(eta, p, _apply_generator(eps, p, u)),
    )
    coeffs = bracket_eps(eps, eta)
    target = _apply_generator(EpsilonFn.from_coefficients(coeffs), p, u) if coeffs else fc.ZERO
    return fc.sub(lhs, target)


def _pair_residual(eps, eta, p, test, points):
    """One pair and one test function as bracket_residual computed them
    before the batch: generators rebuilt per application, one program per
    residual.  The reference for bracket_residuals."""
    run = fc.compile_expression(_pair_expression(eps, eta, p, test))
    return max(abs(run(pt)) for pt in points)


_COEFF = st.floats(0.5, 2.0) | st.floats(-2.0, -0.5)
_EPS = st.builds(EpsilonFn.monomial, st.integers(-3, 3)) | st.dictionaries(
    st.integers(-3, 3), _COEFF, min_size=2, max_size=2
).map(EpsilonFn.from_coefficients)
_C03_POINT = st.builds(
    lambda t, r: Point(CHART, (t, r)), st.floats(0.6, 1.6), st.floats(0.5, 1.5)
)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(_EPS, _EPS), min_size=1, max_size=4),
    st.builds(SVParams, st.floats(0.5, 2.0), st.floats(0.0, 1.0),
              st.sampled_from((0.5, 1.0, 2.0))),
    st.lists(st.sampled_from(VIRASORO_TEST_FUNCTIONS), min_size=1, max_size=3, unique=True),
    st.lists(_C03_POINT, min_size=1, max_size=4),
)
def test_bracket_batch_matches_the_per_pair_residuals_bitwise(pairs, p, texts, points):
    tests = [scalar_field(s, CHART) for s in texts]
    expected = [
        max(_pair_residual(eps, eta, p, test, points) for test in tests)
        for eps, eta in pairs
    ]
    assert bracket_residuals(pairs, p, tests, points) == expected


def test_bracket_batch_domain_error_keeps_class_and_kind():
    p = SVParams(m=1.1, chi=0.6)
    psi = scalar_field("log(t) * r", CHART)
    pts = [Point(CHART, (1.0, 1.0)), Point(CHART, (-1.0, 1.0))]
    with pytest.raises(DomainError) as per_pair:
        _pair_residual(EPS_T, EPS_T2, p, psi, pts)
    with pytest.raises(DomainError) as batch:
        bracket_residuals([(EPS_ONE, EPS_T), (EPS_T, EPS_T2)], p, [psi], pts)
    assert batch.value.kind == per_pair.value.kind


def test_bracket_batch_node_budget_bounds_the_union_of_its_residuals():
    # the budget bounds the distinct nodes of all residuals together,
    # which is what the batch's one program holds
    p = SVParams(m=1.1, chi=0.6)
    tests = [scalar_field(s, CHART) for s in VIRASORO_TEST_FUNCTIONS]
    pairs = [(EPS_ONE, EPS_T), (EPS_T, EPS_T2), (EPS_POLY, EPS_T)]
    residuals = [_pair_expression(eps, eta, p, test) for eps, eta in pairs for test in tests]
    seen = set()
    for residual in residuals:
        fc._nodes(residual, seen)
    union = len(seen)
    assert union < sum(map(fc.node_count, residuals))
    pts = rand_points(2, seed=6)
    with mock.patch.object(flowexp, "DEFAULT_MAX_NODES", union):
        bracket_residuals(pairs, p, tests, pts)
    with mock.patch.object(flowexp, "DEFAULT_MAX_NODES", union - 1):
        with pytest.raises(ExpressionSizeError):
            bracket_residuals(pairs, p, tests, pts)


def test_jacobi_identity():
    p = SVParams(m=0.8, chi=0.5)
    psi = scalar_field("t^2*r + r^2", CHART)
    eps = EpsilonFn.from_coefficients({-1: 1.0, 1: 0.3})
    eta = EpsilonFn.from_coefficients({0: 1.0, 2: 0.2})
    zeta = EpsilonFn.from_coefficients({-1: 0.5, 0: 0.4})

    def X(e, u):
        return _apply_generator(e, p, u)

    def bracket_apply(e1, e2, u):
        return fc.sub(X(e1, X(e2, u)), X(e2, X(e1, u)))

    u = psi.expression
    total = None
    for a, b, c in [(eps, eta, zeta), (eta, zeta, eps), (zeta, eps, eta)]:
        inner = lambda w, b=b, c=c: bracket_apply(b, c, w)
        term = fc.sub(X(a, inner(u)), inner(X(a, u)))
        total = term if total is None else fc.add(total, term)
    run = fc.compile_expression(total)
    worst = max(abs(run(pt.env())) for pt in rand_points(6, seed=4))
    assert worst <= 1e-8


def test_generator_linearity():
    p = SVParams(m=1.2, chi=0.9)
    a = 1.7
    eps, eta = EPS_T, EPS_T2
    combo = EpsilonFn.from_coefficients({0: a, 1: 1.0})  # a*eps + eta
    psi = scalar_field("sin(t)*r + t", CHART)
    u = psi.expression
    lhs = _apply_generator(combo, p, u)
    rhs = fc.add(
        fc.mul(fc.Const(a), _apply_generator(eps, p, u)),
        _apply_generator(eta, p, u),
    )
    diff = fc.compile_expression(fc.sub(lhs, rhs))
    for pt in rand_points(5, seed=5):
        assert abs(diff(pt.env())) <= 1e-12


# ------------------------------------------------------------ solve_tprime


def test_tprime_translation():
    assert solve_tprime(EPS_ONE, 0.3, 1.0) == pytest.approx(1.3, abs=1e-12)


def test_tprime_exponential_closed_form():
    assert solve_tprime(EPS_T, 1.0, 1.0, TIGHT) == pytest.approx(math.e, rel=1e-11)


def test_tprime_blowup():
    # t' = 1/(1 - rho) from t = 1: the pole sits exactly at rho = 1, so the
    # integrator either detects blow-up or exhausts its step budget there;
    # past the pole the blow-up bound must trip.
    budget = Tolerance(max_steps=4096)
    with pytest.raises((BlowupError, StepLimitError)):
        solve_tprime(EPS_T2, 1.0, 1.0, budget)
    with pytest.raises(BlowupError):
        solve_tprime(EPS_T2, 1.0, 1.5, budget)


def test_tprime_root_at_start():
    with pytest.raises(EpsilonRootError):
        solve_tprime(EPS_T, 0.0, 1.0)


def test_tprime_refusals_near_a_root_on_the_path():
    # t'(rho) = 1 - exp(-rho) creeps up to the root of eps at t = 1: at
    # rho = 30 the quadrature check of int dt/eps = rho misses its budget,
    # and at rho = 40 t' rounds onto the root
    eps = EpsilonFn.from_formula("1 - t")
    with pytest.raises(ReparametrizationError, match="integral residual .* above budget"):
        solve_tprime(eps, 0.0, 30.0)
    with pytest.raises(EpsilonRootError, match="on path at t = 1.0"):
        solve_tprime(eps, 0.0, 40.0)


def test_tprime_monotone_in_t():
    ts = np.linspace(0.5, 1.5, 7)
    tps = [solve_tprime(EPS_POLY, float(t), 1.0) for t in ts]
    assert all(b > a for a, b in zip(tps, tps[1:]))


# ------------------------------------------------------------ primary law


def test_primary_translation_carries_no_weight():
    p = SVParams(m=1.5, chi=0.8)
    tr = primary_transform(EPS_ONE, p, t=0.4, r=1.7, rho=1.0)
    assert tr.t_prime == pytest.approx(1.4, abs=1e-12)
    assert tr.r_prime == pytest.approx(1.7, rel=1e-12)
    assert tr.prefactor == pytest.approx(1.0, rel=1e-12)


def test_primary_closed_form_case():
    # eps = t, N=1, chi=0.5, m=2, (t, r) = (1, 1), rho=1
    p = SVParams(m=2.0, chi=0.5, N=1.0)
    tr = primary_transform(EPS_T, p, t=1.0, r=1.0, rho=1.0, tol=TIGHT)
    assert tr.t_prime == pytest.approx(math.e, rel=1e-11)
    assert tr.r_prime == pytest.approx(math.sqrt(math.e), rel=1e-11)
    assert tr.prefactor == pytest.approx(math.exp(0.25), rel=1e-10)


def test_primary_weightless_field():
    p = SVParams(m=0.0, chi=0.0)
    for eps in (EPS_T, EPS_POLY):
        tr = primary_transform(eps, p, t=0.8, r=1.2, rho=0.7)
        assert tr.prefactor == 1.0


def test_negative_eps_keeps_ratio_positive():
    # a flow cannot cross a root of its own field, so eps < 0 on the whole
    # path gives a positive ratio and the law stays on the real branch
    p = SVParams(m=1.0, chi=0.5)
    tp = solve_tprime(EPS_T, -0.5, 2.0, TIGHT)
    assert tp == pytest.approx(-0.5 * math.exp(2.0), rel=1e-10)
    tr = primary_transform(EPS_T, p, t=-0.5, r=1.0, rho=2.0, tol=TIGHT)
    assert tr.prefactor > 0.0


def test_rprime_over_r_independent_of_r():
    p = SVParams(m=1.3, chi=0.7)
    tr1 = primary_transform(EPS_POLY, p, t=0.5, r=0.5)
    tr2 = primary_transform(EPS_POLY, p, t=0.5, r=2.0)
    assert tr1.r_prime / 0.5 == pytest.approx(tr2.r_prime / 2.0, rel=1e-12)


def test_primary_vs_flow_translation():
    p = SVParams(m=1.0, chi=0.4)
    psi = scalar_field("sin(t) * exp(-r^2)", CHART)
    assert primary_vs_flow_residual(EPS_ONE, p, psi, 0.3, 1.1) <= 1e-9


def test_primary_vs_flow_generic():
    p = SVParams(m=1.3, chi=0.7, N=1.0)
    psi = scalar_field("exp(-r^2 / (1 + t^2))", CHART)
    res = primary_vs_flow_residual(EPS_POLY, p, psi, 0.5, 1.2)
    assert res <= 1e-7


def test_primary_vs_flow_pure_coordinate_flow():
    p = SVParams(m=0.0, chi=0.0)
    psi = scalar_field("t^2 + r^2", CHART)
    res = primary_vs_flow_residual(EPS_POLY, p, psi, 0.6, 0.9)
    assert res <= 1e-8


def test_primary_composition():
    p = SVParams(m=1.1, chi=0.6)
    t, r = 0.4, 1.3
    r1, r2 = 0.4, 0.6
    one = primary_transform(EPS_POLY, p, t, r, rho=r1 + r2, tol=TIGHT)
    leg1 = primary_transform(EPS_POLY, p, t, r, rho=r1, tol=TIGHT)
    leg2 = primary_transform(EPS_POLY, p, leg1.t_prime, leg1.r_prime, rho=r2, tol=TIGHT)
    assert leg2.t_prime == pytest.approx(one.t_prime, abs=1e-8)
    assert leg2.r_prime == pytest.approx(one.r_prime, abs=1e-8)
    assert leg1.prefactor * leg2.prefactor == pytest.approx(one.prefactor, abs=1e-8)


# ------------------------------------------------------------ off N = 1
#
# At N = 1, N/2 = 1/2, N chi/2 = chi/2 and 2/N = 2, so a law or generator
# that drops N passes every criterion, all of which run at N = 1.  These
# run the claims' gates at other (N, chi, m); at N = 0.8, 2/N = 2.5 is not
# an integer, so r stays positive.

OFF_N_ONE = [(2.0, 0.7, 1.3), (0.5, 0.7, 1.3), (0.8, 1.3, 0.4)]


@pytest.mark.parametrize("N, chi, m", OFF_N_ONE)
@pytest.mark.parametrize("eps", [EPS_T, EPS_POLY], ids=["t", "poly"])
def test_primary_law_gates_hold_off_n_one(eps, N, chi, m):
    tr = primary_transform(eps, SVParams(m=m, chi=chi, N=N), t=0.5, r=1.2)
    psi = scalar_field(verification.PRIMARY_PSI, CHART)
    assert verification.primary_flow_gate(tr.flow_residual(psi)).passed
    jac_res, defect = tr.weight_form_terms()
    gates = verification.weight_form_gates(jac_res + defect, jac_res)
    assert all(gate.passed for gate in gates), gates


@pytest.mark.parametrize("N", [2.0, 0.5, 0.8])
def test_bracket_gate_holds_off_n_one(N):
    table = verification.virasoro_residuals(SVParams(m=1.3, chi=0.7, N=N),
                                            verification.DEFAULT_SEED)
    assert verification.bracket_gate(max(res for _, _, res in table)).passed


# ------------------------------------------------------------ scale form


def test_weight_form_translation():
    p = SVParams(m=1.0, chi=0.5)
    assert weight_form_residual(EPS_ONE, p, 0.2, 1.4) <= 1e-12


def test_weight_form_dilation_jacobian():
    # eps = t at t = 1, rho = 1: dt'/dt = e = eps(t')/eps(t)
    p = SVParams(m=0.7, chi=0.3)
    res = weight_form_residual(EPS_T, p, 1.0, 0.9, tol=TIGHT)
    assert res <= 1e-9


def test_weight_form_generic_positive_eps():
    p = SVParams(m=1.3, chi=0.7)
    for t, r in [(0.3, 0.8), (0.7, 1.6), (1.0, 0.5)]:
        assert weight_form_residual(EPS_POLY, p, t, r) <= 1e-8


def test_weight_form_terms_sum_to_residual():
    p = SVParams(m=1.3, chi=0.7, N=1.0)
    jac_res, defect = primary_transform(EPS_POLY, p, 0.6, 1.1).weight_form_terms()
    assert 0.0 <= jac_res <= 1e-8 and 0.0 <= defect <= 1e-8
    assert weight_form_residual(EPS_POLY, p, 0.6, 1.1) == jac_res + defect


# ------------------------------------------------------------ half space


def test_map_halfspace_boundary_value():
    tp, rp = map_halfspace(0.0, 1.4, T=2.0, T_prime=3.0)
    assert tp == pytest.approx(3.0, rel=1e-15)
    assert rp == pytest.approx(1.4 * math.sqrt(1.5), rel=1e-15)


def test_map_halfspace_direct_substitution():
    tp, rp = map_halfspace(1.0, 2.0, T=1.0, T_prime=1.0)
    assert tp == pytest.approx(math.e, rel=1e-15)
    assert rp == pytest.approx(2.0 * math.sqrt(math.e), rel=1e-15)


def test_correlator_reduces_at_origin():
    val = halfspace_correlator(math.e, 0.0, T=1.0, T_prime=1.0, d=4)
    assert val == pytest.approx(1.0, rel=1e-14)


def test_correlator_power_law_composition():
    # the correlator equals the flat propagator at the preimage
    rng = np.random.default_rng(8)
    for _ in range(50):
        T, Tp = float(rng.uniform(0.5, 2)), float(rng.uniform(0.5, 2))
        t, r = float(rng.uniform(-1, 1)), float(rng.uniform(0.1, 2))
        d = int(rng.integers(3, 6))
        tp, rp = map_halfspace(t, r, T, Tp)
        corr = halfspace_correlator(tp, rp, T, Tp, d)
        flat = (r**2 + t**2) ** (-(d - 2) / 2.0)
        assert corr == pytest.approx(flat, rel=1e-10)


def test_correlator_singular_point():
    with pytest.raises(CorrelatorSingularityError):
        halfspace_correlator(1.0, 0.0, T=1.0, T_prime=1.0, d=4)


@pytest.mark.parametrize("args, name", [
    ((math.nan, 1.0, 1.0, 1.0), "t"),
    ((0.5, math.inf, 1.0, 1.0), "r"),
    ((0.5, 1.0, math.inf, 1.0), "T"),
    ((0.5, 1.0, 1.0, -math.inf), "T'"),
])
def test_map_halfspace_refuses_a_value_that_is_not_finite(args, name):
    # these returned (nan, nan), r' = inf and (1.0, 0.0)
    with pytest.raises(fc.InputError, match=f"^{name} must be finite, got "):
        map_halfspace(*args)


@pytest.mark.parametrize("args, name", [
    ((math.inf, 0.5, 1.0, 1.0, 4), "t'"),
    ((1.0, math.nan, 1.0, 1.0, 4), "r'"),
    ((1.0, 0.5, math.nan, 1.0, 4), "T"),
    ((1.0, 0.5, 1.0, math.inf, 4), "T'"),
    ((1.0, 0.5, 1.0, 1.0, math.inf), "d"),
])
def test_correlator_refuses_a_value_that_is_not_finite(args, name):
    with pytest.raises(fc.InputError, match=f"^{name} must be finite, got "):
        halfspace_correlator(*args)


def test_map_halfspace_overflow_is_a_domain_error():
    # math.exp(1000) raised a bare OverflowError
    with pytest.raises(DomainError) as exc:
        map_halfspace(1000.0, 1.0, 1.0, 1.0)
    assert exc.value.kind == "overflow"
    with pytest.raises(DomainError) as exc:
        map_halfspace(0.0, 1.0, 1e-300, 1e300)  # sqrt(T'/T) is infinite
    assert exc.value.kind == "overflow"


@pytest.mark.parametrize("args", [(-1000.0, 1.0, 1.0, 1.0), (-746, 1, 1, 1),
                                  (-100.0, 1.0, 1.0, 1e-300)])
def test_map_halfspace_underflow_is_a_domain_error(args):
    # T' exp(t/T) rounded to 0 and (0.0, r') came back, a point that
    # halfspace_correlator refuses as an input error
    with pytest.raises(DomainError, match="^t' = T' exp\\(t/T\\) underflows to 0") as exc:
        map_halfspace(*args)
    assert exc.value.kind == "overflow"


@pytest.mark.parametrize("call, args, name", [
    (map_halfspace, (10**400, 1, 1, 1), "t"),
    (map_halfspace, (0.5, -10**400, 1, 1), "r"),
    (map_halfspace, (0.5, 1, 10**400, 1), "T"),
    (map_halfspace, (0.5, 1, 1, 10**400), "T'"),
    (halfspace_correlator, (10**400, 0.5, 1.0, 1.0, 4), "t'"),
    (halfspace_correlator, (1.0, 10**400, 1.0, 1.0, 4), "r'"),
    (halfspace_correlator, (1.0, 0.5, 1.0, 1.0, 10**400), "d"),
])
def test_halfspace_refuses_an_int_beyond_the_double_range(call, args, name):
    # math.isfinite raised a bare OverflowError: int too large to convert to float
    with pytest.raises(fc.InputError, match=f"^{name} lies beyond the double range$"):
        call(*args)


def test_correlator_log_of_an_underflowed_ratio_is_a_domain_error():
    # t'/T' = 1e-600 rounds to 0, and math.log(0.0) raised a bare ValueError
    with pytest.raises(DomainError, match="^log of non-positive value 0.0$"):
        halfspace_correlator(1e-300, 0.5, 1.0, 1e300, 4)


def test_power_overflow_is_a_domain_error():
    with pytest.raises(DomainError) as exc:
        halfspace_correlator(1.0, 1e-160, 1.0, 1.0, 5)
    assert exc.value.kind == "overflow"
    with pytest.raises(DomainError):
        EpsilonFn.from_formula("1 + t^6").value(1e100)
    with pytest.raises(DomainError):
        EpsilonFn.from_formula("(1e-200*t)^-2")
    with pytest.raises(DomainError):
        primary_transform(EpsilonFn.from_formula("1 + t"), SVParams(m=1.3, chi=2000.0),
                          0.5, 1.2)


def test_epsilon_sum_overflow_is_a_domain_error():
    # every term is finite for t = 1e10, but c * t^k overflows the sum
    assert math.isinf(1e300 * 1e10**2 + 1.0)
    with pytest.raises(DomainError) as exc:
        EpsilonFn.from_formula("1e300*t^2 + 1").value(1e10)
    assert exc.value.kind == "overflow"
    eps = EpsilonFn.from_formula("1e300*t^3 + 1")
    second = fc.compile_expression(eps.expression("t", 2))
    for method in (eps.value, eps.deriv, lambda t: second({"t": t})):
        with pytest.raises(DomainError) as exc:
            method(1e10)
        assert exc.value.kind == "overflow"


def test_long_laurent_formula_parses():
    eps = EpsilonFn.from_formula(" + ".join(["t"] * 3000))
    assert eps.terms == ((0, 3000.0),)
    assert eps.value(0.5) == 1500.0


def test_the_generator_memo_ends_with_its_derivative_memo_block():
    import gc
    import weakref

    eps, p = EpsilonFn.from_formula("1 + 0.1*t + 0.05*t^2"), SVParams(m=1.3, chi=0.7)
    with fc.derivative_memo():
        B, C = build_generator(eps, p)
        assert build_generator(eps, p) == (B, C) and build_generator(eps, p)[0] is B
        with fc.derivative_memo():
            assert build_generator(eps, p)[0] is not B  # an inner block builds its own
        assert build_generator(eps, p)[0] is B
        gone = weakref.ref(B)
        del B, C
        gc.collect()
        assert gone() is not None  # the block's memo holds it
    gc.collect()
    assert gone() is None

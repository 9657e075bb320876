import contextlib
import math
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from svflow import fieldcalc as fc
from svflow import flowexp
from svflow.fieldcalc import DomainError, Point, scalar_field, vector_field
from svflow.flowexp import (
    DEFAULT_TOLERANCE,
    BlowupError,
    FlowError,
    FlowResult,
    SeriesOrderError,
    StepLimitError,
    Tolerance,
    apply_exponential,
    displacement_series,
    integrate_flow,
    pushforward_defect,
    pushforward_residual,
    series_oracle,
    taylor_sum,
    series_terms,
)

T1 = ("t",)
TR = ("t", "r")
TIGHT = Tolerance(absolute=1e-12, relative=1e-12)


def fit_slope(rhos, diffs, floor=0.0):
    rhos = np.asarray(rhos)
    diffs = np.asarray(diffs)
    mask = diffs > floor
    assert mask.sum() >= 3, "not enough points above the noise floor"
    return np.polyfit(np.log10(rhos[mask]), np.log10(diffs[mask]), 1)[0]


# ------------------------------------------------------------ integrate_flow


def test_translation_flow():
    B = vector_field(["1"], T1)
    res = integrate_flow(B, Point(T1, (1.0,)), 0.5)
    assert res.endpoint.coords[0] == pytest.approx(1.5, abs=1e-12)
    assert res.phase == 0.0


def test_exponential_flow_closed_form():
    # dt/drho = t  =>  t' = t e^rho; oracle: 2e
    B = vector_field(["t"], T1)
    res = integrate_flow(B, Point(T1, (2.0,)), 1.0, TIGHT)
    assert res.endpoint.coords[0] == pytest.approx(2.0 * math.e, rel=1e-11)
    assert res.estimated_error <= TIGHT.absolute + TIGHT.relative * 2.0 * math.e


def test_blowup_detected():
    # dt/drho = t^2 from t=1 diverges at rho=1 (solution 1/(1-rho))
    B = vector_field(["t^2"], T1)
    with pytest.raises(BlowupError):
        integrate_flow(B, Point(T1, (1.0,)), 2.0)


def test_an_overflowing_phase_is_a_blowup():
    # the charge -1e308 takes the phase to -inf in the first RK4 update;
    # the step-doubling estimate then warned on inf - inf and ran to the cap
    B = vector_field(["t"], T1)
    C = scalar_field("-1e308", T1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowupError, match="^the phase overflowed within 8 steps$"):
            integrate_flow(B, Point(T1, (1.0,)), 0.3, Tolerance(max_steps=64), charge=C)


def test_an_overflowing_taylor_sum_is_a_domain_error():
    with pytest.raises(DomainError, match="pow overflowed"):
        taylor_sum([1.0, 1.0, 1.0], 1e200)


def test_step_limit_error():
    B = vector_field(["t"], T1)
    tol = Tolerance(absolute=1e-16, relative=1e-16, max_steps=32)
    with pytest.raises(StepLimitError):
        integrate_flow(B, Point(T1, (1.0,)), 1.0, tol)


def test_chart_mismatch_rejected():
    B = vector_field(["t"], T1)
    x = Point(T1, (1.0,))
    with pytest.raises(ValueError):
        integrate_flow(B, Point(TR, (1.0, 2.0)), 0.1)
    with pytest.raises(ValueError):
        integrate_flow(B, Point(TR, (1.0, 2.0)), 0.1, jacobian=True)
    with pytest.raises(ValueError):
        integrate_flow(B, x, 0.1, charge=scalar_field("r", TR))
    # the series read the point by name: one on ("s",) raised a bare
    # KeyError, and one on ("t", "r") was read as if it were on ("t",)
    psi = scalar_field("t^2", T1)
    for y in (Point(("s",), (1.0,)), Point(TR, (1.0, 2.0))):
        with pytest.raises(fc.InputError, match="chart mismatch"):
            series_terms(B, None, psi, y, 2)
        with pytest.raises(fc.InputError, match="chart mismatch"):
            displacement_series(B, y, 0.1, 2)
    for rho in (math.nan, math.inf):
        with pytest.raises(ValueError):
            integrate_flow(B, x, rho, jacobian=True)
        with pytest.raises(ValueError):
            integrate_flow(B, x, rho, charge=scalar_field("t", T1))
        with pytest.raises(ValueError):
            pushforward_residual(B, x, rho)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(absolute=-1e-10)
    with pytest.raises(ValueError):
        Tolerance(max_steps=0)


@pytest.mark.parametrize("field", ["absolute", "relative", "max_steps"])
def test_tolerance_refuses_an_infinite_field(field):
    # an infinite absolute tolerance passed every round: the flow of t^2
    # from 1 to rho = 0.9 stopped at 9.9896 after 16 steps, short of 10
    with pytest.raises(fc.InputError, match=f"^tolerance {field} must be finite, got inf$"):
        Tolerance(**{field: math.inf})


# ------------------------------------------------------------ flow_jacobian


def test_jacobian_translation_is_identity():
    B = vector_field(["1", "1"], TR)
    J = integrate_flow(B, Point(TR, (0.3, -0.2)), 2.0, jacobian=True).jacobian
    assert np.allclose(J, np.eye(2), atol=1e-12)


def test_jacobian_exponential_flow():
    B = vector_field(["t"], T1)
    J = integrate_flow(B, Point(T1, (1.7,)), 1.0, TIGHT, jacobian=True).jacobian
    assert J.shape == (1, 1)
    assert J[0, 0] == pytest.approx(math.e, rel=1e-11)


def test_jacobian_at_zero_rho():
    B = vector_field(["t*r", "r^2 - t"], TR)
    J = integrate_flow(B, Point(TR, (0.4, 0.8)), 0.0, jacobian=True).jacobian
    assert np.array_equal(J, np.eye(2))


# ------------------------------------------------------------ phase


def test_phase_zero_charge():
    B = vector_field(["t"], T1)
    C = scalar_field("0", T1)
    assert integrate_flow(B, Point(T1, (1.0,)), 1.0, charge=C).phase == 0.0


def test_phase_constant_along_translation():
    B = vector_field(["1"], T1)
    C = scalar_field("3.25", T1)
    T = integrate_flow(B, Point(T1, (0.2,)), 0.8, charge=C).phase
    assert T == pytest.approx(3.25 * 0.8, rel=1e-12)


def test_phase_closed_form_path_integral():
    # B = t d/dt, C = 1/t, from t=1: T = int_0^1 e^{-s} ds = 1 - 1/e
    B = vector_field(["t"], T1)
    C = scalar_field("1/t", T1)
    T = integrate_flow(B, Point(T1, (1.0,)), 1.0, TIGHT, charge=C).phase
    assert T == pytest.approx(1.0 - 1.0 / math.e, rel=1e-11)


# ------------------------------------------------------------ apply_exponential


def test_apply_exponential_identity_at_zero_rho():
    B = vector_field(["t + r", "r"], TR)
    C = scalar_field("t*r", TR)
    psi = scalar_field("sin(t) + r^2", TR)
    x = Point(TR, (0.3, 0.9))
    assert apply_exponential(B, C, psi, x, 0.0) == psi.eval_at(x)


def test_apply_exponential_translation_constant_charge():
    c0 = 1.3
    B = vector_field(["1"], T1)
    C = scalar_field(f"{c0}", T1)
    psi = scalar_field("t^2", T1)
    out = apply_exponential(B, C, psi, Point(T1, (1.0,)), 0.5, TIGHT)
    assert out == pytest.approx(math.exp(0.5 * c0) * 2.25, rel=1e-11)


def test_factorized_product_overflow_is_a_domain_error():
    # exp(700) and psi = 1e10 are finite, their product is not; it came
    # back as inf
    B = vector_field(["0*t"], T1)
    C = scalar_field("700 + 0*t", T1)
    psi = scalar_field("1e10 + 0*t", T1)
    with pytest.raises(DomainError) as err:
        apply_exponential(B, C, psi, Point(T1, (1.0,)), 1.0)
    assert err.value.kind == "overflow"


def test_apply_exponential_agrees_with_series_at_small_rho():
    B = vector_field(["0.5*t + 0.2*r", "0.3*r"], TR)
    C = scalar_field("0.4*t", TR)
    psi = scalar_field("t^2 + r*t", TR)
    x = Point(TR, (0.8, 0.6))
    rho = 0.01
    a = apply_exponential(B, C, psi, x, rho, TIGHT)
    b = series_oracle(B, C, psi, x, rho, order=8)
    assert a == pytest.approx(b, abs=1e-12)


# ------------------------------------------------------------ series oracle


def test_series_order_zero_and_one_by_construction():
    B = vector_field(["t*r", "r"], TR)
    C = scalar_field("t + r", TR)
    psi = scalar_field("t^3 - r", TR)
    x = Point(TR, (1.1, 0.7))
    rho = 0.37
    vals = series_terms(B, C, psi, x, 1)
    assert series_oracle(B, C, psi, x, rho, 0) == vals[0]
    assert series_oracle(B, C, psi, x, rho, 1) == pytest.approx(
        vals[0] + rho * vals[1], rel=1e-15
    )
    # first application, assembled by hand: B.d psi + C psi at x
    t, r = x.coords
    manual = (t * r) * (3 * t**2) + r * (-1.0) + (t + r) * (t**3 - r)
    assert vals[1] == pytest.approx(manual, rel=1e-14)


def test_series_closed_form_exponential():
    # B = t d/dt, psi = t at t=1: partial sums of e^rho
    B = vector_field(["t"], T1)
    psi = scalar_field("t", T1)
    x = Point(T1, (1.0,))
    rho = 0.7
    for order in (0, 2, 5, 8):
        expected = sum(rho**n / math.factorial(n) for n in range(order + 1))
        got = series_oracle(B, None, psi, x, rho, order)
        assert got == pytest.approx(expected, rel=1e-14)


def test_series_order_cap():
    B = vector_field(["t"], T1)
    psi = scalar_field("t", T1)
    with pytest.raises(SeriesOrderError):
        series_oracle(B, None, psi, Point(T1, (1.0,)), 0.1, 9)
    # the cap is read at each call
    with mock.patch.object(flowexp, "DEFAULT_MAX_ORDER", 12):
        series_oracle(B, None, psi, Point(T1, (1.0,)), 0.1, 9)


@pytest.mark.parametrize("order", [2.0, True, "2", None])
def test_series_refuses_an_order_that_is_not_an_int(order):
    # order=2.0 raised a bare TypeError from range(); True ran as order 1
    B = vector_field(["t"], T1)
    psi = scalar_field("t", T1)
    x = Point(T1, (1.0,))
    for call in (lambda: series_terms(B, None, psi, x, order),
                 lambda: series_oracle(B, None, psi, x, 0.1, order),
                 lambda: displacement_series(B, x, 0.1, order)):
        with pytest.raises(fc.InputError, match=f"^order must be an integer, got {order!r}$"):
            call()


@pytest.mark.parametrize("rho", [math.inf, -math.inf, math.nan])
def test_series_refuses_a_rho_that_is_not_finite(rho):
    # both raised DomainError("pow overflowed the double range"/"pow is
    # NaN") where integrate_flow refuses the same rho as input
    B = vector_field(["t"], T1)
    x = Point(T1, (1.0,))
    with pytest.raises(fc.InputError, match="^rho must be finite$"):
        series_oracle(B, None, scalar_field("t", T1), x, rho, 3)
    with pytest.raises(fc.InputError, match="^rho must be finite$"):
        displacement_series(B, x, rho, 3)


@pytest.mark.parametrize("rho", [0.0, 0.1])
@pytest.mark.parametrize("n_steps", [0, 3, -2, 4.0, "4"])
def test_a_bad_n_steps_is_refused_at_every_rho(rho, n_steps):
    # at rho = 0 the early return came first, and n_steps=3 ran as 0 steps;
    # at rho = 0.1 range() inside the stepper raised a bare TypeError on 4.0
    # and "4"
    B = vector_field(["t"], T1)
    with pytest.raises(fc.InputError, match="^n_steps must be a positive even integer$"):
        integrate_flow(B, Point(T1, (1.0,)), rho, n_steps=n_steps)


@pytest.mark.parametrize("rho, message", [
    ("0.1", "^rho is not a number: '0.1'$"),
    (None, "^rho is not a number: None$"),
    (10**400, "^rho lies beyond the double range$"),
], ids=["str", "None", "huge-int"])
def test_a_rho_that_is_not_a_number_is_refused(rho, message):
    # math.isfinite raised a bare TypeError (or OverflowError)
    B = vector_field(["t"], T1)
    with pytest.raises(fc.InputError, match=message):
        integrate_flow(B, Point(T1, (1.0,)), rho)


# ------------------------------------------------------------ displacement


def test_displacement_translation_exact():
    B = vector_field(["1"], T1)
    for order in (1, 3, 6):
        A = displacement_series(B, Point(T1, (0.4,)), 0.9, order)
        assert A == (0.9,)


def test_displacement_closed_form_series():
    B = vector_field(["t"], T1)
    rho = 0.45
    for order in (1, 4, 7):
        A = displacement_series(B, Point(T1, (1.0,)), rho, order)
        expected = sum(rho**n / math.factorial(n) for n in range(1, order + 1))
        assert A[0] == pytest.approx(expected, rel=1e-14)


def test_displacement_convergence_order():
    B = vector_field(["0.6*t + 0.3*t^2"], T1)
    x = Point(T1, (0.9,))
    order = 3
    rhos = np.geomspace(1e-3, 1e-1, 7)
    diffs = []
    for rho in rhos:
        end = integrate_flow(B, x, float(rho), TIGHT).endpoint.coords[0]
        A = displacement_series(B, x, float(rho), order)
        diffs.append(abs(A[0] - (end - x.coords[0])))
    slope = fit_slope(rhos, diffs, floor=1e-15)
    assert slope == pytest.approx(order + 1, abs=0.25)


# ------------------------------------------------------------ pushforward


def test_pushforward_constant_field_zero():
    B = vector_field(["1", "1"], TR)
    assert pushforward_residual(B, Point(TR, (0.1, 0.2)), 1.3) == 0.0


def test_pushforward_linear_field_small():
    B = vector_field(["t", "r"], TR)
    res = pushforward_residual(B, Point(TR, (0.83, -0.41)), 0.7)
    assert res <= 1e-8


def test_pushforward_zero_rho_exact():
    B = vector_field(["t^2*r", "sin(t)"], TR)
    assert pushforward_residual(B, Point(TR, (0.4, 0.9)), 0.0) == 0.0


def test_pushforward_polynomial_suite():
    fields = [
        vector_field(["r", "-t"], TR),          # rotation
        vector_field(["0.5*t + 0.1*r", "0.3*r"], TR),
        vector_field(["0.2*t^2 + 0.1", "0.4*t*r"], TR),
        vector_field(["u*v", "0.3*w", "0.2*u"], ("u", "v", "w")),
    ]
    rng = np.random.default_rng(5)
    for B in fields:
        x = Point(B.chart, tuple(rng.uniform(0.2, 0.8, len(B.chart))))
        res = pushforward_residual(B, x, 0.5)
        assert res <= 10 * (1e-10 + 1e-9)


# ------------------------------------------------------------ invariants


def test_semigroup_property():
    B = vector_field(["0.4*t + 0.2*r^2", "0.3*r - 0.1*t"], TR)
    x = Point(TR, (0.5, 0.4))
    r1, r2 = 0.3, 0.45
    direct = integrate_flow(B, x, r1 + r2, TIGHT).endpoint
    mid = integrate_flow(B, x, r1, TIGHT).endpoint
    two_leg = integrate_flow(B, mid, r2, TIGHT).endpoint
    assert np.allclose(direct.coords, two_leg.coords, atol=5e-11)


def test_phase_additivity():
    B = vector_field(["0.4*t + 0.2*r^2", "0.3*r - 0.1*t"], TR)
    C = scalar_field("0.5*t*r + 0.2", TR)
    x = Point(TR, (0.5, 0.4))
    r1, r2 = 0.3, 0.45
    whole = integrate_flow(B, x, r1 + r2, TIGHT, charge=C)
    leg1 = integrate_flow(B, x, r1, TIGHT, charge=C)
    leg2 = integrate_flow(B, leg1.endpoint, r2, TIGHT, charge=C)
    assert whole.phase == pytest.approx(leg1.phase + leg2.phase, abs=5e-11)


def test_endpoint_bitwise_independent_of_charge():
    B = vector_field(["0.4*t + 0.2*r^2", "0.3*r - 0.1*t"], TR)
    C = scalar_field("17.5*t*r - 3", TR)
    x = Point(TR, (0.5, 0.4))
    bare = integrate_flow(B, x, 0.8, n_steps=64)
    charged = integrate_flow(B, x, 0.8, charge=C, n_steps=64)
    assert bare.endpoint.coords == charged.endpoint.coords  # bitwise
    assert charged.phase != 0.0
    # the variational block rides along without touching the endpoint either
    varied = integrate_flow(B, x, 0.8, jacobian=True, n_steps=64)
    both = integrate_flow(B, x, 0.8, charge=C, jacobian=True, n_steps=64)
    assert varied.endpoint.coords == bare.endpoint.coords  # bitwise
    assert both.endpoint.coords == bare.endpoint.coords  # bitwise
    assert both.phase == charged.phase  # bitwise
    assert np.array_equal(both.jacobian, varied.jacobian)
    assert bare.jacobian is None and charged.jacobian is None


_DENSE_3D = [
    "0.3*t*r + 0.2*s^2 + 0.1*t",
    "0.2*t*s - 0.1*r^2 + 0.05*s",
    "0.1*exp(0.5*t)*r - 0.3*s*r",
]


def test_jacobian_of_a_dense_3d_field():
    chart = ("t", "r", "s")
    B = vector_field(_DENSE_3D, chart)
    # every entry of dB/dx depends on the point, so no product term drops
    for comp in B.components:
        for name in chart:
            assert not isinstance(fc.differentiate(comp, name), fc.Const)
    x = Point(chart, (0.4, -0.7, 0.9))
    C = scalar_field("t*r - s", chart)
    for args in (dict(), dict(n_steps=32), dict(charge=C)):
        assert assert_matches_array_reference(B, x, 0.6, TIGHT, jacobian=True, **args) is None
    # J^nu_mu = dx'^nu/dx^mu, against central differences of the endpoint
    J = integrate_flow(B, x, 0.6, TIGHT, jacobian=True).jacobian
    h = 1e-5
    for mu in range(3):
        shifted = []
        for sign in (1.0, -1.0):
            coords = list(x.coords)
            coords[mu] += sign * h
            end = integrate_flow(B, Point(chart, coords), 0.6, TIGHT).endpoint
            shifted.append(np.array(end.coords))
        column = (shifted[0] - shifted[1]) / (2 * h)
        assert np.allclose(J[:, mu], column, rtol=0, atol=1e-8)
    assert pushforward_defect(B, x, integrate_flow(B, x, 0.6, TIGHT, jacobian=True)) < 1e-9


def test_an_overflowing_pushforward_is_a_domain_error():
    # the row sum 1e308 * 1 + 1e308 * 1 of J B(x) overflows; the defect read inf
    B = vector_field(["1", "1"], TR)
    x = Point(TR, (1.0, 0.5))
    flow = FlowResult(x, 0.0, 0, 0.0, jacobian=np.array([[1e308, 1e308], [0.0, 1.0]]))
    with pytest.raises(DomainError, match="^sum overflowed the double range$"):
        pushforward_defect(B, x, flow)


@pytest.mark.parametrize("names", [("_J[1,0]", "_T"), ("_J[0,1]", "_J[1,0]"), ("J", "T")])
def test_coordinate_names_like_the_state_variables(names):
    # the same flow over a chart named like the extra state of a (t, r)
    # run must give bitwise the same endpoint, phase and Jacobian
    B = vector_field(["r*t - 0.5*r", "0.3*t^2 + r"], TR)
    C = scalar_field("t - r^2", TR)
    x = Point(TR, (0.5, 0.4))

    def rename(e):
        return fc.substitute(fc.substitute(e, "t", fc.Var(names[0])), "r", fc.Var(names[1]))

    B2 = fc.VectorField(names, tuple(map(rename, B.components)))
    C2 = fc.ScalarField(names, rename(C.expression))
    x2 = Point(names, x.coords)
    for n_steps in (None, 16):
        want = integrate_flow(B, x, 0.7, charge=C, jacobian=True, n_steps=n_steps)
        got = integrate_flow(B2, x2, 0.7, charge=C2, jacobian=True, n_steps=n_steps)
        assert _bits(got.endpoint.coords) == _bits(want.endpoint.coords)
        assert _bits([got.phase]) == _bits([want.phase])
        assert got.jacobian.tobytes() == want.jacobian.tobytes()


def test_proposition_convergence_order():
    # |apply_exponential - series(order k)| ~ rho^{k+1}
    B = vector_field(["0.7*t + 0.3*r", "0.4*r"], TR)
    C = scalar_field("0.5*t", TR)
    psi = scalar_field("t^2*r + r", TR)
    x = Point(TR, (0.9, 0.8))
    order = 2
    rhos = np.geomspace(1e-3, 1e-1, 9)
    diffs = []
    for rho in rhos:
        a = apply_exponential(B, C, psi, x, float(rho), TIGHT)
        b = series_oracle(B, C, psi, x, float(rho), order)
        diffs.append(abs(a - b))
    slope = fit_slope(rhos, diffs, floor=1e-14)
    assert slope == pytest.approx(order + 1, abs=0.1)


def test_domain_error_propagates_from_field():
    B = vector_field(["log(t)"], T1)
    with pytest.raises(DomainError):
        integrate_flow(B, Point(T1, (0.5,)), 2.0)  # flow reaches t <= 0? no: log(t)<0 pulls t down


def test_series_expression_size_limit():
    from svflow.flowexp import ExpressionSizeError

    B = vector_field(["0.5*t + 0.2*r", "0.3*r"], TR)
    C = scalar_field("0.4*t", TR)
    psi = scalar_field("exp(-r^2/(1 + t^2))", TR)
    with mock.patch.object(flowexp, "DEFAULT_MAX_NODES", 2000):
        with pytest.raises(ExpressionSizeError):
            series_oracle(B, C, psi, Point(TR, (0.5, 0.5)), 0.1, 8)


# ------------------------------------------- array-based reference integrator
# The integrator as it ran on numpy arrays, before its inner loop moved to
# plain floats.  It stays here only as a reference: integrate_flow must give
# bitwise the same results, and the same first error, in every mode.


def _array_rk4_run(deriv, y0, rho, n, blowup_bound, n_coords, phase):
    h = rho / n
    y = np.array(y0, dtype=float)
    for k in range(n):
        try:
            k1 = np.asarray(deriv(y))
            k2 = np.asarray(deriv(y + (0.5 * h) * k1))
            k3 = np.asarray(deriv(y + (0.5 * h) * k2))
            k4 = np.asarray(deriv(y + h * k3))
        except DomainError as err:
            if err.kind == "overflow":
                raise BlowupError(f"field evaluation overflowed: {err}") from err
            # _array_deriv refuses a J entry by its position in y, the
            # coordinates' program refuses a coordinate by its name
            if isinstance(err, fc.VariableError) and isinstance(err.key, int):
                raise BlowupError(f"the Jacobian overflowed within {n} steps") from err
            if isinstance(err, fc.VariableError) and np.all(np.isfinite(y0[:n_coords])):
                raise BlowupError(f"coordinate {err.name} overflowed within {n} steps") from err
            raise
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y[:n_coords])) or np.max(
            np.abs(y[:n_coords])
        ) > blowup_bound:
            raise BlowupError(
                f"coordinate magnitude exceeded {blowup_bound:g} at step {k + 1}/{n}"
            )
    if phase and not np.isfinite(y[n_coords]):
        raise BlowupError(f"the phase overflowed within {n} steps")
    if not np.all(np.isfinite(y[n_coords + phase:])):
        raise BlowupError(f"the Jacobian overflowed within {n} steps")
    return y


def _array_integrate(deriv, y0, rho, tol, blowup_bound, n_coords, phase, n_steps=None):
    y0 = np.array(y0, dtype=float)
    if rho == 0.0:
        return y0, 0, 0.0
    if n_steps is not None:
        coarse = _array_rk4_run(deriv, y0, rho, n_steps // 2, blowup_bound, n_coords, phase)
        fine = _array_rk4_run(deriv, y0, rho, n_steps, blowup_bound, n_coords, phase)
        est = float(np.max(np.abs(fine - coarse))) / 15.0
        return fine, n_steps, est
    n = 8
    y_coarse = _array_rk4_run(deriv, y0, rho, n, blowup_bound, n_coords, phase)
    while True:
        if 2 * n > tol.max_steps:
            raise StepLimitError(
                f"error estimate above tolerance at {n} steps (max {tol.max_steps})"
            )
        y_fine = _array_rk4_run(deriv, y0, rho, 2 * n, blowup_bound, n_coords, phase)
        err = np.abs(y_fine - y_coarse) / 15.0
        scale = tol.absolute + tol.relative * np.abs(y_fine)
        if np.all(err <= scale):
            return y_fine, 2 * n, float(np.max(err))
        n *= 2
        y_coarse = y_fine


def _array_deriv(B, C, with_jacobian):
    """The augmented derivative on arrays.  The variational product takes
    the terms of flowexp's program in its order: entry (i, j) sums
    dB^i/dx^k * J_kj over ascending k through the checked helpers,
    skipping a derivative that is the constant zero and evaluating each of
    row i's derivatives at its first use.  Like the program, it loads
    (checks) the coordinates, then the J entries it reads, before any
    arithmetic."""
    d = B.dimension
    exprs = list(B.components)
    if C is not None:
        exprs.append(C.expression)
    head = len(exprs)
    run = fc.compile_expressions(exprs)
    used = set().union(*map(fc.variables_of, exprs))
    grads = [[fc.differentiate(comp, name) for name in B.chart] for comp in B.components]
    grad_runs = [[fc.compile_expression(g) for g in row] for row in grads]
    terms = [[k for k in range(d) if not fc.is_const(grads[i][k], 0.0)] for i in range(d)]
    loads = dict.fromkeys(k * d + j for i in range(d) for j in range(d) for k in terms[i])
    pad = "_" * max(map(len, B.chart))

    def deriv(y):
        env = dict(zip(B.chart, y[:d]))
        if with_jacobian and all(math.isfinite(env[n]) for n in used):
            for m in loads:
                v = y[head + m]
                if not math.isfinite(v):
                    raise fc.VariableError(f"{pad}J[{m // d},{m % d}]", head + m, v)
        out = run(env)
        if with_jacobian:
            J = y[head:]
            for i in range(d):
                row = {}
                for j in range(d):
                    total = None
                    for k in terms[i]:
                        if k not in row:
                            row[k] = grad_runs[i][k](env)
                        term = fc._eval_mul(row[k], J[k * d + j])
                        total = term if total is None else fc._eval_add(total, term)
                    out.append(0.0 if total is None else total)
        return np.array(out)

    return deriv


def array_flow(B, x, rho, tol, charge=None, jacobian=False, n_steps=None):
    """(endpoint coords, phase, steps, estimated error, jacobian), with the
    coordinates bounded by flowexp.BLOWUP_BOUND."""
    d = B.dimension
    y0 = list(x.coords)
    if charge is not None:
        y0.append(0.0)
    if jacobian:
        y0.extend(np.eye(d).ravel())
    deriv = _array_deriv(B, charge, jacobian)
    with np.errstate(all="ignore"):  # numpy scalars warn where floats raise
        y, steps, est = _array_integrate(
            deriv, y0, rho, tol, flowexp.BLOWUP_BOUND, d, charge is not None, n_steps=n_steps
        )
    return (
        tuple(float(v) for v in y[:d]),
        float(y[d]) if charge is not None else 0.0,
        steps,
        est,
        y[-d * d:].reshape(d, d) if jacobian else None,
    )


def _bits(values):
    return [struct.pack("<d", v) for v in values]


_COEFFS = st.sampled_from([-2.0, -0.7, -0.25, 0.3, 0.5, 1.0, 1.5])


@st.composite
def flow_setups(draw):
    """A random polynomial/exp field (with an occasional log, for a domain
    error) in 1-3 dimensions, a charge of the same kind, a point and rho."""
    d = draw(st.integers(1, 3))
    chart = ("t", "r", "s")[:d]

    def factor():
        name = draw(st.sampled_from(chart))
        kind = draw(st.sampled_from(["pow"] * 5 + ["exp", "exp", "log", "one"]))
        if kind == "pow":
            return f"{name}^{draw(st.integers(1, 4))}"
        if kind == "exp":
            return f"exp({draw(_COEFFS)}*{name})"
        if kind == "log":
            return f"log({name})"
        return "1"

    def formula():
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            factors = [factor() for _ in range(draw(st.integers(1, 2)))]
            terms.append("*".join([repr(draw(_COEFFS))] + factors))
        return " + ".join(terms)

    B = vector_field([formula() for _ in chart], chart)
    charge = scalar_field(formula(), chart) if draw(st.booleans()) else None
    coords = tuple(draw(st.floats(-1.5, 1.5, width=32)) for _ in chart)
    rho = draw(st.sampled_from([0.0, -0.6, 0.05, 0.3, 1.0, 2.5, 8.0]))
    return B, charge, Point(chart, coords), rho


@contextlib.contextmanager
def call_stages():
    """A fresh program memo in which every flow program's stepper calls
    the program's interpreter in each RK4 stage."""
    with mock.patch.object(flowexp, "MAX_STEPPER_OPS", -1), fc.derivative_memo():
        yield


# steppers that call the program (which may generate itself mid-flow) and
# steppers that write out its operations
TIERS = (call_stages, fc.derivative_memo)


def assert_matches_array_reference(B, x, rho, tol, **args):
    """integrate_flow equals array_flow bitwise, or raises the same error,
    in both tiers.  Returns the reference's error, or None."""
    try:
        expected = array_flow(B, x, rho, tol, **args)
    except (FlowError, DomainError) as err:
        for tier in TIERS:
            with tier(), pytest.raises(type(err)) as exc:
                integrate_flow(B, x, rho, tol, **args)
            assert type(exc.value) is type(err) and str(exc.value) == str(err)
        return err
    end, phase, steps, est, jac = expected
    for tier in TIERS:
        with tier():
            res = integrate_flow(B, x, rho, tol, **args)
        assert _bits(res.endpoint.coords) == _bits(end)
        assert _bits([res.phase, res.estimated_error]) == _bits([phase, est])
        assert res.steps == steps
        if args.get("jacobian"):
            assert isinstance(res.jacobian, np.ndarray)
            assert res.jacobian.tobytes() == jac.tobytes()
        else:
            assert res.jacobian is None
    return None


@settings(max_examples=150, deadline=None)
@given(
    flow_setups(),
    st.booleans(),
    st.sampled_from([None, 2, 8, 32]),
    st.sampled_from([16, 128, 1024]),
    st.sampled_from([1e12, 10.0]),
)
def test_float_loop_matches_array_reference_bitwise(setup, jacobian, n_steps,
                                                    max_steps, blowup_bound):
    B, charge, x, rho = setup
    tol = Tolerance(absolute=1e-9, relative=1e-9, max_steps=max_steps)
    with mock.patch.object(flowexp, "BLOWUP_BOUND", blowup_bound):
        err = assert_matches_array_reference(
            B, x, rho, tol, charge=charge, jacobian=jacobian, n_steps=n_steps,
        )
    event("endpoint" if err is None
          else f"{type(err).__name__}: {' '.join(str(err).split()[:3])}")


@pytest.mark.parametrize("field, rho, tol, error, message", [
    # t^40 overflows inside a step, before the coordinate check sees it
    (["t^40"], 1.0, DEFAULT_TOLERANCE, BlowupError,
     "field evaluation overflowed: pow overflowed the double range"),
    (["exp(t^2)"], 3.0, DEFAULT_TOLERANCE, BlowupError,
     "field evaluation overflowed: exp("),
    (["t^2"], 2.0, DEFAULT_TOLERANCE, BlowupError, "coordinate magnitude exceeded"),
    (["log(t) - 2"], 1.0, DEFAULT_TOLERANCE, DomainError, "log of non-positive value"),
    (["t"], 1.0, Tolerance(absolute=1e-16, relative=1e-16, max_steps=32),
     StepLimitError, "error estimate above tolerance at 32 steps (max 32)"),
])
@pytest.mark.parametrize("jacobian", [False, True])
@pytest.mark.parametrize("charge", [None, "t^3"])
def test_float_loop_raises_as_array_reference(field, rho, tol, error, message,
                                              jacobian, charge):
    B = vector_field(field, T1)
    C = scalar_field(charge, T1) if charge else None
    x = Point(T1, (1.0,))
    args = dict(charge=C, jacobian=jacobian)
    err = assert_matches_array_reference(B, x, rho, tol, **args)
    assert type(err) is error and str(err).startswith(message)
    # at a fixed step count the first error may be another one, but the same
    assert_matches_array_reference(B, x, rho, tol, n_steps=64, **args)


def test_an_infinite_jacobian_is_a_blowup_that_names_it():
    # J' = J from t = 0, where t stays: the 128 RK4 steps of 7.8 take J past
    # the double range, and the next stage read it.  That ended as
    # DomainError("variable _J[0,0] is infinite").
    err = assert_matches_array_reference(
        vector_field(["t"], T1), Point(T1, (0.0,)), 1000.0, DEFAULT_TOLERANCE, jacobian=True
    )
    assert type(err) is BlowupError and str(err) == "the Jacobian overflowed within 128 steps"


@pytest.mark.parametrize("jacobian", [False, True])
@pytest.mark.parametrize("n_steps, steps", [(None, 8), (64, 32)])
def test_a_coordinate_overflow_inside_a_step_is_a_blowup_in_both_tiers(jacobian, n_steps, steps):
    # stage 4 of the first step reads 0 + h * 1.7e308 with h >= 1.25, past
    # the double range; that ended as DomainError("variable t is infinite")
    err = assert_matches_array_reference(
        vector_field(["1.7e308 + 0*t"], T1), Point(T1, (0.0,)), 10.0 * (steps / 8),
        DEFAULT_TOLERANCE, jacobian=jacobian, n_steps=n_steps,
    )
    assert type(err) is BlowupError and str(err) == f"coordinate t overflowed within {steps} steps"


@pytest.mark.parametrize("n_steps, message", [
    (None, "coordinate magnitude exceeded 1e+12 at step 6/8"),
    (64, "coordinate magnitude exceeded 1e+12 at step 17/32"),
])
def test_the_coordinate_blowup_names_its_step_in_both_tiers(n_steps, message):
    err = assert_matches_array_reference(
        vector_field(["t^2"], T1), Point(T1, (1.0,)), 2.0, DEFAULT_TOLERANCE,
        charge=scalar_field("t", T1), jacobian=True, n_steps=n_steps,
    )
    assert type(err) is BlowupError and str(err) == message


def _rk4_outcome(tier, B, C, y0, rho, n):
    """Bits of the state after n steps of _rk4_run, or its error."""
    with tier():
        _, step = flowexp._field_deriv(B, C, with_jacobian=True)
        try:
            y = flowexp._rk4_run(step, y0, rho, n, B.dimension, C is not None)
        except (FlowError, DomainError) as err:
            return type(err), str(err)
        return _bits(y)


@pytest.mark.parametrize("position, value, outcome", [
    (0, math.inf, (fc.VariableError, "variable t is infinite")),
    (1, math.nan, (fc.VariableError, "variable r is NaN")),
    (2, -math.inf, (BlowupError, "the phase overflowed within 4 steps")),
    (3, math.nan, (BlowupError, "the Jacobian overflowed within 4 steps")),
    (6, math.inf, (BlowupError, "the Jacobian overflowed within 4 steps")),
])
def test_a_nan_or_infinite_state_variable_ends_alike_in_both_tiers(position, value, outcome):
    # state [t, r, T, J00, J01, J10, J11]; a stage reads J[0,0] and J[1,1]
    B = vector_field(["t*r", "0.5*r"], TR)
    C = scalar_field("t", TR)
    y0 = [0.5, 0.75, 0.0, 1.0, 0.0, 0.0, 1.0]
    y0[position] = value
    assert [_rk4_outcome(tier, B, C, y0, 0.4, 4) for tier in TIERS] == [outcome, outcome]


def _power_field(exponent):
    # 0.5 * t^exponent + 0.1 with the exponent a constant node, as the
    # derivative of a power builds it
    return fc.VectorField(T1, (fc.add(fc.mul(fc.Const(0.5), fc.Pow(fc.Var("t"), exponent)),
                                      fc.Const(0.1)),))


@pytest.mark.parametrize("exponent, t0, outcome", [
    (1.0, 0.7, None), (-1.0, 0.9, None), (2.0, -0.7, None), (-2.0, 1.3, None),
    (3.0, 0.4, None), (-3.0, -1.3, None), (0.5, 0.6, None), (-1.5, 1.2, None),
    (-1.0, 0.0, (DomainError, "zero base raised to a negative power")),
    (0.5, -2.0, (DomainError, "non-integer power 0.5 of non-positive base -2.0")),
    (2.0, 1e200, (BlowupError, "field evaluation overflowed: pow overflowed the double range")),
])
def test_a_constant_power_steps_alike_in_both_tiers(exponent, t0, outcome):
    B = _power_field(fc.Const(exponent))
    got = [_rk4_outcome(tier, B, None, [t0, 1.0], 0.3, 4) for tier in TIERS]
    assert got[0] == got[1]
    if outcome is not None:
        assert got[0] == outcome
    else:
        assert len(got[0]) == 2  # the bits of x and J


def test_a_power_with_a_variable_exponent_steps_alike_in_both_tiers():
    B = _power_field(fc.Var("t"))
    for t0 in (0.8, -0.5):
        got = [_rk4_outcome(tier, B, None, [t0, 1.0], 0.3, 4) for tier in TIERS]
        assert got[0] == got[1]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 0.0, 0.5, -0.5, 2.5, 40.0, -40.0])
       | st.floats(-8, 8), st.floats(-3, 3) | st.sampled_from([0.0, -0.0, 1e150, 1e-150]),
       st.sampled_from([0.3, -1.0, 6.0]))
def test_constant_powers_step_alike_in_both_tiers(exponent, t0, rho):
    B = _power_field(fc.Const(exponent))
    got = [_rk4_outcome(tier, B, None, [t0, 1.0], rho, 4) for tier in TIERS]
    assert got[0] == got[1]


@pytest.mark.parametrize("rho, stage", [(4e-303, 2), (4e-304, 3), (2e-304, 4)])
@pytest.mark.parametrize("jacobian", [False, True])
def test_an_overflow_in_a_later_stage_ends_alike_in_both_tiers(rho, stage, jacobian):
    # exp(t) at t = 700 is 1.0e304; one step of rho first takes a stage's
    # input past log(max double) = 709.78 in the given stage
    B = vector_field(["exp(t)"], T1)
    x = Point(T1, (700.0,))
    program = fc._Program(list(B.components), B.chart)  # as _field_deriv(B) builds it
    runs = []
    interpret = program.interpret

    def counted(y):
        runs.append(y)
        return interpret(y)

    program.interpret = counted
    with mock.patch.object(flowexp, "MAX_STEPPER_OPS", -1):
        step = flowexp._stepper(program, 1)
    with pytest.raises(DomainError):
        step(list(x.coords), rho, 1, flowexp.BLOWUP_BOUND)
    assert len(runs) == stage
    err = assert_matches_array_reference(
        B, x, rho, DEFAULT_TOLERANCE, charge=scalar_field("t", T1), jacobian=jacobian, n_steps=2
    )
    assert type(err) is BlowupError and str(err).startswith("field evaluation overflowed: exp(")


@pytest.mark.parametrize("field", [["t"], ["0.7*t + 0.3*r", "0.5*r*t"], ["r", "-t"]])
def test_a_negative_rho_flows_alike_in_both_tiers(field):
    chart = T1 if len(field) == 1 else TR
    B = vector_field(field, chart)
    x = Point(chart, (0.8,) * len(field))
    for jacobian in (False, True):
        assert assert_matches_array_reference(
            B, x, -0.7, TIGHT, charge=scalar_field("t", chart), jacobian=jacobian
        ) is None


def test_a_flow_program_has_its_stepper_from_its_first_flow(monkeypatch):
    B = vector_field(["t"], T1)
    C = scalar_field("t^2", T1)
    x = Point(T1, (2.0,))

    built = []
    stepper = flowexp._stepper
    monkeypatch.setattr(flowexp, "_stepper",
                        lambda program, n: built.append(program) or stepper(program, n))
    with fc.derivative_memo():
        res = integrate_flow(B, x, 1.0, TIGHT, charge=C, jacobian=True)
        program, step = flowexp._field_deriv(B, C, with_jacobian=True)
        # made with the program, its stages write out the operations
        assert built == [program] and "run" not in step.__code__.co_freevars
        assert not program.generated
    end, phase, steps, est, jac = array_flow(B, x, 1.0, TIGHT, charge=C, jacobian=True)
    assert res.steps == steps and _bits([res.estimated_error]) == _bits([est])
    assert _bits([*res.endpoint.coords, res.phase]) == _bits([*end, phase])
    assert res.jacobian.tobytes() == jac.tobytes()


def _sum_of_powers(n_terms):
    terms = " + ".join(f"{(k + 1) * 1e-3!r}*t^{k % 5 + 1}" for k in range(n_terms))
    return vector_field([terms], T1)


def test_a_flow_program_above_the_cap_generates_itself_after_its_runs():
    B = _sum_of_powers(40)  # above the stepper cap
    y0, rho, n = [0.5, 1.0], 0.5, fc.GENERATE_AFTER_RUNS // 4 - 1
    deriv = _array_deriv(B, None, with_jacobian=True)
    with np.errstate(all="ignore"):
        expected = [_array_rk4_run(deriv, y0, rho, k, flowexp.BLOWUP_BOUND, 1, False)
                    for k in (n, 1)]
    with fc.derivative_memo():
        program, step = flowexp._field_deriv(B, None, with_jacobian=True)
        assert flowexp.MAX_STEPPER_OPS < len(program.ops) <= fc.MAX_MEMO_OPS
        interpreted = flowexp._rk4_run(step, y0, rho, n, 1, False)
        assert not program.generated  # 4 n runs, four short of the count
        switched = flowexp._rk4_run(step, y0, rho, 1, 1, False)  # its last run generates
        assert program.generated
    assert [_bits(interpreted), _bits(switched)] == [_bits(y) for y in expected]


def test_a_program_above_the_stepper_cap_calls_its_run_and_generates_it():
    B = _sum_of_powers(40)  # above the stepper cap
    with fc.derivative_memo():
        program, step = flowexp._field_deriv(B, None, with_jacobian=True)
        assert flowexp.MAX_STEPPER_OPS < len(program.ops) <= fc.MAX_MEMO_OPS
        assert "run" in step.__code__.co_freevars
        # 128 + 256 steps: the program generates itself in the coarse run
        integrate_flow(B, Point(T1, (0.5,)), 0.5, jacobian=True, n_steps=256)
        assert program.generated
    assert assert_matches_array_reference(
        B, Point(T1, (0.5,)), 0.5, DEFAULT_TOLERANCE, jacobian=True, n_steps=256
    ) is None


def test_a_flow_program_above_the_memo_cap_is_built_once_and_never_generates(monkeypatch):
    B = _sum_of_powers(70)
    x = Point(T1, (0.5,))
    with fc.derivative_memo():
        program, step = flowexp._field_deriv(B, None, with_jacobian=True)
        assert len(program.ops) > fc.MAX_MEMO_OPS
        integrate_flow(B, x, 0.5, jacobian=True, n_steps=256)  # 1,536 runs
        differentiated = []
        monkeypatch.setattr(fc, "differentiate", lambda *args: differentiated.append(args))
        integrate_flow(B, x, 0.5, jacobian=True)
        assert flowexp._field_deriv(B, None, with_jacobian=True) == (program, step)
        assert not differentiated and not program.generated
    monkeypatch.undo()
    for n_steps in (None, 256):
        assert assert_matches_array_reference(
            B, x, 0.5, DEFAULT_TOLERANCE, jacobian=True, n_steps=n_steps
        ) is None

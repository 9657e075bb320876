import math

import numpy as np
import pytest

from svflow import fieldcalc as fc
from svflow import verification
from svflow.fieldcalc import DomainError, Point, ScalarField, Var, scalar_field
from svflow.flowexp import Tolerance, apply_exponential, series_oracle
from svflow.nrlimit import (
    PSI_CHART,
    DegenerateFitError,
    RelParams,
    RootOnPathError,
    barut_flow_identity,
    contraction_residual,
    diffusion_defect_scaling,
    heat_kernel,
    kg_diffusion_residual,
    lift_wavefunction,
)

TIGHT = Tolerance(absolute=1e-12, relative=1e-12)
UNIT = RelParams(m=1.0, c=1.0, h=1.0)

SMOOTH_PSI = [
    "t",
    "exp(0.4*x + 0.3*t)",
    "sin(x) * exp(0.2*t)",
    "t^2 * x + x^3",
    "exp(-x^2) * (1 + t^2)",
]


def psi_field(text):
    return scalar_field(text, PSI_CHART)


# ------------------------------------------------------------ lift


def test_lift_identity_at_zero():
    psi = psi_field("t^2 * x")
    assert lift_wavefunction(psi, UNIT, t=1.5, x0=0.0, x=2.0) == psi.eval_at(
        Point(PSI_CHART, (1.5, 2.0))
    )


def test_lift_pure_phase():
    psi = psi_field("1")
    out = lift_wavefunction(psi, UNIT, t=0.0, x0=1.0, x=0.0)
    assert out == pytest.approx(math.exp(2 * math.pi), rel=1e-15)
    assert out == pytest.approx(535.4916555247646, rel=1e-12)


def test_lift_additivity():
    psi = psi_field("sin(t) + 0.5*x")
    p = RelParams(m=0.7, c=2.0, h=1.3)
    rng = np.random.default_rng(0)
    for _ in range(10):
        t, x = rng.uniform(-1, 1, 2)
        x0, x0p = rng.uniform(-0.5, 0.5, 2)
        once = lift_wavefunction(psi, p, float(t), float(x0 + x0p), float(x))
        staged = math.exp(p.lift_rate * x0) * lift_wavefunction(
            psi, p, float(t + x0 / p.c), float(x0p), float(x)
        )
        assert staged == pytest.approx(once, rel=1e-12)


def test_lift_overflow_guard():
    psi = psi_field("1")
    with pytest.raises(DomainError, match="overflows"):
        lift_wavefunction(psi, RelParams(m=1, c=100, h=1), t=0, x0=5.0, x=0)


def test_lift_exponent_short_of_the_overflow_is_computed():
    # lift rate 1: exponents 705 (once refused by a cap at 700) and -800
    p = RelParams(m=1.0, c=1.0, h=2 * math.pi)
    psi = psi_field("1")
    assert lift_wavefunction(psi, p, t=0.0, x0=705.0, x=0.0) == math.exp(705.0)
    assert lift_wavefunction(psi, p, t=0.0, x0=-800.0, x=0.0) == 0.0


# ------------------------------------------------------------ contraction


def test_contraction_identity_for_smooth_psi():
    p = RelParams(m=1.2, c=2.0, h=0.9)
    for text in SMOOTH_PSI:
        res = contraction_residual(psi_field(text), p, t=0.4, x0=0.3, x=0.7)
        assert res <= 1e-12


def test_contraction_linear_case_exact():
    res = contraction_residual(psi_field("t"), UNIT, t=1.0, x0=0.2, x=0.0)
    assert res <= 1e-14


def test_contraction_plane_wave_random_parameters():
    rng = np.random.default_rng(7)
    for _ in range(5):
        k, w = rng.uniform(-1, 1, 2)
        psi = psi_field(f"exp({k}*x + {w}*t)")
        p = RelParams(m=float(rng.uniform(0.5, 2)), c=float(rng.uniform(1, 3)),
                      h=float(rng.uniform(0.5, 2)))
        res = contraction_residual(psi, p, t=0.1, x0=0.2, x=0.3)
        assert res <= 1e-12


# ------------------------------------------------------------ KG vs diffusion


def test_kg_identity_for_smooth_psi():
    p = RelParams(m=1.1, c=2.0, h=1.0)
    for text in SMOOTH_PSI:
        out = kg_diffusion_residual(psi_field(text), p, (0.5, 0.25, 0.8))
        assert out.identity_residual <= 1e-10


def test_heat_kernel_solves_diffusion():
    p = RelParams(m=1.4, c=3.0, h=0.8)
    psi = heat_kernel(p)
    out = kg_diffusion_residual(psi, p, (0.7, 0.05, 0.5))
    assert out.diffusion_term <= 1e-10
    assert out.relativistic_term > 0.0
    assert out.identity_residual <= 1e-10


def test_plane_wave_on_dispersion_solves_diffusion():
    # omega = h k^2 / (4 pi m) makes exp(kx + omega t) a diffusion solution
    m, c, h = 0.9, 2.0, 1.1
    k = 0.7
    omega = h * k**2 / (4 * math.pi * m)
    psi = psi_field(f"exp({k}*x + {omega}*t)")
    out = kg_diffusion_residual(psi, RelParams(m, c, h), (0.4, 0.2, 0.6))
    assert out.diffusion_term <= 1e-10
    assert out.identity_residual <= 1e-10


def test_defect_ratio_tends_to_one_for_diffusion_solutions():
    p0 = RelParams(m=1.0, c=1.0, h=1.0)
    psi = heat_kernel(p0)
    for c in (10.0, 100.0):
        out = kg_diffusion_residual(psi, RelParams(1.0, c, 1.0), (0.8, 0.0, 0.4))
        total = out.diffusion_term + out.relativistic_term
        assert total / out.relativistic_term == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("m, h", [(1.0, 2.0), (2.0, 0.3)])
def test_nr_identity_gates_hold_off_h_one(m, h):
    # c06 and c07 run at h = 1, where 2 pi m c / h equals 2 pi m c h; this
    # runs nrlimit's gates on its default heat kernel and point elsewhere
    p = RelParams(m=m, c=2.0, h=h)
    psi, point = heat_kernel(p), (0.5, 0.25, 0.8)
    kg = kg_diffusion_residual(psi, p, point)
    gates = verification.nr_identity_gates(contraction_residual(psi, p, *point),
                                           kg.identity_residual)
    assert all(gate.passed for gate in gates), gates


# ------------------------------------------------------------ defect scaling


def test_defect_scaling_slope_minus_two():
    psi = heat_kernel(RelParams(m=1.0, c=1.0, h=1.0))
    slope = diffusion_defect_scaling(
        psi, RelParams(m=1.0, c=1.0, h=1.0), [10.0, 100.0, 1000.0], (0.9, 0.0, 0.3)
    )
    assert slope == pytest.approx(-2.0, abs=1e-10)


def test_defect_doubling_c_quarters_the_term():
    psi = psi_field("exp(-x^2) * (1 + t^2)")
    t_pt = (0.5, 0.0, 0.7)
    d1 = kg_diffusion_residual(psi, RelParams(1.0, 50.0, 1.0), t_pt).relativistic_term
    d2 = kg_diffusion_residual(psi, RelParams(1.0, 100.0, 1.0), t_pt).relativistic_term
    assert d2 / d1 == pytest.approx(0.25, rel=1e-12)


def test_defect_scaling_degenerate_for_constant_psi():
    with pytest.raises(DegenerateFitError):
        diffusion_defect_scaling(
            psi_field("1"), UNIT, [10.0, 100.0, 1000.0], (0.5, 0.0, 0.5)
        )


def test_defect_scaling_input_validation():
    psi = heat_kernel(UNIT)
    with pytest.raises(ValueError):
        diffusion_defect_scaling(psi, UNIT, [10.0, 100.0], (0.5, 0.0, 0.5))
    with pytest.raises(ValueError):
        diffusion_defect_scaling(psi, UNIT, [10.0, 20.0, 40.0], (0.5, 0.0, 0.5))


# ------------------------------------------------------------ Barut identity


def test_barut_constant_f_reduces_to_pure_lift():
    f = fc.parse_expression("1", ["t"])
    res = barut_flow_identity(f, UNIT, t=0.5, rho=0.5, tol=TIGHT)
    assert res <= 1e-10
    # phase structure: T = a rho for f = 1
    from svflow.flowexp import integrate_flow
    from svflow.fieldcalc import Const

    a = 2 * math.pi
    B = fc.vector_field(["1"], ("t",))
    C = ScalarField(("t",), Const(a))
    out = integrate_flow(B, Point(("t",), (0.5,)), 0.5, TIGHT, charge=C)
    assert out.phase == pytest.approx(a * 0.5, rel=1e-12)


def test_barut_dilation_closed_form():
    f = fc.parse_expression("t", ["t"])
    res = barut_flow_identity(f, UNIT, t=1.0, rho=0.5, tol=TIGHT)
    assert res <= 1e-8
    # and t' must be e^{0.5} with phase a (t' - t)
    from svflow.flowexp import integrate_flow

    B = fc.vector_field(["t"], ("t",))
    end = integrate_flow(B, Point(("t",), (1.0,)), 0.5, TIGHT).endpoint.coords[0]
    assert end == pytest.approx(math.exp(0.5), rel=1e-11)


def test_barut_root_at_expansion_point():
    f = fc.parse_expression("t", ["t"])
    with pytest.raises(RootOnPathError):
        barut_flow_identity(f, UNIT, t=0.0, rho=0.3)


def test_barut_phase_overflow_guard():
    # f = 1 accumulates the phase 2 pi m c^2 / h * rho = 400 pi, past exp's range
    f = fc.parse_expression("1", ["t"])
    with pytest.raises(DomainError, match="overflows"):
        barut_flow_identity(f, RelParams(m=1, c=10, h=1), t=0.5, rho=2)


@pytest.mark.parametrize("rho", [705.0, -800.0])
def test_barut_phase_short_of_the_overflow_is_computed(rho):
    # a = 2 pi m c^2 / h = 1, so the phase is rho: once refused beyond 700
    f = fc.parse_expression("1", ["t"])
    res = barut_flow_identity(f, RelParams(m=1.0, c=1.0, h=2 * math.pi), t=0.5, rho=rho)
    assert res <= 1e-12 * math.exp(max(rho, 0.0))


def test_barut_matches_series_oracle_at_seventh_order():
    # |flow route - series order 6| should scale like rho^7
    f = fc.parse_expression("1 + t^2", ["t"])
    a = 2 * math.pi
    B = fc.vector_field(["1 + t^2"], ("t",))
    C = ScalarField(("t",), fc.mul(fc.Const(a), f))
    psi = ScalarField(("t",), fc.parse_expression("t", ["t"]))
    x = Point(("t",), (0.3,))
    rhos = np.array([0.02, 0.04, 0.08])
    diffs = []
    for rho in rhos:
        lhs = apply_exponential(B, C, psi, x, float(rho), TIGHT)
        rhs = series_oracle(B, C, psi, x, float(rho), order=6)
        diffs.append(abs(lhs - rhs))
    diffs = np.array(diffs)
    assert np.all(diffs > 1e-14)
    slope = np.polyfit(np.log(rhos), np.log(diffs), 1)[0]
    assert slope == pytest.approx(7.0, abs=0.4)


def test_relparams_validation():
    with pytest.raises(ValueError):
        RelParams(m=0.0, c=1.0, h=1.0)
    with pytest.raises(ValueError):
        RelParams(m=1.0, c=-2.0, h=1.0)

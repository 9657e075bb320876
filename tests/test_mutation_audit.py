"""Mutation audit of the laws' parameter dependence (mutation analysis,
after DeMillo, Lipton and Sayward, "Hints on test data selection", 1978).

Every criterion runs at N = 1 and h = 1, where N/2 = 1/2, 2/N = 2 and
2 pi m c/h = 2 pi m c h, so a law that drops N or h passes them all.  Each
mutant below edits one line of svgen or nrlimit in a fresh copy of the
module, built in-process from its source; the claims' own gates, run off
N = 1 and h = 1, must fail on every mutant and pass on an unmutated copy.
A snippet that drifts from the source fails here instead of mutating
nothing.
"""

import inspect
import sys
import types
from unittest import mock

import pytest

from svflow import fieldcalc as fc
from svflow import nrlimit, svgen, verification
from svflow.fieldcalc import scalar_field

MUTANTS = {
    "M1 law weight ratio^(N chi/2) -> ratio^(chi/2)": (
        svgen, "weight = fc._eval_pow(ratio, p.N * p.chi / 2.0)",
        "weight = fc._eval_pow(ratio, p.chi / 2.0)"),
    "M2 r' = r ratio^(N/2) -> r ratio^(1/2)": (
        svgen, "r_prime = fc._eval_mul(r, fc._eval_pow(ratio, p.N / 2.0))",
        "r_prime = fc._eval_mul(r, fc._eval_pow(ratio, 1.0 / 2.0))"),
    "M3 r_exponent 2/N -> 2N": (
        svgen, "return 2.0 / self.N", "return 2.0 * self.N"),
    "M4 generator N/2 -> 1/2": (
        svgen, "half_n = Const(p.N / 2.0)", "half_n = Const(1.0 / 2.0)"),
    "M5 weight form jac^(N chi/2) -> jac^(chi/2)": (
        svgen, "fc._eval_pow(jac, p.N * p.chi / 2.0)", "fc._eval_pow(jac, p.chi / 2.0)"),
    "N1 lift rate 2 pi m c/h -> 2 pi m c h": (
        nrlimit, "return 2.0 * math.pi * self.m * self.c / self.h",
        "return 2.0 * math.pi * self.m * self.c * self.h"),
    "N2 KG term 4 pi m/h -> 4 pi m h": (
        nrlimit, "Const(4.0 * math.pi * p.m / p.h)", "Const(4.0 * math.pi * p.m * p.h)"),
}


def fresh_copy(module: types.ModuleType, source: str) -> types.ModuleType:
    """source exec'd into a new module in module's package."""
    name = f"{module.__name__}_copy"
    copy = types.ModuleType(name)
    copy.__package__ = module.__package__
    # dataclass resolves its class's module through sys.modules
    sys.modules[name] = copy
    try:
        exec(compile(source, module.__file__, "exec"), copy.__dict__)
    finally:
        del sys.modules[name]
    return copy


def mutant(module: types.ModuleType, old: str, new: str) -> types.ModuleType:
    """A fresh copy of module with the one occurrence of old replaced by new."""
    source = inspect.getsource(module)
    count = source.count(old)
    assert count == 1, f"{module.__name__}: {old!r} occurs {count} times"
    return fresh_copy(module, source.replace(old, new))


def claim_gates(sv: types.ModuleType, nr: types.ModuleType) -> list[verification.Gate]:
    """The primary-law, weight-form, bracket and NR-identity gates at
    N = 2 (chi = 0.7, m = 1.3) and h = 2 (m = 1, c = 2)."""
    p = sv.SVParams(m=1.3, chi=0.7, N=2.0)
    with fc.derivative_memo():
        eps = sv.EpsilonFn.from_coefficients({-1: 1.0, 0: 0.1, 1: 0.05})
        tr = sv.primary_transform(eps, p, t=0.5, r=1.2)
        gates = [verification.primary_flow_gate(
            tr.flow_residual(scalar_field(verification.PRIMARY_PSI, sv.CHART)))]
        jac_res, defect = tr.weight_form_terms()
        gates += verification.weight_form_gates(jac_res + defect, jac_res)
        with mock.patch.object(verification, "svgen", sv):
            table = verification.virasoro_residuals(p, verification.DEFAULT_SEED,
                                                    max_index=2, n_points=4)
        gates.append(verification.bracket_gate(max(res for _, _, res in table)))
        rel = nr.RelParams(m=1.0, c=2.0, h=2.0)
        psi, point = nr.heat_kernel(rel), (0.5, 0.25, 0.8)
        gates += verification.nr_identity_gates(
            nr.contraction_residual(psi, rel, *point),
            nr.kg_diffusion_residual(psi, rel, point).identity_residual)
    return gates


def test_unmutated_copies_pass_every_gate():
    gates = claim_gates(fresh_copy(svgen, inspect.getsource(svgen)),
                        fresh_copy(nrlimit, inspect.getsource(nrlimit)))
    assert all(gate.passed for gate in gates), gates


@pytest.mark.parametrize("label", MUTANTS)
def test_each_mutant_fails_a_claim_gate(label):
    module, old, new = MUTANTS[label]
    mutated = mutant(module, old, new)
    gates = claim_gates(mutated if module is svgen else svgen,
                        mutated if module is nrlimit else nrlimit)
    assert not all(gate.passed for gate in gates), gates


@pytest.mark.parametrize("old, count", [("p.N / 2.0", 2), ("the snippet of no mutant", 0)])
def test_a_snippet_that_is_ambiguous_or_missing_fails_loudly(old, count):
    with pytest.raises(AssertionError, match=f"occurs {count} times"):
        mutant(svgen, old, "1.0")

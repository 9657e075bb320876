"""Adaptive Simpson quadrature for smooth 1-d integrands.

Used as the independent verification route wherever a flow integration
claims an integral identity (reparametrization residuals, proper time).
"""

from __future__ import annotations

from typing import Callable

from .fieldcalc import SvflowError


class QuadratureError(SvflowError):
    """Subdivision budget exhausted before reaching the tolerance."""


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    atol: float = 1e-12,
    rtol: float = 1e-10,
    max_evals: int = 100_000,
) -> float:
    """Integrate f over [a, b]; signed if b < a."""
    if a == b:
        return 0.0
    budget = [max_evals]

    def call(x: float) -> float:
        if budget[0] <= 0:
            raise QuadratureError("evaluation budget exhausted")
        budget[0] -= 1
        return f(x)

    fa, fb = call(a), call(b)
    m = 0.5 * (a + b)
    fm = call(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(call, a, b, fa, fm, fb, whole, atol, rtol, depth=60)


def _simpson_rec(call, a, b, fa, fm, fb, whole, atol, rtol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = call(lm), call(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * (atol + rtol * abs(left + right)):
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureError("maximum subdivision depth reached")
    return _simpson_rec(
        call, a, m, fa, flm, fm, left, 0.5 * atol, rtol, depth - 1
    ) + _simpson_rec(call, m, b, fm, frm, fb, right, 0.5 * atol, rtol, depth - 1)

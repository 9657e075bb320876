"""Physical coordinates of an accelerated laboratory in 1+1 dimensions.

A worldline x = f(t) (|f'| < c) carries a comoving frame.  Locally the
frame differentials are the boosted ones,

    dx' = gamma (dx - v dt),     dt' = gamma (dt - v dx / c^2),

with v the speed of the material point passing through, and proper time
tau = int sqrt(1 - v^2/c^2) dt flows on the worldline itself.  For
non-constant speed the system only closes once v(t, x) is defined
implicitly: invert x'(t, .) at fixed t into x = X(t, x') and set
v = dX/dt at fixed x'.  solve_frame_map runs the induced fixed-point
iteration; convergence is reported, never assumed.

Boundary conditions x'(t, f(t)) = 0 and t'(t, f(t)) = tau(t) hold by
construction of the per-slice integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fieldcalc as fc
from .fieldcalc import Expression, InputError, SvflowError
from .flowexp import DEFAULT_TOLERANCE, Tolerance
from .quadrature import adaptive_simpson

# frame iteration tolerance: grids are the accuracy limit, not the ODEs
FRAME_TOLERANCE = Tolerance(absolute=1e-8, relative=1e-8)
# the most points nt * nx a GridSpec takes: `svflow frame --f 0.3*t --grid
# 0,0.5,-0.5,0.5,500,500` (250,000 points, one iteration, CSV written)
# took 2.5-3.0 s and 147 MB peak RSS (2-core x86-64, Python 3.11, numpy
# 2.4); memory grows linearly in the points, time also in the iterations
MAX_GRID_POINTS = 250_000


class SuperluminalError(SvflowError):
    """|v| >= c somewhere it matters."""


class WorldlineOutsideGridError(SvflowError):
    pass


class FrameInversionError(SvflowError):
    """x'(t, .) stopped being monotone in x; cannot invert."""


@dataclass(frozen=True)
class Trajectory:
    """Center-of-mass worldline x = f(t) in an inertial frame."""

    f: Expression
    c: float = 1.0

    def __post_init__(self):
        fc._check_chart_vars(("t",), [self.f], "f")
        if not self.c > 0:
            raise InputError(f"c must be positive, got {self.c:g}")
        # the frame divides by c^2
        c2 = self.c * self.c
        if not 0.0 < c2 < math.inf or not math.isfinite(1.0 / c2):
            raise InputError(f"c = {self.c:g} puts c^2 or 1/c^2 beyond the double range")

    # compiled once per trajectory; cached_property writes the instance
    # __dict__ directly, so it works on the frozen dataclass
    @cached_property
    def _f(self):
        return fc.compile_expression(self.f)

    @cached_property
    def _fdot(self):
        return fc.compile_expression(fc.differentiate(self.f, "t"))

    def position(self, t: float) -> float:
        return self._f({"t": t})

    def speed(self, t: float) -> float:
        v = self._fdot({"t": t})
        if abs(v) >= self.c:
            raise SuperluminalError(f"|f'({t})| = {abs(v)} >= c = {self.c}")
        return v

    @classmethod
    def from_formula(cls, text: str, c: float = 1.0) -> "Trajectory":
        return cls(fc.parse_expression(text, ("t",)), c)


def proper_time(
    traj: Trajectory,
    t0: float,
    t1: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> float:
    """tau = int_{t0}^{t1} sqrt(1 - v(u)^2/c^2) du by adaptive quadrature."""
    fdot = traj._fdot
    c2 = fc._eval_pow(traj.c, 2)

    def integrand(u: float) -> float:
        v = fdot({"t": u})
        arg = 1.0 - fc._eval_div(v * v, c2)
        if arg <= 0.0:
            raise SuperluminalError(f"|f'({u})| >= c on the integration range")
        return math.sqrt(arg)

    return adaptive_simpson(
        integrand, t0, t1,
        atol=tol.absolute, rtol=tol.relative, max_evals=tol.max_steps,
    )


@dataclass(frozen=True)
class GridSpec:
    t_min: float
    t_max: float
    x_min: float
    x_max: float
    nt: int = 200
    nx: int = 200

    def __post_init__(self):
        if not (0 < self.t_max - self.t_min < math.inf and 0 < self.x_max - self.x_min < math.inf):
            raise InputError("grid ranges must be non-empty, of finite width")
        if not all(float(n).is_integer() for n in (self.nt, self.nx)):
            raise InputError(f"grid line counts must be whole, got {self.nt}, {self.nx}")
        object.__setattr__(self, "nt", int(self.nt))
        object.__setattr__(self, "nx", int(self.nx))
        if self.nt < 3 or self.nx < 3:
            raise InputError("need at least 3 grid lines per direction")
        if self.nt * self.nx > MAX_GRID_POINTS:
            raise InputError(f"grid of {self.nt}x{self.nx} points above {MAX_GRID_POINTS:,}")


@dataclass
class FrameMap:
    """Solved physical coordinates on a (t, x) rectangle."""

    t_grid: np.ndarray
    x_grid: np.ndarray
    x_prime: np.ndarray   # shape (nt, nx)
    t_prime: np.ndarray
    v: np.ndarray
    tau: np.ndarray       # proper time on the worldline, per t-slice
    worldline: np.ndarray  # f(t_i)
    iterations: int
    residual: float
    converged: bool

    def boundary_residuals(self) -> tuple[float, float]:
        """max |x'(t, f(t))| and max |t'(t, f(t)) - tau(t)|, each slice read at
        f(t) by np.interp: an independent route, not the solver's _interp_row."""
        bx, bt = 0.0, 0.0
        for i, f_i in enumerate(self.worldline):
            xp = float(np.interp(f_i, self.x_grid, self.x_prime[i]))
            tp = float(np.interp(f_i, self.x_grid, self.t_prime[i]))
            bx = max(bx, abs(xp))
            bt = max(bt, abs(tp - self.tau[i]))
        return bx, bt


def _cumtrapz(y: np.ndarray, dx: float) -> np.ndarray:
    out = np.zeros_like(y)
    out[:, 1:] = np.cumsum(0.5 * (y[:, 1:] + y[:, :-1]) * dx, axis=1)
    return out


def _interp_row(F: np.ndarray, x_grid: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Linear interpolation of each row of F at per-row abscissa `at`."""
    dx = x_grid[1] - x_grid[0]
    pos = np.clip((at - x_grid[0]) / dx, 0.0, len(x_grid) - 1.0)
    base = np.minimum(pos.astype(int), len(x_grid) - 2)
    frac = pos - base
    rows = np.arange(F.shape[0])
    return F[rows, base] * (1.0 - frac) + F[rows, base + 1] * frac


def _invert_slice(xp_row: np.ndarray, x_grid: np.ndarray, w: np.ndarray) -> np.ndarray:
    """X such that x'(t, X) = w on one slice, linear with end extrapolation."""
    out = np.interp(w, xp_row, x_grid)
    left = w < xp_row[0]
    if np.any(left):
        slope = (x_grid[1] - x_grid[0]) / (xp_row[1] - xp_row[0])
        out[left] = x_grid[0] + (w[left] - xp_row[0]) * slope
    right = w > xp_row[-1]
    if np.any(right):
        slope = (x_grid[-1] - x_grid[-2]) / (xp_row[-1] - xp_row[-2])
        out[right] = x_grid[-1] + (w[right] - xp_row[-1]) * slope
    return out


@fc._checked_numpy("frame solve")
def solve_frame_map(
    traj: Trajectory,
    grid: GridSpec,
    tol: Tolerance = FRAME_TOLERANCE,
    max_iter: int = 100,
) -> FrameMap:
    """Fixed-point solve of the frame system on the grid.

    Start from v(t, x) = f'(t) everywhere; integrate the differentials
    along constant-t lines outward from the worldline; invert each slice
    and re-estimate v = dX/dt at fixed x' by finite differences across
    neighboring slices; repeat until the v field settles below
    tol.absolute or max_iter is hit.  Non-convergence is reported in the
    result, not raised.
    """
    c = traj.c
    t_grid = np.linspace(grid.t_min, grid.t_max, grid.nt)
    x_grid = np.linspace(grid.x_min, grid.x_max, grid.nx)
    dt = t_grid[1] - t_grid[0]
    dx = x_grid[1] - x_grid[0]

    fvals = np.array([traj.position(float(t)) for t in t_grid])
    fdots = np.array([traj.speed(float(t)) for t in t_grid])
    if np.any(fvals < grid.x_min) or np.any(fvals > grid.x_max):
        raise WorldlineOutsideGridError(
            "f(t) must stay inside the grid's x-range for anchoring"
        )

    tau = np.empty(grid.nt)
    tau[0] = proper_time(traj, 0.0, float(t_grid[0]), tol)
    for i in range(1, grid.nt):
        tau[i] = tau[i - 1] + proper_time(
            traj, float(t_grid[i - 1]), float(t_grid[i]), tol
        )

    v = np.tile(fdots[:, None], (1, grid.nx))
    x_prime = np.zeros((grid.nt, grid.nx))
    t_prime = np.zeros((grid.nt, grid.nx))
    iterations = 0
    change = math.inf
    converged = False

    def assemble(vfield):
        if np.max(np.abs(vfield)) >= c:
            raise SuperluminalError("|v| >= c appeared during iteration")
        gamma = 1.0 / np.sqrt(1.0 - (vfield / c) ** 2)
        F1 = _cumtrapz(gamma, dx)
        F2 = _cumtrapz(gamma * vfield, dx)
        xp = F1 - _interp_row(F1, x_grid, fvals)[:, None]
        tp = tau[:, None] - (F2 - _interp_row(F2, x_grid, fvals)[:, None]) / c**2
        if np.any(np.diff(xp, axis=1) <= 0.0):
            raise FrameInversionError("x' is not strictly increasing in x")
        return xp, tp

    for it in range(1, max_iter + 1):
        x_prime, t_prime = assemble(v)
        v_new = np.empty_like(v)
        for i in range(grid.nt):
            w = x_prime[i]
            if 0 < i < grid.nt - 1:
                xm = _invert_slice(x_prime[i - 1], x_grid, w)
                xp_ = _invert_slice(x_prime[i + 1], x_grid, w)
                v_new[i] = (xp_ - xm) / (2.0 * dt)
            elif i == 0:
                x1 = _invert_slice(x_prime[1], x_grid, w)
                x2 = _invert_slice(x_prime[2], x_grid, w)
                v_new[i] = (-3.0 * x_grid + 4.0 * x1 - x2) / (2.0 * dt)
            else:
                x1 = _invert_slice(x_prime[i - 1], x_grid, w)
                x2 = _invert_slice(x_prime[i - 2], x_grid, w)
                v_new[i] = (3.0 * x_grid - 4.0 * x1 + x2) / (2.0 * dt)
        iterations = it
        change = float(np.max(np.abs(v_new - v)))
        v = v_new
        if change < tol.absolute:
            converged = True
            break

    x_prime, t_prime = assemble(v)
    return FrameMap(
        t_grid=t_grid,
        x_grid=x_grid,
        x_prime=x_prime,
        t_prime=t_prime,
        v=v,
        tau=tau,
        worldline=fvals,
        iterations=iterations,
        residual=change,
        converged=converged,
    )

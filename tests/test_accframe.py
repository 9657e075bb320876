import math

import numpy as np
import pytest

from svflow.accframe import (
    MAX_GRID_POINTS,
    FrameInversionError,
    GridSpec,
    SuperluminalError,
    Trajectory,
    WorldlineOutsideGridError,
    proper_time,
    solve_frame_map,
)
from svflow.cli import run
from svflow.fieldcalc import InputError
from svflow.flowexp import Tolerance

TIGHT = Tolerance(absolute=1e-12, relative=1e-12)


# ------------------------------------------------------------ proper time


def test_proper_time_at_rest():
    traj = Trajectory.from_formula("0", c=1.0)
    assert proper_time(traj, 0.3, 1.7) == pytest.approx(1.4, abs=1e-12)


def test_proper_time_constant_acceleration_closed_form():
    # f' = 0.5 t on [0, 1], c = 1:
    # tau = (1/2) sqrt(1 - 0.25) + arcsin(0.5)
    traj = Trajectory.from_formula("0.25*t^2", c=1.0)
    closed = 0.5 * math.sqrt(0.75) + math.asin(0.5)
    assert proper_time(traj, 0.0, 1.0, TIGHT) == pytest.approx(closed, abs=1e-9)


def test_proper_time_never_exceeds_coordinate_time():
    traj = Trajectory.from_formula("0.25*t^2", c=1.0)
    for t1 in (0.4, 1.0, 1.6):
        assert proper_time(traj, 0.0, t1) <= t1


def test_proper_time_superluminal_rejected():
    traj = Trajectory.from_formula("t^2", c=1.0)  # f' = 2t >= c past t = 0.5
    with pytest.raises(SuperluminalError):
        proper_time(traj, 0.0, 1.0)


def test_proper_time_monotone_in_endpoint():
    traj = Trajectory.from_formula("0.2*t^2", c=1.0)
    taus = [proper_time(traj, 0.0, t1) for t1 in np.linspace(0.2, 1.8, 9)]
    assert all(b > a for a, b in zip(taus, taus[1:]))


def test_trajectory_validation():
    from svflow.fieldcalc import UnknownIdentifierError, parse_expression

    with pytest.raises(UnknownIdentifierError):
        Trajectory.from_formula("t + q", c=1.0)
    with pytest.raises(ValueError):
        Trajectory.from_formula("t", c=0.0)
    with pytest.raises(ValueError):
        # expression over the wrong variable
        Trajectory(parse_expression("u", ("u",)), c=1.0)


def test_trajectory_compiles_f_and_its_derivative_once(monkeypatch):
    import svflow.fieldcalc as fc

    calls = {"compile": 0, "differentiate": 0}
    compile_expression, differentiate = fc.compile_expression, fc.differentiate

    def counted_compile(e):
        calls["compile"] += 1
        return compile_expression(e)

    def counted_differentiate(e, var):
        calls["differentiate"] += 1
        return differentiate(e, var)

    monkeypatch.setattr(fc, "compile_expression", counted_compile)
    monkeypatch.setattr(fc, "differentiate", counted_differentiate)
    traj = Trajectory.from_formula("0.1*t^2", c=1.0)
    grid = GridSpec(0.0, 1.0, -1.0, 1.0, nt=20, nx=10)
    fm = solve_frame_map(traj, grid)
    assert traj.position(0.5) == pytest.approx(0.025, abs=1e-15)
    assert traj.speed(0.5) == pytest.approx(0.1, abs=1e-15)
    assert proper_time(traj, 0.0, 1.0) == pytest.approx(fm.tau[-1], abs=1e-12)
    assert calls == {"compile": 2, "differentiate": 1}
    with pytest.raises(SuperluminalError):
        Trajectory.from_formula("t^2", c=1.0).speed(0.8)


# ------------------------------------------------------------ frame solver


def test_a_grid_above_the_point_cap_is_refused_before_any_array():
    # a GridSpec allocates nothing: 10^12 x 5 points once ended in MemoryError
    with pytest.raises(InputError, match="above 250,000"):
        GridSpec(0.0, 1.0, -1.0, 1.0, 1e12, 5)
    with pytest.raises(InputError):
        GridSpec(0.0, 1.0, -1.0, 1.0, MAX_GRID_POINTS // 5 + 1, 5)
    assert GridSpec(0.0, 1.0, -1.0, 1.0, MAX_GRID_POINTS // 5, 5).nt == MAX_GRID_POINTS // 5


def test_a_grid_of_infinite_width_is_refused():
    # -1e308..1e308 is inf wide: the grid step was inf and x' NaN
    with pytest.raises(InputError, match="finite width"):
        GridSpec(0.0, 1.0, -1e308, 1e308, 5, 5)


def test_grid_line_counts_must_be_whole():
    with pytest.raises(InputError, match="whole"):
        GridSpec(0.0, 1.0, -1.0, 1.0, 3.7, 11)
    grid = GridSpec(0.0, 1.0, -1.0, 1.0, 41.0, 11)
    assert grid.nt == 41 and type(grid.nt) is int


def test_frame_map_at_rest_is_identity():
    traj = Trajectory.from_formula("0", c=1.0)
    grid = GridSpec(0.0, 1.0, -1.0, 1.0, nt=21, nx=21)
    fm = solve_frame_map(traj, grid, Tolerance(absolute=1e-10, relative=1e-10))
    assert fm.converged
    T, X = np.meshgrid(fm.t_grid, fm.x_grid, indexing="ij")
    assert np.max(np.abs(fm.x_prime - X)) <= 1e-12
    assert np.max(np.abs(fm.t_prime - T)) <= 1e-12
    assert np.max(np.abs(fm.v)) <= 1e-12


def test_frame_map_constant_velocity_recovers_lorentz():
    v0, c = 0.6, 1.0
    gamma = 1.25
    traj = Trajectory.from_formula("0.6*t", c=c)
    grid = GridSpec(0.0, 1.0, -1.0, 1.2, nt=200, nx=200)
    fm = solve_frame_map(traj, grid, Tolerance(absolute=1e-10, relative=1e-10))
    assert fm.converged
    assert fm.iterations == 1  # the seeded v field is already exact
    T, X = np.meshgrid(fm.t_grid, fm.x_grid, indexing="ij")
    assert np.max(np.abs(fm.x_prime - gamma * (X - v0 * T))) <= 1e-6
    assert np.max(np.abs(fm.t_prime - gamma * (T - v0 * X))) <= 1e-6
    bx, bt = fm.boundary_residuals()
    assert bx <= 1e-8 and bt <= 1e-8


def test_frame_map_constant_acceleration_case():
    # f = a t^2 / 2 with a = 0.1: constant acceleration, the d^3f/dt^3 = 0
    # regime where a rigid comoving frame makes sense
    traj = Trajectory.from_formula("0.05*t^2", c=1.0)
    grid = GridSpec(0.0, 0.5, -0.3, 0.35, nt=41, nx=41)
    tol = Tolerance(absolute=1e-8, relative=1e-8)
    fm = solve_frame_map(traj, grid, tol, max_iter=100)
    assert fm.converged
    assert fm.residual < 1e-8
    bx, bt = fm.boundary_residuals()
    assert bx <= 1e-8 and bt <= 1e-8
    assert np.max(np.abs(fm.v)) < 1.0
    # v along the worldline tracks f'
    for i in (5, 20, 35):
        j = int(np.argmin(np.abs(fm.x_grid - fm.worldline[i])))
        assert fm.v[i, j] == pytest.approx(0.1 * fm.t_grid[i], abs=5e-3)


def test_frame_map_worldline_must_stay_inside_grid():
    traj = Trajectory.from_formula("0.6*t", c=1.0)
    grid = GridSpec(0.0, 2.0, -0.2, 0.4, nt=11, nx=11)
    with pytest.raises(WorldlineOutsideGridError):
        solve_frame_map(traj, grid)


def test_frame_map_superluminal_worldline():
    traj = Trajectory.from_formula("0.9*t^2", c=1.0)  # f' = 1.8 t > c late
    grid = GridSpec(0.0, 1.0, -2.0, 2.0, nt=11, nx=11)
    with pytest.raises(SuperluminalError):
        solve_frame_map(traj, grid)


def test_frame_map_csv_round_trip_and_determinism(tmp_path):
    argv = ["frame", "--f", "0.3*t", "--c", "1", "--grid", "0,0.5,-0.5,0.5,6,5"]
    texts = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert run([*argv, "--output", str(out)]) == 0
        texts.append((out / "frame.csv").read_bytes())
    assert texts[0] == texts[1]  # byte identical
    lines = texts[0].decode().strip().splitlines()
    assert lines[0] == "t,x,x_prime,t_prime,v"
    assert len(lines) == 1 + 6 * 5
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == -0.5

"""Command-line driver: each verification suite and computation as a
subcommand, with optional INI config files and CSV reports.

Exit status 0 means every asserted invariant of the subcommand held at
its tolerance, 1 names the failing invariant, 2 is a usage or config
error.  Reports carry no timestamps and all randomness flows through the
--seed flag, so identical invocations produce byte-identical CSVs.

Each subcommand declares in _COMMANDS the keys it reads: one flag each,
and one key = value field of a config file's [run] section; explicit
flags override file values.  The subcommand comes from the command line;
a file's optional command field must name the same one.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

from . import accframe, flowexp, geomcurv, nrlimit, svgen, verification
from .fieldcalc import (
    ExpressionError,
    ParseError,
    Point,
    ScalarField,
    SvflowError,
    derivative_memo,
    parse_expression,
    scalar_field,
    vector_field,
)
from .flowexp import Tolerance

class ConfigError(SvflowError):
    pass


class VerificationFailure(SvflowError):
    """Raised with the name of the invariant that missed its tolerance."""


@dataclass
class RunConfig:
    command: str | None = None
    values: dict[str, str] = field(default_factory=dict)


def load_config(path: str | Path) -> RunConfig:
    """Parse a [run] section of key = value pairs; validates eagerly so a
    bad file fails before any computation starts."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as err:
        raise ConfigError(f"config parse error: {err}") from err
    if not read:
        raise ConfigError(f"config file {path} not found")
    if "run" not in parser:
        raise ConfigError("config file needs a [run] section")
    cfg = RunConfig(values=dict(parser["run"]))
    cfg.command = cfg.values.pop("command", None)
    if cfg.command is not None and cfg.command not in _COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r} in config")
    # one file may serve several commands, so a field any of them reads is kept
    known = {"output"}.union(*(c.keys for c in _COMMANDS.values()))
    for key, raw in cfg.values.items():
        if key not in known:
            raise ConfigError(f"field {key!r}: no command reads it")
        _checked("field", key, raw)
    return cfg


def _floats_csv(raw: str) -> list[float]:
    return [float(p) for p in raw.split(",") if p.strip()]


# how a key's value is read from text; every other key is text
_CONVERTERS = {
    **dict.fromkeys(("seed", "max_index", "points", "order", "max_steps", "max_iter"), int),
    **dict.fromkeys(("abs_tol", "rel_tol", "rho", "m", "chi", "n_aniso", "c", "h"), float),
    **dict.fromkeys(("point", "grid"), _floats_csv),
    "c_values": lambda raw: nrlimit.check_c_values(_floats_csv(raw)),
}
# the least value of each integer key; the seed feeds numpy's generator
_INT_MINIMUM = {
    "seed": 0, "max_index": 0, "order": 0, "points": 1, "max_steps": 1, "max_iter": 1,
}
# tolerances, and the speed of light and Planck constant of nrlimit/frame
_POSITIVE = {"abs_tol", "rel_tol", "c", "h"}


def _checked(source: str, key: str, value: str):
    """The value of one flag or config field, read from its text and
    checked: floats finite, alone or in a list, integers at least their
    minimum, the _POSITIVE keys above zero.  Anything else is a
    ConfigError naming the key."""
    try:
        value = _CONVERTERS.get(key, str)(value)
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"must be finite, got {v}")
        minimum = _INT_MINIMUM.get(key)
        if minimum is not None and value < minimum:
            raise ValueError(f"must be at least {minimum}, got {value}")
        if key in _POSITIVE and value <= 0:
            raise ValueError(f"must be positive, got {value}")
    except (ValueError, ExpressionError) as err:
        raise ConfigError(f"{source} {key!r}: {err}") from err
    return value


def _merge(args: argparse.Namespace, cfg: RunConfig, key: str, default=None):
    """The flag's value, else the config field's, else default; a value
    from either source goes through _checked."""
    value = getattr(args, key, None)
    if value is not None:
        return _checked("flag", key, value)
    value = cfg.values.get(key)
    return default if value is None else _checked("field", key, value)


def _flag(key: str) -> str:
    return "--N" if key == "n_aniso" else "--" + key.replace("_", "-")


def _refuse_flags(args, keys, needed: str) -> None:
    """A ConfigError for a flag among `keys`, which the command reads only
    with `needed`; a config field stays tolerated, as in load_config."""
    for key in keys:
        if getattr(args, key, None) is not None:
            raise ConfigError(f"{_flag(key)} is read only with {needed}")


def _write_csv(path: Path, columns, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(verification.render_csv(columns, rows))


def _tolerance(args, cfg, absolute=1e-10, relative=1e-9) -> Tolerance:
    absolute = _merge(args, cfg, "abs_tol", absolute)
    relative = _merge(args, cfg, "rel_tol", relative)
    max_steps = _merge(args, cfg, "max_steps", 10**6)
    return Tolerance(absolute=absolute, relative=relative, max_steps=max_steps)


def _sv_params(args, cfg) -> svgen.SVParams:
    m = _merge(args, cfg, "m", 1.3)
    chi = _merge(args, cfg, "chi", 0.7)
    N = _merge(args, cfg, "n_aniso", 1.0)
    try:
        return svgen.SVParams(m=m, chi=chi, N=N)
    except ValueError as err:
        raise ConfigError(str(err)) from err


# --------------------------------------------------------------------------
# Subcommand bodies.  Each writes its CSV report, returns its summary
# lines and raises VerificationFailure when an asserted invariant misses.


def _run_flow(args, cfg, out_dir: Path):
    comps = _merge(args, cfg, "field")
    if comps is None:
        raise ConfigError("flow needs --field (semicolon-separated components)")
    names = _merge(args, cfg, "vars")
    if names is None:
        raise ConfigError("flow needs --vars (comma-separated names)")
    chart = tuple(v.strip() for v in names.split(","))
    coords = _merge(args, cfg, "point")
    if coords is None:
        raise ConfigError("flow needs --point")
    try:
        B = vector_field([s.strip() for s in comps.split(";")], chart)
        x = Point(chart, tuple(coords))
    except ValueError as err:
        raise ConfigError(f"flow: {err}") from err
    rho = _merge(args, cfg, "rho", 0.5)
    tol = _tolerance(args, cfg)
    order = _merge(args, cfg, "order", 6)
    charge = _merge(args, cfg, "charge")
    psi_text = _merge(args, cfg, "psi")
    if charge is None or psi_text is None:
        _refuse_flags(args, ("charge", "psi", "order"), "--charge and --psi")

    res = flowexp.integrate_flow(B, x, rho, tol)
    variational = flowexp.integrate_flow(B, x, rho, tol, jacobian=True)
    J = variational.jacobian
    push = flowexp.pushforward_defect(B, x, variational)
    rows = [("endpoint", i, v) for i, v in enumerate(res.endpoint.coords)]
    rows += [
        ("jacobian", i * len(chart) + j, float(J[i, j]))
        for i in range(len(chart))
        for j in range(len(chart))
    ]
    rows.append(("pushforward_residual", "", push))
    summary = [
        f"endpoint: {res.endpoint.coords} in {res.steps} steps "
        f"(estimated error {res.estimated_error:.2e})",
        f"pushforward residual: {push:.3e}",
    ]
    if charge is not None and psi_text is not None:
        C = ScalarField(chart, parse_expression(charge, chart))
        psi = ScalarField(chart, parse_expression(psi_text, chart))
        applied = flowexp.apply_exponential(B, C, psi, x, rho, tol)
        series = flowexp.series_oracle(B, C, psi, x, rho, order)
        rows.append(("apply_exponential", "", applied))
        rows.append((f"series_order_{order}", "", series))
        rows.append(("difference", "", abs(applied - series)))
        summary.append(
            f"exp route {applied!r} vs series(order {order}) {series!r}: "
            f"difference {abs(applied - series):.3e}"
        )
    _write_csv(out_dir / "flow.csv", ("quantity", "index", "value"), rows)
    bound = 10 * (tol.absolute + tol.relative)
    if push > bound:
        raise VerificationFailure(
            f"pushforward residual {push:.3e} above {bound:.1e}"
        )
    return summary


def _run_virasoro(args, cfg, out_dir: Path):
    max_index = _merge(args, cfg, "max_index", 3)
    n_points = _merge(args, cfg, "points", 10)
    seed = _merge(args, cfg, "seed", verification.DEFAULT_SEED)
    p = _sv_params(args, cfg)
    table = verification.virasoro_residuals(p, seed, max_index, n_points)
    rows = [
        (m_idx, n_idx, res, *svgen.monomial_bracket(m_idx, n_idx), seed)
        for m_idx, n_idx, res in table
    ]
    worst = max((res for _, _, res in table), default=0.0)
    _write_csv(
        out_dir / "virasoro.csv",
        ("m", "n", "max_residual", "bracket_coefficient", "bracket_index", "seed"),
        rows,
    )
    summary = [
        f"bracket residuals for |m|,|n| <= {max_index} over {n_points} points: "
        f"worst {worst:.3e}"
    ]
    if worst > 1e-8:
        raise VerificationFailure(f"bracket residual {worst:.3e} above 1e-8")
    return summary


def _run_primary(args, cfg, out_dir: Path):
    eps_text = _merge(args, cfg, "eps", "t")
    try:
        eps = svgen.EpsilonFn.from_formula(eps_text)
    except ValueError as err:
        raise ConfigError(f"field 'eps': {err}") from err
    p = _sv_params(args, cfg)
    coords = _merge(args, cfg, "point", [0.5, 1.2])
    if len(coords) != 2:
        raise ConfigError("primary --point needs exactly t,r")
    t, r = coords
    rho = _merge(args, cfg, "rho", 1.0)
    tol = _tolerance(args, cfg)
    psi = scalar_field("exp(-r^2 / (1 + t^2))", svgen.CHART)
    tr = svgen.primary_transform(eps, p, t, r, rho, tol)
    flow_res = svgen.primary_vs_flow_residual(eps, p, psi, t, r, rho, tol)
    form_res = svgen.weight_form_residual(eps, p, t, r, rho, tol)
    rows = [
        ("t_prime", tr.t_prime),
        ("r_prime", tr.r_prime),
        ("prefactor", tr.prefactor),
        ("flow_comparison_residual", flow_res),
        ("weight_form_residual", form_res),
    ]
    _write_csv(out_dir / "primary.csv", ("quantity", "value"), rows)
    summary = [
        f"eps = {eps_text!r}, (t, r) = ({t}, {r}), rho = {rho}",
        f"t' = {tr.t_prime!r}, r' = {tr.r_prime!r}, prefactor = {tr.prefactor!r}",
        f"flow-comparison residual {flow_res:.3e}, weight-form residual {form_res:.3e}",
    ]
    if flow_res > 1e-7:
        raise VerificationFailure(f"primary/flow residual {flow_res:.3e} above 1e-7")
    if form_res > 1e-8:
        raise VerificationFailure(f"weight-form residual {form_res:.3e} above 1e-8")
    return summary


def _run_nrlimit(args, cfg, out_dir: Path):
    m = _merge(args, cfg, "m", 1.0)
    c = _merge(args, cfg, "c", 2.0)
    h = _merge(args, cfg, "h", 1.0)
    try:
        p = nrlimit.RelParams(m=m, c=c, h=h)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    point = tuple(_merge(args, cfg, "point", [0.5, 0.25, 0.8]))
    if len(point) != 3:
        raise ConfigError("nrlimit --point needs t,x0,x")
    psi_text = _merge(args, cfg, "psi")
    is_heat_default = psi_text is None
    psi = (
        nrlimit.heat_kernel(p)
        if is_heat_default
        else scalar_field(psi_text, nrlimit.PSI_CHART)
    )
    c_values = _merge(args, cfg, "c_values", [10.0, 100.0, 1000.0])

    contraction = nrlimit.contraction_residual(psi, p, *point)
    kg = nrlimit.kg_diffusion_residual(psi, p, point)
    slope = nrlimit.diffusion_defect_scaling(
        psi, p, c_values, (point[0], 0.0, point[2])
    )
    rows = [
        ("contraction_residual", contraction),
        ("kg_identity_residual", kg.identity_residual),
        ("diffusion_term", kg.diffusion_term),
        ("relativistic_term", kg.relativistic_term),
        ("defect_slope", slope),
    ]
    _write_csv(out_dir / "nrlimit.csv", ("quantity", "value"), rows)
    summary = [
        f"contraction residual {contraction:.3e}, KG identity residual "
        f"{kg.identity_residual:.3e}",
        f"defect split: diffusion {kg.diffusion_term:.3e}, relativistic "
        f"{kg.relativistic_term:.3e}; slope vs c: {slope:.4f}",
    ]
    if contraction > 1e-10:
        raise VerificationFailure(f"contraction residual {contraction:.3e} above 1e-10")
    if kg.identity_residual > 1e-10:
        raise VerificationFailure(
            f"KG identity residual {kg.identity_residual:.3e} above 1e-10"
        )
    if is_heat_default and abs(slope + 2.0) > 0.05:
        raise VerificationFailure(f"defect slope {slope:.4f} outside -2 +- 0.05")
    return summary


def _run_curvature(args, cfg, out_dir: Path):
    metric_path = _merge(args, cfg, "metric")
    if metric_path is None:
        _refuse_flags(args, ("points",), "--metric")
        result = verification.criterion_curvature()
        rows, summary = result.rows, result.detail
        failure = None if result.passed else "curvature criterion failed"
    else:
        try:
            G, split = geomcurv.load_metric_file(metric_path)
        except OSError as err:
            raise ConfigError(f"metric file {metric_path}: {err.strerror}") from err
        if split is None:
            raise ConfigError("metric file needs a split line for block checks")
        ranges = {c: (0.3, 0.9) for c in G.coords}
        envs = geomcurv.halton_envs(G.coords, ranges, _merge(args, cfg, "points", 20))
        rep = geomcurv.block_vs_direct_residual(G, split, envs)
        rows = [("file_metric", *row) for row in rep.rows]
        summary = "file metric residuals: " + ", ".join(
            f"{k}={v:.2e}" for k, v in rep.max_residuals.items()
        )
        failure = verification.block_riemann_failure(rep)
    _write_csv(
        out_dir / "curvature.csv", ("metric", "quantity", "point", "value"), rows
    )
    if failure:
        raise VerificationFailure(failure)
    return [summary]


def _run_frame(args, cfg, out_dir: Path):
    f_text = _merge(args, cfg, "f", "0.25*t^2")
    c = _merge(args, cfg, "c", 1.0)
    grid_vals = _merge(args, cfg, "grid", [0.0, 0.5, -0.3, 0.35, 41, 41])
    if len(grid_vals) != 6:
        raise ConfigError("frame --grid needs tmin,tmax,xmin,xmax,nt,nx")
    try:
        grid = accframe.GridSpec(
            grid_vals[0], grid_vals[1], grid_vals[2], grid_vals[3],
            int(grid_vals[4]), int(grid_vals[5]),
        )
    except ValueError as err:
        raise ConfigError(f"frame --grid: {err}") from err
    tol = _tolerance(args, cfg, absolute=1e-8, relative=1e-8)
    max_iter = _merge(args, cfg, "max_iter", 100)
    try:
        traj = accframe.Trajectory.from_formula(f_text, c=c)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    fm = accframe.solve_frame_map(traj, grid, tol, max_iter)
    out_path = out_dir / "frame.csv"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fm.write_csv(fh)
    bx, bt = fm.boundary_residuals()
    summary = [
        f"f = {f_text!r}, grid {grid.nt}x{grid.nx}: "
        f"{'converged' if fm.converged else 'NOT converged'} after "
        f"{fm.iterations} iteration(s), residual {fm.residual:.3e}",
        f"boundary residuals: |x'(t,f(t))| <= {bx:.2e}, "
        f"|t'(t,f(t)) - tau| <= {bt:.2e}",
    ]
    if not fm.converged:
        raise VerificationFailure(
            f"frame iteration did not converge (residual {fm.residual:.3e})"
        )
    return summary


def _run_correlator(args, cfg, out_dir: Path):
    seed = _merge(args, cfg, "seed", verification.DEFAULT_SEED)
    result = verification.criterion_correlator(seed)
    _write_csv(out_dir / "correlator.csv", result.columns, result.rows)
    if not result.passed:
        raise VerificationFailure(result.detail)
    return [result.detail]


def _run_verify_all(args, cfg, out_dir: Path):
    seed = _merge(args, cfg, "seed", verification.DEFAULT_SEED)
    results, bundle = verification.run_all(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, payload in bundle.items():
        (out_dir / name).write_bytes(payload)
    lines = [f"{r.status} {r.key} ({r.runtime_s:.2f}s): {r.detail}" for r in results]
    failing = [r.key for r in results if not r.passed]
    budgets = verification.RUNTIME_BUDGETS
    over_budget = [r.key for r in results if r.key in budgets and r.runtime_s >= budgets[r.key]]
    lines.append(f"reports written to {out_dir}")
    parts = [f"{label}: {', '.join(keys)}" for label, keys in
             (("failing criteria", failing), ("over runtime budget", over_budget)) if keys]
    if parts:
        raise VerificationFailure("; ".join(parts) + "\n" + "\n".join(lines))
    return lines


# the keys that _tolerance and _sv_params read
_TOLERANCE_KEYS = ("abs_tol", "rel_tol", "max_steps")
_SV_KEYS = ("m", "chi", "n_aniso")


class _Command(NamedTuple):
    run: Callable[[argparse.Namespace, RunConfig, Path], list[str]]
    help: str
    keys: tuple[str, ...]  # what run reads through _merge, besides output


_COMMANDS = {
    "flow": _Command(
        _run_flow, "integrate a flow and check the pushforward",
        ("field", "vars", "point", "rho", "charge", "psi", "order", *_TOLERANCE_KEYS),
    ),
    "virasoro": _Command(
        _run_virasoro, "bracket residual table",
        ("max_index", "points", *_SV_KEYS, "seed"),
    ),
    "primary": _Command(
        _run_primary, "finite transformation law",
        ("eps", *_SV_KEYS, "point", "rho", *_TOLERANCE_KEYS),
    ),
    "nrlimit": _Command(
        _run_nrlimit, "contraction and KG/diffusion identities",
        ("psi", "m", "c", "h", "point", "c_values"),
    ),
    "curvature": _Command(
        _run_curvature, "curvature gates and block-formula report", ("metric", "points")
    ),
    "frame": _Command(
        _run_frame, "solve accelerated-frame coordinates",
        ("f", "c", "grid", "max_iter", *_TOLERANCE_KEYS),
    ),
    "correlator": _Command(_run_correlator, "half-space correlator checks", ("seed",)),
    "verify-all": _Command(_run_verify_all, "run every acceptance criterion", ("seed",)),
}

# flag help, where the flag's name says too little
_HELP = {
    "field": "semicolon-separated component formulas",
    "vars": "comma-separated coordinate names",
    "point": "comma-separated coordinates: the start (flow), t,r (primary), t,x0,x (nrlimit)",
    "charge": "scalar charge formula (phase checks, with --psi)",
    "psi": "test function formula (nrlimit: psi(t, x), default heat kernel)",
    "order": "series oracle order (with --charge and --psi)",
    "seed": "seed for random test points",
    "eps": "eps(t) formula (Laurent polynomial)",
    "c_values": "comma-separated c grid",
    "metric": "metric definition file",
    "f": "worldline formula f(t)",
    "grid": "tmin,tmax,xmin,xmax,nt,nx",
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ConfigErrors, so they
    end in one `svflow: config error:` line and exit 2 like any other."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand gets --config, --output and one flag per key it
    reads; every flag is text, which _checked converts.  Prefix matching
    is off, so a mistyped flag is an error, not another flag."""
    parser = _Parser(
        prog="svflow",
        description="flows, generator algebra, limits, curvature, frames: "
        "compute and verify",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        p.add_argument("--config", help="INI file with a [run] section")
        p.add_argument("--output", help="directory for CSV reports")
        for key in command.keys:
            p.add_argument(_flag(key), dest=key, help=_HELP.get(key))
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        command = args.command
        if command is None:
            parser.print_usage(sys.stderr)
            print("svflow: error: no subcommand given", file=sys.stderr)
            return 2
        cfg = load_config(args.config) if args.config else RunConfig()
        if cfg.command not in (None, command):
            raise ConfigError(f"the config file is for {cfg.command!r}, not {command!r}")
        out_dir = Path(_merge(args, cfg, "output", "reports"))
        with derivative_memo():
            summary = _COMMANDS[command].run(args, cfg, out_dir)
    except ConfigError as err:
        print(f"svflow: config error: {err}", file=sys.stderr)
        return 2
    except ParseError as err:
        print(f"svflow: formula error: {err}", file=sys.stderr)
        return 2
    except VerificationFailure as err:
        print(f"svflow: verification FAILED: {err}", file=sys.stderr)
        return 1
    except (SvflowError, ValueError) as err:
        print(f"svflow: error: {err}", file=sys.stderr)
        return 1
    for line in summary:
        print(line)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

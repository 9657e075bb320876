"""Command-line driver: each verification suite and computation as a
subcommand, with optional INI config files and CSV reports.

Exit status 0 means every asserted invariant of the subcommand held at
its tolerance, 1 names the failing invariant or the library's error, 2 an
input refused before computing (an InputError: flag, config field,
formula or input file); run alone maps error classes to codes.  Reports
carry no timestamps and all randomness flows through the --seed flag,
so identical invocations produce byte-identical CSVs.

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
    InputError,
    ParseError,
    Point,
    SvflowError,
    derivative_memo,
    scalar_field,
    vector_field,
)
from .flowexp import DEFAULT_TOLERANCE, Tolerance


class ConfigError(InputError):
    """A flag, config file or output directory refused by the CLI itself."""


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
    except (configparser.Error, UnicodeDecodeError) as err:
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
_INT_MINIMUM = {"seed": 0, "max_index": 0, "order": 0, "points": 1, "max_iter": 1}


def _checked(source: str, key: str, value: str):
    """The value of one flag or config field, read from its text and
    checked: floats finite, alone or in a list, integers at least their
    minimum.  Anything else is a ConfigError naming the key; the library
    refuses a tolerance, c or h that is not positive."""
    try:
        value = _CONVERTERS.get(key, str)(value)
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"must be finite, got {v}")
        minimum = _INT_MINIMUM.get(key)
        if minimum is not None and value < minimum:
            raise ValueError(f"must be at least {minimum}, got {value}")
    except ValueError as err:
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


def _tolerance(args, cfg, default: Tolerance = DEFAULT_TOLERANCE) -> Tolerance:
    return Tolerance(
        absolute=_merge(args, cfg, "abs_tol", default.absolute),
        relative=_merge(args, cfg, "rel_tol", default.relative),
        max_steps=_merge(args, cfg, "max_steps", default.max_steps),
    )


def _sv_params(args, cfg) -> svgen.SVParams:
    m = _merge(args, cfg, "m", 1.3)
    chi = _merge(args, cfg, "chi", 0.7)
    N = _merge(args, cfg, "n_aniso", 1.0)
    return svgen.SVParams(m=m, chi=chi, N=N)


def _out_dir(args, cfg) -> Path:
    return Path(_merge(args, cfg, "output", "reports"))


def _require(gates) -> None:
    """A VerificationFailure naming the first gate that fails."""
    for gate in gates:
        if not gate.passed:
            raise VerificationFailure(gate.failure())


class _Report(NamedTuple):
    """What a subcommand body returns; run writes, prints and asserts it."""

    files: dict[str, bytes]  # file name -> contents, written into the output directory
    lines: list[str]  # the summary, printed to stdout
    gates: list[verification.Gate]  # the gates of the claim, asserted last


def _csv_report(command: str, columns, rows, lines, gates) -> _Report:
    return _Report({f"{command}.csv": verification.render_csv(columns, rows)}, lines, gates)


# --------------------------------------------------------------------------
# Subcommand bodies.  Each computes its result and returns it as a
# _Report: its CSV, its summary lines and the gates of its claim, which
# the criteria of verification share.


def _run_flow(args, cfg):
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
    B = vector_field([s.strip() for s in comps.split(";")], chart)
    x = Point(chart, tuple(coords))
    rho = _merge(args, cfg, "rho", 0.5)
    tol = _tolerance(args, cfg)
    order = _merge(args, cfg, "order", 6)
    charge = _merge(args, cfg, "charge")
    psi_text = _merge(args, cfg, "psi")
    C = psi = None
    if charge is None or psi_text is None:
        _refuse_flags(args, ("charge", "psi", "order"), "--charge and --psi")
    else:
        C, psi = scalar_field(charge, chart), scalar_field(psi_text, chart)

    res = flowexp.integrate_flow(B, x, rho, tol, charge=C, jacobian=True)
    push = flowexp.pushforward_defect(B, x, res)
    rows = [("endpoint", i, v) for i, v in enumerate(res.endpoint.coords)]
    rows += [("jacobian", k, v) for k, v in enumerate(res.jacobian.flat)]
    rows.append(("pushforward_residual", "", push))
    summary = [
        f"endpoint: {res.endpoint.coords} in {res.steps} steps "
        f"(estimated error {res.estimated_error:.2e})",
        f"pushforward residual: {push:.3e}",
    ]
    if psi is not None:
        applied = res.factorized(psi)
        series = flowexp.series_oracle(B, C, psi, x, rho, order)
        rows.append(("apply_exponential", "", applied))
        rows.append((f"series_order_{order}", "", series))
        rows.append(("difference", "", abs(applied - series)))
        summary.append(
            f"exp route {applied!r} vs series(order {order}) {series!r}: "
            f"difference {abs(applied - series):.3e}"
        )
    return _csv_report("flow", ("quantity", "index", "value"), rows, summary,
                       [verification.pushforward_gate(push, tol)])


def _run_virasoro(args, cfg):
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
    summary = [
        f"bracket residuals for |m|,|n| <= {max_index} over {n_points} points: "
        f"worst {worst:.3e}"
    ]
    columns = ("m", "n", "max_residual", "bracket_coefficient", "bracket_index", "seed")
    return _csv_report("virasoro", columns, rows, summary, [verification.bracket_gate(worst)])


def _run_primary(args, cfg):
    eps_text = _merge(args, cfg, "eps", "t")
    eps = svgen.EpsilonFn.from_formula(eps_text)
    p = _sv_params(args, cfg)
    coords = _merge(args, cfg, "point", [0.5, 1.2])
    if len(coords) != 2:
        raise ConfigError("primary --point needs exactly t,r")
    t, r = coords
    rho = _merge(args, cfg, "rho", 1.0)
    tol = _tolerance(args, cfg)
    psi = scalar_field(verification.PRIMARY_PSI, svgen.CHART)
    tr = svgen.primary_transform(eps, p, t, r, rho, tol)
    flow_res = tr.flow_residual(psi)
    jac_res, defect = tr.weight_form_terms()
    form_res = jac_res + defect
    rows = [
        ("t_prime", tr.t_prime),
        ("r_prime", tr.r_prime),
        ("prefactor", tr.prefactor),
        ("flow_comparison_residual", flow_res),
        ("weight_form_residual", form_res),
    ]
    summary = [
        f"eps = {eps_text!r}, (t, r) = ({t}, {r}), rho = {rho}",
        f"t' = {tr.t_prime!r}, r' = {tr.r_prime!r}, prefactor = {tr.prefactor!r}",
        f"flow-comparison residual {flow_res:.3e}, weight-form residual {form_res:.3e}",
    ]
    gates = [verification.primary_flow_gate(flow_res),
             *verification.weight_form_gates(form_res, jac_res)]
    return _csv_report("primary", ("quantity", "value"), rows, summary, gates)


def _run_nrlimit(args, cfg):
    m = _merge(args, cfg, "m", 1.0)
    c = _merge(args, cfg, "c", 2.0)
    h = _merge(args, cfg, "h", 1.0)
    p = nrlimit.RelParams(m=m, c=c, h=h)
    point = tuple(_merge(args, cfg, "point", [0.5, 0.25, 0.8]))
    if len(point) != 3:
        raise ConfigError("nrlimit --point needs t,x0,x")
    psi_text = _merge(args, cfg, "psi")
    is_heat_default = psi_text is None
    psi = (nrlimit.heat_kernel(p) if is_heat_default
           else scalar_field(psi_text, nrlimit.PSI_CHART))
    c_values = _merge(args, cfg, "c_values", [10.0, 100.0, 1000.0])

    contraction = nrlimit.contraction_residual(psi, p, *point)
    kg = nrlimit.kg_diffusion_residual(psi, p, point)
    slope = nrlimit.diffusion_defect_scaling(psi, p, c_values, (point[0], 0.0, point[2]))
    rows = [
        ("contraction_residual", contraction),
        ("kg_identity_residual", kg.identity_residual),
        ("diffusion_term", kg.diffusion_term),
        ("relativistic_term", kg.relativistic_term),
        ("defect_slope", slope),
    ]
    summary = [
        f"contraction residual {contraction:.3e}, KG identity residual "
        f"{kg.identity_residual:.3e}",
        f"defect split: diffusion {kg.diffusion_term:.3e}, relativistic "
        f"{kg.relativistic_term:.3e}; slope vs c: {slope:.4f}",
    ]
    gates = verification.nr_identity_gates(contraction, kg.identity_residual)
    if is_heat_default:
        gates.append(verification.defect_slope_gate(slope))
    return _csv_report("nrlimit", ("quantity", "value"), rows, summary, gates)


def _run_curvature(args, cfg):
    metric_path = _merge(args, cfg, "metric")
    if metric_path is None:
        _refuse_flags(args, ("points",), "--metric")
        result = verification.criterion_curvature()
        rows, summary, gates = result.rows, result.detail, result.gates
    else:
        G, split = geomcurv.load_metric_file(metric_path)
        if split is None:
            raise ConfigError("metric file needs a split line for block checks")
        ranges = {c: (0.3, 0.9) for c in G.coords}
        envs = geomcurv.halton_envs(G.coords, ranges, _merge(args, cfg, "points", 20))
        rep = geomcurv.block_vs_direct_residual(geomcurv.curvature_direct(G), split, envs)
        rows = [("file_metric", *row) for row in rep.rows]
        summary = "file metric residuals: " + ", ".join(
            f"{k}={v:.2e}" for k, v in rep.max_residuals.items()
        )
        gates = [verification.block_riemann_gate(rep.max_residuals)]
    columns = ("metric", "quantity", "point", "value")
    return _csv_report("curvature", columns, rows, [summary], gates)


def _run_frame(args, cfg):
    f_text = _merge(args, cfg, "f", "0.25*t^2")
    c = _merge(args, cfg, "c", 1.0)
    grid_vals = _merge(args, cfg, "grid", [0.0, 0.5, -0.3, 0.35, 41, 41])
    if len(grid_vals) != 6:
        raise ConfigError("frame --grid needs tmin,tmax,xmin,xmax,nt,nx")
    grid = accframe.GridSpec(*grid_vals)
    tol = _tolerance(args, cfg, accframe.FRAME_TOLERANCE)
    max_iter = _merge(args, cfg, "max_iter", 100)
    traj = accframe.Trajectory.from_formula(f_text, c=c)
    fm = accframe.solve_frame_map(traj, grid, tol, max_iter)
    rows = [(t, x, fm.x_prime[i, j], fm.t_prime[i, j], fm.v[i, j])
            for i, t in enumerate(fm.t_grid) for j, x in enumerate(fm.x_grid)]
    bx, bt = fm.boundary_residuals()
    summary = [
        f"f = {f_text!r}, grid {grid.nt}x{grid.nx}: "
        f"{'converged' if fm.converged else 'NOT converged'} after "
        f"{fm.iterations} iteration(s), residual {fm.residual:.3e}",
        f"boundary residuals: |x'(t,f(t))| <= {bx:.2e}, "
        f"|t'(t,f(t)) - tau| <= {bt:.2e}",
    ]
    return _csv_report("frame", ("t", "x", "x_prime", "t_prime", "v"), rows, summary,
                       verification.frame_gates(fm.converged, bx, bt))


def _run_correlator(args, cfg):
    seed = _merge(args, cfg, "seed", verification.DEFAULT_SEED)
    result = verification.criterion_correlator(seed)
    return _csv_report("correlator", result.columns, result.rows, [result.detail],
                       result.gates)


def _run_verify_all(args, cfg):
    seed = _merge(args, cfg, "seed", verification.DEFAULT_SEED)
    results, bundle = verification.run_all(seed)
    lines = [f"{r.status} {r.key} ({r.runtime_s:.2f}s): {r.detail}" for r in results]
    lines.append(f"reports written to {_out_dir(args, cfg)}")
    budgets, exact = verification.RUNTIME_BUDGETS, verification.EXACT
    failing = sum(not r.passed for r in results)
    over_budget = sum(r.runtime_s >= budgets.get(r.key, math.inf) for r in results)
    gates = [verification.Gate("failing criteria", failing, exact),
             verification.Gate("criteria over runtime budget", over_budget, exact)]
    return _Report(bundle, lines, gates)


# the keys that _tolerance and _sv_params read
_TOLERANCE_KEYS = ("abs_tol", "rel_tol", "max_steps")
_SV_KEYS = ("m", "chi", "n_aniso")


class _Command(NamedTuple):
    run: Callable[[argparse.Namespace, RunConfig], _Report]
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
            raise ConfigError("no subcommand given")
        cfg = load_config(args.config) if args.config else RunConfig()
        if cfg.command not in (None, command):
            raise ConfigError(f"the config file is for {cfg.command!r}, not {command!r}")
        out_dir = _out_dir(args, cfg)
        with derivative_memo():
            report = _COMMANDS[command].run(args, cfg)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            for name, payload in report.files.items():
                (out_dir / name).write_bytes(payload)
        except OSError as err:
            raise ConfigError(f"output directory {out_dir}: {err.strerror}") from err
        for line in report.lines:
            print(line)
        _require(report.gates)
    except VerificationFailure as err:
        print(f"svflow: verification FAILED: {err}", file=sys.stderr)
        return 1
    except ParseError as err:
        print(f"svflow: formula error: {err}", file=sys.stderr)
        return 2
    except InputError as err:
        print(f"svflow: config error: {err}", file=sys.stderr)
        return 2
    except SvflowError as err:
        print(f"svflow: error: {err}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

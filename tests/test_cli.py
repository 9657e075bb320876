import ast
import inspect
import textwrap
import warnings
from pathlib import Path

import pytest

from svflow import cli
from svflow.cli import ConfigError, load_config, run


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["definitely-not-a-subcommand"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("svflow: config error: argument command: invalid choice")
    assert len(err.splitlines()) == 1


def test_formula_taken_for_an_option_is_one_config_error(capsys):
    # argparse reads "-t" as an option; the parser's error is a ConfigError
    # on one line, and run returns instead of raising SystemExit
    assert run(["flow", "--field", "-t", "--vars", "t", "--point", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "svflow: config error: argument --field: expected one argument\n"


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["flow", "--help"])
    assert exc.value.code == 0
    assert "--field" in capsys.readouterr().out


def test_no_subcommand_is_usage_error(capsys):
    assert run([]) == 2
    assert "no subcommand" in capsys.readouterr().err


def test_virasoro_subcommand(tmp_path, capsys):
    out = tmp_path / "reports"
    code = run(["virasoro", "--max-index", "2", "--output", str(out), "--seed", "7"])
    assert code == 0
    table = (out / "virasoro.csv").read_text().splitlines()
    assert table[0] == "m,n,max_residual,bracket_coefficient,bracket_index,seed"
    # 5x5 index pairs
    assert len(table) == 1 + 25
    assert "worst" in capsys.readouterr().out


def test_primary_subcommand_reports_transform(tmp_path, capsys):
    out = tmp_path / "r"
    code = run(
        [
            "primary",
            "--eps", "1 + 0.1*t + 0.05*t^2",
            "--chi", "0.7",
            "--m", "1.3",
            "--point", "0.5,1.2",
            "--output", str(out),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "t' = " in text and "prefactor" in text
    assert (out / "primary.csv").exists()


def test_flow_subcommand_with_charge(tmp_path):
    out = tmp_path / "r"
    code = run(
        [
            "flow",
            "--field", "t;-r",
            "--vars", "t,r",
            "--point", "1.0,0.5",
            "--rho", "0.3",
            "--charge", "0.2*t",
            "--psi", "t*r",
            "--output", str(out),
        ]
    )
    assert code == 0
    body = (out / "flow.csv").read_text()
    assert "apply_exponential" in body and "pushforward_residual" in body


def _sphere_metric(tmp_path):
    metric = tmp_path / "sphere.metric"
    metric.write_text(
        "dim = 2\ncoords = theta, phi\nsplit = theta | phi\n"
        "g[0,0] = 1\ng[1,1] = sin(theta)^2\n"
    )
    return metric


def test_curvature_with_metric_file(tmp_path):
    out = tmp_path / "r"
    code = run(["curvature", "--metric", str(_sphere_metric(tmp_path)), "--output", str(out)])
    assert code == 0
    assert (out / "curvature.csv").exists()


def test_frame_failure_exit_code(tmp_path, capsys):
    # one iteration cannot converge the accelerating case
    code = run(
        [
            "frame",
            "--f", "0.05*t^2",
            "--grid", "0,0.5,-0.3,0.35,11,11",
            "--max-iter", "1",
            "--output", str(tmp_path / "r"),
        ]
    )
    assert code == 1
    assert "FAILED" in capsys.readouterr().err


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("svflow: error:")


def test_quadrature_budget_is_a_library_error(tmp_path, capsys):
    # three Simpson evaluations cannot reach the proper-time tolerance
    code = run(["frame", "--max-steps", "3", "--output", str(tmp_path / "r")])
    assert code == 1
    _assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["flow", "--field", "0", "--vars", "t", "--point", "1", "--rho", "1e200",
                      "--charge", "0", "--psi", "1"], id="argv0"),
        pytest.param(["frame", "--grid=0,1e-320,-1e308,0,3,3"], id="argv2"),
        pytest.param(["curvature", "--metric", "{huge}"], id="argv5"),
    ],
)
def test_overflow_is_one_library_error_line(argv, tmp_path, capsys):
    # these ended in a traceback or printed a numpy warning line first
    huge = tmp_path / "huge.metric"
    huge.write_text("dim = 2\ncoords = a, b\nsplit = a | b\ng[0,0] = 1e200\ng[1,1] = 1e200\n")
    argv = [arg.format(huge=huge) for arg in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv + ["--output", str(tmp_path / "r")])
    assert code == 1
    _assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["frame", "--c", "1e308"],
        ["nrlimit", "--c-values", "1,1,1e308"],
        ["nrlimit", "--c-values", "1,1,1e-320"],
        ["frame", "--f", "0", "--c", "1e-200"],
        ["nrlimit", "--c", "1e-200"],
        ["nrlimit", "--c", "1e200"],
        ["nrlimit", "--m", "1e308"],
        ["primary", "--N", "1e-308"],
    ],
)
def test_a_parameter_beyond_its_formula_bound_is_refused(argv, tmp_path, capsys):
    # c^2, 1/c^2, (2 pi m c/h)^2 or 2/N beyond the double range: the first
    # three ended as a library overflow, the next two as "division by zero"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv + ["--output", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert err.startswith("svflow: config error:") and err.count("\n") == 1
    assert "beyond the double range" in err and f"{argv[-2][2]} = " in err


@pytest.mark.parametrize("argv, message", [
    (["primary", "--m", "1e308"],
     "at m = 1e+308, chi = 0.7, N = 1: exp(7.2e+307) overflows"),
    (["primary", "--chi", "1e308"],
     "at m = 1.3, chi = 1e+308, N = 1: pow overflowed the double range"),
    (["nrlimit", "--c", "1e150"],
     "at m = 1, c = 1e+150, h = 1: exp(1.5707963267948965e+150) overflows"),
    (["virasoro", "--N", "1e-300", "--max-index", "1", "--points", "2"],
     "at m = 1.3, chi = 0.7, N = 1e-300: pow overflowed the double range"),
])
def test_a_physical_overflow_names_the_parameters(argv, message, tmp_path, capsys):
    # the closed forms overflow at the point, not for every point
    assert run(argv + ["--output", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == f"svflow: error: {message}\n"


def test_a_coordinate_overflow_inside_a_step_is_a_blowup_that_names_it(tmp_path, capsys):
    # stage 4 of the first step reads 0 + 1.25 * 1.7e308; that ended as
    # "variable t is infinite"
    argv = ["flow", "--field", "1.7e308 + 0*t", "--vars", "t", "--point", "0", "--rho", "10"]
    assert run(argv + ["--output", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == "svflow: error: coordinate t overflowed within 8 steps\n"


def test_phase_overflow_is_a_library_error(tmp_path, capsys):
    code = run(
        [
            "flow",
            "--field", "1",
            "--vars", "t",
            "--point", "0",
            "--rho", "1",
            "--charge", "1000",
            "--psi", "1",
            "--output", str(tmp_path / "r"),
        ]
    )
    assert code == 1
    _assert_one_error_line(capsys)


def test_factorized_product_overflow_is_a_library_error(tmp_path, capsys):
    # exp(T) * psi(x') overflowed to inf, and flow.csv held
    # apply_exponential,,inf and difference,,inf under exit 0
    argv = ["flow", "--field", "0*t", "--vars", "t", "--point", "1", "--rho", "1",
            "--charge", "700 + 0*t", "--psi", "1e10 + 0*t"]
    assert run(argv + ["--output", str(tmp_path / "r")]) == 1
    _assert_one_error_line(capsys)
    assert not (tmp_path / "r" / "flow.csv").exists()


def test_an_infinite_jacobian_is_a_blowup_that_names_it(tmp_path, capsys):
    # J' = J from t = 0 overflows at 128 steps; the message named the
    # internal state variable: "variable _J[0,0] is infinite"
    argv = ["flow", "--field", "t", "--vars", "t", "--point", "0", "--rho", "1000"]
    assert run(argv + ["--output", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err == "svflow: error: the Jacobian overflowed within 128 steps\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["primary", "--eps", "1 + t", "--chi", "2000", "--point", "0.5,1.2"],
        ["primary", "--eps", "1 + t^6", "--point", "1e100,1"],
    ],
)
def test_power_overflow_is_a_library_error(argv, tmp_path, capsys):
    code = run(argv + ["--output", str(tmp_path / "r")])
    assert code == 1
    _assert_one_error_line(capsys)


def test_primary_honours_the_tolerance_flags(tmp_path, capsys):
    # eps = -1/t drives t to the singularity at 0 before rho = 1
    code = run(["primary", "--eps=-1/t", "--max-steps", "64",
                "--output", str(tmp_path / "r")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("svflow: error:") and "(max 64)" in err


@pytest.mark.parametrize("eps", ["1e308^1e308", "(1 + t)^100000", "((1 + t)^60)^60"])
def test_eps_degree_beyond_the_cap_is_a_config_error(eps, tmp_path, capsys):
    # before the cap the last took seconds to expand and the others never ended
    code = run(["primary", "--eps", eps, "--output", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("svflow: config error:") and len(err.splitlines()) == 1
    assert "beyond +-64" in err


def test_deep_nesting_is_a_formula_error(tmp_path, capsys):
    field = "(" * 2000 + "t" + ")" * 2000
    code = run(["flow", "--field", field, "--vars", "t", "--point", "1",
                "--output", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("svflow: formula error:") and len(err.splitlines()) == 1


def test_long_sum_field_ends_without_a_traceback(tmp_path, capsys):
    # the field is 3*t, so the flow ends at 0.5 * exp(0.3)
    field = " + ".join(["0.001*t"] * 3000)
    code = run(["flow", "--field", field, "--vars", "t", "--point", "0.5",
                "--rho", "0.1", "--output", str(tmp_path / "r")])
    out, err = capsys.readouterr()
    assert code == 0 and "Traceback" not in err
    assert out.startswith("endpoint: (0.67492940358")


def test_every_library_error_shares_one_base():
    import svflow
    from svflow import accframe, cli, fieldcalc, flowexp, geomcurv, nrlimit, quadrature, svgen

    for module in (accframe, cli, fieldcalc, flowexp, geomcurv, nrlimit, quadrature, svgen):
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, svflow.SvflowError), obj


def test_error_exit_code_for_bad_input(tmp_path, capsys):
    code = run(
        [
            "frame",
            "--f", "2*t",  # superluminal
            "--grid", "0,1,-3,3,11,11",
            "--output", str(tmp_path / "r"),
        ]
    )
    assert code == 1


# ------------------------------------------------------------ config files


def test_minimal_config_applies_defaults(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\ncommand = correlator\n")
    code = run(["correlator", "--config", str(cfg), "--output", str(tmp_path / "r")])
    assert code == 0


def test_config_without_a_command_key(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nseed = 3\n")
    assert run(["correlator", "--config", str(cfg), "--output", str(tmp_path / "r")]) == 0


def test_config_naming_another_command_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\ncommand = primary\n")
    assert run(["correlator", "--config", str(cfg), "--output", str(tmp_path / "r")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["svflow: config error: the config file is for 'primary', "
                     "not 'correlator'"]
    assert not (tmp_path / "r").exists()


def test_config_supplies_command_and_output(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\ncommand = correlator\noutput = {tmp_path / 'r'}\n")
    assert run(["correlator", "--config", str(cfg)]) == 0
    assert (tmp_path / "r" / "correlator.csv").exists()


def test_flag_overrides_config(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\ncommand = correlator\nseed = 1\noutput = {out_a}\n")
    assert run(["correlator", "--config", str(cfg)]) == 0
    assert run(["correlator", "--config", str(cfg), "--seed", "1",
                "--output", str(out_b)]) == 0
    # same seed, different output dir: identical bytes prove the flag won
    assert (out_a / "correlator.csv").read_bytes() == (out_b / "correlator.csv").read_bytes()
    # different seed now changes the report
    out_c = tmp_path / "c"
    assert run(["correlator", "--config", str(cfg), "--seed", "2",
                "--output", str(out_c)]) == 0
    assert (out_a / "correlator.csv").read_bytes() != (out_c / "correlator.csv").read_bytes()


def test_config_validation_errors(tmp_path, capsys):
    # a tolerance that is not positive is refused once, by the library
    bad_tol = tmp_path / "bad.ini"
    bad_tol.write_text("[run]\ncommand = flow\nfield = t\nvars = t\npoint = 1\n"
                       "abs_tol = -1e-9\n")
    assert run(["flow", "--config", str(bad_tol), "--output", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == (
        "svflow: config error: tolerance absolute must be positive, got -1e-09\n"
    )

    missing = tmp_path / "nope.ini"
    with pytest.raises(ConfigError):
        load_config(missing)

    no_section = tmp_path / "flat.ini"
    no_section.write_text("command = flow\n")
    with pytest.raises(ConfigError):
        load_config(no_section)


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\ncommand = flow\nabs_tol = -1\n")
    code = run(["flow", "--config", str(bad)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_same_seed_reports_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert run(["virasoro", "--max-index", "1", "--seed", "5",
                    "--output", str(out)]) == 0
    assert (out1 / "virasoro.csv").read_bytes() == (out2 / "virasoro.csv").read_bytes()


def test_bad_formula_is_usage_error(tmp_path, capsys):
    code = run(
        [
            "flow",
            "--field", "t +",  # malformed
            "--vars", "t",
            "--point", "1.0",
            "--output", str(tmp_path / "r"),
        ]
    )
    assert code == 2
    assert "formula error" in capsys.readouterr().err


# ------------------------------------------------------- numeric flag checks

_FLOW = ["flow", "--field", "t;-r", "--vars", "t,r"]


@pytest.mark.parametrize(
    "argv, key",
    [
        (["correlator", "--seed", "-1"], "seed"),
        (_FLOW + ["--point", "inf,0.5"], "point"),
        (_FLOW + ["--point", "1,0.5", "--rho", "nan"], "rho"),
        (_FLOW + ["--point", "1,0.5", "--abs-tol", "inf"], "abs_tol"),
        (["frame", "--grid", "0,1,-1,1,inf,5"], "grid"),
        (["primary", "--m", "nan"], "m"),
        (["nrlimit", "--c-values", "10,inf,1000"], "c_values"),
        (["virasoro", "--points", "0"], "points"),
        (["virasoro", "--max-index", "-2"], "max_index"),
        (_FLOW + ["--point", "1,0.5", "--max-steps", "1.5"], "max_steps"),
    ],
)
def test_bad_numeric_flag_is_a_config_error(argv, key, tmp_path, capsys):
    code = run(argv + ["--output", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"svflow: config error: flag {key!r}:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (_FLOW + ["--point", "1,0.5", "--max-steps", "-3"],
     "tolerance max_steps must be positive, got -3"),
    (_FLOW + ["--point", "1,0.5", "--rel-tol", "0"],
     "tolerance relative must be positive, got 0"),
    (["frame", "--abs-tol=-1e-9"], "tolerance absolute must be positive, got -1e-09"),
    (["nrlimit", "--h", "-1"], "h must be positive, got -1"),
    (["frame", "--c", "0"], "c must be positive, got 0"),
])
def test_a_value_the_library_refuses_has_one_message(argv, message, tmp_path, capsys):
    assert run(argv + ["--output", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == f"svflow: config error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["flow", "--field", "t", "--vars", "t", "--point", "1,2"],
        ["flow", "--field", "t;t", "--vars", "t,t", "--point", "1,2"],
        ["frame", "--grid", "0,1,-1,1,0,5"],
        ["nrlimit", "--c-values", "10,20,30"],
        ["frame", "--abs-tol", "-1"],
    ],
)
def test_input_the_library_rejects_is_a_config_error(argv, tmp_path, capsys):
    code = run(argv + ["--output", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert err.startswith("svflow: config error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "command, flag, key, value",
    [
        ("nrlimit", "--m", "m", "-1"),
        ("nrlimit", "--c", "c", "0"),
        ("virasoro", "--N", "n_aniso", "0"),
        ("primary", "--N", "n_aniso", "0"),
        ("frame", "--c", "c", "-1"),
    ],
)
@pytest.mark.parametrize("source", ["flag", "field"])
def test_refused_parameter_is_a_config_error_as_flag_and_field(
    command, flag, key, value, source, tmp_path, capsys
):
    argv = [command, "--output", str(tmp_path / "r")]
    if source == "flag":
        argv += [f"{flag}={value}"]
    else:
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\ncommand = {command}\n{key} = {value}\n")
        argv += ["--config", str(cfg)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("svflow: config error:") and len(err.splitlines()) == 1


def test_bad_numeric_config_field_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    for body in ("seed = -1", "rho = inf"):
        cfg.write_text(f"[run]\ncommand = flow\nfield = t\nvars = t\npoint = 1\n{body}\n")
        assert run(["flow", "--config", str(cfg), "--output", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("svflow: config error: field ")


def test_missing_metric_file_is_a_config_error(tmp_path, capsys):
    for path in (tmp_path / "absent.metric", tmp_path):
        assert run(["curvature", "--metric", str(path), "--output", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("svflow: config error: metric file") and len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--metric", "--config"])
def test_a_file_that_is_not_text_is_a_config_error(flag, tmp_path, capsys):
    # a UnicodeDecodeError is a ValueError but no InputError: it was a traceback
    path = tmp_path / "binary"
    path.write_bytes(b"\xff")
    assert run(["curvature", flag, str(path), "--output", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("svflow: config error:") and len(err.splitlines()) == 1


def test_unusable_output_directory_is_a_config_error(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    assert run(["correlator", "--output", str(afile / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("svflow: config error: output directory") and len(err.splitlines()) == 1


def test_metric_file_wider_than_the_sampler_is_refused(tmp_path, capsys):
    names = [f"a{i}" for i in range(9)]
    metric = tmp_path / "wide.metric"
    metric.write_text(f"dim = 9\ncoords = {', '.join(names)}\n"
                      f"split = a0 | {' '.join(names[1:])}\n"
                      + "".join(f"g[{i},{i}] = 1\n" for i in range(9)))
    assert run(["curvature", "--metric", str(metric), "--output", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "above 8" in err
    assert err.startswith("svflow: config error:") and len(err.splitlines()) == 1


_METRIC_AB = "dim = 2\ncoords = a, b\ng[0,0] = 1\ng[1,1] = 1\n"


@pytest.mark.parametrize(
    "metric, message",
    [
        ("", "file must define dim and coords"),
        (_METRIC_AB + "split = a | b\ng[0,1] = a\n", "off-block component (0,1)"),
        (_METRIC_AB + "split = a b | b\n", "line 5: split blocks overlap"),
        (_METRIC_AB + "split = a b |\n", "line 5: both blocks must be non-empty"),
        (_METRIC_AB + "split = a | b\ng[1,1] = q\n", "line 6: unknown identifier 'q'"),
        # it exited 0, comparing the formulas of the x1, x2 sub-metric with
        # the direct pipeline of all three coordinates
        ("dim = 3\ncoords = x1, x2, y\nsplit = x1 | x2\ng[0,0] = 1 + 0.1*y^2\n"
         "g[1,1] = 1 + x1^2\ng[2,2] = 1 + x2*y\n", "split must cover the metric's indices 0..2"),
    ],
)
def test_a_refused_metric_file_is_a_config_error(metric, message, tmp_path, capsys):
    path = tmp_path / "m.metric"
    path.write_text(metric)
    assert run(["curvature", "--metric", str(path), "--output", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("svflow: config error: " + message) and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["frame", "--grid", "0,1,-1,1,1e12,5"], "grid of 1000000000000x5 points above"),
        (["frame", "--grid", "0,0.5,-0.3,0.35,3.7,11"], "grid line counts must be whole"),
        (_FLOW + ["--point", "1,0.5", "--charge", "1", "--psi", "t", "--order", "9"],
         "order 9 above configured maximum 8"),
    ],
)
def test_input_refused_inside_the_library_is_a_config_error(argv, message, tmp_path, capsys):
    assert run(argv + ["--output", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("svflow: config error: " + message) and len(err.splitlines()) == 1


# ------------------------------------------------- the keys each command reads


def test_each_command_reads_exactly_the_keys_it_declares(monkeypatch, tmp_path):
    from svflow import cli

    argvs = {
        "flow": ["--field", "t;-r", "--vars", "t,r", "--point", "1,0.5",
                 "--rho", "0.3", "--charge", "0.2*t", "--psi", "t*r"],
        "virasoro": ["--max-index", "1", "--points", "2"],
        "primary": [],
        "nrlimit": [],
        "curvature": ["--metric", str(_sphere_metric(tmp_path)), "--points", "3"],
        "frame": ["--grid", "0,0.5,-0.3,0.35,11,11"],
        "correlator": [],
        "verify-all": [],
    }
    assert set(argvs) == set(cli._COMMANDS)
    # the bundle itself is the acceptance tests' business
    monkeypatch.setattr(cli.verification, "run_all", lambda seed: ([], {}))
    merge, read = cli._merge, set()

    def recording_merge(args, cfg, key, default=None):
        read.add(key)
        return merge(args, cfg, key, default)

    monkeypatch.setattr(cli, "_merge", recording_merge)
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    for name, argv in argvs.items():
        read.clear()
        assert run([name, *argv, "--output", str(tmp_path / "r")]) == 0, name
        declared = set(cli._COMMANDS[name].keys)
        assert read == declared | {"output"}, name
        dests = {a.dest for a in subparsers[name]._actions} - {"help"}
        assert dests == declared | {"config", "output"}, name


_REMOVED_FLAGS = [
    ("flow", "--seed"),
    ("primary", "--seed"),
    ("frame", "--seed"),
    *[
        (command, flag)
        for command in ("virasoro", "nrlimit", "curvature", "correlator", "verify-all")
        for flag in ("--abs-tol", "--rel-tol", "--max-steps")
    ],
    ("nrlimit", "--seed"),
    ("curvature", "--seed"),
]


@pytest.mark.parametrize("command, flag", _REMOVED_FLAGS)
def test_a_flag_the_command_does_not_read_is_a_usage_error(command, flag, tmp_path, capsys):
    assert len(_REMOVED_FLAGS) == 20
    assert run([command, flag, "1", "--output", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == (
        f"svflow: config error: unrecognized arguments: {flag} 1\n"
    )


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["flow", "--field", "t", "--vars", "t", "--point", "1", "--m", "3"], "--m"),
        (["nrlimit", "--c-v", "10,20"], "--c-v"),
    ],
)
def test_an_abbreviated_flag_is_a_usage_error(argv, flag, tmp_path, capsys):
    assert run(argv + ["--output", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"svflow: config error: unrecognized arguments: {flag} ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, flag, needed",
    [
        (["curvature", "--points", "5"], "--points", "--metric"),
        (_FLOW + ["--point", "1,0.5", "--order", "4"], "--order", "--charge and --psi"),
        (_FLOW + ["--point", "1,0.5", "--charge", "t"], "--charge", "--charge and --psi"),
        (_FLOW + ["--point", "1,0.5", "--psi", "t*r"], "--psi", "--charge and --psi"),
    ],
)
def test_a_flag_read_only_with_another_is_a_config_error(
    argv, flag, needed, tmp_path, capsys
):
    assert run(argv + ["--output", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == (
        f"svflow: config error: {flag} is read only with {needed}\n"
    )


@pytest.mark.parametrize(
    "command, body",
    [
        # read by flow only with a psi, and by curvature only with a metric
        ("flow", "field = t;-r\nvars = t,r\npoint = 1,0.5\norder = 4\ncharge = t\n"),
        ("curvature", "points = 5\n"),
        # the README's example: primary does not read the seed, the others do
        ("primary", "eps = 1 + 0.1*t + 0.05*t^2\nchi = 0.7\nm = 1.3\n"
                    "point = 0.5,1.2\nseed = 42\n"),
    ],
)
def test_a_field_the_command_does_not_read_is_tolerated(command, body, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\ncommand = {command}\n{body}")
    assert run([command, "--config", str(cfg), "--output", str(tmp_path / "r")]) == 0


def test_a_field_no_command_reads_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\ncommand = correlator\nsede = 3\n")
    assert run(["correlator", "--config", str(cfg), "--output", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == (
        "svflow: config error: field 'sede': no command reads it\n"
    )


def test_a_non_numeric_flag_names_the_flag(tmp_path, capsys):
    assert run(["correlator", "--seed", "x", "--output", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("svflow: config error: flag 'seed': invalid literal for int()")
    assert len(err.splitlines()) == 1


def test_cli_restates_no_bound_or_tolerance():
    # gate bounds live in verification and tolerance defaults in flowexp and
    # accframe; cli.py's own numbers are defaults and ranges, none below 0.1
    tree = ast.parse(Path(cli.__file__).read_text())
    numbers = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
               and type(node.value) in (int, float)]
    assert [v for v in numbers if 0 < abs(v) < 0.1] == []


def test_the_library_refuses_input_only_with_input_errors():
    # a refusal is an InputError, which run alone maps to exit 2; _checked
    # alone raises ValueError, beside the one int() and float() raise
    package = Path(cli.__file__).parent
    bare = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = set()
        if path.name == "cli.py":
            checked = next(node for node in tree.body
                           if isinstance(node, ast.FunctionDef) and node.name == "_checked")
            exempt = {id(node) for node in ast.walk(checked)}
        bare += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Raise) and id(node) not in exempt
                 and any(isinstance(n, ast.Name) and n.id == "ValueError"
                         for n in ast.walk(node))]
    assert bare == []
    for fn in (cli.run, *(command.run for command in cli._COMMANDS.values())):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        assert not any(isinstance(n, ast.Name) and n.id == "ValueError"
                       for n in ast.walk(tree)), fn.__name__

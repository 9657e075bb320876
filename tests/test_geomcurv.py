import math

import numpy as np
import pytest

from svflow.fieldcalc import DomainError, InputError
from svflow.geomcurv import (
    FORMULA_NAMES,
    METRIC_SUITE,
    BlockSplit,
    CurvatureBundle,
    DegenerateMetricError,
    MetricField,
    MetricFileError,
    block_vs_direct_residual,
    curvature_direct,
    halton_envs,
    mixed_block,
    parse_metric_text,
    restrict,
    ricci_block,
    riemann_block,
    scalar_block,
    symbolic_inverse,
)


# ------------------------------------------------------------ direct oracle


def test_flat_space_has_no_curvature():
    s = METRIC_SUITE["flat3"]
    v = curvature_direct(s.metric).at(s.sample_envs(1)[0])
    assert np.max(np.abs(v.riemann)) == 0.0
    assert np.max(np.abs(v.ricci)) == 0.0
    assert v.scalar == 0.0


def test_unit_sphere_scalar_curvature():
    s = METRIC_SUITE["sphere_unit"]
    bundle = curvature_direct(s.metric)
    for env in s.sample_envs(8):
        v = bundle.at(env)
        assert v.scalar == pytest.approx(2.0, abs=1e-9)
        # the hand value of the only independent component
        assert v.riemann[0, 1, 0, 1] == pytest.approx(
            math.sin(env["theta"]) ** 2, rel=1e-12
        )


def test_round_sphere_scaling():
    s = METRIC_SUITE["sphere_radius"]
    bundle = curvature_direct(s.metric)
    for env in s.sample_envs(5):
        assert bundle.at(env).scalar == pytest.approx(2.0 / 1.3**2, abs=1e-9)


def test_riemann_symmetries_and_first_bianchi():
    for name in ("sphere_radius", "warped_exp", "offdiag_block", "cross_4d"):
        s = METRIC_SUITE[name]
        bundle = curvature_direct(s.metric)
        for env in s.sample_envs(5):
            R = bundle.at(env).riemann
            assert np.max(np.abs(R + R.transpose(1, 0, 2, 3))) <= 1e-9
            assert np.max(np.abs(R + R.transpose(0, 1, 3, 2))) <= 1e-9
            assert np.max(np.abs(R - R.transpose(2, 3, 0, 1))) <= 1e-9
            bianchi = R + R.transpose(0, 2, 3, 1) + R.transpose(0, 3, 1, 2)
            assert np.max(np.abs(bianchi)) <= 1e-9


def test_ricci_is_symmetric():
    s = METRIC_SUITE["cross_4d"]
    v = curvature_direct(s.metric).at(s.sample_envs(1)[0])
    assert np.max(np.abs(v.ricci - v.ricci.T)) <= 1e-12


def test_scalar_additivity_on_product_of_spheres():
    s = METRIC_SUITE["spheres_product"]
    bundle = curvature_direct(s.metric)
    expected = 2.0 / 1.3**2 + 2.0 / 0.7**2
    for env in s.sample_envs(6):
        assert bundle.at(env).scalar == pytest.approx(expected, abs=1e-9)


def test_coordinate_scaling_leaves_scalar_invariant():
    # rescale phi -> lambda phi on the radius-a sphere: R stays 2/a^2
    lam = 2.5
    a = 1.3
    scaled = MetricField.from_entries(
        ("theta", "phi"),
        {(0, 0): a * a, (1, 1): f"{a * a / lam**2}*sin(theta)^2"},
    )
    bundle = curvature_direct(scaled)
    for env in halton_envs(("theta", "phi"), {"theta": (0.5, 2.6), "phi": (0.1, 6.0)}, 5):
        assert bundle.at(env).scalar == pytest.approx(2.0 / a**2, abs=1e-8)


def test_degenerate_metric_detected():
    G = MetricField.from_entries(("x1", "x2"), {(0, 0): "x1", (1, 1): 1.0})
    bundle = curvature_direct(G)
    with pytest.raises(DegenerateMetricError):
        bundle.at({"x1": 0.0, "x2": 0.5})


def test_symbolic_inverse_general_block():
    G = METRIC_SUITE["offdiag_block"].metric
    inv, det = symbolic_inverse(G)
    env = {"x1": 0.4, "x2": 0.6, "y": 0.7}
    from svflow import fieldcalc as fc

    num = np.array([[fc.evaluate(e, env) for e in row] for row in inv])
    mat = np.array([[fc.evaluate(e, env) for e in row] for row in G.components])
    assert np.allclose(num @ mat, np.eye(3), atol=1e-12)
    assert fc.evaluate(det, env) == pytest.approx(np.linalg.det(mat), rel=1e-14)


# ------------------------------------------------------------ type validation


def test_metric_must_be_symmetric():
    from svflow.fieldcalc import Const

    with pytest.raises(ValueError):
        MetricField(("a", "b"), ((Const(1.0), Const(2.0)), (Const(3.0), Const(1.0))))


def test_split_validation():
    with pytest.raises(ValueError):
        BlockSplit((0, 1), (1, 2))
    with pytest.raises(ValueError):
        BlockSplit((0,), (2,))
    G = MetricField.from_entries(("a", "b"), {(0, 0): 1.0, (0, 1): "a", (1, 1): 1.0})
    with pytest.raises(ValueError):
        BlockSplit((0,), (1,)).validate_against(G)


@pytest.mark.parametrize("coords, split", [
    # narrower than its metric: the formulas of the 2-d sub-metric were
    # compared with the 3-d direct pipeline, and the report passed
    (("x1", "x2", "y"), BlockSplit((0,), (1,))),
    # wider than its metric: a bare IndexError
    (("x1", "x2"), BlockSplit((0,), (1, 2))),
])
def test_a_split_must_cover_its_metric(coords, split):
    G = MetricField.from_entries(coords, {(k, k): f"1 + 0.1*{c}^2" for k, c in enumerate(coords)})
    env = dict.fromkeys(coords, 0.5)
    message = rf"^split must cover the metric's indices 0\.\.{len(coords) - 1}$"
    with pytest.raises(InputError, match=message):
        block_vs_direct_residual(curvature_direct(G), split, [env])
    with pytest.raises(InputError, match=message):
        riemann_block(G, split)


def test_restrict_freezes_other_block():
    s = METRIC_SUITE["warped_exp"]
    g = restrict(s.metric, s.split.first)
    assert g.coords == ("x1", "x2")
    assert g.param_vars == ("y",)
    # frozen-y curvature of the conformally flat slice is zero in 2d? no:
    # e^{2y} delta is flat in x at fixed y (constants in x)
    v = curvature_direct(g).at({"x1": 0.5, "x2": 0.5, "y": 0.3})
    assert np.max(np.abs(v.riemann)) == 0.0


# ------------------------------------------------------------ block formulas


def test_block_riemann_reduces_when_g_independent_of_y():
    s = METRIC_SUITE["flat3"]
    at = riemann_block(s.metric, s.split)
    assert np.max(np.abs(at(s.sample_envs(1)[0]))) == 0.0


def test_block_riemann_warped_closed_form():
    # g = e^{2y} delta (2d), h = (1): correction is e^{4y}(d_ms d_nl - d_mn d_ls)
    s = METRIC_SUITE["warped_exp"]
    at = riemann_block(s.metric, s.split)
    for env in s.sample_envs(4):
        R = at(env)
        e4y = math.exp(4.0 * env["y"])
        delta = np.eye(2)
        expected = e4y * (
            np.einsum("ms,nl->lmsn", delta, delta)
            - np.einsum("mn,ls->lmsn", delta, delta)
        )
        assert np.max(np.abs(R - expected)) <= 1e-12


def test_block_riemann_product_metric_is_factor_riemann():
    s = METRIC_SUITE["spheres_product"]
    at = riemann_block(s.metric, s.split)
    factor = curvature_direct(restrict(s.metric, s.split.first))
    for env in s.sample_envs(4):
        assert np.max(np.abs(at(env) - factor.at(env).riemann)) <= 1e-12


def test_block_evaluators_end_an_overflow_as_a_domain_error():
    # (1/4) h^ab d_a g d_b g reads inf - inf: riemann_block returned
    # [[[[nan]]]] and printed a numpy RuntimeWarning
    G = MetricField.from_entries(("x", "y"), {(0, 0): "1e200*exp(y)", (1, 1): 1.0})
    split = BlockSplit((0,), (1,))
    env = {"x": 0.5, "y": 0.5}
    with pytest.raises(DomainError, match="^block curvature: ") as err:
        riemann_block(G, split)(env)
    assert err.value.kind == "overflow"
    for factory in (mixed_block, ricci_block, scalar_block):
        assert np.isfinite(factory(G, split)(env)).all()


def test_mixed_block_zero_for_product_metric():
    s = METRIC_SUITE["spheres_product"]
    at = mixed_block(s.metric, s.split)
    assert np.max(np.abs(at(s.sample_envs(1)[0]))) == 0.0


def test_mixed_block_antisymmetry():
    s = METRIC_SUITE["cross_4d"]
    at = mixed_block(s.metric, s.split)
    M = at(s.sample_envs(1)[0])
    assert np.max(np.abs(M)) > 1e-4  # genuinely nonzero on this metric
    assert np.max(np.abs(M + M.transpose(0, 1, 3, 2))) <= 1e-15
    assert np.max(np.abs(M + M.transpose(1, 0, 2, 3))) <= 1e-15


def test_scalar_block_product_of_flats():
    s = METRIC_SUITE["flat3"]
    at = scalar_block(s.metric, s.split)
    assert at(s.sample_envs(1)[0]) == 0.0


def test_scalar_block_additivity_spheres():
    s = METRIC_SUITE["spheres_product"]
    at = scalar_block(s.metric, s.split)
    expected = 2.0 / 1.3**2 + 2.0 / 0.7**2
    for env in s.sample_envs(4):
        assert at(env) == pytest.approx(expected, abs=1e-9)


def test_all_block_formulas_match_direct_on_suite():
    # eq-37 agreement is the asserted gate; the other three are reported,
    # and on this suite they agree to rounding as well
    for name, s in METRIC_SUITE.items():
        rep = block_vs_direct_residual(curvature_direct(s.metric), s.split, s.sample_envs(10))
        assert rep.max_residuals["riemann_block"] <= 1e-7, name
        assert max(rep.max_residuals.values()) <= 1e-9, (name, rep.max_residuals)
        assert len(rep.rows) == 4 * 10


def test_report_rows_shape():
    s = METRIC_SUITE["sphere_unit"]
    rep = block_vs_direct_residual(curvature_direct(s.metric), s.split, s.sample_envs(3))
    names = {r[0] for r in rep.rows}
    assert names == {"riemann_block", "mixed_block", "ricci_block", "scalar_block"}
    assert all(isinstance(r[1], int) and r[2] >= 0.0 for r in rep.rows)


_FACTORIES = {
    "riemann_block": riemann_block,
    "mixed_block": mixed_block,
    "ricci_block": ricci_block,
    "scalar_block": scalar_block,
}


def test_report_builds_one_bundle_per_block_and_one_direct(monkeypatch):
    built = []
    init = CurvatureBundle.__init__

    def counting_init(self, G):
        built.append(G.coords)
        init(self, G)

    monkeypatch.setattr(CurvatureBundle, "__init__", counting_init)
    s = METRIC_SUITE["cross_4d"]
    block_vs_direct_residual(curvature_direct(s.metric), s.split, s.sample_envs(3))
    assert built == [("x1", "x2", "y1", "y2"), ("x1", "x2"), ("y1", "y2")]


@pytest.mark.parametrize("name", list(METRIC_SUITE))
def test_public_evaluators_give_the_report_rows_bitwise(name):
    # each public evaluator, against the direct stack, reproduces the
    # report's rows exactly: the report and the evaluators share formulas
    s = METRIC_SUITE[name]
    envs = s.sample_envs(20)
    direct = curvature_direct(s.metric)
    rep = block_vs_direct_residual(direct, s.split, envs)
    evaluators = {k: f(s.metric, s.split) for k, f in _FACTORIES.items()}
    fi, si = np.array(s.split.first), np.array(s.split.second)
    rows = []
    for idx, env in enumerate(envs):
        dv = direct.at(env)
        targets = {
            "riemann_block": dv.riemann[np.ix_(fi, fi, fi, fi)],
            "mixed_block": dv.riemann[np.ix_(fi, fi, si, si)],
            "ricci_block": dv.ricci[np.ix_(fi, fi)],
            "scalar_block": dv.scalar,
        }
        for k in FORMULA_NAMES:
            rows.append((k, idx, float(np.max(np.abs(evaluators[k](env) - targets[k])))))
    assert rows == rep.rows


def test_degenerate_y_block_is_an_error_through_every_route():
    # |det h| = 5e-13 at y = 5e-13, while |det G| = 5: the whole metric is
    # fine, and only the block ingredients see the degenerate y-block
    G = MetricField.from_entries(("x", "y"), {(0, 0): 1e13, (1, 1): "y"})
    split = BlockSplit((0,), (1,))
    env = {"x": 0.5, "y": 5e-13}
    curvature_direct(G).at(env)
    for factory in _FACTORIES.values():
        with pytest.raises(DegenerateMetricError):
            factory(G, split)(env)
    with pytest.raises(DegenerateMetricError):
        block_vs_direct_residual(curvature_direct(G), split, [{"x": 0.5, "y": 0.5}, env])


# ------------------------------------------------------------ metric files


METRIC_TEXT = """
# unit two-sphere
dim = 2
coords = theta, phi
split = theta | phi
g[0,0] = 1
g[1,1] = sin(theta)^2
"""


def test_parse_metric_text_round_trip():
    G, split = parse_metric_text(METRIC_TEXT)
    assert G.coords == ("theta", "phi")
    assert split == BlockSplit((0,), (1,))
    v = curvature_direct(G).at({"theta": 1.1, "phi": 0.3})
    assert v.scalar == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize(
    "text,frag",
    [
        ("dim = x\ncoords = a", "bad dimension"),
        ("dim = 2\ncoords = a, b\nnope = 3", "unknown key"),
        ("dim = 2\ncoords = a, b\ng[0 0] = 1", "bad component index"),
        ("dim = 2\ncoords = a, b\njust a line", "expected 'key = value'"),
        ("dim = 3\ncoords = a, b", "coords lists"),
        ("coords = a, b", "must define dim"),
        ("dim = 2\ncoords = a, b\nsplit = a | b | c", "exactly one '|'"),
    ],
)
def test_metric_file_errors(text, frag):
    with pytest.raises(MetricFileError) as exc:
        parse_metric_text(text)
    assert frag in str(exc.value)


def test_metric_file_reports_line_numbers():
    with pytest.raises(MetricFileError) as exc:
        parse_metric_text("dim = 2\ncoords = a, b\ng[zz] = 1\n")
    assert exc.value.line == 3


@pytest.mark.parametrize(
    "text",
    ["", "coords = a, b", "dim = 3\ncoords = a, b",
     "dim = 9\ncoords = " + ", ".join(f"a{i}" for i in range(9))],
)
def test_a_whole_file_metric_error_names_no_line(text):
    with pytest.raises(MetricFileError) as exc:
        parse_metric_text(text)
    assert exc.value.line is None and not str(exc.value).startswith("line")


_TWO = "dim = 2\ncoords = a, b\ng[0,0] = 1\n"


@pytest.mark.parametrize(
    "line4, frag",
    [
        ("g[1,1] = q", "unknown identifier 'q'"),
        ("g[1,1] = a +", "position"),
        ("g[0,5] = 1", "outside 0..1"),
        ("g[-1,1] = 1", "outside 0..1"),
        ("split = a | zz", "unknown: ['zz']"),
        ("split = a | a", "overlap"),
        ("split = a b |", "non-empty"),
    ],
)
def test_an_error_in_one_metric_line_names_that_line(line4, frag):
    with pytest.raises(MetricFileError) as exc:
        parse_metric_text(_TWO + line4 + "\ng[0,1] = 0\n")
    assert exc.value.line == 4 and str(exc.value).startswith("line 4: ")
    assert frag in str(exc.value)


def test_mixed_block_scalar_factor_case_vs_direct():
    # g depends on (y1, y2) only through a scalar factor and h is constant:
    # only the first term of the mixed formula survives; it must still
    # match the direct pipeline
    G = MetricField.from_entries(
        ("x1", "x2", "y1", "y2"),
        {
            (0, 0): "1 + 0.2*y1 + 0.1*y2^2",
            (0, 1): "0.1*(1 + 0.2*y1 + 0.1*y2^2)",
            (1, 1): "2*(1 + 0.2*y1 + 0.1*y2^2)",
            (2, 2): 1.0,
            (3, 3): 1.0,
        },
    )
    split = BlockSplit((0, 1), (2, 3))
    envs = halton_envs(G.coords, {c: (0.2, 0.8) for c in G.coords}, 6)
    rep = block_vs_direct_residual(curvature_direct(G), split, envs)
    # a purely conformal y-dependence antisymmetrizes away: both routes
    # must agree that these components vanish
    at = mixed_block(G, split)
    assert all(np.max(np.abs(at(env))) <= 1e-15 for env in envs)
    assert rep.max_residuals["mixed_block"] <= 1e-12
    # while the all-first-block Riemann correction is genuinely nonzero
    assert rep.max_residuals["riemann_block"] <= 1e-12
    direct = curvature_direct(G)
    assert any(
        np.max(np.abs(direct.at(env).riemann)) > 1e-4 for env in envs
    )


# ------------------------------------------------------------ program tiers


def test_bundle_grids_switch_tier_by_their_own_run_count(monkeypatch):
    # at() holds its grid programs and never requests them again; each
    # generates itself on its GENERATE_AFTER_RUNS-th run
    from svflow import fieldcalc as fc

    s = METRIC_SUITE["warped_exp"]
    env = s.sample_envs(1)[0]
    with fc.derivative_memo():
        bundle = CurvatureBundle(s.metric)
        programs = [p for p in fc._PROGRAMS.get().values() if isinstance(p, fc._Program)]
        monkeypatch.setattr(fc, "compile_expressions", None)
        assert len(programs) == 2 and all(len(p.ops) <= fc.MAX_MEMO_OPS for p in programs)
        values = [bundle.at(env) for _ in range(fc.GENERATE_AFTER_RUNS - 1)]
        assert not any(p.generated for p in programs)
        values.append(bundle.at(env))
        assert all(p.generated for p in programs)
        values.append(bundle.at(env))
    for v in values[-2:]:
        for name in ("inverse", "christoffel", "riemann", "ricci"):
            assert getattr(v, name).tobytes() == getattr(values[0], name).tobytes()
        assert v.scalar.hex() == values[0].scalar.hex()

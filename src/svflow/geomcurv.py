"""Curvature of a metric, directly and through block-diagonal decomposition.

The direct pipeline is the oracle: Christoffel symbols from the metric
with exact symbolic derivatives, the Riemann tensor from Gamma and
d-Gamma, Ricci by contraction of the first and third slots, scalar by
metric contraction.  The sign convention is pinned by R(unit 2-sphere)
= +2 and used consistently everywhere.

For a metric G = g (+) h that is block diagonal in coordinates
(x^mu, y^m), the decomposition formulas express curvature components
through the blocks and their cross-derivatives; each formula here is
evaluated verbatim and compared against the direct pipeline, with
residuals reported per formula and per point rather than silently
corrected.  Within-block curvature quantities treat the other block's
coordinates as frozen parameters.

All heavy lifting is symbolic differentiation plus pointwise numpy
assembly; expressions never need to be inverted or contracted
symbolically beyond the metric inverse that feeds Gamma.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import fieldcalc as fc
from .fieldcalc import Const, Expression, InputError, Point, SvflowError, parse_expression

DEGENERACY_EPS = 1e-12
_HALTON_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
HALTON_SKIP = 20  # leading Halton points dropped: across bases they are correlated


class DegenerateMetricError(SvflowError):
    """|det G| fell below the degeneracy threshold at an evaluation point."""


class MetricFileError(InputError):
    """A metric file refused at one line, or as a whole (line None)."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


# --------------------------------------------------------------------------
# Metric and split types


def _metric_entry(i: int, j: int, raw, coords: tuple[str, ...]) -> Expression:
    """Entry (i, j) of the metric over coords as an expression."""
    D = len(coords)
    if not (0 <= i < D and 0 <= j < D):
        raise InputError(f"entry index ({i},{j}) outside 0..{D - 1}")
    if isinstance(raw, str):
        return parse_expression(raw, coords)
    if isinstance(raw, Expression):
        return raw
    return Const(float(raw))


@dataclass(frozen=True)
class MetricField:
    """Symmetric matrix of expressions over coordinates, with optional
    frozen parameter variables (used when a block treats the other
    block's coordinates as parameters)."""

    coords: tuple[str, ...]
    components: tuple[tuple[Expression, ...], ...]
    param_vars: tuple[str, ...] = ()

    def __post_init__(self):
        D = len(self.coords)
        comps = tuple(tuple(row) for row in self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) != D or any(len(row) != D for row in comps):
            raise InputError(f"components must form a {D}x{D} matrix")
        for i in range(D):
            for j in range(i + 1, D):
                if comps[i][j] is not comps[j][i]:  # hash-consed: same structure
                    raise InputError(
                        f"metric not structurally symmetric at ({i},{j})"
                    )
        fc._check_chart_vars(self.coords + self.param_vars, sum(comps, ()), "metric entry")

    @property
    def dimension(self) -> int:
        return len(self.coords)

    @classmethod
    def from_entries(
        cls,
        coords: Iterable[str],
        entries: Mapping[tuple[int, int], Expression | str | float],
    ) -> "MetricField":
        """Build from upper-triangle entries; the rest mirror or default
        to zero."""
        coords = tuple(coords)
        D = len(coords)
        grid: list[list[Expression]] = [[fc.ZERO] * D for _ in range(D)]
        for (i, j), raw in entries.items():
            grid[i][j] = grid[j][i] = _metric_entry(i, j, raw, coords)
        return cls(coords, tuple(tuple(row) for row in grid))

    def is_diagonal(self) -> bool:
        D = self.dimension
        return all(
            fc.is_const(self.components[i][j], 0.0)
            for i in range(D)
            for j in range(D)
            if i != j
        )


@dataclass(frozen=True)
class BlockSplit:
    """Disjoint index partition of a metric into an x-block and a y-block."""

    first: tuple[int, ...]
    second: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "first", tuple(self.first))
        object.__setattr__(self, "second", tuple(self.second))
        joint = sorted(self.first + self.second)
        if len(set(joint)) != len(joint):
            raise InputError("split blocks overlap")
        if joint != list(range(len(joint))):
            raise InputError("split must cover indices 0..D-1 exactly")
        if not self.first or not self.second:
            raise InputError("both blocks must be non-empty")

    def validate_against(self, G: MetricField):
        """The split covers G's indices; off-block components vanish structurally."""
        if sorted(self.first + self.second) != list(range(G.dimension)):
            raise InputError(f"split must cover the metric's indices 0..{G.dimension - 1}")
        for i in self.first:
            for j in self.second:
                if not fc.is_const(G.components[i][j], 0.0):
                    raise InputError(
                        f"off-block component ({i},{j}) is not structurally zero"
                    )


def restrict(G: MetricField, indices: tuple[int, ...]) -> MetricField:
    """Sub-metric on the chosen indices; the remaining coordinates become
    frozen parameters."""
    sel = tuple(indices)
    others = tuple(c for k, c in enumerate(G.coords) if k not in sel)
    comps = tuple(tuple(G.components[i][j] for j in sel) for i in sel)
    return MetricField(
        coords=tuple(G.coords[i] for i in sel),
        components=comps,
        param_vars=others + G.param_vars,
    )


# --------------------------------------------------------------------------
# Symbolic inverse and det G (the inverse feeds Gamma and is never
# differentiated by name, the derivative route goes through d-Gamma)


def _sym_det(m: Sequence[Sequence[Expression]]) -> Expression:
    n = len(m)
    if n == 1:
        return m[0][0]
    total: Expression = fc.ZERO
    for j in range(n):
        if not fc.is_const(m[0][j], 0.0):  # a zero entry's term folds away
            term = fc.mul(m[0][j], _sym_det([row[:j] + row[j + 1:] for row in m[1:]]))
            total = fc.add(total, term) if j % 2 == 0 else fc.sub(total, term)
    return total


def symbolic_inverse(G: MetricField) -> tuple[list[list[Expression]], Expression]:
    D = G.dimension
    m = G.components
    det = _sym_det(m)
    if G.is_diagonal():
        return [
            [fc.div(fc.ONE, m[i][i]) if i == j else fc.ZERO for j in range(D)]
            for i in range(D)
        ], det
    inv = [[fc.ZERO] * D for _ in range(D)]
    for i in range(D):
        for j in range(D):
            minor = [[m[r][c] for c in range(D) if c != j] for r in range(D) if r != i]
            cof = _sym_det(minor)
            if (i + j) % 2 == 1:
                cof = fc.neg(cof)
            inv[j][i] = fc.div(cof, det)
    return inv, det


# --------------------------------------------------------------------------
# Direct pipeline


def _compile_grids(*grids) -> Callable[[Mapping[str, float] | Point], list[np.ndarray]]:
    """One program over nested grids of expressions; evaluates to one
    array per grid, of that grid's shape."""
    cells = [np.array(grid, dtype=object) for grid in grids]
    run = fc.compile_expressions([e for c in cells for e in c.ravel()])
    ends = np.cumsum([c.size for c in cells]).tolist()
    spans = [(end - c.size, end, c.shape) for end, c in zip(ends, cells)]

    def at(env) -> list[np.ndarray]:
        values = np.array(run(env))
        return [values[i:j].reshape(shape) for i, j, shape in spans]

    return at


def _derivative_grid(entries, wrt_names):
    """d[k][...] = d_{wrt[k]} entries[...], for a nested grid of entries:
    every derivative grid here has its derivative index first."""
    cells = np.array(entries, dtype=object)
    # a list, not np.vectorize: a ufunc warns on the floating-point flags
    # that an overflowing constant fold inside differentiate leaves set
    return [np.array([fc.differentiate(e, name) for e in cells.flat],
                     dtype=object).reshape(cells.shape) for name in wrt_names]


@dataclass(frozen=True)
class CurvatureValues:
    """Point evaluation of the whole curvature stack."""

    inverse: np.ndarray
    christoffel: np.ndarray       # Gamma[m, n, p] = Gamma^m_np
    riemann: np.ndarray           # all-lower R[m, n, p, q]
    ricci: np.ndarray
    scalar: float


class CurvatureBundle:
    """Symbolic Gamma and d-Gamma for one metric, evaluated on demand.

    Derivatives are taken with respect to the metric's own coordinates
    only; parameter variables stay frozen, which is exactly the
    "(y) as parameters" reading of within-block curvature.
    """

    def __init__(self, G: MetricField):
        self.metric = G
        D = G.dimension
        inv, det = symbolic_inverse(G)
        gamma = [[[fc.ZERO] * D for _ in range(D)] for _ in range(D)]
        dg = _derivative_grid(G.components, G.coords)  # dg[n][q][p] = d_n g_qp
        for m in range(D):
            for n in range(D):
                for p in range(D):
                    total: Expression = fc.ZERO
                    for q in range(D):
                        bracket = fc.sub(
                            fc.add(dg[n][q][p], dg[p][q][n]), dg[q][n][p]
                        )
                        total = fc.add(total, fc.mul(inv[m][q], bracket))
                    gamma[m][n][p] = fc.mul(Const(0.5), total)
        dgamma = _derivative_grid(gamma, G.coords)  # dgamma[d][m][n][c] = d_d Gamma^m_nc
        # g and det g run alone and first: at() checks the determinant before
        # the program of g^-1, Gamma and dGamma (each inside the next) divides by it
        self._g_at = _compile_grids(G.components, det)
        self._gamma_at = _compile_grids(inv, gamma, dgamma)

    def at(self, env: Mapping[str, float] | Point) -> CurvatureValues:
        g, det = self._g_at(env)
        if abs(det) <= DEGENERACY_EPS:
            raise DegenerateMetricError(f"|det G| = {abs(det):.3e} at {env}")
        ginv, gam, dgam = self._gamma_at(env)  # dgam axes (d, m, n, c) = d_d Gamma^m_nc
        # R^m_npq = d_p Gamma^m_nq - d_q Gamma^m_np + Gamma^m_pl Gamma^l_nq
        #           - Gamma^m_ql Gamma^l_np
        up = (
            dgam.transpose(1, 2, 0, 3)
            - dgam.transpose(1, 2, 3, 0)
            + np.einsum("mpl,lnq->mnpq", gam, gam)
            - np.einsum("mql,lnp->mnpq", gam, gam)
        )
        low = np.einsum("ml,lnpq->mnpq", g, up)
        ricci = np.einsum("mnmq->nq", up)
        scalar = float(np.einsum("nq,nq->", ginv, ricci))
        return CurvatureValues(
            inverse=ginv, christoffel=gam, riemann=low, ricci=ricci, scalar=scalar,
        )


def curvature_direct(G: MetricField) -> CurvatureBundle:
    """The independent oracle: full curvature stack straight from G."""
    return CurvatureBundle(G)


# --------------------------------------------------------------------------
# Block-decomposition formulas, each evaluated verbatim at a point


@dataclass(frozen=True)
class BlockValues:
    """The ingredients of every decomposition formula at one point: the
    curvature stacks of both blocks and the derivatives across the split."""

    g: CurvatureValues   # x-block, y frozen
    h: CurvatureValues   # y-block, x frozen
    dg: np.ndarray       # (q, p, p): d_a g_mn
    dh: np.ndarray       # (p, q, q): d_mu h_ab
    ddg: np.ndarray      # (q, q, p, p)
    ddh: np.ndarray      # (p, p, q, q)


class _BlockPieces:
    """Compiled ingredients of the decomposition formulas for one metric
    and split: the two block bundles and the cross-split derivatives."""

    def __init__(self, G: MetricField, split: BlockSplit):
        split.validate_against(G)
        g_sub = restrict(G, split.first)
        h_sub = restrict(G, split.second)
        self.g_bundle = CurvatureBundle(g_sub)
        self.h_bundle = CurvatureBundle(h_sub)
        # first and second derivatives across the split, dd[a][b] = d_a d_b
        dg_dy = _derivative_grid(g_sub.components, h_sub.coords)
        dh_dx = _derivative_grid(h_sub.components, g_sub.coords)
        self._cross_at = _compile_grids(
            dg_dy, dh_dx,
            _derivative_grid(dg_dy, h_sub.coords), _derivative_grid(dh_dx, g_sub.coords),
        )

    def at(self, env) -> BlockValues:
        return BlockValues(self.g_bundle.at(env), self.h_bundle.at(env), *self._cross_at(env))


def _riemann_block(v: BlockValues) -> np.ndarray:
    """All-first-block Riemann components R_{l m s n} =
    r_{l m s n}(x, (y)) + (1/4) h^{ab} (d_a g_{ms} d_b g_{nl}
    - d_a g_{mn} d_b g_{ls}).  Returns an evaluator over points."""
    dg = v.dg
    hinv = v.h.inverse
    t1 = np.einsum("ab,ams,bnl->lmsn", hinv, dg, dg)
    t2 = np.einsum("ab,amn,bls->lmsn", hinv, dg, dg)
    return v.g.riemann + 0.25 * (t1 - t2)


def _mixed_block(v: BlockValues) -> np.ndarray:
    """Mixed components R_{l m, s n} (first pair in the x-block, second in
    the y-block):

        (1/4) g^{ab} (d_s g_{a m} d_n g_{b l} - d_n g_{a m} d_s g_{b l})
      + (1/4) h^{ab} (d_m h_{a s} d_l h_{b n} - d_m h_{a n} d_l h_{b s})
    """
    dg, dh = v.dg, v.dh
    ginv, hinv = v.g.inverse, v.h.inverse
    t1 = np.einsum("xy,sxm,nyl->lmsn", ginv, dg, dg) - np.einsum(
        "xy,nxm,syl->lmsn", ginv, dg, dg
    )
    t2 = np.einsum("ab,mas,lbn->lmsn", hinv, dh, dh) - np.einsum(
        "ab,man,lbs->lmsn", hinv, dh, dh
    )
    return 0.25 * (t1 + t2)


def _ricci_block(v: BlockValues) -> np.ndarray:
    """First-block Ricci components assembled from the blocks:

        r_mn(g(x, (y)))
      - (1/2) h^{ls} (d_l d_s g_mn - Gamma^a_ls(h) d_a g_mn)
      + (1/2) g^{ab} (dg_ma . dg_nb)
      - (1/4) (dg_mn . dlog g)
      + (1/4) h^{ls} h^{ab} d_m h_{as} d_n h_{bl}
      - (1/2) h^{ls} (d_m d_n h_{ls} - Gamma^a_mn(g) d_a h_{ls})

    with df.dj = h^{ab} d_a f d_b j and d_a log g = g^{mn} d_a g_{mn}.
    """
    ginv, hinv = v.g.inverse, v.h.inverse
    dg, dh = v.dg, v.dh
    ddg, ddh = v.ddg, v.ddh

    term1 = v.g.ricci
    term2 = -0.5 * (
        np.einsum("ls,lsmn->mn", hinv, ddg)
        - np.einsum("ls,als,amn->mn", hinv, v.h.christoffel, dg)
    )
    term3 = 0.5 * np.einsum("xy,ab,amx,bny->mn", ginv, hinv, dg, dg)
    dlogg = np.einsum("xy,axy->a", ginv, dg)
    term4 = -0.25 * np.einsum("ab,amn,b->mn", hinv, dg, dlogg)
    term5 = 0.25 * np.einsum("ls,ab,mas,nbl->mn", hinv, hinv, dh, dh)
    term6 = -0.5 * (
        np.einsum("ls,mnls->mn", hinv, ddh)
        - np.einsum("ls,xmn,xls->mn", hinv, v.g.christoffel, dh)
    )
    return term1 + term2 + term3 + term4 + term5 + term6


def _scalar_block(v: BlockValues) -> float:
    """Scalar curvature assembled from the blocks:

        r(g) + r(h)
      - (1/4) ((dlog g . dlog g) + (dlog h under g))
      + d_a log g  h^{mn} Gamma^a_mn(h)
      + d_x log h  g^{mn} Gamma^x_mn(g)
      - g^{mn} h^{ab} (d_a d_b g_mn + d_m d_n h_ab)
      + (3/4) g^{mn} h^{ab} (g^{xy} d_a g_mx d_b g_ny + h^{pq} d_m h_ap d_n h_bq)

    The final term contracts its x-block derivative indices with the
    outer g^{mn} (the only binding that leaves no free index).
    """
    ginv, hinv = v.g.inverse, v.h.inverse
    dg, dh = v.dg, v.dh
    ddg, ddh = v.ddg, v.ddh

    dlogg = np.einsum("xy,axy->a", ginv, dg)      # indexed by y-block
    dlogh = np.einsum("ab,mab->m", hinv, dh)      # indexed by x-block

    total = v.g.scalar + v.h.scalar
    total += -0.25 * (
        float(np.einsum("ab,a,b->", hinv, dlogg, dlogg))
        + float(np.einsum("mn,m,n->", ginv, dlogh, dlogh))
    )
    total += float(np.einsum("a,mn,amn->", dlogg, hinv, v.h.christoffel))
    total += float(np.einsum("m,xy,mxy->", dlogh, ginv, v.g.christoffel))
    total += -float(
        np.einsum("mn,ab,abmn->", ginv, hinv, ddg)
        + np.einsum("mn,ab,mnab->", ginv, hinv, ddh)
    )
    total += 0.75 * (
        float(np.einsum("mn,ab,xy,amx,bny->", ginv, hinv, ginv, dg, dg))
        + float(np.einsum("mn,ab,pq,map,nbq->", ginv, hinv, hinv, dh, dh))
    )
    return float(total)


def _finite(values, env):
    if not np.isfinite(values).all():  # einsum's inf or NaN
        raise fc.DomainError(f"curvature at {env} is not finite", kind="overflow")
    return values


def _block_factory(formula):
    """The public factory of one formula: (G, split) -> an evaluator of
    that formula over points; an overflow or NaN is a DomainError."""

    def factory(G: MetricField, s: BlockSplit) -> Callable[[Mapping | Point], np.ndarray]:
        pieces = _BlockPieces(G, s)
        checked = fc._checked_numpy("block curvature")
        return checked(lambda env: _finite(formula(pieces.at(env)), env))

    factory.__name__ = factory.__qualname__ = formula.__name__[1:]
    factory.__doc__ = formula.__doc__
    return factory


riemann_block = _block_factory(_riemann_block)
mixed_block = _block_factory(_mixed_block)
ricci_block = _block_factory(_ricci_block)
scalar_block = _block_factory(_scalar_block)


# --------------------------------------------------------------------------
# Adjudication against the direct oracle

FORMULA_NAMES = ("riemann_block", "mixed_block", "ricci_block", "scalar_block")


@dataclass
class BlockComparisonReport:
    max_residuals: dict[str, float]
    rows: list[tuple[str, int, float]] = field(default_factory=list)


@fc._checked_numpy("block curvature")
def block_vs_direct_residual(
    direct: CurvatureBundle, s: BlockSplit, points: list[Mapping[str, float] | Point]
) -> BlockComparisonReport:
    """For each decomposition formula, the max absolute difference with
    the direct pipeline, the bundle of the split metric, over the points,
    plus per-point rows for CSV; an overflow or NaN is a DomainError."""
    pieces = _BlockPieces(direct.metric, s)
    fi = np.array(s.first)
    si = np.array(s.second)
    report = BlockComparisonReport(max_residuals={k: 0.0 for k in FORMULA_NAMES})
    for idx, env in enumerate(points):
        dv = direct.at(env)
        bv = pieces.at(env)
        res = {
            "riemann_block": float(
                np.max(np.abs(_riemann_block(bv) - dv.riemann[np.ix_(fi, fi, fi, fi)]))
            ),
            "mixed_block": float(
                np.max(np.abs(_mixed_block(bv) - dv.riemann[np.ix_(fi, fi, si, si)]))
            ),
            "ricci_block": float(
                np.max(np.abs(_ricci_block(bv) - dv.ricci[np.ix_(fi, fi)]))
            ),
            "scalar_block": abs(_scalar_block(bv) - dv.scalar),
        }
        _finite(list(res.values()), env)
        for name, value in res.items():
            report.rows.append((name, idx, value))
            report.max_residuals[name] = max(report.max_residuals[name], value)
    return report


# --------------------------------------------------------------------------
# Quasi-random sampling and the versioned metric suite


def _halton(index: int, base: int) -> float:
    f, r = 1.0, 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


def halton_envs(
    coords: tuple[str, ...],
    ranges: Mapping[str, tuple[float, float]],
    n: int,
) -> list[dict[str, float]]:
    """Deterministic quasi-random sample boxes; no seed, no state."""
    envs = []
    for i in range(n):
        env = {}
        for k, name in enumerate(coords):
            lo, hi = ranges[name]
            env[name] = lo + (hi - lo) * _halton(i + 1 + HALTON_SKIP, _HALTON_PRIMES[k])
        envs.append(env)
    return envs


@dataclass(frozen=True)
class SuiteMetric:
    metric: MetricField
    split: BlockSplit
    ranges: dict[str, tuple[float, float]]

    def sample_envs(self, n: int = 20) -> list[dict[str, float]]:
        return halton_envs(self.metric.coords, self.ranges, n)


def _suite() -> dict[str, SuiteMetric]:
    suite = {}

    flat = MetricField.from_entries(
        ("x1", "x2", "x3"), {(0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0}
    )
    suite["flat3"] = SuiteMetric(
        flat, BlockSplit((0, 1), (2,)), {"x1": (0.1, 1.0), "x2": (0.1, 1.0), "x3": (0.1, 1.0)}
    )

    sphere = MetricField.from_entries(
        ("theta", "phi"), {(0, 0): 1.0, (1, 1): "sin(theta)^2"}
    )
    suite["sphere_unit"] = SuiteMetric(
        sphere, BlockSplit((0,), (1,)), {"theta": (0.5, 2.6), "phi": (0.1, 6.0)}
    )

    a = 1.3
    sphere_a = MetricField.from_entries(
        ("theta", "phi"), {(0, 0): a * a, (1, 1): f"{a * a}*sin(theta)^2"}
    )
    suite["sphere_radius"] = SuiteMetric(
        sphere_a, BlockSplit((0,), (1,)), {"theta": (0.5, 2.6), "phi": (0.1, 6.0)}
    )

    b = 0.7
    prod = MetricField.from_entries(
        ("t1", "p1", "t2", "p2"),
        {
            (0, 0): a * a,
            (1, 1): f"{a * a}*sin(t1)^2",
            (2, 2): b * b,
            (3, 3): f"{b * b}*sin(t2)^2",
        },
    )
    suite["spheres_product"] = SuiteMetric(
        prod, BlockSplit((0, 1), (2, 3)),
        {"t1": (0.5, 2.6), "p1": (0.1, 6.0), "t2": (0.5, 2.6), "p2": (0.1, 6.0)},
    )

    warped = MetricField.from_entries(
        ("x1", "x2", "y"),
        {(0, 0): "exp(2*y)", (1, 1): "exp(2*y)", (2, 2): 1.0},
    )
    suite["warped_exp"] = SuiteMetric(
        warped, BlockSplit((0, 1), (2,)),
        {"x1": (0.2, 1.0), "x2": (0.2, 1.0), "y": (-0.5, 0.5)},
    )

    offdiag = MetricField.from_entries(
        ("x1", "x2", "y"),
        {
            (0, 0): "1 + 0.1*y^2",
            (0, 1): "0.2*x1*y",
            (1, 1): "1 + 0.1*x1^2",
            (2, 2): "1 + 0.3*x1^2 + 0.1*x2^2",
        },
    )
    suite["offdiag_block"] = SuiteMetric(
        offdiag, BlockSplit((0, 1), (2,)),
        {"x1": (0.3, 0.9), "x2": (0.3, 0.9), "y": (0.3, 0.9)},
    )

    # both blocks 2-d, off-diagonal within each, cross-dependent: the only
    # configuration in which every term of the mixed/Ricci/scalar
    # decompositions is nonzero
    cross = MetricField.from_entries(
        ("x1", "x2", "y1", "y2"),
        {
            (0, 0): "1 + 0.2*y1",
            (0, 1): "0.1*y2",
            (1, 1): "1 + 0.1*x1^2",
            (2, 2): "1 + 0.1*x1",
            (2, 3): "0.05*x2",
            (3, 3): "1 + 0.1*y1^2",
        },
    )
    suite["cross_4d"] = SuiteMetric(
        cross, BlockSplit((0, 1), (2, 3)),
        {"x1": (0.2, 0.8), "x2": (0.2, 0.8), "y1": (0.2, 0.8), "y2": (0.2, 0.8)},
    )

    return suite


METRIC_SUITE: dict[str, SuiteMetric] = _suite()


# --------------------------------------------------------------------------
# Metric input files


def parse_metric_text(text: str) -> tuple[MetricField, BlockSplit | None]:
    """Structured text: `dim = D`, `coords = a, b, ...`, optional
    `split = a b | c`, then `g[i,j] = formula` lines (upper triangle)."""
    dim = None
    coords: tuple[str, ...] | None = None
    split_spec: tuple[list[str], list[str], int] | None = None
    entries: dict[tuple[int, int], tuple[str, int]] = {}  # formula, line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MetricFileError("expected 'key = value'", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "dim":
            try:
                dim = int(value)
            except ValueError:
                raise MetricFileError(f"bad dimension {value!r}", lineno) from None
        elif key == "coords":
            coords = tuple(v.strip() for v in value.split(",") if v.strip())
        elif key == "split":
            halves = value.split("|")
            if len(halves) != 2:
                raise MetricFileError("split needs exactly one '|'", lineno)
            split_spec = (halves[0].split(), halves[1].split(), lineno)
        elif key.startswith("g[") and key.endswith("]"):
            body = key[2:-1]
            try:
                i, j = (int(p) for p in body.split(","))
            except ValueError:
                raise MetricFileError(f"bad component index {key!r}", lineno) from None
            entries[(min(i, j), max(i, j))] = (value, lineno)
        else:
            raise MetricFileError(f"unknown key {key!r}", lineno)
    if dim is None or coords is None:
        raise MetricFileError("file must define dim and coords")
    if len(coords) != dim:
        raise MetricFileError(f"coords lists {len(coords)} names for dim = {dim}")
    if dim > len(_HALTON_PRIMES):
        raise MetricFileError(f"dim {dim} above {len(_HALTON_PRIMES)}: too wide to sample")
    parsed = {}
    for (i, j), (value, lineno) in entries.items():
        try:
            parsed[(i, j)] = _metric_entry(i, j, value, coords)
        except InputError as err:
            raise MetricFileError(str(err), lineno) from err
    split = None
    if split_spec is not None:
        *halves, lineno = split_spec
        unknown = sorted(set(halves[0] + halves[1]) - set(coords))
        if unknown:
            raise MetricFileError(f"split names unknown: {unknown}", lineno)
        try:
            split = BlockSplit(*(tuple(coords.index(nm) for nm in h) for h in halves))
        except InputError as err:
            raise MetricFileError(str(err), lineno) from err
    return MetricField.from_entries(coords, parsed), split


def load_metric_file(path) -> tuple[MetricField, BlockSplit | None]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise MetricFileError(f"metric file {path}: {err.strerror}") from err
    except UnicodeDecodeError as err:
        raise MetricFileError(f"metric file {path}: not UTF-8 text: {err.reason}") from err
    return parse_metric_text(text)

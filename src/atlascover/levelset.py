"""Coverings of monomial level hypersurfaces {x^alpha = c} by graph charts.

Over the punctured polydisc in the last n-1 coordinates the hypersurface is
the alpha_1-valued graph x_1 = g(x_2, ..., x_n) with
g^alpha_1 = c / xbar^alphabar.  Each chart composes a base diagonal affine
chart phi of the (n-1)-dim covering with one explicit root branch

    g_k(phi(x)) = omega^k * exp((Log c - sum_i alpha_i (Log b_i
                   + Log(1 + d_i x_i / b_i))) / alpha_1),

where omega = exp(2 pi i / alpha_1) and Log is the principal branch.  The
logarithms are single-valued on the extended base ball because the base chart
carries an avoidance certificate (|d_i x_i / b_i| < 1 there), so the branch
is holomorphic on the whole doubled chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import (
    BranchUndefined,
    ChartFamily,
    Covering,
    DiagonalAffineChart,
    DimensionMismatch,
    LevelOutsideRange,
    MonomialLevelSet,
    avoidance,
    avoidance_certificate,
    check_budget,
    tolerance,
)
from .polydisc import cover_punctured_polydisc, level_lower_bound

RESIDUAL_ULPS = 32      # K: the units in the last place one rounded operation may cost


@dataclass(frozen=True)
class MonomialLevelChart:
    """One branch of the level-set graph over a base chart in C^(n-1).

    ``branch`` = 0 is the principal branch (principal logs throughout); the
    labels are stable across runs.
    """

    base: DiagonalAffineChart
    branch: int
    alpha: tuple
    c: complex

    def __post_init__(self):
        if len(self.alpha) != self.base.dim + 1:
            raise DimensionMismatch(
                f"alpha has {len(self.alpha)} entries for a base of dim {self.base.dim}")
        level = MonomialLevelSet(self.alpha, self.c)      # checks alpha and c
        object.__setattr__(self, "alpha", level.alpha)
        object.__setattr__(self, "c", level.c)
        if not 0 <= self.branch < self.alpha[0]:
            raise ValueError(f"branch must lie in [0, {self.alpha[0]})")
        if not avoidance_certificate(self.base, level.base, self.base.gamma):
            raise BranchUndefined(
                "base chart touches a coordinate hyperplane on its doubled ball; "
                "the root branch is not single-valued there")

    @property
    def gamma(self) -> float:
        return self.base.gamma

    @property
    def dim(self) -> int:
        return self.base.dim + 1

    def map_points(self, x: np.ndarray) -> np.ndarray:
        """Chart map: x in the (n-1)-ball -> (g_k(phi(x)), phi(x)) in C^n."""
        return level_points(np.asarray(self.base.b), np.asarray(self.base.d), self.alpha,
                            self.c, np.asarray(x, dtype=complex), (self.branch,))[..., 0, :]


def level_points(b, d, alpha, c, x, branches) -> np.ndarray:
    """The chart map (g_k(phi(x)), phi(x)) of the listed branches k over base
    data (b, d) at base preimage points x.  b, d and x broadcast with base
    coordinates last; the branches broadcast on a new axis before the last, so
    a list gives every point each listed branch, and a column (r, 1) row i's
    own branch alone."""
    abar = np.asarray(alpha[1:], dtype=float)
    s = (abar * (np.log(b) + np.log(1.0 + d * x / b))).sum(axis=-1)
    logs = ((np.log(c) - s) / alpha[0])[..., None] + 2j * math.pi * np.asarray(branches) / alpha[0]
    base = b + d * x
    return np.concatenate([np.exp(logs)[..., None], np.broadcast_to(
        base[..., None, :], logs.shape + base.shape[-1:])], axis=-1)


def level_residual(ch: MonomialLevelChart, x: np.ndarray) -> np.ndarray:
    """|psi(x)^alpha - c| at base preimage points x (vectorized)."""
    pts = np.atleast_2d(ch.map_points(x))
    return np.abs(np.prod(pts ** np.asarray(ch.alpha), axis=-1) - ch.c)


class LevelBranchCharts(ChartFamily):
    """All (base chart, branch) compositions, ordered base-major then branch."""

    def __init__(self, base_cov: Covering, alpha: tuple, c: complex):
        self.base_cov = base_cov
        self.alpha = tuple(int(a) for a in alpha)
        self.c = complex(c)
        self.alpha1 = self.alpha[0]
        self._base = base_cov.charts
        self.dim = len(self.alpha)
        self.radices = (self._base.kappa, self.alpha1)

    @property
    def gamma(self) -> float | None:
        return self._base.gamma

    @property
    def base(self) -> ChartFamily:
        return self._base

    def _chart(self, i):
        t, k = np.unravel_index(i, self.radices)
        return MonomialLevelChart(base=self._base[t], branch=int(k),
                                  alpha=self.alpha, c=self.c)

    def _recipe(self):
        return self.base_cov, self.alpha, self.c

    def doubling_factors(self, axes, scale: float, tol: float | None = None) -> tuple:
        """The base flags on every base axis, which the branches need, and the
        residual |psi(x)^alpha - c| <= tol |c| on the unit ball, decided by
        its a-priori rounding bound (`_bound`).

        If the largest bound over the charts whose base flags pass is within
        tol |c|, the factors are the base's per-level flags and an all-True
        factor of the alpha_1 branches, in O(sum N_l); otherwise one factor
        flags every chart by its own bound (within `check_budget`).
        """
        levels = self._base.level_rows()
        flags = avoidance(levels, range(self.dim - 1), scale)
        limit = tolerance(tol) * abs(self.c)
        terms = self._residual_terms(levels)
        if self._bound(sum(t[f].max(initial=0.0) for t, f in zip(terms, flags))) <= limit:
            return flags + (np.ones(self.alpha1, dtype=bool),)
        check_budget(self.kappa, f"chart flags past the residual bound (tol |c| is {limit!r})")
        ok = reduce(np.logical_and.outer, flags) & (self._bound(reduce(np.add.outer, terms)) <= limit)
        return (np.repeat(ok.ravel(), self.alpha1),)

    def _residual_terms(self, levels) -> list:
        """Per level of `level_rows`: each row's term sum_i alphabar_i T_i over
        the base axes i it sets, T_i = |ln|b_i|| + pi + 2 (1 + q_i) / (1 - q_i),
        q_i = |d_i| / |b_i| (inf once the ball reaches b_i + d_i x_i = 0)."""
        abar = np.asarray(self.alpha[1:], dtype=float)
        terms = []
        with np.errstate(divide="ignore", invalid="ignore"):
            for first, b, d in levels:
                q = np.abs(d) / np.abs(b)
                t = np.where(q < 1.0, np.abs(np.log(np.abs(b))) + math.pi
                             + 2.0 * (1.0 + q) / (1.0 - q), np.inf)
                terms.append(t @ abar[first:first + b.shape[1]])
        return terms

    def _bound(self, term):
        """The a-priori bound on |psi(x)^alpha - c| over the unit ball of a
        chart whose rows sum to ``term`` (`_residual_terms`).

        In exact arithmetic the residual is 0.  Rounded, each operation of
        `level_points` and `level_residual` errs by at most ``RESIDUAL_ULPS`` units
        u = 2^-53 of the magnitude it handles, and an error e in the log of a
        factor of the product becomes a relative error e of the product.  The
        magnitudes are |Log c|; per axis |Log b_i| <= |ln|b_i|| + pi and the
        condition (1 + q_i) / (1 - q_i) of log(1 + d_i x_i / b_i) and of
        b_i + d_i x_i (each once), alphabar_i times; the branch angle
        2 pi k / alpha_1 < 2 pi and exp, raised to the alpha_1-th power
        ((2 pi + 1) alpha_1); the integer powers (sum alphabar) and the
        n-fold product (n).  So the residual is at most
        K u (|Log c| + sum_i alphabar_i T_i + (2 pi + 1) alpha_1 + sum alphabar + n) |c|.
        """
        fixed = (abs(np.log(self.c)) + (2.0 * math.pi + 1.0) * self.alpha1
                 + sum(self.alpha[1:]) + self.dim)
        return RESIDUAL_ULPS * 2.0 ** -53 * (fixed + term) * abs(self.c)

    def passes(self, pts, scale, done):
        """The base family's passes on xbar, each base chart with its alpha_1 branches."""
        for idx, t in self._base.passes(pts[:, 1:], scale, done):
            yield np.repeat(idx, self.alpha1), np.ravel_multi_index(
                (t[:, None], np.arange(self.alpha1)), self.radices).ravel()

    def _neighbors(self, idx, scale: float) -> tuple:
        """Chart ``i``'s neighbours, for each i in ``idx``: every branch over a base
        chart whose image can meet base chart i's."""
        counts, base = self._base._neighbors(np.unravel_index(idx, self.radices)[0], scale)
        return counts * self.alpha1, lambda: np.ravel_multi_index(
            (base()[:, None], np.arange(self.alpha1)), self.radices).ravel()

    def _pair_witnesses(self, i, j, tol: float) -> tuple:
        """The base family's witnesses of the distinct base pairs, then `_branch_rows`."""
        (ti, ki), (tj, kj) = np.unravel_index(i, self.radices), np.unravel_index(j, self.radices)
        pairs, inv = np.unique(np.stack([ti, tj], axis=1), axis=0, return_inverse=True)
        okb, wb = self._base._pair_witnesses(pairs[:, 0], pairs[:, 1], tol)
        ok, w = okb[inv], np.empty((i.size, self.dim), dtype=complex)
        r = np.nonzero(ok)[0]
        rows = (*self._base.arrays_at(ti[r]), *self._base.arrays_at(tj[r]))
        ok[r], w[r] = _branch_rows(self.alpha, self.c, rows, (ki[r], kj[r]), wb[inv[r]], tol)
        return ok, w

    def _hits(self, pts, scale, t: float, j) -> np.ndarray:
        """Row by row: the base chart holds xbar by the base family's `_hits` (as in
        its `covers`), and the branch value g at its preimage matches x1 (`_root_match`)."""
        base, k = np.unravel_index(j, self.radices)
        ok = self._base._hits(pts[:, 1:], scale, t, self._base._key(base))
        r = np.nonzero(ok)[0]
        b, d = self._base.arrays_at(base[r])
        g = level_points(b, d, self.alpha, self.c, (pts[r, 1:] - b) / d, k[r, None])
        ok[r] = _root_match(g[:, 0, 0], pts[r, 0], t)
        return ok

    contains = ChartFamily.contains         # bound here too: the benchmark tracer counts its calls

    def covers(self, pts: np.ndarray, scale, tol: float | None = None) -> np.ndarray:
        """Base location, then a root match on the rows the base covers.

        Every base chart carries all alpha_1 branches, and their values at
        xbar are the alpha_1 roots g of g^alpha_1 = c / xbar^alphabar, so p
        is covered iff the base covers xbar and one of them matches x1
        (`_root_match`, the rule of `_hits`).
        """
        pts, _, t = self._points(pts, scale, tol)
        out = self._base.covers(pts[:, 1:], scale, tol=t)
        rows = np.nonzero(out)[0]
        if rows.size:
            g = direct_branch_values(self.alpha, self.c, pts[rows, 1:])
            out[rows] = _root_match(g, pts[rows, :1], t).any(axis=1)
        return out


def _root_match(g, x1, t: float) -> np.ndarray:
    """Whether branch values g match first coordinates x1: |g - x1| <= sqrt(t) max(1, |g|)."""
    return np.abs(g - x1) <= t ** 0.5 * np.maximum(1.0, np.abs(g))


def _branch_rows(alpha, c, rows, branches, wb, tol: float):
    """(ok, w) for level-branch pairs whose base charts ``rows`` = (b1, d1, b2,
    d2) meet at ``wb``: the branch values g at wb agree by the rule of
    `LevelBranchCharts._hits`, and w = (g1, wb).  Two roots of one equation
    agree on all of the convex base overlap or nowhere: the test is exact."""
    g1, g2 = (level_points(b, d, alpha, c, (wb - b) / d, np.asarray(k)[:, None])[:, 0, 0]
              for b, d, k in ((*rows[:2], branches[0]), (*rows[2:], branches[1])))
    return _root_match(g1, g2, tol), np.concatenate([g1[:, None], wb], axis=1)


def level_eta(alpha, c: complex) -> tuple:
    """(ambient, eta) of {x^alpha = c}: the ambient checks alpha and c, and
    eta = |c|^(1/min alpha) (`level_lower_bound`) is the coordinate lower bound
    of the punctured polydisc Q_(n-1)^eta that the base charts cover."""
    amb = MonomialLevelSet(alpha=alpha, c=c)
    if amb.dim < 2:
        raise DimensionMismatch("the graph construction needs dimension >= 2")
    if abs(amb.c) >= 1.0:
        raise LevelOutsideRange(
            f"|c| = {abs(amb.c)} >= 1 leaves no room inside the unit polydisc")
    return amb, level_lower_bound(amb.c, 1.0, min(amb.alpha))


def cover_monomial_level_set(alpha, c: complex, gamma: float = 2.0) -> Covering:
    """Cover {x^alpha = c} over the punctured polydisc by branch charts: every
    chart of the base covering of Q_(n-1)^eta (`level_eta`) with its alpha_1
    branches, so kappa = alpha_1 * kappa(base)."""
    ambient, eta = level_eta(alpha, c)
    base_cov, base_plan = cover_punctured_polydisc(ambient.dim - 1, eta, gamma)
    charts = LevelBranchCharts(base_cov, ambient.alpha, ambient.c)
    meta = {
        "construction": "monomial_level_graph",
        "eta": eta,
        "alpha1": ambient.alpha[0],
        "base_kappa": base_plan.kappa_final,
        "base_plan": base_plan.to_dict(),
    }
    return Covering(ambient=ambient, gamma=float(gamma), charts=charts, meta=meta)


def direct_branch_values(alpha, c: complex, xbar: np.ndarray,
                         branches=slice(None)) -> np.ndarray:
    """All alpha_1 roots of g^alpha_1 = c / xbar^alphabar, shape (N, alpha_1),
    or the ``branches`` columns of it (a slice), each with the same bits.

    Straight root extraction, independent of any chart: the coverage oracle
    for the graph.
    """
    alpha = tuple(int(a) for a in alpha)
    xbar = np.atleast_2d(np.asarray(xbar, dtype=complex))
    abar = np.asarray(alpha[1:], dtype=float)
    a1 = alpha[0]
    rhs = complex(c) / np.prod(xbar ** abar, axis=-1)
    k = np.arange(a1)[branches]
    root = np.exp(np.log(rhs)[:, None] / a1 + 2j * math.pi * k[None, :] / a1)
    return root

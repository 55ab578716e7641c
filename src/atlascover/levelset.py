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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    BranchUndefined,
    Covering,
    DiagonalAffineChart,
    DimensionMismatch,
    GammaTooSmall,
    LevelOutsideRange,
    MonomialLevelSet,
    NotARegularValue,
    avoidance_certificate,
    tolerance,
)
from .polydisc import (
    PolydiscCoveringPlan,
    cover_punctured_polydisc,
    level_lower_bound,
    polydisc_plan,
)
from .suspension import chart_candidates, chart_neighbors, covers_points


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
        object.__setattr__(self, "alpha", tuple(int(a) for a in self.alpha))
        object.__setattr__(self, "c", complex(self.c))
        if any(a < 1 for a in self.alpha):
            raise ValueError("all exponents must be >= 1")
        if len(self.alpha) != self.base.dim + 1:
            raise DimensionMismatch(
                f"alpha has {len(self.alpha)} entries for a base of dim {self.base.dim}")
        if self.c == 0:
            raise NotARegularValue("0 is the singular value of a monomial")
        if not 0 <= self.branch < self.alpha[0]:
            raise ValueError(f"branch must lie in [0, {self.alpha[0]})")
        ambient = _base_ambient(self.base.dim)
        if not avoidance_certificate(self.base, ambient, self.base.gamma):
            raise BranchUndefined(
                "base chart touches a coordinate hyperplane on its doubled ball; "
                "the root branch is not single-valued there")

    @property
    def gamma(self) -> float:
        return self.base.gamma

    @property
    def dim(self) -> int:
        return self.base.dim + 1

    def branch_log(self, x: np.ndarray) -> np.ndarray:
        """log of the branch value at base preimage points x, shape (..., n-1)."""
        x = np.asarray(x, dtype=complex)
        b = np.asarray(self.base.b)
        d = np.asarray(self.base.d)
        abar = np.asarray(self.alpha[1:], dtype=float)
        s = (abar * (np.log(b) + np.log(1.0 + d * x / b))).sum(axis=-1)
        a1 = self.alpha[0]
        return (np.log(self.c) - s) / a1 + 2j * math.pi * self.branch / a1

    def first_coordinate(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self.branch_log(x))

    def map_points(self, x: np.ndarray) -> np.ndarray:
        """Chart map: x in the (n-1)-ball -> (g_k(phi(x)), phi(x)) in C^n."""
        x = np.asarray(x, dtype=complex)
        base_pts = self.base.map_points(x)
        g = self.first_coordinate(x)
        return np.concatenate([g[..., None], base_pts], axis=-1)


def _base_ambient(dim):
    from .core import PolydiscComplement, PuncturedPlane
    if dim == 1:
        return PuncturedPlane()
    return PolydiscComplement(n=dim, active_axes=frozenset(range(1, dim + 1)))


def evaluate_level_chart(ch: MonomialLevelChart, x, scale: float | None = None):
    """Evaluate the chart at a preimage point x with ||x|| <= scale <= gamma."""
    x = np.asarray(tuple(x) if not isinstance(x, np.ndarray) else x, dtype=complex)
    if x.shape[-1] != ch.base.dim:
        raise DimensionMismatch(
            f"point dim {x.shape[-1]} != base dim {ch.base.dim}")
    s = ch.gamma if scale is None else float(scale)
    if s > ch.gamma:
        raise ValueError(f"scale {s} exceeds the chart factor {ch.gamma}")
    pt = ch.map_points(x)
    return tuple(complex(v) for v in np.atleast_2d(pt)[0]) if pt.ndim == 1 else pt


def level_residual(ch: MonomialLevelChart, x: np.ndarray) -> np.ndarray:
    """|psi(x)^alpha - c| at base preimage points x (vectorized)."""
    pts = np.atleast_2d(ch.map_points(x))
    mono = np.prod(pts ** np.asarray(ch.alpha), axis=-1)
    return np.abs(mono - ch.c)


class LevelBranchCharts(Sequence):
    """All (base chart, branch) compositions, ordered base-major then branch."""

    def __init__(self, base_cov: Covering, alpha: tuple, c: complex):
        self.base_cov = base_cov
        self.alpha = tuple(int(a) for a in alpha)
        self.c = complex(c)
        self.alpha1 = self.alpha[0]

    def __len__(self) -> int:
        return self.alpha1 * len(self.base_cov.charts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        t, k = divmod(i, self.alpha1)
        return MonomialLevelChart(base=self.base_cov.charts[t], branch=k,
                                  alpha=self.alpha, c=self.c)

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def __eq__(self, other):
        if isinstance(other, LevelBranchCharts):
            return (self.base_cov, self.alpha, self.c) == \
                   (other.base_cov, other.alpha, other.c)
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    @property
    def gamma(self) -> float:
        return self.base_cov.gamma

    def candidates(self, p, scale: float, tol: float | None = None):
        """Chart indices that could contain the ambient point p = (x1, xbar)."""
        xbar = tuple(p[1:])
        for t in chart_candidates(self.base_cov.charts, xbar, scale, tol=tol):
            for k in range(self.alpha1):
                yield t * self.alpha1 + k

    def neighbors(self, i: int, scale: float = 1.0) -> list:
        """Chart indices whose images at ``scale`` can meet chart ``i``'s: every
        branch over a base chart whose image can meet base chart ``i``'s."""
        t = i // self.alpha1
        return [tt * self.alpha1 + k
                for tt in chart_neighbors(self.base_cov.charts, t, scale)
                for k in range(self.alpha1)]

    def contains(self, ch_index: int, p, scale: float,
                 tol: float | None = None) -> bool:
        """Membership in one chart image: invert the base, match the branch."""
        t = tolerance(tol)
        ch = self[ch_index]
        xbar = np.asarray(p[1:], dtype=complex)
        x = ch.base.preimage(xbar)
        if float(np.linalg.norm(x)) > scale * math.sqrt(1.0 + t):
            return False
        g = complex(ch.first_coordinate(x))
        return abs(g - complex(p[0])) <= t ** 0.5 * max(1.0, abs(g))

    def covers(self, pts: np.ndarray, scale, tol: float | None = None) -> np.ndarray:
        """Base location, then a root match on the rows the base covers.

        Every base chart carries all alpha_1 branches, and their values at
        xbar are the alpha_1 roots g of g^alpha_1 = c / xbar^alphabar, so p
        is covered iff the base covers xbar and |g - x1| <= sqrt(t) max(1, |g|)
        for one of them (the rule of `contains`).
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=complex))
        t = tolerance(tol)
        out = covers_points(self.base_cov.charts, pts[:, 1:], scale, tol=t)
        rows = np.nonzero(out)[0]
        if rows.size:
            g = direct_branch_values(self.alpha, self.c, pts[rows, 1:])
            near = np.abs(g - pts[rows, :1]) <= t ** 0.5 * np.maximum(1.0, np.abs(g))
            out[rows] = near.any(axis=1)
        return out


def level_base_plan(alpha, c: complex, gamma: float = 2.0) -> PolydiscCoveringPlan:
    """Count-only mode: the plan of the base covering of {x^alpha = c}.

    eta for the base covering is the coordinate lower bound (|c|)^(1/alpha0);
    every base chart spawns alpha_1 branches, so kappa = alpha_1 * kappa(base).
    """
    alpha = tuple(int(a) for a in alpha)
    if not alpha or any(a < 1 for a in alpha):
        raise ValueError("all exponents must be >= 1")
    if len(alpha) < 2:
        raise DimensionMismatch("the graph construction needs dimension >= 2")
    c = complex(c)
    if c == 0:
        raise NotARegularValue("0 is the singular value of a monomial")
    if abs(c) >= 1.0:
        raise LevelOutsideRange(
            f"|c| = {abs(c)} >= 1 leaves no room inside the unit polydisc")
    if not gamma >= 2.0:
        raise GammaTooSmall(f"the base induction requires gamma >= 2, got {gamma}")
    eta = level_lower_bound(c, 1.0, min(alpha))
    return polydisc_plan(len(alpha) - 1, eta, gamma)


def cover_monomial_level_set(alpha, c: complex, gamma: float = 2.0) -> Covering:
    """Cover {x^alpha = c} over the punctured polydisc by branch charts.

    The base covering follows `level_base_plan`.
    """
    plan = level_base_plan(alpha, c, gamma)
    alpha, c = tuple(int(a) for a in alpha), complex(c)
    base_cov, base_plan = cover_punctured_polydisc(plan.n, plan.eta, gamma)
    charts = LevelBranchCharts(base_cov, alpha, c)
    ambient = MonomialLevelSet(alpha=alpha, c=c)
    meta = {
        "construction": "monomial_level_graph",
        "eta": plan.eta,
        "alpha1": alpha[0],
        "base_kappa": base_cov.kappa,
        "base_plan": base_plan.to_dict(),
    }
    return Covering(ambient=ambient, gamma=float(gamma), charts=charts, meta=meta)


def direct_branch_values(alpha, c: complex, xbar: np.ndarray) -> np.ndarray:
    """All alpha_1 roots of g^alpha_1 = c / xbar^alphabar, shape (N, alpha_1).

    Straight root extraction, independent of any chart: the coverage oracle
    for the graph.
    """
    alpha = tuple(int(a) for a in alpha)
    xbar = np.atleast_2d(np.asarray(xbar, dtype=complex))
    abar = np.asarray(alpha[1:], dtype=float)
    a1 = alpha[0]
    rhs = complex(c) / np.prod(xbar ** abar, axis=-1)
    k = np.arange(a1)
    root = np.exp(np.log(rhs)[:, None] / a1 + 2j * math.pi * k[None, :] / a1)
    return root

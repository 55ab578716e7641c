"""Doubling charts, ambient regions, and the exact membership predicates.

Every covering produced by this package is built from diagonal affine charts

    psi(x) = b + D x,   D = diag(d_1, ..., d_n),   x in the unit ball of C^n,

extendible by the same formula to the ``gamma``-times larger concentric ball.
Keeping the linear part diagonal makes both the membership test (a weighted
Euclidean ball preimage) and the puncture-avoidance certificate (per-axis
disk separation) exact O(n) formulas.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Union

import numpy as np

DEFAULT_TOL = 1e-10
TOL_ENV_VAR = "ATLAS_TOL"
MATERIALIZE_BUDGET = 10 ** 8    # most charts, or chart flags, ever listed at once


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

class AtlasError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(AtlasError):
    pass


class UnsupportedAmbient(AtlasError):
    pass


AFFINE_ONLY = ("chart arrays need diagonal affine charts; level-branch charts are "
               "supported as a LevelBranchCharts family, not as a plain list")


class InvalidDoublingFactor(AtlasError):
    pass


class InvalidBeta(AtlasError):
    pass


class GammaTooSmall(AtlasError):
    pass


class NotARegularValue(AtlasError):
    pass


class LevelOutsideRange(AtlasError):
    pass


class BranchUndefined(AtlasError):
    pass


class RegionMismatch(AtlasError):
    pass


class NoContainingChart(AtlasError):
    pass


class Disconnected(AtlasError):
    pass


class UnknownBound(AtlasError):
    pass


class InsufficientPoints(AtlasError):
    pass


class NotHolomorphic(AtlasError):
    pass


class MalformedFile(AtlasError):
    """A covering or atlas file that does not follow the schema."""


def tolerance(tol: float | None = None) -> float:
    """Resolve the relative tolerance for equality-flavored checks.

    Explicit argument wins; otherwise the ATLAS_TOL environment variable;
    otherwise 1e-10.
    """
    if tol is not None:
        return float(tol)
    env = os.environ.get(TOL_ENV_VAR)
    return float(env) if env else DEFAULT_TOL


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

CPoint = tuple  # tuple of complex coordinates, one per ambient dimension


def cpoint(values) -> CPoint:
    """Normalize a coordinate sequence into a point of C^n (n >= 1)."""
    pt = tuple(complex(v) for v in values)
    if not pt:
        raise DimensionMismatch("a point needs at least one coordinate")
    return pt


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalAffineChart:
    """Affine chart psi(x) = b + diag(d) x with doubling factor gamma > 1.

    The analytic extension to the ball of radius gamma is the same affine
    expression; univalence holds because every scale d_i is nonzero.
    """

    b: tuple
    d: tuple
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(complex(v) for v in self.b))
        object.__setattr__(self, "d", tuple(complex(v) for v in self.d))
        object.__setattr__(self, "gamma", float(self.gamma))
        if len(self.b) != len(self.d) or not self.b:
            raise DimensionMismatch(
                f"translation ({len(self.b)}) and scales ({len(self.d)}) disagree")
        if any(s == 0 for s in self.d):
            raise ValueError("zero scale would make the chart non-univalent")
        if not self.gamma > 1.0:
            raise InvalidDoublingFactor(f"gamma must exceed 1, got {self.gamma}")

    @property
    def dim(self) -> int:
        return len(self.b)

    def map_points(self, x: np.ndarray) -> np.ndarray:
        """Apply the chart (and its extension) to points x of shape (..., dim)."""
        x = np.asarray(x, dtype=complex)
        return np.asarray(self.b) + np.asarray(self.d) * x

    def preimage(self, p) -> np.ndarray:
        return (np.asarray(p, dtype=complex) - np.asarray(self.b)) / np.asarray(self.d)


# ---------------------------------------------------------------------------
# ambient regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PuncturedPlane:
    """C minus the origin."""

    @property
    def dim(self) -> int:
        return 1


@dataclass(frozen=True)
class PolydiscComplement:
    """C^n minus the coordinate hyperplanes {x_i = 0} over the active axes.

    An empty active set denotes the plain polydisc (nothing removed); it only
    occurs for intermediate levels of constructions whose punctured axes come
    later.
    """

    n: int
    active_axes: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "active_axes", frozenset(int(i) for i in self.active_axes))
        if self.n < 1:
            raise DimensionMismatch("dimension must be positive")
        if not all(1 <= i <= self.n for i in self.active_axes):
            raise ValueError(f"active axes must lie in 1..{self.n}")

    @property
    def dim(self) -> int:
        return self.n


@dataclass(frozen=True)
class MonomialLevelSet:
    """The hypersurface {x^alpha = c} for a positive exponent vector alpha."""

    alpha: tuple
    c: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(int(a) for a in self.alpha))
        object.__setattr__(self, "c", complex(self.c))
        if not self.alpha or any(a < 1 for a in self.alpha):
            raise ValueError("all exponents must be >= 1")
        if self.c == 0:
            raise NotARegularValue("0 is the singular value of a monomial")

    @property
    def dim(self) -> int:
        return len(self.alpha)


Ambient = Union[PuncturedPlane, PolydiscComplement, MonomialLevelSet]


def active_axis_indices(ambient: Ambient) -> tuple:
    """0-based indices of the punctured axes governed by ``ambient``."""
    if isinstance(ambient, PuncturedPlane):
        return (0,)
    if isinstance(ambient, PolydiscComplement):
        return tuple(sorted(i - 1 for i in ambient.active_axes))
    return ()           # x^alpha = c != 0 meets no coordinate hyperplane


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def chart_contains(chart: DiagonalAffineChart, p, scale: float,
                   tol: float | None = None) -> bool:
    """Whether ``p`` lies in the image of the ball of radius ``scale``.

    Exact test: sum_i |(p_i - b_i)/d_i|^2 <= scale^2, with a relative
    tolerance on the right-hand side for boundary points.
    """
    if not isinstance(chart, DiagonalAffineChart):
        raise UnsupportedAmbient(AFFINE_ONLY)
    p = tuple(p)
    if len(p) != chart.dim:
        raise DimensionMismatch(f"point dim {len(p)} != chart dim {chart.dim}")
    if not 0 < scale <= chart.gamma:
        raise ValueError(f"scale must lie in (0, gamma={chart.gamma}], got {scale}")
    t = tolerance(tol)
    s2 = sum(abs((pi - bi) / di) ** 2
             for pi, bi, di in zip(p, chart.b, chart.d))
    return s2 <= scale * scale * (1.0 + t)


def avoidance_certificate(chart: DiagonalAffineChart, ambient: Ambient,
                          scale: float) -> bool:
    """Certify that the extended chart at ``scale`` avoids the deleted set.

    For a diagonal affine chart the i-th coordinate of the image of the
    radius-``scale`` ball is exactly the disk of radius scale*|d_i| centered
    at b_i, so avoidance of {x_i = 0} reduces to |b_i| > scale*|d_i|.
    """
    if scale > chart.gamma:
        raise ValueError(f"scale {scale} exceeds the chart factor {chart.gamma}")
    if not isinstance(ambient, (PuncturedPlane, PolydiscComplement)):
        raise UnsupportedAmbient(
            "level-set charts are certified in the levelset module")
    if ambient.dim != chart.dim:
        raise DimensionMismatch(
            f"ambient dim {ambient.dim} != chart dim {chart.dim}")
    return all(abs(chart.b[i]) > scale * abs(chart.d[i])
               for i in active_axis_indices(ambient))


# ---------------------------------------------------------------------------
# chart families
# ---------------------------------------------------------------------------

def chart_count(charts) -> int:
    """``len(charts)``, or an `AtlasError` when it is too large to index
    (``len()`` itself refuses 2^63 and above with an `OverflowError`)."""
    n = charts.__len__()
    if n > sys.maxsize:
        raise AtlasError(f"kappa={n} charts are more than an index can address")
    return n


class ChartFamily(Sequence):
    """A sequence of charts that also answers point-location queries.

    Subclasses supply ``__len__``, ``dim``, ``gamma`` (the factor every chart
    shares, read without building a chart), ``_chart(i)`` for 0 <= i < len
    and ``_recipe()`` (what makes two families of the same type equal).  The
    default queries treat the family as a list of diagonal affine charts and
    scan it; structured families override them (``arrays_at`` too) by index.
    """

    def __getitem__(self, i):
        n = chart_count(self)
        if isinstance(i, slice):
            return [self._chart(j) for j in range(*i.indices(n))]
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(i)
        return self._chart(i)

    def __add__(self, other):
        return list(self) + list(other)

    def __radd__(self, other):
        return list(other) + list(self)

    def __eq__(self, other):
        if type(other) is type(self):
            return self._recipe() == other._recipe()
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def _points(self, pts) -> np.ndarray:
        """``pts`` as an (N, dim) complex array: (N,) is N points when dim is 1,
        (dim,) is one point; any other shape raises `DimensionMismatch`."""
        pts = np.asarray(pts, dtype=complex)
        if pts.ndim == 1:
            pts = pts[:, None] if self.dim in (1, None) else pts[None, :]
        if pts.ndim != 2 or self.dim not in (pts.shape[1], None):
            raise DimensionMismatch(
                f"points of shape {pts.shape} for charts of dim {self.dim}")
        return pts

    def chart_arrays(self) -> tuple:
        """(b, d) arrays of shape (kappa, dim)."""
        if not all(isinstance(c, DiagonalAffineChart) for c in self):
            raise UnsupportedAmbient(AFFINE_ONLY)
        b = np.array([c.b for c in self], dtype=complex)
        d = np.array([c.d for c in self], dtype=complex)
        if b.size == 0:
            b, d = b.reshape(0, self.dim or 1), d.reshape(0, self.dim or 1)
        return b, d

    def arrays_at(self, idx) -> tuple:
        """(b, d) rows of the charts ``idx`` (int array), as `chart_arrays` has them."""
        b, d = self.chart_arrays()
        return b[idx], d[idx]

    def iter_chart_arrays(self):
        """(b, d) blocks in index order, for streaming scans."""
        yield self.chart_arrays()

    def doubling_factors(self, axes, scale: float, betas=(), **sampling) -> tuple:
        """1-D boolean factors whose C-order outer product flags every chart:
        |b_i| > scale * |beta_k ... beta_1 d_i| on every axis in ``axes``, d
        multiplied by each of ``betas`` in turn as the suspensions above do.
        Level sets read ``sampling``; this default streams (b, d) blocks."""
        flags = np.empty(len(self), dtype=bool)
        pos = 0
        for b, d in self.iter_chart_arrays():
            for beta in betas:
                d = beta * d
            ok = np.ones(b.shape[0], dtype=bool)
            for i in axes:
                ok &= np.abs(b[:, i]) > scale * np.abs(d[:, i])
            flags[pos:pos + b.shape[0]] = ok
            pos += b.shape[0]
        return (flags,)

    def _blocks(self, done: np.ndarray):
        """(points not done, lo, hi): scan blocks of at most 2^17 point-chart pairs."""
        lo = 0
        while lo < len(self):
            idx = np.nonzero(~done)[0]
            if idx.size == 0:
                return
            hi = min(len(self), lo + max(1, (1 << 17) // idx.size))
            yield idx, lo, hi
            lo = hi

    def passes(self, pts: np.ndarray, scale: np.ndarray, done: np.ndarray):
        """(point indices, chart indices) pairs to test, pass by pass.  Every
        point meets every chart that contains it at its ``scale`` in some pass,
        unless the point is flagged in ``done`` (the caller may update it
        between passes) before that pass."""
        for idx, lo, hi in self._blocks(done):
            yield np.repeat(idx, hi - lo), np.tile(np.arange(lo, hi), idx.size)

    def covers(self, pts, scale, tol: float | None = None) -> np.ndarray:
        """Which points lie in some chart image at ``scale`` (scalar or per point)."""
        pts = self._points(pts)
        scale = np.broadcast_to(np.asarray(scale, dtype=float), pts.shape[:1])
        t = tolerance(tol)
        covered = np.zeros(pts.shape[0], dtype=bool)
        if len(self) == 0 or pts.shape[0] == 0:
            return covered
        b, d = self.chart_arrays()
        for idx, lo, hi in self._blocks(covered):
            z = (pts[idx, None, :] - b[None, lo:hi]) / d[None, lo:hi]
            n2 = (np.abs(z) ** 2).sum(axis=2)
            covered[idx[(n2 <= scale[idx, None] ** 2 * (1.0 + t)).any(axis=1)]] = True
        return covered

    def candidates(self, p, scale: float, tol: float | None = None):
        """Chart indices that could contain the point ``p`` at ``scale``."""
        return range(len(self))

    def contains(self, i: int, p, scale: float, tol: float | None = None) -> bool:
        """Whether chart ``i``'s image at ``scale`` contains ``p``."""
        return chart_contains(self[i], p, scale, tol=tol)

    def neighbors(self, i: int, scale: float = 1.0) -> np.ndarray:
        """Sorted int64 chart indices (``i`` included) whose images at ``scale``
        can meet chart ``i``'s: a superset of those that do."""
        return np.arange(len(self), dtype=np.int64)


class ChartList(ChartFamily):
    """A plain sequence of charts seen as a family: a view, not a copy."""

    def __init__(self, charts: Sequence, dim: int | None = None):
        self.charts = charts
        self.dim = dim if dim is not None or not len(charts) else charts[0].dim

    def __len__(self) -> int:
        return len(self.charts)

    @property
    def gamma(self) -> float | None:
        """Chart 0's factor; None for an empty list."""
        return self.charts[0].gamma if len(self.charts) else None

    def __iter__(self):
        return iter(self.charts)

    def _chart(self, i):
        return self.charts[i]

    def _recipe(self):
        return self.charts


def family(charts: Sequence, dim: int | None = None) -> ChartFamily:
    """``charts`` itself if it is a chart family, else a `ChartList` view of it."""
    return charts if isinstance(charts, ChartFamily) else ChartList(charts, dim)


# ---------------------------------------------------------------------------
# coverings
# ---------------------------------------------------------------------------

class Covering:
    """A finite (possibly lazily materialized) family of charts of one kind.

    All charts share the doubling factor ``gamma``; the complexity ``kappa``
    is the chart count.  ``charts`` is a plain list or a lazy `ChartFamily`
    (rings, suspension layers, level branches) that answers membership
    queries through its index; `family(charts)` reads either one.
    """

    def __init__(self, ambient: Ambient, gamma: float, charts: Sequence,
                 meta: dict | None = None):
        self.ambient = ambient
        self.gamma = float(gamma)
        self.charts = charts
        self.meta = dict(meta or {})
        if not self.gamma > 1.0:
            raise InvalidDoublingFactor(f"gamma must exceed 1, got {gamma}")
        factor = family(charts).gamma
        if factor is not None and abs(factor - self.gamma) > 1e-12:
            raise ValueError("charts do not share the covering factor")

    @property
    def kappa(self) -> int:
        return chart_count(self.charts)

    @property
    def dim(self) -> int:
        return self.ambient.dim

    @property
    def family(self) -> ChartFamily:
        """The charts as a `ChartFamily` of the ambient dimension, even when empty."""
        return family(self.charts, self.dim)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Covering):
            return NotImplemented
        return (self.ambient == other.ambient
                and self.gamma == other.gamma
                and self.charts == other.charts)

    def __repr__(self) -> str:
        return (f"Covering(ambient={self.ambient!r}, gamma={self.gamma}, "
                f"kappa={self.kappa})")


# ---------------------------------------------------------------------------
# user-supplied constants for the eta-from-delta calculator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EtaParams:
    """Constants linking a distance tube of the zero set to a modulus bound.

    ``c_lower`` is the lower comparison constant, ``C_unit`` the bound on the
    non-vanishing unit factor, ``d`` the polynomial degree and ``alpha0`` the
    minimal exponent of the local monomial normal form.
    """

    c_lower: float
    C_unit: float
    d: int
    alpha0: int

    def __post_init__(self):
        if not self.c_lower > 0:
            raise ValueError("c_lower must be positive")
        if not self.C_unit >= 1:
            raise ValueError("C_unit must be >= 1")
        if self.c_lower > self.C_unit:
            raise ValueError("two-sided bounds require c_lower <= C_unit")
        if self.d < 1 or self.alpha0 < 1:
            raise ValueError("d and alpha0 must be positive integers")

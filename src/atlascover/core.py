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
from functools import reduce
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


class InvalidTolerance(AtlasError):
    """A tolerance that is NaN, infinite, negative or not a number."""


def tolerance(tol: float | None = None) -> float:
    """Resolve the relative tolerance for equality-flavored checks.

    Explicit argument wins; otherwise the ATLAS_TOL environment variable;
    otherwise 1e-10.  A value that is not a finite number >= 0 raises
    `InvalidTolerance`, naming where it came from.
    """
    source = "the tol argument"
    if tol is None:
        tol = os.environ.get(TOL_ENV_VAR)
        if not tol:
            return DEFAULT_TOL
        source = f"{TOL_ENV_VAR}={tol!r}"
    try:
        value = float(tol)
    except ValueError:
        raise InvalidTolerance(f"{source} is not a number") from None
    if not 0.0 <= value < float("inf"):
        raise InvalidTolerance(f"a tolerance must be a finite number >= 0; {source} is {value}")
    return value


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


def _abs(z, power: float = 1.0):
    """``abs(z) ** power`` as Python rounds it (libm ``hypot`` and ``pow``)."""
    h = np.hypot(z.real, z.imag)
    return h if power == 1.0 else np.float_power(h, power)


def _complex(re, im):
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _quot(a, b):
    """Python's complex ``a / b`` (Smith's scaling), not numpy's division."""
    big = np.abs(b.real) >= np.abs(b.imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(big, b.imag / b.real, b.real / b.imag)
        den = np.where(big, b.real + b.imag * ratio, b.real * ratio + b.imag)
        return _complex(np.where(big, a.real + a.imag * ratio, a.real * ratio + a.imag) / den,
                        np.where(big, a.imag - a.real * ratio, a.imag * ratio - a.real) / den)


def _rowsum(x):
    """Left-to-right sums over the last axis, as Python's ``sum`` adds floats."""
    return reduce(np.add, np.moveaxis(x, -1, 0))


def _norm(z):
    """Row norms as `np.linalg.norm` rounds one row: BLAS dots of the real and imaginary parts."""
    return np.sqrt(sum((x[:, None, :] @ x[:, :, None])[:, 0, 0] for x in (z.real, z.imag)))


def _in_ball(p, b, d, bound):
    """`chart_contains` row by row: sum_i |(p_i - b_i) / d_i|^2 <= bound."""
    with np.errstate(over="ignore"):            # a sum that overflows is outside
        return _rowsum(_abs(_quot(p - b, d), 2.0)) <= bound


def _product_rows(axes) -> np.ndarray:
    """The Cartesian product of 1-D arrays as rows, in `itertools.product` order."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


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

    An affine family supplies ``__len__``, ``dim``, ``gamma`` (the factor every
    chart shares, read without building a chart), ``_recipe()`` (what makes two
    families of the same type equal), ``arrays_at(idx)``, the one place it
    states its (b, d) rows, and ``passes`` (the default offers every chart).
    Charts, `chart_arrays`, `locate` and `contains` read those; ``covers``,
    ``neighbors`` and ``doubling_factors`` have scanning defaults and are
    optional faster kernels.  A family of other charts has no rows: it
    supplies ``_chart(i)`` (and ``_inside``, the row test, to locate points).
    """

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._chart(j) for j in range(*i.indices(chart_count(self)))]
        return self._chart(self._index(i))

    def _index(self, i):
        """``i`` as an index in [0, kappa), counted from the end if negative, as for a list."""
        n = chart_count(self)
        if not -n <= i < n:
            raise IndexError(i)
        return i % n

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

    @staticmethod
    def _scales(scale) -> np.ndarray:
        """``scale`` as a float array; a NaN or negative value raises `ValueError`."""
        scale = np.asarray(scale, dtype=float)
        if not (scale >= 0.0).all():            # the minimum is the NaN or a negative one
            raise ValueError(f"scale must be a number >= 0, got {scale.min()}")
        return scale

    def _points(self, pts, scale, tol: float | None) -> tuple:
        """A query checked: ``pts`` as an (N, dim) complex array, ``scale`` as
        one value per point and the resolved tolerance, on a family small
        enough to index (`chart_count`).  (N,) is N points when dim is 1,
        (dim,) is one point; any other shape raises `DimensionMismatch`, and
        a scale that is NaN or negative a `ValueError`."""
        chart_count(self)
        scale = self._scales(scale)
        pts = np.asarray(pts, dtype=complex)
        if pts.ndim == 1:
            pts = pts[:, None] if self.dim in (1, None) else pts[None, :]
        if pts.ndim != 2 or self.dim not in (pts.shape[1], None):
            raise DimensionMismatch(
                f"points of shape {pts.shape} for charts of dim {self.dim}")
        return pts, np.broadcast_to(scale, pts.shape[:1]), tolerance(tol)

    def arrays_at(self, idx) -> tuple:
        """(b, d) rows of shape (len(idx), dim) of the charts ``idx`` (int array)."""
        raise UnsupportedAmbient(AFFINE_ONLY)

    def _chart(self, i):
        b, d = self.arrays_at(np.array([i]))
        return DiagonalAffineChart(b=b[0], d=d[0], gamma=self.gamma)

    def chart_arrays(self) -> tuple:
        """(b, d) of shape (kappa, dim) read off `arrays_at`, refused before anything is
        allocated for a family without rows or over `MATERIALIZE_BUDGET` charts."""
        n = chart_count(self)
        self.arrays_at(np.arange(0))
        if n > MATERIALIZE_BUDGET:
            raise AtlasError(f"{n} charts are too many to list as arrays")
        return self.arrays_at(np.arange(n))

    def level_rows(self, betas=()) -> tuple:
        """Per level, outermost first: (first axis, b, d), the rows of the axes
        the level sets, one row per chart of the level, d multiplied by each of
        ``betas`` in turn as the suspensions above do.  Every chart is the
        C-order product of one row per level.  This default is one level of
        every axis, read off `chart_arrays`."""
        b, d = self.chart_arrays()
        for beta in betas:
            d = beta * d
        return ((0, b, d),)

    def doubling_factors(self, axes, scale: float, **sampling) -> tuple:
        """1-D boolean factors whose C-order outer product flags every chart:
        |b_i| > scale * |d_i| on every axis in ``axes`` (`avoidance`).  Level
        sets read ``sampling``; affine families are decided per level."""
        return avoidance(self.level_rows(), axes, scale)

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

    def _inside(self, pts, idx, scale, tol: float) -> np.ndarray:
        """Row r: whether chart idx[r]'s image at scale[r] contains pts[r] (`chart_contains`)."""
        b, d = self.arrays_at(idx)
        return _in_ball(pts, b, d, scale * scale * (1.0 + tol))

    def locate(self, pts, scale, tol: float | None = None) -> tuple:
        """(point indices, chart indices): every pair whose chart image at
        ``scale`` (scalar or per point) contains the point, as sorted int64
        arrays; no chart is built.  `passes` offer the pairs (at the scale times
        1 + tol, as their windows test no tolerance) and `_inside` decides them."""
        pts, scale, t = self._points(pts, scale, tol)
        found = [np.zeros((0, 2), dtype=np.int64)]
        passes = self.passes(pts, scale * (1.0 + t), np.zeros(pts.shape[0], dtype=bool))
        for i, j in _batches(passes):
            hit = self._inside(pts[i], j, scale[i], t)
            found.append(np.stack([i[hit], j[hit]], axis=1).astype(np.int64))
        pairs = np.unique(np.concatenate(found), axis=0)
        return pairs[:, 0], pairs[:, 1]

    def covers(self, pts, scale, tol: float | None = None) -> np.ndarray:
        """Which points lie in some chart image at ``scale`` (scalar or per point)."""
        pts, scale, t = self._points(pts, scale, tol)
        covered = np.zeros(pts.shape[0], dtype=bool)
        if len(self) == 0 or pts.shape[0] == 0:
            return covered
        b, d = self.chart_arrays()
        for idx, lo, hi in self._blocks(covered):
            with np.errstate(invalid="ignore", over="ignore"):  # a point that is not finite is outside
                z = (pts[idx, None, :] - b[None, lo:hi]) / d[None, lo:hi]
                n2 = (np.abs(z) ** 2).sum(axis=2)
            covered[idx[(n2 <= scale[idx, None] ** 2 * (1.0 + t)).any(axis=1)]] = True
        return covered

    def contains(self, i: int, p, scale: float, tol: float | None = None) -> bool:
        """Whether chart ``i``'s image at ``scale`` contains ``p``: `_inside` on one row."""
        if not 0 < scale <= self.gamma:
            raise ValueError(f"scale must lie in (0, gamma={self.gamma}], got {scale}")
        pts, scale, t = self._points(np.reshape(np.asarray(p, dtype=complex), (1, -1)), scale, tol)
        return bool(self._inside(pts, np.array([i]), scale, t)[0])

    def neighbors(self, i: int, scale: float = 1.0) -> np.ndarray:
        """Sorted int64 chart indices (``i`` included) whose images at ``scale``
        can meet chart ``i``'s, a superset of those that do (`_neighbors`)."""
        return self._neighbors(self._index(i), float(self._scales(scale)))

    def _neighbors(self, i: int, scale: float) -> np.ndarray:
        return np.arange(len(self), dtype=np.int64)


def avoidance(levels, axes, scale: float) -> tuple:
    """Per level of `ChartFamily.level_rows`: whether each row has
    |b_i| > scale * |d_i| on every axis i in ``axes`` that the level sets."""
    flags = []
    for first, b, d in levels:
        tests = [np.abs(b[:, i - first]) > scale * np.abs(d[:, i - first])
                 for i in axes if first <= i < first + b.shape[1]]
        flags.append(reduce(np.logical_and, tests) if tests else np.ones(b.shape[0], dtype=bool))
    return tuple(flags)


def _batches(passes, budget: int = 1 << 17):
    """Successive (i, j) passes joined into one (2, pairs) array while they
    hold at most ``budget`` pairs together; a larger pass comes alone."""
    held, size = [], 0
    for i, j in passes:
        if held and size + i.size > budget:
            yield np.concatenate(held, axis=1)
            held, size = [], 0
        held.append(np.stack([i, j]))
        size += i.size
    if held:
        yield np.concatenate(held, axis=1)


class ChartList(ChartFamily):
    """A plain sequence of charts seen as a family: a view, not a copy."""

    def __init__(self, charts: Sequence, dim: int | None = None):
        self.charts = charts
        self.dim = dim if dim is not None or not len(charts) else charts[0].dim
        self._built = None      # ((b, d), chart ids, those charts) of the last build

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

    def chart_arrays(self) -> tuple:
        """Read-only (b, d) of the charts, built again only when the list holds other
        charts: they are frozen and kept here, so equal ids mean equal rows."""
        if self._built is None or self._built[1] != tuple(map(id, self.charts)):
            self._built = self._build(), tuple(map(id, self.charts)), tuple(self.charts)
        return self._built[0]

    def _build(self) -> tuple:
        """(b, d) from the chart objects, refused at the first one that is not affine."""
        if not all(isinstance(c, DiagonalAffineChart) for c in self.charts):
            raise UnsupportedAmbient(AFFINE_ONLY)
        b = np.array([c.b for c in self.charts], dtype=complex)
        d = np.array([c.d for c in self.charts], dtype=complex)
        if b.size == 0:
            b, d = b.reshape(0, self.dim or 1), d.reshape(0, self.dim or 1)
        b.flags.writeable = d.flags.writeable = False
        return b, d

    def arrays_at(self, idx) -> tuple:
        b, d = self.chart_arrays()
        return b[idx], d[idx]


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
    queries through its index.  ``family`` is the `family(charts)` view of
    the ambient dimension, kept so a plain list's arrays are built once.
    """

    def __init__(self, ambient: Ambient, gamma: float, charts: Sequence,
                 meta: dict | None = None):
        self.ambient = ambient
        self.gamma = float(gamma)
        self.charts = charts
        self.meta = dict(meta or {})
        if not self.gamma > 1.0:
            raise InvalidDoublingFactor(f"gamma must exceed 1, got {gamma}")
        self.family = family(charts, self.dim)
        factor = self.family.gamma
        if factor is not None and abs(factor - self.gamma) > 1e-12:
            raise ValueError("charts do not share the covering factor")

    @property
    def kappa(self) -> int:
        return chart_count(self.charts)

    @property
    def dim(self) -> int:
        return self.ambient.dim

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

"""Doubling charts, ambient regions, and the exact membership predicates.

Every covering produced by this package is built from diagonal affine charts

    psi(x) = b + D x,   D = diag(d_1, ..., d_n),   x in the unit ball of C^n,

extendible by the same formula to the ``gamma``-times larger concentric ball.
Keeping the linear part diagonal makes both the membership test (a weighted
Euclidean ball preimage) and the puncture-avoidance certificate (per-axis
disk separation) exact O(n) formulas.

Tolerance policy: one relative tolerance t (`tolerance`) widens each membership
test once.  The ball rule sum_i |(p_i - b_i)/d_i|^2 <= s^2 (1 + t) is one numpy
expression, `_in_ball`, in `chart_contains`, the chain witnesses and the default
`_hits`, the row test of `locate`, `contains` and `covers` (rings and
suspensions have their own); `passes` windows are at s (1 + t); a level chart
matches x1 to its branch value g by |g - x1| <= sqrt(t) max(1, |g|).

Ambient regions state their ``kind``, ``dim``, the 0-based ``punctured_axes``
whose hyperplanes the deleted set lies on, the ``chart_kind`` of their charts
with ``branches`` per affine chart, and their file form ``to_dict()``, which
the reader `AMBIENTS` holds under the kind turns back into the ambient.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

DEFAULT_TOL = 1e-10
TOL_ENV_VAR = "ATLAS_TOL"
MATERIALIZE_BUDGET = 10 ** 8    # most charts, or chart flags, ever listed at once
PASS_PAIRS = 1 << 17            # most (point, chart) pairs offered or decided at once


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


def check_dimension(n, name: str = "dimension") -> None:
    """Raise `DimensionMismatch` naming ``name`` unless ``n`` is an integer >= 1."""
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise DimensionMismatch(f"{name} must be an integer >= 1, got {n!r}")


def check_integer(name: str, value) -> None:
    """Raise `ValueError` naming ``name`` unless ``value`` is an integer."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_positive(name: str, value: float) -> None:
    """Raise `ValueError` naming ``name`` unless ``value`` is a finite positive number."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value}")


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

    kind = "punctured_plane"
    chart_kind = "diag_affine"
    dim = 1
    branches = 1
    punctured_axes = (0,)

    def to_dict(self) -> dict:
        return {"kind": self.kind}


@dataclass(frozen=True)
class PolydiscComplement:
    """C^n minus the coordinate hyperplanes {x_i = 0} over the active axes.

    An empty active set denotes C^n itself (nothing removed).  No construction
    builds one, and `cover_punctured_polydisc` refuses it.
    """

    n: int
    active_axes: frozenset = field(default_factory=frozenset)
    kind = "polydisc_complement"
    chart_kind = "diag_affine"
    branches = 1

    def __post_init__(self):
        for i in self.active_axes:
            check_integer("an active axis", i)
        object.__setattr__(self, "active_axes", frozenset(int(i) for i in self.active_axes))
        check_dimension(self.n)
        if not all(1 <= i <= self.n for i in self.active_axes):
            raise ValueError(f"active axes must lie in 1..{self.n}")

    @property
    def dim(self) -> int:
        return self.n

    @property
    def punctured_axes(self) -> tuple:
        return tuple(sorted(i - 1 for i in self.active_axes))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "n": self.n, "active_axes": sorted(self.active_axes)}


@dataclass(frozen=True)
class MonomialLevelSet:
    """The hypersurface {x^alpha = c} for a positive exponent vector alpha."""

    alpha: tuple
    c: complex
    kind = "monomial_level_set"
    chart_kind = "level_branch"
    punctured_axes = ()     # x^alpha = c != 0 meets no coordinate hyperplane

    def __post_init__(self):
        for a in self.alpha:
            check_integer("an exponent", a)
        object.__setattr__(self, "alpha", tuple(int(a) for a in self.alpha))
        object.__setattr__(self, "c", complex(self.c))
        if not self.alpha or any(a < 1 for a in self.alpha):
            raise ValueError("all exponents must be >= 1")
        if not np.isfinite(self.c):
            raise ValueError(f"c must be finite, got {self.c}")
        if self.c == 0:
            raise NotARegularValue("0 is the singular value of a monomial")

    @property
    def dim(self) -> int:
        return len(self.alpha)

    @property
    def branches(self) -> int:
        return self.alpha[0]

    @property
    def base(self) -> PolydiscComplement:
        return PolydiscComplement(self.dim - 1, range(1, self.dim))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "alpha": list(self.alpha), "c": [self.c.real, self.c.imag]}


def json_number(v, integral: bool = False):
    """A JSON number read from a file as a float, or with ``integral`` a JSON
    integer as an int; a bool, a string or a float count raises `TypeError`."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral if integral else numbers.Real):
        raise TypeError(f"expected {'an integer' if integral else 'a number'}, got {v!r}")
    return int(v) if integral else float(v)


def json_numbers(v, integral: bool = False) -> tuple:
    """A JSON list of numbers read from a file (`json_number` each)."""
    if not isinstance(v, (list, tuple)):
        raise TypeError(f"expected a list of numbers, got {v!r}")
    return tuple(json_number(x, integral) for x in v)


AMBIENTS = {        # kind: the reader of the ambient's `to_dict` form
    PuncturedPlane.kind: lambda d: PuncturedPlane(),
    PolydiscComplement.kind: lambda d: PolydiscComplement(
        json_number(d["n"], integral=True), json_numbers(d["active_axes"], integral=True)),
    MonomialLevelSet.kind: lambda d: MonomialLevelSet(
        alpha=json_numbers(d["alpha"], integral=True),
        c=complex(json_number(d["c"][0]), json_number(d["c"][1]))),
}


def ambient_from_dict(d: dict):
    """The ambient whose `to_dict` is ``d``, read by the reader its kind names."""
    read = AMBIENTS.get(str(d["kind"]))     # str: a file may hold a list
    if read is None:
        raise ValueError(f"unknown ambient kind {d['kind']!r}")
    return read(d)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def chart_contains(chart: DiagonalAffineChart, p, scale: float,
                   tol: float | None = None) -> bool:
    """Whether ``p`` lies in the image of the ball of radius ``scale``:
    `_in_ball` on one row, sum_i |(p_i - b_i)/d_i|^2 <= scale^2 (1 + t)."""
    if not isinstance(chart, DiagonalAffineChart):
        raise UnsupportedAmbient(AFFINE_ONLY)
    p = tuple(p)
    if len(p) != chart.dim:
        raise DimensionMismatch(f"point dim {len(p)} != chart dim {chart.dim}")
    if not 0 < scale <= chart.gamma:
        raise ValueError(f"scale must lie in (0, gamma={chart.gamma}], got {scale}")
    rows = (np.array([x], dtype=complex) for x in (p, chart.b, chart.d))
    return bool(_in_ball(*rows, scale, tolerance(tol))[0])


def _row_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` bit for bit.  Below 8 columns numpy adds each row's
    entries left to right, as these column adds do without its per-row cost."""
    if not 0 < a.shape[1] < 8:
        return a.sum(axis=1)
    s = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        s += a[:, j]
    return s


def _ball_norms(pts, b, d) -> np.ndarray:
    """Row r: the squared preimage norm sum_i |(pts_ri - b_ri) / d_ri|^2."""
    return _row_sums(np.abs((pts - b) / d) ** 2)


def _in_ball(pts, b, d, scale, t: float) -> np.ndarray:
    """The ball rule, row r: chart (b[r], d[r]) at scale[r] holds pts[r], `_ball_norms`
    <= scale^2 (1 + t), whatever the other rows; a point that is not finite is outside."""
    with np.errstate(invalid="ignore", over="ignore"):
        return _ball_norms(pts, b, d) <= scale ** 2 * (1.0 + t)


def _product_rows(axes, out=None) -> np.ndarray:
    """The Cartesian product of 1-D arrays as rows, in `itertools.product` order,
    written column by column into ``out`` (C-contiguous) if given."""
    if out is None:
        out = np.empty((math.prod(map(len, axes)), len(axes)), dtype=np.result_type(*axes))
    cells = out.reshape(*map(len, axes), len(axes))
    for i, x in enumerate(axes):
        cells[..., i] = np.reshape(x, [-1 if k == i else 1 for k in range(len(axes))])
    return out


def avoidance_certificate(chart: DiagonalAffineChart, ambient,
                          scale: float) -> bool:
    """Certify that the extended chart at ``scale`` avoids the deleted set.

    For a diagonal affine chart the i-th coordinate of the image of the
    radius-``scale`` ball is exactly the disk of radius scale*|d_i| centered
    at b_i, so avoidance of {x_i = 0} reduces to |b_i| > scale*|d_i|.
    """
    if scale > chart.gamma:
        raise ValueError(f"scale {scale} exceeds the chart factor {chart.gamma}")
    if ambient.chart_kind != "diag_affine":
        raise UnsupportedAmbient(
            "level-set charts are certified in the levelset module")
    if ambient.dim != chart.dim:
        raise DimensionMismatch(
            f"ambient dim {ambient.dim} != chart dim {chart.dim}")
    return all(abs(chart.b[i]) > scale * abs(chart.d[i]) for i in ambient.punctured_axes)


def _witness_rows(b1, d1, b2, d2, tol: float):
    """(ok, w): whether the unit images of charts (b1[r], d1[r]) and
    (b2[r], d2[r]) meet, and a point w[r] of both, for all rows r at once.

    Each test runs on the rows the last left open: the center segment, whose
    minimax point is where the preimage norms t n1 and (1-t) n2 cross
    (complete for disks); rejection where the projections miss on some axis;
    then `_bisect`.  All is element-wise numpy: a row's bits are its own.
    """
    root = math.sqrt(1.0 + tol)
    n1, n2 = np.sqrt(_ball_norms(b2, b1, d1)), np.sqrt(_ball_norms(b1, b2, d2))
    same = n1 + n2 == 0.0                   # coincident centers
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = same | (n1 * n2 / (n1 + n2) <= root)
        w = np.where(same[:, None], b1, b1 + (n2 / (n1 + n2))[:, None] * (b2 - b1))
    miss = (np.abs(b1 - b2) > (np.abs(d1) + np.abs(d2)) * root).any(axis=1)
    r = np.nonzero(~ok & ~miss)[0]
    if r.size:
        ok[r], w[r] = _bisect(b1[r], d1[r], b2[r], d2[r], tol)
    return ok, w


def _bisect(b1, d1, b2, d2, tol: float):
    """The Lagrange stage.  The squared preimage norms f_c(p) = sum_i w_i
    |p_i - b_i|^2 (w = 1/|d|^2) are separable: s f1 + (1-s) f2 is least at the
    weighted mean p(s) of the centers, and the minimax point is p(s*) where
    f1 = f2, which bisection on the sign of f1 - f2 finds.  A value of
    s f1 + (1-s) f2 above 1 + tol bounds the minimax from below: the images
    are disjoint and the row drops out.  The point must lie in both (`_in_ball`)."""
    ok, live = np.ones(len(b1), dtype=bool), np.arange(len(b1))
    w1, w2 = 1.0 / np.abs(d1) ** 2, 1.0 / np.abs(d2) ** 2
    lo, hi = np.zeros(len(b1)), np.ones(len(b1))

    def point(s):
        u, v = s[:, None] * w1, (1.0 - s)[:, None] * w2
        return (u * b1 + v * b2) / (u + v)

    for _ in range(60):
        s = 0.5 * (lo + hi)
        p = point(s)
        f1, f2 = _row_sums(w1 * np.abs(p - b1) ** 2), _row_sums(w2 * np.abs(p - b2) ** 2)
        out = s * f1 + (1.0 - s) * f2 > 1.0 + tol
        lo, hi = np.where(f1 > f2, s, lo), np.where(f1 > f2, hi, s)
        if out.any():
            ok[live[out]] = False
            live, lo, hi, b1, d1, b2, d2, w1, w2 = (
                x[~out] for x in (live, lo, hi, b1, d1, b2, d2, w1, w2))
            if not live.size:
                break
    p = point(0.5 * (lo + hi))
    ok[live] = _in_ball(p, b1, d1, 1.0, tol) & _in_ball(p, b2, d2, 1.0, tol)
    w = np.empty((len(ok), b1.shape[1]), dtype=complex)
    w[live] = p
    return ok, w


# ---------------------------------------------------------------------------
# chart families
# ---------------------------------------------------------------------------

def check_budget(entries: int, what: str) -> None:
    """Raise `AtlasError` naming ``what`` if it would hold more than
    `MATERIALIZE_BUDGET` entries (read at call time)."""
    if entries > MATERIALIZE_BUDGET:
        raise AtlasError(f"{what} = {entries} entries are over the budget of {MATERIALIZE_BUDGET}")


class ChartFamily(Sequence):
    """A sequence of charts that also answers point-location queries.

    An affine family supplies ``radices`` (its factor sizes, outermost first: chart i
    is their C-order mixed-radix number, and ``kappa`` their product), ``dim``,
    ``gamma`` (the factor every chart shares, read without building a chart),
    ``_recipe()`` (what makes two families of the same type equal), ``arrays_at(idx)``,
    the one place it states its (b, d) rows, and ``passes`` (the default offers every
    chart).  Charts, `chart_arrays`, `locate`, `contains` and `covers` read those, and
    one row test decides the pairs of the last three: ``_hits`` on the keys of
    ``_key`` (`covers` tries ``_anchor`` first).  ``_neighbors`` and
    ``_pair_witnesses`` (chain search), ``level_rows`` and ``doubling_factors``
    have defaults and are optional faster kernels.  A family of other charts
    has no rows: it supplies ``_chart(i)``, ``_hits`` and its affine ``base``.
    """

    @property
    def kappa(self) -> int:
        return math.prod(self.radices)

    def __len__(self) -> int:
        """``kappa``, or an `AtlasError` when it is too large to index (builtin
        ``len()`` refuses 2^63 and above with an `OverflowError`)."""
        if self.kappa > sys.maxsize:
            raise AtlasError(f"kappa={self.kappa} charts are more than an index can address")
        return self.kappa

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._chart(j) for j in range(*i.indices(len(self)))]
        return self._chart(self._index(i))

    def _index(self, i):
        """``i`` as an index in [0, kappa), counted from the end if negative, as for a list."""
        n = len(self)
        if not -n <= i < n:
            raise IndexError(i)
        return i % n

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
        enough to index (``len()``).  (N,) is N points when dim is 1,
        (dim,) is one point; any other shape raises `DimensionMismatch`, and
        a scale that is NaN or negative a `ValueError`."""
        len(self)
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

    @property
    def base(self) -> ChartFamily:
        """The affine family whose rows a chart file stores: this one by default."""
        return self

    def _chart(self, i):
        b, d = self.arrays_at(np.array([i]))
        return DiagonalAffineChart(b=b[0], d=d[0], gamma=self.gamma)

    def chart_arrays(self) -> tuple:
        """(b, d) of shape (kappa, dim) read off `arrays_at`, refused before anything is
        allocated for a family without rows or over `MATERIALIZE_BUDGET` charts."""
        n = len(self)
        self.arrays_at(np.arange(0))
        check_budget(n, "chart rows")
        return self.arrays_at(np.arange(n))

    def level_rows(self) -> tuple:
        """Per level, outermost first: (first axis, b, d), one row per chart of the
        level on the axes it sets, d as this family's charts hold it (a family that
        wraps others scales the rows it reads).  Every chart is the C-order product
        of one row per level.  The default is one level of every axis (`chart_arrays`)."""
        return ((0, *self.chart_arrays()),)

    def doubling_factors(self, axes, scale: float, tol: float | None = None) -> tuple:
        """1-D boolean factors whose C-order outer product flags every chart:
        |b_i| > scale * |d_i| on every axis in ``axes`` (`avoidance`), decided
        per level.  Level sets also read ``tol``; affine families ignore it."""
        return avoidance(self.level_rows(), axes, scale)

    def passes(self, pts: np.ndarray, scale: np.ndarray, done: np.ndarray):
        """(point indices, chart indices) pairs to test, pass by pass.  Every
        point meets every chart that contains it at its ``scale`` in some pass,
        unless a family skips it once flagged in ``done`` (the caller may update
        it between passes).  This default does, offering every chart; rings do not."""
        lo = 0
        while lo < len(self):
            idx = np.nonzero(~done)[0]
            if idx.size == 0:
                return
            hi = min(len(self), lo + max(1, PASS_PAIRS // idx.size))
            yield np.repeat(idx, hi - lo), np.tile(np.arange(lo, hi), idx.size)
            lo = hi

    def locate(self, pts, scale, tol: float | None = None) -> tuple:
        """(point indices, chart indices): every pair whose chart image at
        ``scale`` (scalar or per point) contains the point, as sorted int64
        arrays; no chart is built.  `passes` offer the pairs (at the scale times
        1 + tol, as their windows test no tolerance) and `_hits` decides them."""
        pts, scale, t = self._points(pts, scale, tol)
        found = [np.zeros((0, 2), dtype=np.int64)]
        passes = self.passes(pts, scale * (1.0 + t), np.zeros(pts.shape[0], dtype=bool))
        for i, j in _batches(passes):
            hit = self._hits(pts.take(i, axis=0), scale.take(i), t, self._key(j))
            found.append(np.stack([i[hit], j[hit]], axis=1).astype(np.int64))
        pairs = np.unique(np.concatenate(found), axis=0)
        return pairs[:, 0], pairs[:, 1]

    def _anchor(self, pts):
        """Each point's anchor chart in the form `_hits` reads; None (the default) for none."""
        return None

    def _key(self, j):
        """Chart indices from `passes` in the form `_hits` reads: the default is the index."""
        return j

    def _hits(self, pts, scale, t: float, j):
        """Row r: whether chart j[r] (a `_key`) at scale[r] holds pts[r]: `_in_ball` on `arrays_at` rows."""
        return _in_ball(pts, *self.arrays_at(j), scale, t)

    def _grid_hits(self, axes, scale, t: float) -> np.ndarray:
        """The anchor pass over a product grid: [m, r] is `_hits` of row r of the
        `_product_rows` of ``axes`` at scale[m] on its `_anchor`, the scales taken
        as a column (`_hits` broadcasts them); with no anchor, all False."""
        rows = _product_rows(axes)
        j = self._anchor(rows)
        if j is None:
            return np.zeros((scale.size, rows.shape[0]), dtype=bool)
        return self._hits(rows, scale[:, None], t, j)

    def covers(self, pts, scale, tol: float | None = None) -> np.ndarray:
        """Which points lie in some chart image at ``scale`` (scalar or per point):
        each point's anchor chart (`_anchor`), then, for the points left open, the
        pairs `passes` offer at the scale `locate` gives them, all decided by `_hits`."""
        pts, scale, t = self._points(pts, scale, tol)
        j = self._anchor(pts)
        covered = np.zeros(pts.shape[0], dtype=bool) if j is None else self._hits(pts, scale, t, j)
        rest = np.nonzero(~covered)[0]
        pts, scale, done = pts.take(rest, axis=0), scale.take(rest), covered[rest]
        for i, j in self.passes(pts, scale * (1.0 + t), done):     # take: faster than pts[i]
            done[i[self._hits(pts.take(i, axis=0), scale.take(i), t, self._key(j))]] = True
        covered[rest] = done
        return covered

    def contains(self, i: int, p, scale: float, tol: float | None = None) -> bool:
        """Whether chart ``i``'s image at ``scale`` contains ``p``: `_hits` on one row."""
        i = self._index(i)
        if not 0 < scale <= self.gamma:
            raise ValueError(f"scale must lie in (0, gamma={self.gamma}], got {scale}")
        pts, scale, t = self._points(np.reshape(np.asarray(p, dtype=complex), (1, -1)), scale, tol)
        return bool(self._hits(pts, scale, t, self._key(np.array([i])))[0])

    def neighbors(self, i: int, scale: float = 1.0) -> np.ndarray:
        """Sorted int64 chart indices (``i`` included) whose images at ``scale``
        can meet chart ``i``'s, a superset of those that do: `_neighbors` of ``[i]``."""
        return self._neighbors(np.array([self._index(i)]), float(self._scales(scale)))[1]()

    def _pair_witnesses(self, i, j, tol: float) -> tuple:
        """(ok, w): `_witness_rows` of the charts i[r] and j[r], on their `arrays_at` rows."""
        return _witness_rows(*self.arrays_at(i), *self.arrays_at(j), tol)

    def _neighbors(self, idx, scale: float) -> tuple:
        """(counts, lists) for the charts ``idx`` (int64): ``counts[r]`` is the length
        of chart idx[r]'s sorted neighbour list, and ``lists()`` builds the lists,
        chart by chart, joined in order.  The counts come first, so a caller can
        refuse a layer before any list exists.  This default lists every chart."""
        n = len(self)
        return np.full(idx.size, n, dtype=np.int64), lambda: np.tile(np.arange(n, dtype=np.int64), idx.size)


def avoidance(levels, axes, scale: float) -> tuple:
    """Per level of `ChartFamily.level_rows`: whether each row has
    |b_i| > scale * |d_i| on every axis i in ``axes`` that the level sets."""
    flags = []
    for first, b, d in levels:
        tests = [np.abs(b[:, i - first]) > scale * np.abs(d[:, i - first])
                 for i in axes if first <= i < first + b.shape[1]]
        flags.append(reduce(np.logical_and, tests) if tests else np.ones(b.shape[0], dtype=bool))
    return tuple(flags)


def _batches(passes):
    """Successive (i, j) passes joined into one (2, pairs) array while they
    hold at most `PASS_PAIRS` pairs together; a larger pass comes alone."""
    held, size = [], 0
    for i, j in passes:
        if held and size + i.size > PASS_PAIRS:
            yield np.concatenate(held, axis=1)
            held, size = [], 0
        held.append(np.stack([i, j]))
        size += i.size
    if held:
        yield np.concatenate(held, axis=1)


class ChartList(ChartFamily):
    """Plain-list charts as rows: read-only (b, d) of shape (kappa, dim) and the
    factor gamma they share (None when there are none), built once by `family`
    or `chart_rows`."""

    def __init__(self, b: np.ndarray, d: np.ndarray, gamma: float | None, dim: int | None):
        b.flags.writeable = d.flags.writeable = False
        self.b, self.d, self.gamma, self.dim, self.radices = b, d, gamma, dim, b.shape[:1]

    def _recipe(self):
        return self.gamma, self.b.tolist(), self.d.tolist()

    def chart_arrays(self) -> tuple:
        return self.b, self.d

    def arrays_at(self, idx) -> tuple:
        return self.b.take(idx, axis=0), self.d.take(idx, axis=0)     # several times faster than b[idx]


def chart_rows(b: np.ndarray, d: np.ndarray, gamma: float) -> ChartFamily:
    """The family of the charts (b[r], d[r]) of factor ``gamma``, complex arrays of
    shape (kappa, dim); a zero scale raises `ValueError`, as in `DiagonalAffineChart`."""
    if (d == 0).any():
        raise ValueError("zero scale would make the chart non-univalent")
    return ChartList(b, d, float(gamma) if len(b) else None, b.shape[1])


def family(charts: Sequence, dim: int | None = None) -> ChartFamily:
    """``charts`` itself if it is a chart family, else the `chart_rows` of its
    charts, built once: `DiagonalAffineChart`s of one dim and one factor, or
    none (of dim ``dim``)."""
    if isinstance(charts, ChartFamily):
        return charts
    if not all(isinstance(c, DiagonalAffineChart) for c in charts):
        raise UnsupportedAmbient(AFFINE_ONLY)
    dims, factors = {c.dim for c in charts}, {c.gamma for c in charts}
    if len(dims) > 1:
        raise DimensionMismatch(f"charts of dims {sorted(dims)} in one list")
    if len(factors) > 1:
        raise ValueError(f"charts of factors {sorted(factors)} in one list")
    if not len(charts):
        return ChartList(*np.zeros((2, 0, dim or 1), dtype=complex), None, dim)
    b = np.array([c.b for c in charts], dtype=complex)
    d = np.array([c.d for c in charts], dtype=complex)
    return ChartList(b, d, factors.pop(), dims.pop())


# ---------------------------------------------------------------------------
# coverings
# ---------------------------------------------------------------------------

class Covering:
    """A finite (possibly lazily materialized) family of charts of one kind.

    All charts share the doubling factor ``gamma``; the complexity ``kappa``
    is the chart count.  ``charts`` is a `ChartFamily` of the ambient's dim:
    a lazy one (rings, suspension layers, level branches) as given, a plain
    list as its `family` rows, built here once, so a list changed later does
    not change the covering.
    """

    def __init__(self, ambient, gamma: float, charts: Sequence, meta: dict | None = None):
        self.ambient = ambient
        self.gamma = float(gamma)
        self.meta = dict(meta or {})
        if not self.gamma > 1.0:
            raise InvalidDoublingFactor(f"gamma must exceed 1, got {gamma}")
        self.charts = family(charts, self.dim)
        if self.charts.dim != self.dim:
            raise DimensionMismatch(f"charts of dim {self.charts.dim} for an ambient of dim {self.dim}")
        factor = self.charts.gamma
        if factor is not None and abs(factor - self.gamma) > 1e-12:
            raise ValueError("charts do not share the covering factor")

    @property
    def kappa(self) -> int:
        return len(self.charts)

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
        check_positive("c_lower", self.c_lower)
        if not np.isfinite(self.C_unit):
            raise ValueError(f"C_unit must be finite, got {self.C_unit}")
        if not self.C_unit >= 1:
            raise ValueError("C_unit must be >= 1")
        if self.c_lower > self.C_unit:
            raise ValueError("two-sided bounds require c_lower <= C_unit")
        check_integer("d", self.d)
        check_integer("alpha0", self.alpha0)
        if self.d < 1 or self.alpha0 < 1:
            raise ValueError("d and alpha0 must be positive integers")

"""Real-analytic chart atlases for graphs of bounded monomial maps.

An a-chart is a real-analytic map psi: [-1,1]^m -> R^n that extends
holomorphically to the polydisc of radius 3 with every extended value staying
within max-coordinate distance 1 of psi(0).  The graph of b(x) = a * x^mu
over (eps, 1)^m is covered by charts of the form

    psi(w) = (y_1 (1 + (z0_1 + w_1)/(2 C3)), ...,
              a * prod_i (y_i (1 + (z0_i + w_i)/(2 C3)))^(mu_i)),

one per (dyadic box center y, odd-integer offset z0 in (-C3, C3)^m).  The
count is O(log(1/eps)^m): per axis O(log 1/eps) dyadic scales times the
constant C3 tiling.  Every atlas is a `GraphCharts`, built as that product
or listed from charts; the scan and the membership lookup read its fields.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (ChartFamily, DimensionMismatch, NotHolomorphic, _product_rows,
                   check_budget, tolerance)


@dataclass(frozen=True)
class MonomialData:
    """Coefficient a > 0 and real exponent vector mu of x -> a * x^mu."""

    coefficient: float
    exponents: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficient", float(self.coefficient))
        object.__setattr__(self, "exponents",
                           tuple(float(m) for m in self.exponents))
        if not (self.coefficient > 0 and math.isfinite(self.coefficient)):
            raise ValueError(f"the coefficient must be finite and positive, got {self.coefficient}")
        if not self.exponents:
            raise ValueError("need at least one exponent")
        if not all(map(math.isfinite, self.exponents)):
            raise ValueError(f"the exponents mu must be finite, got {self.exponents}")

    @property
    def m(self) -> int:
        return len(self.exponents)

    @property
    def abs_degree(self) -> float:
        """M = sum |mu_i|, the distortion exponent of a dyadic box."""
        return float(sum(abs(m) for m in self.exponents))

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        mu = np.asarray(self.exponents)
        return self.coefficient * np.prod(x ** mu, axis=-1)


@dataclass(frozen=True)
class RealAChart:
    """One graph chart: dyadic box center y, unit-box offset z0, scale C3."""

    y: tuple
    z0: tuple
    c3: float
    data: MonomialData

    def __post_init__(self):
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        object.__setattr__(self, "z0", tuple(float(v) for v in self.z0))
        object.__setattr__(self, "c3", float(self.c3))
        if len(self.y) != self.data.m or len(self.z0) != self.data.m:
            raise ValueError("y and z0 must match the exponent dimension")
        if not all(0.0 < v < 1.0 for v in self.y):
            raise ValueError("box centers must lie in (0, 1)^m")
        if not self.c3 > 3.0:
            raise ValueError("C3 must exceed 3 for the radius-3 extension")
        if not all(abs(v) <= self.c3 for v in self.z0):     # a NaN offset fails too
            raise ValueError("offsets must satisfy |z0_i| <= C3")

    @property
    def m(self) -> int:
        return self.data.m

    def extend_points(self, z: np.ndarray) -> np.ndarray:
        """Holomorphic extension on (batches of) points of the radius-3 polydisc.

        Valid because |z0_i + z_i| <= C3 + 3 < 2 C3 keeps every affine
        coordinate in the right half plane, where the principal power is
        holomorphic.
        """
        z = np.asarray(z)
        y = np.asarray(self.y)
        z0 = np.asarray(self.z0)
        coords = y * (1.0 + (z0 + z) / (2.0 * self.c3))
        mu = np.asarray(self.data.exponents)
        last = self.data.coefficient * np.prod(coords ** mu, axis=-1)
        return np.concatenate([coords, last[..., None]], axis=-1)

    __call__ = extend_points        # the callable form `verify_achart` scans

    def deviation_certificate(self) -> float:
        """Analytic upper bound for sup over the radius-3 polydisc of the
        max-coordinate deviation |psi~(z) - psi(0)|."""
        affine = 3.0 * max(self.y) / (2.0 * self.c3)
        center_last = abs(float(self(np.zeros(self.m))[-1]))
        return max(affine, center_last * _graph_growth(self.data.abs_degree, self.c3))


# ---------------------------------------------------------------------------
# box layout
# ---------------------------------------------------------------------------

def axis_scale_centers(eps: float) -> list:
    """Dyadic centers y_k = (2/3) 2^-k whose intervals (y/2, 3y/2) chain-cover (eps, 1).

    K is the smallest index with (1/3) 2^-K <= eps; eps >= 1/2 needs a single
    center.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    K = max(0, math.ceil(-math.log2(3.0 * eps)))
    while (1.0 / 3.0) * 2.0 ** -K > eps:
        K += 1
    while K > 0 and (1.0 / 3.0) * 2.0 ** -(K - 1) <= eps:
        K -= 1
    return [(2.0 / 3.0) * 2.0 ** -k for k in range(K + 1)]


def box_min_ratio(mu) -> float:
    """min over the closed dyadic box of x^mu / y^mu = prod min((1/2)^mu_i, (3/2)^mu_i)."""
    r = 1.0
    for mi in mu:
        r *= min(0.5 ** mi, 1.5 ** mi)
    return r


def _graph_growth(M: float, c3: float) -> float:
    """exp(M s / (1 - s)) - 1, s = 3 / C3: the last coordinate's relative deviation bound."""
    s = 3.0 / c3
    return math.exp(M * s / (1.0 - s)) - 1.0


def choose_C3(mu, value_bound: float) -> float:
    """Minimal integer C3 >= 4 whose certified deviation bound is at most 1.

    The certificate is V(C3) = A (exp(M s / (1 - s)) - 1) with s = 3 / C3 and
    M = sum |mu_i|; it dominates the true boundary supremum whenever the chart
    center's last coordinate is at most A.  The affine-coordinate variation
    3 / (2 C3) <= 1 holds automatically for C3 >= 4.  V falls as C3 grows, so
    the least passing C3 is bracketed by doubling and found by bisection, in
    O(log C3) steps however large it is.
    """
    A = float(value_bound)
    if not A >= 1.0:
        raise ValueError("value_bound must be >= 1")
    M = float(sum(abs(float(mi)) for mi in mu))

    def certified(c3: int) -> bool:
        return A * _graph_growth(M, c3) <= 1.0

    fails, passes = 3, 4                # 3 stands for "below the range"
    while not certified(passes):
        fails, passes = passes, 2 * passes
    while passes - fails > 1:
        mid = (fails + passes) // 2
        fails, passes = (fails, mid) if certified(mid) else (mid, passes)
    return float(passes)


def graph_c3(data: MonomialData) -> float:
    """C3 of every chart of `cover_monomial_graph`: center values over kept
    boxes stay below 3^M."""
    return choose_C3(data.exponents, 3.0 ** data.abs_degree)


def _offset_count(c3: float) -> int:
    """V = 2 ceil(C3/2), the unit boxes that tile (-C3, C3) on one axis."""
    return 2 * math.ceil(c3 / 2.0)


def offset_grid(c3: float) -> np.ndarray:
    """Odd-integer centers of the `_offset_count` unit boxes tiling (-C3, C3)."""
    return np.arange(1 - _offset_count(c3), _offset_count(c3), 2, dtype=float)


def graph_grid_size(data: MonomialData, eps: float, c3: float) -> tuple:
    """((K+1)^m, V^m): the dyadic box centers and the offset tuples that
    `cover_monomial_graph` takes its charts from, counted without building
    either.  Its chart count is a multiple of V^m and at most the product."""
    return len(axis_scale_centers(eps)) ** data.m, _offset_count(c3) ** data.m


def _ranks(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The index of each value in the sorted distinct ``table``, -1 where absent."""
    at = np.minimum(np.searchsorted(table, values), len(table) - 1)
    return np.where(table[at] == values, at, -1)


ABSENT = -(1 << 62)    # the column of a value no key holds: every code it joins is negative


class _GraphKeys:
    """The chart keys (k, z0) of a `GraphCharts` as integer tables, built once.

    On an axis, k enters as k - kmin (kmin the least key k) and z0 as its rank
    among the atlas's distinct offset values.  That rank is one gather from a
    table over the odd integers from the least to the greatest odd value, when
    they number at most 4 a value (plus 64), and a sorted search only for a
    value that table does not hold.  A product's key rows are its boxes' k
    rows, and a z0 need only be one of its offsets, so no offset tuple is
    built; a listed atlas's rows join each axis's k and z0 rank.

    A row folds into one int64 axis by axis, code * size + column.  Where the
    code space would pass 2^62 the rows' partial codes are first replaced by
    their ranks among their distinct values, so no code overflows for any m.
    The folded rows are a bool grid over the code space when it holds at most
    max(8 n, 2^20) entries for n rows, and otherwise sorted codes."""

    def __init__(self, f: GraphCharts):
        y_values, y_of = np.unique(f.boxes, return_inverse=True)
        k_of_y = np.fromiter((round(math.log2((2.0 / 3.0) / v)) for v in y_values),
                             dtype=np.int64, count=len(y_values))
        k = k_of_y[y_of].reshape(f.boxes.shape)
        self.listed = f.offsets is None
        self.values = np.unique(f.tuples if self.listed else f.offsets)
        with np.errstate(invalid="ignore"):
            odd = self.values[np.mod(self.values, 2.0) == 1.0]
        span = (odd[-1] - odd[0]) / 2.0 + 1.0 if len(odd) else 0.0
        odd = odd if span <= 4 * len(self.values) + 64 else odd[:0]
        self.odd_lo, span = (odd[0], int(span)) if len(odd) else (1.0, 0)
        check_budget(span + 1, f"an offset table of {span} odd integers")
        self.odd_rank = np.full(span + 1, -1, dtype=np.int64)      # the last entry stays -1
        self.odd_rank[((odd - self.odd_lo) / 2.0).astype(np.int64)] = np.searchsorted(self.values, odd)
        self.loose = len(odd) < len(self.values)
        self.kmin = np.int64(k.min() if k.size else 0)
        self.ksize = int(k.max() - self.kmin + 1) if k.size else 0
        self.zsize = len(self.values) if self.listed else 1
        if self.listed:
            check_budget(f.kappa * f.m, f"{f.kappa} key rows x {f.m} axes")
            zr = np.searchsorted(self.values, f.tuples)
            cols = (k[f.box_of] - self.kmin) * self.zsize + zr[f.tuple_of]
        else:
            cols = k - self.kmin
        self.size = self.ksize * self.zsize
        codes, space, self.ranked = np.zeros(len(cols), dtype=np.int64), 1, []
        for i in range(f.m):
            self.ranked.append(np.unique(codes) if space * self.size > 1 << 62 else None)
            if self.ranked[i] is not None:
                codes, space = np.searchsorted(self.ranked[i], codes), len(self.ranked[i])
            codes, space = codes * self.size + cols[:, i], space * self.size
        if space <= max(8 * len(codes), 1 << 20):
            check_budget(space, f"a key grid of {space} codes")
            self.grid, self.codes = np.zeros(space, dtype=bool), None
            self.grid[codes] = True
        else:
            self.grid, self.codes = None, np.unique(codes)

    def columns(self, k: np.ndarray, z0: np.ndarray) -> np.ndarray:
        """The key-row column of each (k, z0) pair (arrays of one shape), or
        `ABSENT` where no key holds that k with that z0 on an axis."""
        if not len(self.values):
            return np.full(z0.shape, ABSENT, dtype=np.int64)
        with np.errstate(invalid="ignore"):
            j = (z0 - self.odd_lo) / 2.0
            j = np.where((j >= 0) & (j < len(self.odd_rank)), j, -1)    # a NaN is outside
        zr = self.odd_rank[j.astype(np.int64)]
        zr = np.where(self.values[zr] == z0, zr, -1)     # a non-integer j took its floor
        if self.loose:
            zr[zr < 0] = _ranks(self.values, z0[zr < 0])
        kc = k - self.kmin
        col = kc * self.zsize + zr if self.listed else kc
        return np.where((kc >= 0) & (kc < self.ksize) & (zr >= 0), col, ABSENT)

    def members(self, col: np.ndarray) -> np.ndarray:
        """The points p for which some choice of slot s per axis i makes the
        columns col[i, s, p] a key row: each point's partial codes are expanded
        by the slots of one axis at a time, and only valid ones are kept."""
        pts, codes = np.arange(col.shape[2]), np.zeros(col.shape[2], dtype=np.int64)
        for i, ranked in enumerate(self.ranked):
            if ranked is not None:
                codes = _ranks(ranked, codes)
            codes = (codes * self.size + col[i][:, pts]).ravel()
            at = np.flatnonzero(codes >= 0)
            pts, codes = pts[at % len(pts)], codes[at]
        return pts[self.grid[codes] if self.codes is None else _ranks(self.codes, codes) >= 0]


class GraphCharts(ChartFamily):
    """An a-chart atlas: chart i has center ``boxes[box_of][i]`` and offset
    ``tuples[tuple_of][i]`` once the two indexed arrays are broadcast together
    and raveled, and every chart shares ``data`` and ``c3``.

    `cover_monomial_graph` builds the product: every kept dyadic box center
    times every offset tuple of the 1-D grid ``offsets``, box-major, the
    tuples in `itertools.product` order (its indices are ``[:, None]`` and
    ``[None, :]``).  It stores the K centers and the V offsets: its tuple
    table is made when first read, a chart is built only when one is indexed,
    and `radices` builds nothing.  `listed` indexes the unique rows of a list of
    `RealAChart` (``offsets`` and ``eps`` None).  The scan and the file writer
    read these fields; the membership lookup reads the integer tables
    `_GraphKeys` makes of them once, and never the product's tuple table."""

    def __init__(self, data: MonomialData, c3, boxes, offsets=None, eps=None):
        self.data, self.c3, self.offsets, self.eps = data, c3, offsets, eps
        self.boxes = np.asarray(boxes, dtype=float).reshape(-1, data.m)
        self.m = self.dim = data.m
        self.box_of, self.tuple_of = np.s_[:, None], np.s_[None, :]

    @classmethod
    def listed(cls, charts, data: MonomialData | None = None) -> GraphCharts:
        """``charts`` as one family: a `GraphCharts` as it is, a list of
        `RealAChart` by the `np.unique` of the bits of its rows, so each reads
        back as held (``data`` is an empty list's, and it needs one).  Charts
        of mixed monomial data or C3 raise `ValueError`."""
        if isinstance(charts, GraphCharts):
            return charts
        if not len(charts) and data is None:
            raise ValueError("the monomial data is missing: an empty atlas takes it as `data`")
        data, c3 = (charts[0].data, charts[0].c3) if len(charts) else (data, None)
        if any(c.data != data or c.c3 != c3 for c in charts):
            raise ValueError("charts of one atlas must share their monomial data and C3")
        (boxes, box_of), (tuples, tuple_of) = (
            np.unique(np.asarray(rows, dtype=float).reshape(-1, data.m).view(np.int64),
                      axis=0, return_inverse=True)
            for rows in ([c.y for c in charts], [c.z0 for c in charts]))
        family = cls(data, c3, boxes.view(float))
        # index arrays in place of the product's, and the rows shadow its derived `tuples`
        family.box_of, family.tuples, family.tuple_of = (
            box_of.reshape(-1), tuples.view(float), tuple_of.reshape(-1))
        return family

    @cached_property
    def tuples(self) -> np.ndarray:
        return _product_rows([self.offsets] * self.m)

    @property
    def radices(self) -> tuple:
        if self.offsets is None:
            return (len(self.box_of),)
        return (len(self.boxes),) + (len(self.offsets),) * self.m

    def _chart(self, i):
        if self.offsets is None:
            return RealAChart(self.boxes[self.box_of[i]], self.tuples[self.tuple_of[i]],
                              self.c3, self.data)
        box, *t = np.unravel_index(i, self.radices)
        return RealAChart(y=self.boxes[box], z0=self.offsets[t], c3=self.c3, data=self.data)

    def _recipe(self):
        return (self.data, self.c3, self.boxes.shape, self.boxes.tobytes(),
                self.offsets.tobytes())

    def __eq__(self, other):
        """Equal to an atlas of the same charts, whatever the form: two products
        compare their recipes, a listed family its data, C3 and (y, z0) rows."""
        if type(other) is type(self) and (self.offsets is None or other.offsets is None):
            return len(self) == len(other) and (not len(self) or (
                (self.data, self.c3) == (other.data, other.c3)
                and all(map(np.array_equal, self.graph_arrays(), other.graph_arrays()))))
        return super().__eq__(other)

    def graph_arrays(self) -> tuple:
        """(y, z0) of every chart, shape (len, m) each; not (b, d) rows, so the
        inherited `chart_arrays` and `level_rows` raise `UnsupportedAmbient`."""
        y, z0 = np.broadcast_arrays(self.boxes[self.box_of], self.tuples[self.tuple_of])
        return y.reshape(-1, self.m), z0.reshape(-1, self.m)

    @cached_property
    def _keys(self) -> _GraphKeys:
        return _GraphKeys(self)

    def is_key(self, k: np.ndarray, z0: np.ndarray) -> np.ndarray:
        """Whether each row pair of k (int64) and z0 (float), shape (N, m)
        each, is a chart's key: k = round(log2((2/3) / y)) of its box center
        and its z0, compared as numbers."""
        out = np.zeros(len(k), dtype=bool)
        out[self._keys.members(self._keys.columns(k, z0).T[:, None, :])] = True
        return out


def _check_graph_eps(eps: float) -> None:
    if not 0.0 < eps < 0.5:     # a NaN eps fails too
        raise ValueError("eps must lie in (0, 1/2)")


def cover_monomial_graph(data: MonomialData, eps: float) -> GraphCharts:
    """Charts covering the graph of a * x^mu over {x in (eps,1)^m : a x^mu < 1}.

    A dyadic box is kept iff it meets the domain (its closed-box minimum of
    a x^mu is below 1); keeping boxes by intersection rather than by their
    center value is what makes the union of chart images catch every graph
    point.  Center values over kept boxes stay below 3^M, which sizes C3.
    A family whose box centers times offset tuples are over the budget
    (`check_budget`) is refused before either is built.
    """
    _check_graph_eps(eps)
    c3 = graph_c3(data)
    n_boxes, n_tuples = graph_grid_size(data, eps, c3)
    check_budget(n_boxes * n_tuples, f"{n_boxes} box centers x {n_tuples} offset tuples")
    centers = _product_rows([np.asarray(axis_scale_centers(eps))] * data.m)
    keep = ~(data.value(centers) * box_min_ratio(data.exponents) >= 1.0)
    return GraphCharts(data, c3, centers[keep], offset_grid(c3), float(eps))


def graph_count_bound(data: MonomialData, eps: float) -> float:
    """Recorded construction bound C(mu) * max(1, log(1/eps))^m on the chart
    count of `cover_monomial_graph`, for the eps it accepts."""
    _check_graph_eps(eps)
    c3 = graph_c3(data)
    per_axis = _offset_count(c3) * (1.0 / math.log(2.0) + 2.0)
    return per_axis ** data.m * max(1.0, math.log(1.0 / eps)) ** data.m


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

DEVIATION_BOUND = 1.0 + 1e-9   # pass rule of every extension scan


@dataclass(frozen=True)
class AChartReport:
    """Outcome of the extension scan for a single chart."""

    max_deviation: float
    passed: bool
    certificate: float | None = None


def verify_achart(chart, grid: int = 24, interior: int = 1000,
                  seed: int = 0) -> AChartReport:
    """Scan the radius-3 extension for the max-coordinate deviation from psi(0).

    ``chart`` is any callable mapping a batch of complex points of the
    radius-3 polydisc (shape (N, m)) to coordinate batches, with the domain
    dimension as ``.m``: a RealAChart is one (its `extend_points`).
    The scan covers the distinguished boundary {|z_i| = 3} on a grid^m
    lattice (where each coordinate's modulus attains its supremum, up to grid
    resolution) plus seeded interior points.  Pass iff the deviation is at
    most 1 + 1e-9.  The analytic certificate is attached when available.
    """
    m = getattr(chart, "m", None)
    if m is None:
        raise ValueError("callable charts need an .m attribute for the domain dim")
    cert = getattr(chart, "deviation_certificate", lambda: None)()
    pts = scan_points(m, grid, interior, seed)
    values = np.asarray(chart(pts))
    center = np.asarray(chart(np.zeros((1, m), dtype=complex)))[0]
    if not np.isfinite(values).all() or not np.isfinite(center).all():
        raise NotHolomorphic("extension evaluation produced non-finite values")
    dev = float(np.abs(values - center).max())
    return AChartReport(max_deviation=dev, passed=dev <= DEVIATION_BOUND,
                        certificate=cert)


def _check_scan(grid: int, interior: int, m: int = 1) -> None:
    """Refuse a scan-set size that is not an integer at least its least value:
    a grid >= 2 angles a ring, interior >= 0 points, m >= 1 axes."""
    for name, value, least in (("grid", grid, 2), ("interior", interior, 0), ("m", m, 1)):
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")


def scan_points(m: int, grid: int, interior: int, seed: int = 0) -> np.ndarray:
    """Distinguished-boundary lattice plus seeded interior points of the
    radius-3 polydisc (the scan set of every a-chart check), counted before
    it is built: entries over the budget (`check_budget`) raise `AtlasError`.
    The lattice is the product of one ring of `grid` values 3 e^(2 pi i s/grid)
    per axis, in `itertools.product` order: the last axis runs fastest."""
    _check_scan(grid, interior, m)
    check_budget((grid ** m + interior) * m, f"({grid}^{m} + {interior}) scan points x {m} axes")
    angles = 2.0 * math.pi * np.arange(grid) / grid
    boundary = _product_rows([3.0 * np.exp(1j * angles)] * m)
    rng = np.random.default_rng(seed)
    radii = 3.0 * np.sqrt(rng.random((interior, m)))
    thetas = 2.0 * math.pi * rng.random((interior, m))
    return np.concatenate([boundary, radii * np.exp(1j * thetas)], axis=0)


def verify_achart_batch(charts, grid: int = 16, interior: int = 1000,
                        seed: int = 0) -> np.ndarray:
    """Max-coordinate deviations of every chart of one atlas (the points and
    values of `verify_achart`), factored by dyadic box and offset tuple.

    With u_i = 1 + (z0_i + z_i) / (2 C3), Re u_i > 0 and y_i > 0, the last
    coordinate is a y^mu prod u_i^mu_i: its deviation is a y^mu D(z0) with
    D(z0) = max_z |prod u^mu(z) - prod u^mu(0)|, and the affine deviation
    max_z max_i y_i |z_i| / (2 C3) depends on y alone.  On the lattice z_i
    takes only the `grid` ring values, so u_i^mu_i is taken per ring value,
    and a tuple's lattice products are the outer product of its axes' rows,
    multiplied left to right as `np.prod` does.  The scan set, and offsets x
    axes x scan points as a bound on the scan's work (as `_sample_budget`
    bounds `check_coverage`'s), are counted first: entries over the budget
    (`check_budget`) raise `AtlasError`.
    """
    _check_scan(grid, interior)     # before the budget below, and for an empty atlas too
    if not len(charts):
        return np.zeros(0)
    f = GraphCharts.listed(charts)
    data, c3, tuples = f.data, f.c3, f.tuples
    m, mu = data.m, np.asarray(data.exponents)
    values = np.unique(tuples)
    n_pts = grid ** m + interior + 1
    check_budget(len(values) * m * n_pts, f"{len(values)} offsets x {m} axes x {n_pts} scan points")
    z = scan_points(m, grid, interior, seed)    # its first `grid` rows run the last axis's ring
    ring, rest = z[:grid, -1], np.vstack([z[grid ** m:], np.zeros(m)])    # interior, center last
    idx = np.searchsorted(values, tuples)                                  # (T, m)
    spread = np.empty(len(tuples))
    step = max(1, (1 << 15) // n_pts)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite deviation is refused below
        # u^mu per offset value, axis and ring value (V, m, grid) or rest point (V, m, I + 1)
        ring_pow, rest_pow = ((1.0 + (values[:, None, None] + w) / (2.0 * c3)) ** mu[:, None]
                              for w in (ring, rest.T))
        for lo in range(0, len(tuples), step):
            k = idx[lo:lo + step]
            lattice, rest_prod = ring_pow[k[:, 0], 0], rest_pow[k[:, 0], 0]
            for i in range(1, m):
                # the running product stays the left operand (`out=`: numpy may run
                # `prod * temporary` in place with the two swapped), since a fused
                # complex multiply can round a swapped pair differently in the last bit
                lattice = lattice[:, :, None] * ring_pow[k[:, i], i][:, None, :]
                lattice = lattice.reshape(len(k), -1)
                np.multiply(rest_prod, rest_pow[k[:, i], i], out=rest_prod)
            center = rest_prod[:, -1:]
            spread[lo:lo + step] = np.maximum(np.abs(lattice - center).max(axis=1),
                                              np.abs(rest_prod - center).max(axis=1))
        affine = (f.boxes * np.abs(z).max(axis=0)).max(axis=1) / (2.0 * c3)
        graph = data.coefficient * np.prod(f.boxes ** mu, axis=1)
        dev = graph[f.box_of] * spread[f.tuple_of]                # the one chart-count array
        dev = np.maximum(affine[f.box_of], dev, out=dev).reshape(-1)
    if not np.isfinite(dev).all():
        raise NotHolomorphic("extension evaluation produced non-finite values")
    return dev


# ---------------------------------------------------------------------------
# graph coverage (membership of real graph points in the chart union)
# ---------------------------------------------------------------------------

def graph_membership(charts, xs: np.ndarray,
                     tol: float | None = None) -> np.ndarray:
    """Which real points (x, a x^mu) lie in some chart's real image.

    On each axis x_i lies in the interval (y/2, 3y/2) of at most two dyadic
    scales k, y = (2/3) 2^-k.  For each, u = 2 C3 (x/y - 1) names the unit
    box z0 = 2 floor(u/2) + 1 and w = u - z0.  A point is a member iff for
    some choice of scale per axis every |u_i| < C3 (1 + t) and
    |w_i| <= 1 + t, and (k, z0) is a chart's key (`GraphCharts.is_key`);
    the last coordinate then agrees identically, being the same monomial of
    the first m.  All choices are decided in one pass: each point's partial
    keys are expanded by the valid scales of one axis at a time, and the
    candidates are looked up at once.  Chart images lie in (0, inf)^m, so a
    row with a coordinate that is not a positive finite number (or too small
    to invert) is not a member.  Points of another width than m, or an array
    of more than 2 dims, raise `DimensionMismatch`; complex points raise
    `ValueError`.
    """
    xs = np.asarray(xs)
    if np.iscomplexobj(xs):
        raise ValueError("graph points must be real, got a complex array")
    xs = np.atleast_2d(xs.astype(float, copy=False))
    if xs.ndim > 2:
        raise DimensionMismatch(f"points must be an (N, m) array, got shape {xs.shape}")
    out = np.zeros(xs.shape[0], dtype=bool)
    if not len(charts):
        return out
    f = GraphCharts.listed(charts)
    if xs.shape[1] != f.data.m:
        raise DimensionMismatch(f"points of width {xs.shape[1]} for an atlas of dim {f.data.m}")
    t, c3 = tolerance(tol), f.c3
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lg = np.log2((2.0 / 3.0) / xs.T)
    rows = np.nonzero(np.isfinite(lg).all(axis=0))[0]
    if len(rows) < len(xs):
        xs, lg = xs[rows], lg[:, rows]
    # (axis, scale slot, point) arrays for the scales base - 1, base, base + 1;
    # updated in place where that keeps the bits, since fresh arrays this size
    # cost page faults on every call
    x = xs.T[:, None, :]
    k = np.floor(lg).astype(np.int32)[:, None, :] + np.arange(-1, 2, dtype=np.int32)[:, None]
    y = np.ldexp(2.0 / 3.0, -k)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.divide(x, y)
        u -= 1.0
        u *= 2.0 * c3
    ok = (k >= 0) & (y / 2.0 < x) & (x < 3.0 * y / 2.0) & (np.abs(u) < c3 * (1.0 + t))
    del y
    z0 = np.floor(u / 2.0)
    z0 *= 2.0
    z0 += 1.0
    u -= z0
    ok &= np.abs(u, out=u) <= 1.0 + t
    del u
    at = np.flatnonzero(ok)
    col = np.full(k.shape, ABSENT, dtype=np.int64)
    col.reshape(-1)[at] = f._keys.columns(k.reshape(-1)[at], z0.reshape(-1)[at])
    out[rows[f._keys.members(col)]] = True
    return out

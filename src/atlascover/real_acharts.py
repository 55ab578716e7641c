"""Real-analytic chart atlases for graphs of bounded monomial maps.

An a-chart is a real-analytic map psi: [-1,1]^m -> R^n that extends
holomorphically to the polydisc of radius 3 with every extended value staying
within max-coordinate distance 1 of psi(0).  The graph of b(x) = a * x^mu
over (eps, 1)^m is covered by charts of the form

    psi(w) = (y_1 (1 + (z0_1 + w_1)/(2 C3)), ...,
              a * prod_i (y_i (1 + (z0_i + w_i)/(2 C3)))^(mu_i)),

one per (dyadic box center y, odd-integer offset z0 in (-C3, C3)^m).  The
count is O(log(1/eps)^m): per axis O(log 1/eps) dyadic scales times the
constant C3 tiling.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (MATERIALIZE_BUDGET, AtlasError, ChartFamily, DimensionMismatch,
                   NotHolomorphic, _product_rows, tolerance)


@dataclass(frozen=True)
class MonomialData:
    """Coefficient a > 0 and real exponent vector mu of x -> a * x^mu."""

    coefficient: float
    exponents: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficient", float(self.coefficient))
        object.__setattr__(self, "exponents",
                           tuple(float(m) for m in self.exponents))
        if not self.coefficient > 0:
            raise ValueError("coefficient must be positive")
        if not self.exponents:
            raise ValueError("need at least one exponent")

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
        if any(abs(v) > self.c3 for v in self.z0):
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

    def center_value(self) -> np.ndarray:
        return self.extend_points(np.zeros(self.m))

    def deviation_certificate(self) -> float:
        """Analytic upper bound for sup over the radius-3 polydisc of the
        max-coordinate deviation |psi~(z) - psi(0)|."""
        affine = 3.0 * max(self.y) / (2.0 * self.c3)
        center_last = abs(float(self.center_value()[-1]))
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
    K = max(0, math.ceil(math.log2(1.0 / (3.0 * eps))))
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


class AtlasFactors:
    """An a-chart atlas as (kept boxes, offset tuples): chart i has center
    ``boxes[box_of][i]`` and offset ``tuples[tuple_of][i]`` once the two index
    arrays are broadcast together and raveled.  A `GraphCharts` gives every
    (box, tuple) pair, box-major (``every_pair``); a plain list indexes its
    charts' unique rows.  `is_key` looks up their chart keys (k, z0)."""

    def __init__(self, data, c3, boxes, box_of, tuples, tuple_of, every_pair):
        self.data, self.c3 = data, float(c3)
        self.boxes, self.box_of = boxes, box_of
        self.tuples, self.tuple_of = tuples, tuple_of
        self.every_pair = every_pair

    @cached_property
    def keys(self) -> tuple:
        """`_records` of the boxes' rows k = round(log2((2/3) / y)) and of the
        offset tuples z0, or for a plain list of its charts' (k, z0) rows."""
        y_values, y_of = np.unique(self.boxes, return_inverse=True)
        k_of_y = np.fromiter((round(math.log2((2.0 / 3.0) / v)) for v in y_values),
                             dtype=np.int64, count=len(y_values))
        k = k_of_y[y_of].reshape(self.boxes.shape)
        if self.every_pair:
            return _records(k), _records(self.tuples)
        return (_records(np.hstack([k[self.box_of], self.tuples[self.tuple_of].view(np.int64)])),)

    def is_key(self, k: np.ndarray, z0: np.ndarray) -> np.ndarray:
        """Whether each row pair of k (int64) and z0 (float), shape (N, m)
        each, is a chart's key.  Bytes compare exactly here: k is an integer
        and a queried z0 an odd integer, never -0.0 or NaN, so equal bytes are
        equal values; only equality is read, so the byte order of the records
        need not be the numeric one."""
        if self.every_pair:
            return _member(self.keys[0], k) & _member(self.keys[1], z0)
        return _member(self.keys[0], np.hstack([k, z0.view(np.int64)]))


def _records(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array as sorted `np.void` records of their bytes."""
    rows = np.ascontiguousarray(rows)
    return np.unique(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0])


def _member(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Whether each row of ``rows`` is a record of ``table``, `_records` of rows as wide."""
    rec = np.ascontiguousarray(rows).view(table.dtype)[:, 0]
    at = np.minimum(np.searchsorted(table, rec), len(table) - 1)
    return table[at] == rec


_kept = None        # (those charts, their factors) of the last plain-list atlas


def _factors(charts) -> AtlasFactors:
    """The factors of a non-empty atlas: handed over by a `GraphCharts`, found
    again with `np.unique` over the charts of a plain list.  A plain list has
    no attribute to keep them on, so the last list's factors are kept here with
    its charts, and derived again only when a list holds other chart objects:
    charts are frozen, so the same objects mean the same rows."""
    global _kept
    if isinstance(charts, GraphCharts):
        return charts.factors
    if _kept is None or len(_kept[0]) != len(charts) or not all(map(operator.is_, _kept[0], charts)):
        _kept = tuple(charts), _list_factors(charts)
    return _kept[1]


def _list_factors(charts) -> AtlasFactors:
    data, c3 = charts[0].data, charts[0].c3
    if any(c.data != data or c.c3 != c3 for c in charts):
        raise ValueError("charts of one atlas must share their monomial data and C3")
    boxes, box_of = np.unique([c.y for c in charts], axis=0, return_inverse=True)
    tuples, tuple_of = np.unique([c.z0 for c in charts], axis=0, return_inverse=True)
    return AtlasFactors(data, c3, boxes, box_of.reshape(-1), tuples, tuple_of.reshape(-1),
                        every_pair=False)


class GraphCharts(ChartFamily):
    """The a-charts of `cover_monomial_graph`: every kept dyadic box center
    times every offset tuple of the 1-D grid, box-major, the tuples in
    `itertools.product` order.  It stores the K centers and the V offsets,
    not K * V^m charts: a chart is built only when one is indexed, and the
    scan, the membership lookup and the file writer read the factors."""

    def __init__(self, data: MonomialData, eps: float, c3: float, boxes, offsets):
        self.data = data
        self.eps = float(eps)
        self.c3 = float(c3)
        self.boxes = np.asarray(boxes, dtype=float).reshape(-1, data.m)
        self.offsets = np.asarray(offsets, dtype=float)
        self.m = self.dim = data.m

    def __len__(self) -> int:
        return len(self.boxes) * len(self.offsets) ** self.m

    def _chart(self, i):
        box, t = divmod(i, len(self.offsets) ** self.m)
        z0 = self.offsets[list(np.unravel_index(t, (len(self.offsets),) * self.m))]
        return RealAChart(y=self.boxes[box], z0=z0, c3=self.c3, data=self.data)

    def _recipe(self):
        return (self.data, self.c3, self.boxes.shape, self.boxes.tobytes(),
                self.offsets.tobytes())

    @cached_property
    def factors(self) -> AtlasFactors:
        tuples = _product_rows([self.offsets] * self.m)
        return AtlasFactors(self.data, self.c3, self.boxes, np.arange(len(self.boxes))[:, None],
                            tuples, np.arange(len(tuples))[None, :], every_pair=True)

    def chart_arrays(self) -> tuple:
        """(y, z0) of every chart, shape (len, m) each."""
        f = self.factors
        y, z0 = np.broadcast_arrays(self.boxes[f.box_of], f.tuples[f.tuple_of])
        return y.reshape(-1, self.m), z0.reshape(-1, self.m)


def cover_monomial_graph(data: MonomialData, eps: float) -> GraphCharts:
    """Charts covering the graph of a * x^mu over {x in (eps,1)^m : a x^mu < 1}.

    A dyadic box is kept iff it meets the domain (its closed-box minimum of
    a x^mu is below 1); keeping boxes by intersection rather than by their
    center value is what makes the union of chart images catch every graph
    point.  Center values over kept boxes stay below 3^M, which sizes C3.
    A family whose box centers times offset tuples exceed `MATERIALIZE_BUDGET`
    is refused before either is built.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    c3 = graph_c3(data)
    n_boxes, n_tuples = graph_grid_size(data, eps, c3)
    if n_boxes * n_tuples > MATERIALIZE_BUDGET:
        raise AtlasError(f"{n_boxes} box centers times {n_tuples} offset tuples "
                         "are over the budget")
    centers = _product_rows([np.asarray(axis_scale_centers(eps))] * data.m)
    keep = ~(data.value(centers) * box_min_ratio(data.exponents) >= 1.0)
    return GraphCharts(data, eps, c3, centers[keep], offset_grid(c3))


def graph_count_bound(data: MonomialData, eps: float) -> float:
    """Recorded construction bound C(mu) * max(1, log(1/eps))^m on the chart count."""
    c3 = graph_c3(data)
    per_axis = _offset_count(c3) * (1.0 / math.log(2.0) + 2.0)
    return per_axis ** data.m * max(1.0, math.log(1.0 / eps)) ** data.m


def shrink_for_tube(delta: float, lipschitz: float) -> float:
    """Cube shrinkage eps = delta / c for maps with Lipschitz constant c >= 1.

    Covering the graph over (eps, 1)^m then captures everything at distance
    more than delta from the image of the cube boundary.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if not lipschitz >= 1.0:
        raise ValueError("the Lipschitz constant must be >= 1")
    return delta / lipschitz


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

    ``chart`` is a RealAChart or any callable mapping a batch of complex
    points of the radius-3 polydisc (shape (N, m)) to coordinate batches.
    The scan covers the distinguished boundary {|z_i| = 3} on a grid^m
    lattice (where each coordinate's modulus attains its supremum, up to grid
    resolution) plus seeded interior points.  Pass iff the deviation is at
    most 1 + 1e-9.  The analytic certificate is attached when available.
    """
    if isinstance(chart, RealAChart):
        fn = chart.extend_points
        m = chart.m
        cert = chart.deviation_certificate()
    else:
        fn = chart
        m = getattr(chart, "m", None)
        if m is None:
            raise ValueError("callable charts need an .m attribute for the domain dim")
        cert = getattr(chart, "deviation_certificate", lambda: None)()
    pts = scan_points(m, grid, interior, seed)
    values = np.asarray(fn(pts))
    center = np.asarray(fn(np.zeros((1, m), dtype=complex)))[0]
    if not np.isfinite(values).all() or not np.isfinite(center).all():
        raise NotHolomorphic("extension evaluation produced non-finite values")
    dev = float(np.abs(values - center).max())
    return AChartReport(max_deviation=dev, passed=dev <= DEVIATION_BOUND,
                        certificate=cert)


def scan_points(m: int, grid: int, interior: int, seed: int = 0) -> np.ndarray:
    """Distinguished-boundary lattice plus seeded interior points of the
    radius-3 polydisc (the scan set of every a-chart check)."""
    if grid < 2:
        raise ValueError("grid must be at least 2")
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
    max_z max_i y_i |z_i| / (2 C3) depends on y alone.
    """
    if not len(charts):
        scan_points(1, grid, 0)             # the grid check of every atlas
        return np.zeros(0)
    f = _factors(charts)
    data, c3, tuples = f.data, f.c3, f.tuples
    mu = np.asarray(data.exponents)
    z = np.vstack([scan_points(data.m, grid, interior, seed), np.zeros(data.m)])  # center last
    values = np.unique(tuples)
    # u^mu per offset value, axis and point (the center is the last point)
    powers = (1.0 + (values[:, None, None] + z.T) / (2.0 * c3)) ** mu[:, None]  # (V, m, P)
    idx = np.searchsorted(values, tuples)                           # (T, m)
    spread = np.empty(len(tuples))
    step = max(1, (1 << 18) // len(z))
    for lo in range(0, len(tuples), step):
        k = idx[lo:lo + step]
        prod = np.prod(powers[k, np.arange(data.m)], axis=1)        # (t, P)
        spread[lo:lo + step] = np.abs(prod - prod[:, -1:]).max(axis=1)
    affine = (f.boxes * np.abs(z).max(axis=0)).max(axis=1) / (2.0 * c3)
    graph = data.coefficient * np.prod(f.boxes ** mu, axis=1)
    dev = np.maximum(affine[f.box_of], graph[f.box_of] * spread[f.tuple_of]).reshape(-1)
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
    |w_i| <= 1 + t, and (k, z0) is a chart's key (`AtlasFactors.is_key`);
    the last coordinate then agrees identically, being the same monomial of
    the first m.  Chart images lie in (0, inf)^m, so a row with a coordinate
    that is not a positive finite number (or too small to invert) is not a
    member.  Points of another width than m raise `DimensionMismatch`.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    out = np.zeros(xs.shape[0], dtype=bool)
    if not len(charts):
        return out
    f = _factors(charts)
    if xs.shape[1] != f.data.m:
        raise DimensionMismatch(f"points of width {xs.shape[1]} for an atlas of dim {f.data.m}")
    t, c3 = tolerance(tol), f.c3
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lg = np.log2((2.0 / 3.0) / xs)
    rows = np.nonzero(np.isfinite(lg).all(axis=1))[0]
    # (point, axis, scale slot) arrays for the scales base - 1, base, base + 1
    x = xs[rows, :, None]
    k = np.floor(lg[rows]).astype(np.int64)[:, :, None] + np.arange(-1, 2)
    y = np.ldexp(2.0 / 3.0, -k)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = 2.0 * c3 * (x / y - 1.0)
    z0 = 2.0 * np.floor(u / 2.0) + 1.0
    ok = ((k >= 0) & (y / 2.0 < x) & (x < 3.0 * y / 2.0)
          & (np.abs(u) < c3 * (1.0 + t)) & (np.abs(u - z0) <= 1.0 + t))
    axes = np.arange(xs.shape[1])
    for slots in itertools.product(range(3), repeat=xs.shape[1]):
        idx = np.nonzero(ok[:, axes, slots].all(axis=1) & ~out[rows])[0]
        if idx.size:
            out[rows[idx]] = f.is_key(k[idx[:, None], axes, slots], z0[idx[:, None], axes, slots])
    return out

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

import math
from dataclasses import dataclass

import numpy as np

from .core import NotHolomorphic, tolerance


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
        s = 3.0 / self.c3
        M = self.data.abs_degree
        affine = 3.0 * max(self.y) / (2.0 * self.c3)
        center_last = abs(float(self.center_value()[-1]))
        graph = center_last * (math.exp(M * s / (1.0 - s)) - 1.0)
        return max(affine, graph)


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


def cover_unit_cube_scales(eps: float, m: int) -> list:
    """Product grid of box centers covering (eps, 1)^m; count = (K+1)^m."""
    if m < 1:
        raise ValueError("dimension must be positive")
    axis = axis_scale_centers(eps)
    centers = [()]
    for _ in range(m):
        centers = [c + (y,) for c in centers for y in axis]
    return centers


def box_min_ratio(mu) -> float:
    """min over the closed dyadic box of x^mu / y^mu = prod min((1/2)^mu_i, (3/2)^mu_i)."""
    r = 1.0
    for mi in mu:
        r *= min(0.5 ** mi, 1.5 ** mi)
    return r


def choose_C3(mu, value_bound: float) -> float:
    """Minimal integer C3 >= 4 whose certified deviation bound is at most 1.

    The certificate is V(C3) = A (exp(M s / (1 - s)) - 1) with s = 3 / C3 and
    M = sum |mu_i|; it dominates the true boundary supremum whenever the chart
    center's last coordinate is at most A.  The affine-coordinate variation
    3 / (2 C3) <= 1 holds automatically for C3 >= 4.
    """
    A = float(value_bound)
    if not A >= 1.0:
        raise ValueError("value_bound must be >= 1")
    M = float(sum(abs(float(mi)) for mi in mu))
    c3 = 4
    while True:
        s = 3.0 / c3
        if A * (math.exp(M * s / (1.0 - s)) - 1.0) <= 1.0 and 3.0 / (2 * c3) <= 1.0:
            return float(c3)
        c3 += 1


def offset_grid(c3: float) -> list:
    """Odd-integer centers of the unit boxes tiling (-C3, C3)."""
    half = math.ceil(c3 / 2.0)
    return [float(z) for z in range(-2 * half + 1, 2 * half, 2)]


def cover_monomial_graph(data: MonomialData, eps: float) -> list:
    """Charts covering the graph of a * x^mu over {x in (eps,1)^m : a x^mu < 1}.

    A dyadic box is kept iff it meets the domain (its closed-box minimum of
    a x^mu is below 1); keeping boxes by intersection rather than by their
    center value is what makes the union of chart images catch every graph
    point.  Center values over kept boxes stay below 3^M, which sizes C3.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    mu = data.exponents
    M = data.abs_degree
    c3 = choose_C3(mu, 3.0 ** M)
    offsets = offset_grid(c3)
    rmin = box_min_ratio(mu)
    charts = []
    for y in cover_unit_cube_scales(eps, data.m):
        if data.value(np.asarray(y)) * rmin >= 1.0:
            continue
        grids = [()]
        for _ in range(data.m):
            grids = [g + (z,) for g in grids for z in offsets]
        for z0 in grids:
            charts.append(RealAChart(y=y, z0=z0, c3=c3, data=data))
    return charts


def graph_count_bound(data: MonomialData, eps: float) -> float:
    """Recorded construction bound C(mu) * max(1, log(1/eps))^m on the chart count."""
    c3 = choose_C3(data.exponents, 3.0 ** data.abs_degree)
    per_axis = (2 * math.ceil(c3 / 2.0)) * (1.0 / math.log(2.0) + 2.0)
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
    axes = np.meshgrid(*([3.0 * np.exp(1j * angles)] * m), indexing="ij")
    boundary = np.stack([ax.ravel() for ax in axes], axis=-1)
    rng = np.random.default_rng(seed)
    radii = 3.0 * np.sqrt(rng.random((interior, m)))
    thetas = 2.0 * math.pi * rng.random((interior, m))
    return np.concatenate([boundary, radii * np.exp(1j * thetas)], axis=0)


def verify_achart_batch(charts: list, grid: int = 16, interior: int = 1000,
                        seed: int = 0) -> np.ndarray:
    """Max-coordinate deviations of every chart of one atlas (the points and
    values of `verify_achart`), factored by dyadic box and offset tuple.

    With u_i = 1 + (z0_i + z_i) / (2 C3), Re u_i > 0 and y_i > 0, the last
    coordinate is a y^mu prod u_i^mu_i: its deviation is a y^mu D(z0) with
    D(z0) = max_z |prod u^mu(z) - prod u^mu(0)|, and the affine deviation
    max_z max_i y_i |z_i| / (2 C3) depends on y alone.
    """
    if not charts:
        return np.zeros(0)
    data, c3 = charts[0].data, charts[0].c3
    if any(c.data != data or c.c3 != c3 for c in charts):
        raise ValueError("charts of one batch must share their monomial data and C3")
    mu = np.asarray(data.exponents)
    z = np.vstack([scan_points(data.m, grid, interior, seed), np.zeros(data.m)])  # center last
    boxes, box_of = np.unique([c.y for c in charts], axis=0, return_inverse=True)
    tuples, tuple_of = np.unique([c.z0 for c in charts], axis=0, return_inverse=True)
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
    affine = (boxes * np.abs(z).max(axis=0)).max(axis=1) / (2.0 * c3)
    graph = data.coefficient * np.prod(boxes ** mu, axis=1)
    dev = np.maximum(affine[box_of], graph[box_of] * spread[tuple_of])
    if not np.isfinite(dev).all():
        raise NotHolomorphic("extension evaluation produced non-finite values")
    return dev


# ---------------------------------------------------------------------------
# graph coverage (membership of real graph points in the chart union)
# ---------------------------------------------------------------------------

def graph_membership(charts: list, xs: np.ndarray,
                     tol: float | None = None) -> np.ndarray:
    """Which real points (x, a x^mu) lie in some chart's real image.

    Membership solves the affine part for w, checks w in [-1, 1]^m, and the
    last coordinate then agrees identically because the chart's last
    coordinate is the same monomial of the first m coordinates.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    out = np.zeros(xs.shape[0], dtype=bool)
    if not charts:
        return out
    t = tolerance(tol)
    keys = {}
    for ch in charts:
        k = tuple(round(math.log2((2.0 / 3.0) / yi)) for yi in ch.y)
        keys[(k, ch.z0)] = ch
    c3 = charts[0].c3
    for i, x in enumerate(xs):
        if out[i]:
            continue
        for kbox in _axis_box_candidates(x):
            y = np.asarray([(2.0 / 3.0) * 2.0 ** -k for k in kbox])
            u = 2.0 * c3 * (x / y - 1.0)
            if np.any(np.abs(u) >= c3 * (1.0 + t)):
                continue
            z0 = tuple(2.0 * np.floor(u / 2.0) + 1.0)
            w = u - np.asarray(z0)
            if (kbox, z0) in keys and np.all(np.abs(w) <= 1.0 + t):
                out[i] = True
                break
    return out


def _axis_box_candidates(x: np.ndarray):
    """Product of the (at most two) dyadic scales whose interval contains x_i."""
    per_axis = []
    for xi in x:
        ks = []
        base = math.floor(math.log2((2.0 / 3.0) / xi))
        for k in (base - 1, base, base + 1):
            if k >= 0:
                y = (2.0 / 3.0) * 2.0 ** -k
                if y / 2.0 < xi < 3.0 * y / 2.0:
                    ks.append(k)
        per_axis.append(ks)
    combos = [()]
    for ks in per_axis:
        combos = [c + (k,) for c in combos for k in ks]
    return combos

"""Covering-level certification, coverage sampling, chains, and scaling fits.

Sample regions state the ``ambient`` they lie in, an ambient of `core` whose
equality says when two are the same, and implement ``rows(n_samples, seed)``,
their seeded sample set as `sample_rows` gives it, and ``grid(n_samples)``,
the per-axis factors of the product grid its first rows are, or () for a set
with none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .core import (
    AtlasError,
    Covering,
    DimensionMismatch,
    Disconnected,
    InsufficientPoints,
    MonomialLevelSet,
    NoContainingChart,
    PolydiscComplement,
    PuncturedPlane,
    RegionMismatch,
    UnknownBound,
    UnsupportedAmbient,
    _product_rows,
    _witness_rows,
    check_budget,
    check_dimension,
    check_integer,
    check_positive,
    tolerance,
)
from .levelset import _branch_rows, direct_branch_values, level_eta
from .polydisc import polydisc_bound, polydisc_plan
from .suspension import covers_points

# ---------------------------------------------------------------------------
# sample regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnnulusRegion:
    """{delta <= |z| <= 1} in the punctured plane; empty if delta >= 1."""

    delta: float
    ambient = PuncturedPlane()

    def __post_init__(self):
        check_positive("delta", self.delta)

    def grid(self, n_samples: int) -> tuple:
        return PolydiscRegion(eta=self.delta, n=1).grid(n_samples)

    def rows(self, n_samples: int, seed: int) -> tuple:
        return PolydiscRegion(eta=self.delta, n=1).rows(n_samples, seed)


@dataclass(frozen=True)
class PolydiscRegion:
    """{eta <= |x_i| <= 1 on active axes, |x_i| <= 1 elsewhere} in C^n; empty if eta >= 1."""

    eta: float
    n: int
    active_axes: frozenset | None = None

    def __post_init__(self):
        check_positive("eta", self.eta)
        check_dimension(self.n, "the region's dimension n")
        self.ambient                    # a bad active axis is refused here, not when sampled

    @property
    def ambient(self) -> PolydiscComplement:
        """The complement of the active axes' hyperplanes: every axis's when none is given."""
        return PolydiscComplement(
            self.n, range(1, self.n + 1) if self.active_axes is None else self.active_axes)

    def grid(self, n_samples: int) -> tuple:
        """Grid rows [0, g) of `rows` as factors: per axis, `_axis_grid`'s radii (log-spaced
        on active axes) and turns, whose S = side^2 points make the C-order product, row r
        holding point (r // S^(n-1-i)) % S on axis i; () if empty or no sample is asked for."""
        if self.eta >= 1.0 or not n_samples:
            return ()
        side, axes = _grid_side(n_samples, self.n), self.ambient.active_axes
        return tuple(_axis_grid(self.eta, side, True) if i + 1 in axes
                     else _axis_grid(0.0, side, False) for i in range(self.n))

    def rows(self, n_samples: int, seed: int) -> tuple:
        """The `grid`, written slab by slab (`_slabs`), then ``n_samples // 2``
        random rows, drawn from a PCG64 seeded with ``seed``.  Random row r
        of axis i takes its radius from draw 2i count + r and its angle from
        draw (2i+1) count + r: the order in which ``count`` draws a column were
        taken from one generator.  A range sets the seeded state and advances
        it to its first draw (one 64-bit output per double), so it costs its
        own rows only.  Each range has a PCG64 of its own, so ranges may be
        drawn on several threads at once."""
        n, eta, axes = self.n, self.eta, self.ambient.active_axes
        if eta >= 1.0:
            return _no_rows(n)
        _sample_budget(n_samples, n)
        grid, count = self.grid(n_samples), n_samples // 2
        g = _grid_rows(grid)

        def rows(lo, hi):
            bits = np.random.PCG64(seed)
            start, gen = bits.state, np.random.Generator(bits)

            def uniform(first, out):    # draws [first, first + out.size) of the seeded stream
                bits.state = start
                bits.advance(first)
                gen.random(out=out)

            out = np.empty((hi - lo, n), dtype=complex)
            m = max(min(hi, g) - lo, 0)                 # the grid rows of the range
            for a, b, slab in _slabs(grid, lo, lo + m, m):
                _product_rows(_slab_points(grid, slab), out[a - lo:b - lo])
            first, size = max(lo - g, 0), hi - lo - m
            # one set of scratch arrays for every axis: fewer heap blocks for the
            # allocator to hand back to the system, and fault in again, per range
            u, angles, turn = np.empty(size), np.empty(size), np.empty(size, dtype=complex)
            for i in range(n if size else 0):   # radii log-uniform in [eta, 1], or area-uniform
                uniform(2 * i * count + first, u)
                radii = np.power(eta, u, out=u) if i + 1 in axes else np.sqrt(u, out=u)
                uniform((2 * i + 1) * count + first, angles)
                angles *= 2.0 * math.pi
                np.exp(np.multiply(1j, angles, out=turn), out=turn)
                np.multiply(radii, turn, out=out[m:, i])
            return out
        return g + count, rows


@dataclass(frozen=True)
class LevelGraphRegion:
    """Graph points (g_k(xbar), xbar) of {x^alpha = c} over the base polydisc."""

    alpha: tuple
    c: complex

    @property
    def ambient(self) -> MonomialLevelSet:
        return MonomialLevelSet(self.alpha, self.c)

    def grid(self, n_samples: int) -> tuple:
        """(): the graph points are no product of axis grids."""
        return ()

    def rows(self, n_samples: int, seed: int) -> tuple:
        """Branch-major: row k N_b + b is the k-th root over base polydisc row b."""
        alpha, c = tuple(self.alpha), self.c
        eta, nb = level_eta(alpha, c)[1], len(alpha) - 1
        base_target = max(1, n_samples // alpha[0]) if n_samples else 0
        _sample_budget(base_target, nb, alpha[0], len(alpha))
        n_base, base = PolydiscRegion(eta=eta, n=nb).rows(base_target, seed)
        if n_base == 0:
            return _no_rows(len(alpha))

        def rows(lo, hi):
            out = np.empty((hi - lo, len(alpha)), dtype=complex)
            for k in range(lo // n_base, -(-hi // n_base)):     # the branches the range meets
                a, b = max(lo - k * n_base, 0), min(hi - k * n_base, n_base)
                pts = base(a, b)                                # and root k over them
                seg = out[k * n_base + a - lo:k * n_base + b - lo]
                seg[:, :1], seg[:, 1:] = direct_branch_values(alpha, c, pts, slice(k, k + 1)), pts
            return out
        return alpha[0] * n_base, rows


@lru_cache(maxsize=16)
def _axis_grid(lo: float, side: int, log_spaced: bool) -> tuple:
    """(radii, turns): ``side`` radii in [lo, 1] and the ``side`` unit turns exp(2 pi i k
    / side), an axis's side^2 grid points as factors; read-only, as checks share them."""
    radii = lo ** np.linspace(1.0, 0.0, side) if log_spaced else np.linspace(lo, 1.0, side)
    turns = np.exp(1j * (2.0 * math.pi * np.arange(side) / side))
    radii.flags.writeable = turns.flags.writeable = False
    return radii, turns


def _grid_rows(grid) -> int:
    """The rows of the product of the axis grids of `PolydiscRegion.grid`: 0 for none."""
    return math.prod(r.size * t.size for r, t in grid) if grid else 0


def _slab_points(grid, slab) -> list:
    """Per axis, points [a, b) of its grid for the slab's index range (a, b) (`_slabs`):
    point p is radii[p // side] turns[p % side], from the radii the range meets only."""
    out = []
    for (radii, turns), (a, b) in zip(grid, slab):
        first = a // turns.size
        points = (radii[first:-(-b // turns.size), None] * turns).ravel()
        out.append(points[a - first * turns.size:b - first * turns.size])
    return out


def _slabs(grid, lo: int, hi: int, block: int):
    """Rows [lo, hi) of the product of the axis grids in row order, as (first row,
    end row, slab) of at most ``block`` rows: a slab is an index range (a, b) per
    axis, one index on a prefix of axes, a range on the coarsest axis its first
    row starts that fits, then every index of the later axes."""
    sizes = [r.size * t.size for r, t in grid]
    strides = [math.prod(sizes[k + 1:]) for k in range(len(sizes))]
    r = lo
    while r < hi:
        room = min(block, hi - r)
        k = next(k for k, st in enumerate(strides) if st <= room and r % st == 0)
        idx = [r // st % size for st, size in zip(strides[:k + 1], sizes)]
        c = min(room // strides[k], sizes[k] - idx[k])
        yield r, r + c * strides[k], (*((i, i + 1) for i in idx[:k]), (idx[k], idx[k] + c),
                                      *((0, size) for size in sizes[k + 1:]))
        r += c * strides[k]


def _grid_side(n_samples: int, n: int) -> int:
    """Points per axis of the grid whose side^(2n) points hold at least its
    share, ``n_samples - n_samples // 2``, of an n-dim polydisc sample set;
    0 when no samples are asked for."""
    return max(2, math.ceil((n_samples - n_samples // 2) ** (1.0 / (2 * n)))) if n_samples else 0


def _sample_budget(n_samples: int, n: int, copies: int = 1, dim: int | None = None) -> None:
    """Raise `AtlasError` if ``copies`` times the rows of an n-dim polydisc
    sample set (the grid's and ``n_samples // 2`` random ones), at ``dim``
    entries a row (default n), pass the budget (`check_budget`): a bound on the work
    of drawing them, as `check_coverage` holds at most 2 `POINT_BLOCK` rows at a time."""
    rows, dim = copies * (_grid_side(n_samples, n) ** (2 * n) + n_samples // 2), dim or n
    check_budget(rows * dim, f"{rows} samples x {dim} dims")


def _no_rows(dim: int) -> tuple:
    """`sample_rows` of an empty sample set of ``dim`` columns."""
    return 0, lambda lo, hi: np.zeros((0, dim), dtype=complex)


def sample_rows(region, n_samples: int, seed: int) -> tuple:
    """(N, rows): the number of rows of the region's sample set and
    ``rows(lo, hi)``, which draws rows [lo, hi) of it into a fresh C-contiguous
    array, the same bits whatever the range: the region's own ``rows``.  A set of
    entries (rows x dim) over the budget (`check_budget`) raises `AtlasError`,
    a count or seed that is not an integer >= 0 `ValueError`, both before any
    row is drawn, and an object with no ``rows`` `RegionMismatch`; a count of
    0 has none."""
    for name, value in (("the sample count", n_samples), ("the seed", seed)):
        check_integer(name, value)
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    rows = getattr(region, "rows", None)
    if rows is None:
        raise RegionMismatch(f"unknown region {region!r}")
    return rows(n_samples, seed)


def region_samples(region, n_samples: int, seed: int) -> np.ndarray:
    """Every row of `sample_rows`, in one array: a deterministic grid plus
    seeded random points, about half and half; a count of 0 draws none."""
    total, rows = sample_rows(region, n_samples, seed)
    return rows(0, total)


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverageReport:
    samples_total: int
    samples_covered: int
    uncovered: tuple = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return self.samples_covered == self.samples_total

    @property
    def rate(self) -> float:
        if self.samples_total == 0:
            return 1.0
        return self.samples_covered / self.samples_total


POINT_BLOCK = 1 << 14           # rows of one range of a pooled check: two in flight hold 2^15


def check_coverage(cov: Covering, region, n_samples: int = 10000,
                   seed: int = 0, tol: float | None = None) -> CoverageReport:
    """Sample the region deterministically and test unit-scale membership.
    The region's ``ambient`` must equal the covering's, else `RegionMismatch`
    is raised before any sample is drawn.

    The grid half of a polydisc or annulus set (`PolydiscRegion.grid`) is cut
    into slabs of at most `POINT_BLOCK` rows (`_slabs`), whose anchor pass
    (`ChartFamily._grid_hits`) takes each anchor and layer split once per axis
    point; the rows it leaves open, rebuilt from their axis indices, go through
    one `covers_points` call.  A level-set region (no grid) has no slab, and a
    chart list (no anchor) leaves every slab row open.  The random rows are
    split into ranges of `POINT_BLOCK` rows (`sample_rows`), each decided in
    one `covers_points` call.  The calling thread decides every part, the
    slabs first.  A set of at most 2 `POINT_BLOCK` samples, or one with no
    random row, draws its ranges on the calling thread too.  A larger one
    runs as a pipeline: a pool thread, made for this call, draws range 0
    while the slabs are decided, and then range i+1 while range i is, so at
    most 2 `POINT_BLOCK` rows are held at once and the draw's GIL-free
    `np.exp` overlaps the decisions.  The parts' counts and first 100
    uncovered samples fold in row order: one call's report over every
    sample, whatever the threads.  An error in a draw or a decision, or from
    a signal handler while this call waits, is raised once no later range is
    queued and the pool thread has ended.  An empty region passes.
    """
    if getattr(region, "ambient", None) != cov.ambient:
        raise RegionMismatch(f"region {region!r} does not fit ambient {cov.ambient!r}")
    total, rows = sample_rows(region, n_samples, seed)
    if total == 0:
        return CoverageReport(samples_total=0, samples_covered=0)
    t, fam, grid = tolerance(tol), cov.charts, region.grid(n_samples)
    g, one = _grid_rows(grid), np.ones(1)
    len(fam)                        # a family too large to index is refused, as `covers` does

    def decide(pts, covered=0):     # (covered, first 100 uncovered) of drawn rows pts
        got = covers_points(fam, pts, 1.0, tol=t)
        return covered + int(np.count_nonzero(got)), pts[np.flatnonzero(~got)[:100]]

    def decide_slab(slab):          # the anchor pass, then `decide` on the rows it left open
        axes = _slab_points(grid, slab)
        left = np.flatnonzero(~fam._grid_hits(axes, one, t)[0])
        covered = math.prod(x.size for x in axes) - left.size
        if not left.size:
            return covered, ()
        left = np.unravel_index(left, [x.size for x in axes])
        return decide(np.stack([x[i] for x, i in zip(axes, left)], axis=1), covered)

    slabs = (slab for _, _, slab in _slabs(grid, 0, g, POINT_BLOCK))
    spans = [(lo, min(lo + POINT_BLOCK, total)) for lo in range(g, total, POINT_BLOCK)]
    if total <= 2 * POINT_BLOCK or not spans:
        return _fold(total, [*map(decide_slab, slabs), *(decide(rows(*span)) for span in spans)])
    from concurrent.futures import ThreadPoolExecutor        # about 5 ms to import
    pool = ThreadPoolExecutor(1)
    try:
        ahead = pool.submit(rows, *spans[0])
        parts = list(map(decide_slab, slabs))
        for span in spans[1:] + [None]:
            drawn = ahead.result()
            ahead = span and pool.submit(rows, *span)
            parts.append(decide(drawn))
        return _fold(total, parts)
    finally:
        pool.shutdown(cancel_futures=True)


def _fold(total: int, parts) -> CoverageReport:
    """The report of ``total`` samples from its ranges' (covered, uncovered) parts, in row order."""
    covered, uncovered = 0, []
    for n, miss in parts:
        covered += n
        uncovered.extend(map(tuple, miss[:100 - len(uncovered)]))
    return CoverageReport(samples_total=total, samples_covered=covered,
                          uncovered=tuple(uncovered))


# ---------------------------------------------------------------------------
# doubling certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DoublingReport:
    """Per-chart avoidance flags kept as factors: their C-order outer product
    flags every chart in index order.  A layered covering has one factor per
    level, outermost first, so level 1 is the last factor; `level_failures`
    counts the failing flags of each level."""

    factors: tuple

    def __eq__(self, other):
        return (isinstance(other, DoublingReport) and len(self.factors) == len(other.factors)
                and all(map(np.array_equal, self.factors, other.factors)))

    @property
    def n_charts(self) -> int:
        return math.prod(f.size for f in self.factors)

    @property
    def n_passed(self) -> int:
        return math.prod(int(f.sum()) for f in self.factors)

    @property
    def passed(self) -> bool:
        return self.n_passed == self.n_charts

    @property
    def level_failures(self) -> dict:
        m = len(self.factors)
        return {m - k: int(f.size - f.sum()) for k, f in enumerate(self.factors)}

    @property
    def failures(self) -> tuple:
        """The first 100 failing flat chart indices, in increasing order."""
        fs, out = self.factors, []

        def walk(k, offset):            # the block of fs[k:] at offset holds a failure
            size = math.prod(f.size for f in fs[k + 1:])
            rest_ok = all(f.all() for f in fs[k + 1:])
            for i in np.nonzero(~fs[k])[0] if rest_ok else range(fs[k].size):
                start = offset + int(i) * size
                if fs[k][i]:
                    walk(k + 1, start)
                else:
                    out.extend(range(start, start + min(size, 100 - len(out))))
                if len(out) >= 100:
                    return

        if not self.passed:
            walk(0, 0)
        return tuple(out)

    @property
    def per_chart(self) -> np.ndarray:
        """The flag of every chart, materialized (within `check_budget`)."""
        check_budget(self.n_charts, "per-chart flags")
        return reduce(np.logical_and.outer, self.factors).ravel()


def certify_doubling(cov: Covering, tol: float | None = None) -> DoublingReport:
    """Per-chart avoidance certificates at the full factor gamma, decided by
    the family per level (`ChartFamily.doubling_factors`) on the ambient's
    `punctured_axes`: the exact disk-separation test, and for level-branch
    charts the residual bound too."""
    return DoublingReport(cov.charts.doubling_factors(
        cov.ambient.punctured_axes, cov.gamma, tol=tolerance(tol)))


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chain:
    """Chart indices joining two points; consecutive images share a witness."""

    chart_indices: tuple
    witnesses: tuple

    @property
    def length(self) -> int:
        return len(self.chart_indices)


def intersection_witness(c1, c2, tol: float | None = None):
    """A point in both unit-scale images, or None if they do not meet: one row
    of `_witness_rows` (level-branch charts: of their bases, then `_branch_rows`).
    Charts of two dims raise `DimensionMismatch`, of two kinds or level sets
    `UnsupportedAmbient`."""
    if c1.dim != c2.dim:
        raise DimensionMismatch(f"charts of dim {c1.dim} and {c2.dim}")
    t, level = tolerance(tol), hasattr(c1, "base")
    if type(c1) is not type(c2) or level and (c1.alpha, c1.c) != (c2.alpha, c2.c):
        raise UnsupportedAmbient("a witness needs two charts of one kind and one level set")
    a, b = (c1.base, c2.base) if level else (c1, c2)
    rows = [np.array([x], dtype=complex) for x in (a.b, a.d, b.b, b.d)]
    ok, w = _witness_rows(*rows, t)
    if level and ok[0]:
        ok, w = _branch_rows(c1.alpha, c1.c, rows, ([c1.branch], [c2.branch]), w, t)
    return tuple(w[0].tolist()) if ok[0] else None


PAIR_BLOCK = 1 << 16            # most chart pairs one `_witness_rows` call decides
LAYER_PAIR_BUDGET = 1 << 24     # most chart pairs one BFS layer of `chain_between` gathers


def chain_between(cov: Covering, p, q, seed: int = 0,
                  tol: float | None = None) -> Chain:
    """Shortest witnessed chain of charts joining p to q (BFS, deterministic).

    One `ChartFamily.locate` call finds the charts that contain p and q.
    The BFS runs a layer at a time.  A layer's pairs (i, j) are its charts i
    in queue order, each with its neighbours j in index order, less the charts
    already reached: one `ChartFamily._neighbors` call counts and lists them.
    Their (b, d) rows are gathered without building a chart (`ChartFamily.arrays_at`) and one batched exact
    test decides them all (`ChartFamily._pair_witnesses`, in blocks of `PAIR_BLOCK`).  A
    chart's parent is its first pair that meets, and the chain ends at the
    first goal chart so reached: the chain and witnesses of a FIFO BFS that
    tests one pair at a time.  A layer whose neighbour lists hold more than
    `LAYER_PAIR_BUDGET` pairs raises `AtlasError` from their counts, before
    any list exists.
    ``seed`` is kept for compatibility; the witnesses are exact and do not use it.
    """
    t = tolerance(tol)
    fam, p, q, n = cov.charts, np.ravel(p), np.ravel(q), cov.dim     # one point each, as `contains` reads it
    if not p.size == q.size == n:
        raise DimensionMismatch(f"endpoints of dim {p.size}, {q.size} for a covering of dim {n}")
    end, charts = fam.locate(np.array([p, q], dtype=complex), 1.0, tol=t)
    starts, goals = charts[end == 0], charts[end == 1]
    if not starts.size or not goals.size:
        raise NoContainingChart("an endpoint lies in no chart of the covering")
    common = np.intersect1d(starts, goals)
    if common.size:
        return Chain(chart_indices=(int(common[0]),), witnesses=())
    parent = dict.fromkeys(starts.tolist())     # chart -> (parent chart, witness)
    layer = seen = starts                       # charts reached, in order
    found = None
    while layer.size and found is None:
        counts, lists = fam._neighbors(layer, 1.0)
        # each count capped past the budget: the sum cannot overflow, and is exact within it
        if (n_pairs := int(np.minimum(counts, LAYER_PAIR_BUDGET + 1).sum())) > LAYER_PAIR_BUDGET:
            raise AtlasError(f"a BFS layer of {layer.size} charts has at least {n_pairs} "
                             f"neighbour pairs, over the budget of {LAYER_PAIR_BUDGET}")
        pi, pj = np.repeat(layer, counts), lists()
        n_seen = seen.size
        for lo in range(0, pj.size, PAIR_BLOCK):
            i, j = pi[lo:lo + PAIR_BLOCK], pj[lo:lo + PAIR_BLOCK]
            keep = ~np.isin(j, seen)
            i, j = i[keep], j[keep]
            ok, w = fam._pair_witnesses(i, j, t)
            r = np.nonzero(ok)[0]
            r = r[np.sort(np.unique(j[r], return_index=True)[1])]   # each chart's first
            hit = np.nonzero(np.isin(j[r], goals))[0]
            if hit.size:
                r, found = r[:hit[0] + 1], int(j[r[hit[0]]])
            parent.update(zip(j[r].tolist(), zip(i[r].tolist(), w[r].tolist())))
            seen = np.concatenate([seen, j[r]])
            if found is not None:
                break
        layer = seen[n_seen:]
    if found is None:
        raise Disconnected("no chain joins the two points in this covering")
    path = [found]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]][0])
    path.reverse()
    return Chain(chart_indices=tuple(path),
                 witnesses=tuple(tuple(parent[j][1]) for j in path[1:]))


# ---------------------------------------------------------------------------
# reference bounds and scaling experiments
# ---------------------------------------------------------------------------

def named_bound(formula: str, params: dict) -> float:
    """Evaluate a named reference bound at the given parameters."""
    if formula == "polydisc":
        return polydisc_bound(int(params["n"]), float(params["gamma"]),
                              float(params["eta"]))
    if formula == "whitney_disks":
        zeta, delta = float(params["zeta"]), float(params["delta"])
        return 3.0 * zeta * math.log(3.0 * zeta / delta)
    if formula == "level_set":
        return float(params["alpha1"]) * polydisc_bound(
            int(params["n"]) - 1, float(params["gamma"]), float(params["eta"]))
    if formula == "complement":
        c1, delta = float(params["c1"]), float(params["delta"])
        check_positive("delta", delta)
        if not c1 / delta > 0.0:
            raise ValueError(f"c1/delta must be positive, got {c1 / delta}")
        return float(params["C1"]) * math.log(c1 / delta) ** int(params["n"])
    raise UnknownBound(f"no reference bound named {formula!r}")


@dataclass(frozen=True)
class ScalingRow:
    param: float
    kappa: int
    paper_bound: float
    log_inv_param: float

    @property
    def ratio(self) -> float:
        return 0.0 if self.kappa == 0 else self.kappa / self.paper_bound


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r2: float


def linear_fit(x, y) -> FitResult:
    """Least-squares line with R^2; constant data counts as a perfect fit."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise InsufficientPoints("need at least two points to fit a line")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    ss_res = float((resid ** 2).sum())
    # essentially-constant data: the line fits perfectly up to float noise
    noise = 1e-24 * max(float((y * y).sum()), 1.0)
    if ss_tot <= noise:
        r2 = 1.0 if ss_res <= noise else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return FitResult(slope=float(slope), intercept=float(intercept), r2=r2)


def fit_log_exponent(rows) -> FitResult:
    """Regress log kappa against log log(1/param): the exponent of the bound."""
    rows = [r for r in rows if r.kappa > 0]
    if len(rows) < 3:
        raise InsufficientPoints("need at least three nonempty rows")
    x = np.log([r.log_inv_param for r in rows])
    y = [math.log(r.kappa) for r in rows]         # kappa may pass 2^63
    return linear_fit(x, y)


def scaling_experiment(experiment: str, param_grid, fixed: dict | None = None):
    """Run a named construction over a descending parameter grid.

    Experiments: ``annulus`` (param delta, fixed zeta), ``polydisc`` (param
    eta, fixed n and gamma; count-only), ``levelset`` (param c real, fixed
    alpha and gamma), ``graph`` (param eps, fixed mu and coeff).
    """
    fixed = dict(fixed or {})
    grid = [float(p) for p in param_grid]
    if not all(map(math.isfinite, grid)):
        raise ValueError(f"the parameter grid must be finite, got {grid}")
    if len(grid) < 3:
        raise InsufficientPoints("the parameter grid needs at least 3 entries")
    if any(a <= b for a, b in zip(grid, grid[1:])):
        raise ValueError("the parameter grid must be sorted descending")
    rows = []
    for p in grid:
        if experiment == "annulus":
            from .annulus import cover_annulus
            zeta = float(fixed.get("zeta", 2.0))
            kappa = cover_annulus(p, zeta).kappa
            bound = named_bound("whitney_disks", {"zeta": zeta, "delta": p})
        elif experiment == "polydisc":
            n = int(fixed.get("n", 2))
            gamma = float(fixed.get("gamma", 2.0))
            kappa = polydisc_plan(n, p, gamma).kappa_final
            bound = named_bound("polydisc", {"n": n, "gamma": gamma, "eta": p})
        elif experiment == "levelset":
            alpha = tuple(int(a) for a in fixed.get("alpha", (2, 1)))
            gamma = float(fixed.get("gamma", 2.0))
            eta = level_eta(alpha, p)[1]
            kappa = alpha[0] * polydisc_plan(len(alpha) - 1, eta, gamma).kappa_final
            bound = named_bound("level_set", {"alpha1": alpha[0], "n": len(alpha),
                                              "gamma": gamma, "eta": eta})
        elif experiment == "graph":
            from .real_acharts import MonomialData, cover_monomial_graph, graph_count_bound
            mu = tuple(float(m) for m in fixed.get("mu", (1.0,)))
            data = MonomialData(coefficient=float(fixed.get("coeff", 1.0)), exponents=mu)
            kappa = len(cover_monomial_graph(data, p))
            bound = graph_count_bound(data, p)
        else:
            raise ValueError(f"unknown experiment {experiment!r}")
        rows.append(ScalingRow(param=p, kappa=int(kappa), paper_bound=float(bound),
                               log_inv_param=math.log(1.0 / p)))
    return rows

"""Covering-level certification, coverage sampling, chains, and scaling fits."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .core import (
    MATERIALIZE_BUDGET,
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
    _abs,
    _complex,
    _in_ball,
    _norm,
    _product_rows,
    _quot,
    _rowsum,
    active_axis_indices,
    tolerance,
)
from .levelset import LevelBranchCharts, level_base_plan, level_points
from .polydisc import polydisc_bound, polydisc_plan
from .suspension import covers_points

# ---------------------------------------------------------------------------
# sample regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnnulusRegion:
    """{delta <= |z| <= 1} in the punctured plane."""

    delta: float


@dataclass(frozen=True)
class PolydiscRegion:
    """{eta <= |x_i| <= 1 on active axes, |x_i| <= 1 elsewhere} in C^n."""

    eta: float
    n: int
    active_axes: frozenset | None = None

    def axes(self) -> frozenset:
        if self.active_axes is None:
            return frozenset(range(1, self.n + 1))
        return frozenset(self.active_axes)


@dataclass(frozen=True)
class LevelGraphRegion:
    """Graph points (g_k(xbar), xbar) of {x^alpha = c} over the base polydisc."""

    alpha: tuple
    c: complex


def _axis_grid(lo: float, side: int, log_spaced: bool) -> np.ndarray:
    """side^2 complex points: ``side`` radii in [lo, 1] times ``side`` angles."""
    if log_spaced:
        radii = lo ** np.linspace(1.0, 0.0, side)
    else:
        radii = np.linspace(lo, 1.0, side)
    angles = 2.0 * math.pi * np.arange(side) / side
    return (radii[:, None] * np.exp(1j * angles[None, :])).ravel()


def _polydisc_grid(eta: float, n: int, axes: frozenset, target: int) -> np.ndarray:
    side = max(2, math.ceil(target ** (1.0 / (2 * n))))
    return _product_rows([_axis_grid(eta, side, log_spaced=True) if i in axes
                          else _axis_grid(0.0, side, log_spaced=False) for i in range(1, n + 1)])


def _polydisc_random(eta: float, n: int, axes: frozenset, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    cols = []
    for i in range(1, n + 1):
        u = rng.random(count)
        if i in axes:
            radii = eta ** u                     # log-uniform in [eta, 1]
        else:
            radii = np.sqrt(u)                   # area-uniform in the disk
        angles = 2.0 * math.pi * rng.random(count)
        cols.append(radii * np.exp(1j * angles))
    return np.stack(cols, axis=-1)


def region_samples(region, n_samples: int, seed: int) -> np.ndarray:
    """Deterministic grid plus seeded random points, about half and half."""
    if isinstance(region, AnnulusRegion):
        return region_samples(PolydiscRegion(eta=region.delta, n=1), n_samples, seed)
    rng = np.random.default_rng(seed)
    n_grid = n_samples - n_samples // 2
    n_rand = n_samples // 2
    if isinstance(region, PolydiscRegion):
        if region.eta >= 1.0:
            return np.zeros((0, region.n), dtype=complex)
        axes = region.axes()
        grid = _polydisc_grid(region.eta, region.n, axes, n_grid)
        rand = _polydisc_random(region.eta, region.n, axes, n_rand, rng)
        return np.concatenate([grid, rand])
    if isinstance(region, LevelGraphRegion):
        from .levelset import direct_branch_values
        alpha = tuple(region.alpha)
        eta = level_base_plan(alpha, region.c).eta
        nb = len(alpha) - 1
        base_target = max(1, n_samples // alpha[0])
        base = region_samples(PolydiscRegion(eta=eta, n=nb), base_target, seed)
        if base.size == 0:
            return np.zeros((0, len(alpha)), dtype=complex)
        roots = direct_branch_values(alpha, region.c, base)  # (N, alpha_1)
        pts = [np.concatenate([roots[:, k:k + 1], base], axis=1)
               for k in range(alpha[0])]
        return np.concatenate(pts)
    raise RegionMismatch(f"unknown region {region!r}")


def _check_region(cov: Covering, region) -> None:
    amb = cov.ambient
    if isinstance(region, AnnulusRegion) and isinstance(amb, PuncturedPlane):
        return
    if isinstance(region, PolydiscRegion) and isinstance(amb, PolydiscComplement):
        if region.n == amb.n and region.axes() == frozenset(amb.active_axes):
            return
        raise RegionMismatch(
            f"region ({region.n}, {sorted(region.axes())}) does not match "
            f"ambient ({amb.n}, {sorted(amb.active_axes)})")
    if isinstance(region, LevelGraphRegion) and isinstance(amb, MonomialLevelSet):
        if tuple(region.alpha) == amb.alpha and complex(region.c) == amb.c:
            return
        raise RegionMismatch("level-set parameters do not match the ambient")
    raise RegionMismatch(
        f"region {type(region).__name__} does not fit ambient {type(amb).__name__}")


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


def check_coverage(cov: Covering, region, n_samples: int = 10000,
                   seed: int = 0, tol: float | None = None) -> CoverageReport:
    """Sample the region deterministically and test unit-scale membership.

    Points are located through the covering's structural index when present
    (rings, suspension layers, level branches) and a blocked scan otherwise.
    An empty region passes vacuously.
    """
    _check_region(cov, region)
    pts = region_samples(region, n_samples, seed)
    if pts.shape[0] == 0:
        return CoverageReport(samples_total=0, samples_covered=0)
    got = covers_points(cov.family, pts, 1.0, tol=tol)
    uncovered = tuple(tuple(p) for p in pts[~got][:100])
    return CoverageReport(samples_total=int(pts.shape[0]),
                          samples_covered=int(got.sum()),
                          uncovered=uncovered)


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
        """The flag of every chart, materialized (at most `MATERIALIZE_BUDGET`)."""
        if self.n_charts > MATERIALIZE_BUDGET:
            raise AtlasError(f"{self.n_charts} chart flags are too many to "
                             "materialize; read the report's factors")
        return reduce(np.logical_and.outer, self.factors).ravel()


def certify_doubling(cov: Covering, samples_per_chart: int = 0,
                     seed: int = 0, tol: float | None = None) -> DoublingReport:
    """Per-chart avoidance certificates at the full factor gamma.

    Affine charts get the exact per-axis disk-separation test on every
    punctured axis, once per level (`ChartFamily.doubling_factors`).
    Level-branch charts get the base chart's certificate on every base axis
    plus the residual |psi(x)^alpha - c| <= tol * |c| on the unit ball:
    decided by default by an a-priori rounding bound from per-level maxima,
    in O(sum N_l); with ``samples_per_chart > 0`` at that many seeded points
    per chart instead, the cross-check
    (`levelset.LevelBranchCharts.doubling_factors`).
    """
    return DoublingReport(cov.family.doubling_factors(
        active_axis_indices(cov.ambient), cov.gamma,
        samples_per_chart=samples_per_chart, seed=seed, tol=tolerance(tol)))


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


def _witness_rows(b1, d1, b2, d2, tol: float):
    """(ok, w): whether the unit images of charts (b1[r], d1[r]) and
    (b2[r], d2[r]) meet, and a point w[r] of both, for all rows r at once.

    Each test runs on the rows the last left open: the center segment, whose
    minimax point is where the preimage norms t n1 and (1-t) n2 cross
    (complete for disks); rejection where the projections miss on some axis;
    then `_bisect`.  Each step rounds as the one-pair formula in Python floats.
    """
    root = math.sqrt(1.0 + tol)
    n1, n2 = _norm((b2 - b1) / d1), _norm((b1 - b2) / d2)
    same = n1 + n2 == 0.0                   # coincident centers
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = same | (n1 * n2 / (n1 + n2) <= root)
        w = np.where(same[:, None], b1, b1 + (n2 / (n1 + n2))[:, None] * (b2 - b1))
    miss = (_abs(b1 - b2) > (_abs(d1) + _abs(d2)) * root).any(axis=1)
    r = np.nonzero(~ok & ~miss)[0]
    if r.size:
        ok[r], w[r] = _bisect(b1[r], d1[r], b2[r], d2[r], 1.0 + tol)
    return ok, w


def _bisect(b1, d1, b2, d2, bound: float):
    """The Lagrange stage.  The squared preimage norms f_c(p) = sum_i w_i
    |p_i - b_i|^2 (w = 1/|d|^2) are separable: s f1 + (1-s) f2 is least at the
    weighted mean p(s) of the centers, and the minimax point is p(s*) where
    f1 = f2, which bisection on the sign of f1 - f2 finds.  A value of
    s f1 + (1-s) f2 above ``bound`` = 1 + tol bounds the minimax from below:
    the images are disjoint and the row drops out.  The point must lie in both."""
    ok, live = np.ones(len(b1), dtype=bool), np.arange(len(b1))
    w1, w2 = 1.0 / _abs(d1, 2.0), 1.0 / _abs(d2, 2.0)
    lo, hi = np.zeros(len(b1)), np.ones(len(b1))

    def point(s):           # Python's float * complex is (x + 0j) * z, to the zeros' signs
        u, v = s[:, None] * w1, (1.0 - s)[:, None] * w2
        re = u * b1.real - 0.0 * b1.imag + (v * b2.real - 0.0 * b2.imag)
        im = u * b1.imag + 0.0 * b1.real + (v * b2.imag + 0.0 * b2.real)
        return _quot(_complex(re, im), _complex(u + v, 0.0))

    for _ in range(60):
        s = 0.5 * (lo + hi)
        p = point(s)
        f1, f2 = _rowsum(w1 * _abs(p - b1, 2.0)), _rowsum(w2 * _abs(p - b2, 2.0))
        out = s * f1 + (1.0 - s) * f2 > bound
        lo, hi = np.where(f1 > f2, s, lo), np.where(f1 > f2, hi, s)
        if out.any():
            ok[live[out]] = False
            live, lo, hi, b1, d1, b2, d2, w1, w2 = (
                x[~out] for x in (live, lo, hi, b1, d1, b2, d2, w1, w2))
            if not live.size:
                break
    p = point(0.5 * (lo + hi))
    ok[live] = _in_ball(p, b1, d1, bound) & _in_ball(p, b2, d2, bound)
    w = np.empty((len(ok), b1.shape[1]), dtype=complex)
    w[live] = p
    return ok, w


def _branch_rows(alpha, c, rows, branches, wb, tol: float):
    """(ok, w) for level-branch pairs whose base charts ``rows`` = (b1, d1, b2,
    d2) meet at ``wb``: the branch values g at wb agree by the rule of
    `LevelBranchCharts._inside`, and w = (g1, wb).  Two roots of one equation
    agree on all of the convex base overlap or nowhere: the test is exact."""
    g1, g2 = (level_points(b, d, alpha, c, (wb - b) / d,
                           range(alpha[0]))[np.arange(len(wb)), k, 0]
              for b, d, k in ((*rows[:2], branches[0]), (*rows[2:], branches[1])))
    ok = _abs(g1 - g2) <= tol ** 0.5 * np.maximum(1.0, _abs(g1))
    return ok, np.concatenate([g1[:, None], wb], axis=1)


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


def _pair_witnesses(fam, i, j, tol: float):
    """(ok, w) for the chart pairs (i[r], j[r]): one `_witness_rows` call on
    their gathered (b, d) rows, or for level-branch charts on their distinct
    base-chart pairs, then `_branch_rows` where those meet."""
    if not isinstance(fam, LevelBranchCharts):
        return _witness_rows(*fam.arrays_at(i), *fam.arrays_at(j), tol)
    base = fam.base_cov.family
    (ti, ki), (tj, kj) = np.divmod(i, fam.alpha1), np.divmod(j, fam.alpha1)
    pairs, inv = np.unique(np.stack([ti, tj], axis=1), axis=0, return_inverse=True)
    okb, wb = _witness_rows(*base.arrays_at(pairs[:, 0]), *base.arrays_at(pairs[:, 1]), tol)
    ok, w = okb[inv], np.empty((i.size, fam.dim), dtype=complex)
    r = np.nonzero(ok)[0]
    ok[r], w[r] = _branch_rows(fam.alpha, fam.c, (*base.arrays_at(ti[r]), *base.arrays_at(tj[r])),
                               (ki[r], kj[r]), wb[inv[r]], tol)
    return ok, w


PAIR_BLOCK = 1 << 16            # most chart pairs one `_witness_rows` call decides
LAYER_PAIR_BUDGET = 1 << 24     # most chart pairs one BFS layer of `chain_between` gathers


def chain_between(cov: Covering, p, q, seed: int = 0,
                  tol: float | None = None) -> Chain:
    """Shortest witnessed chain of charts joining p to q (BFS, deterministic).

    One `ChartFamily.locate` call finds the charts that contain p and q.
    The BFS runs a layer at a time.  A layer's pairs (i, j) are its charts i
    in queue order, each with its neighbours j (`ChartFamily.neighbors`) in index
    order, less the charts already reached.  Their (b, d) rows are gathered
    without building a chart (`ChartFamily.arrays_at`) and one batched exact
    test decides them all (`_pair_witnesses`, in blocks of `PAIR_BLOCK`).  A
    chart's parent is its first pair that meets, and the chain ends at the
    first goal chart so reached: the chain and witnesses of a FIFO BFS that
    tests one pair at a time.  A layer whose neighbour lists hold more than
    `LAYER_PAIR_BUDGET` pairs raises `AtlasError` as soon as they do.
    ``seed`` is kept for compatibility; the witnesses are exact and do not use it.
    """
    t = tolerance(tol)
    fam, p, q, n = cov.family, tuple(p), tuple(q), cov.dim
    if not len(p) == len(q) == n:
        raise DimensionMismatch(f"endpoints of dim {len(p)}, {len(q)} for a covering of dim {n}")
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
        nbrs, n_pairs = [], 0
        for i in layer.tolist():
            nbrs.append(fam.neighbors(i))
            if (n_pairs := n_pairs + nbrs[-1].size) > LAYER_PAIR_BUDGET:
                raise AtlasError(f"a BFS layer of {layer.size} charts has at least {n_pairs} "
                                 f"neighbour pairs, over the budget of {LAYER_PAIR_BUDGET}")
        pi, pj = np.repeat(layer, [a.size for a in nbrs]), np.concatenate(nbrs)
        n_seen = seen.size
        for lo in range(0, pj.size, PAIR_BLOCK):
            i, j = pi[lo:lo + PAIR_BLOCK], pj[lo:lo + PAIR_BLOCK]
            keep = ~np.isin(j, seen)
            i, j = i[keep], j[keep]
            ok, w = _pair_witnesses(fam, i, j, t)
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
# complexity reports and scaling experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexityReport:
    kappa: int
    bound: float
    ratio: float


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
        return float(params["C1"]) * math.log(
            float(params["c1"]) / float(params["delta"])) ** int(params["n"])
    raise UnknownBound(f"no reference bound named {formula!r}")


def complexity_report(cov: Covering, formula: str, **params) -> ComplexityReport:
    bound = named_bound(formula, params)
    kappa = cov.kappa
    ratio = 0.0 if kappa == 0 else kappa / bound
    return ComplexityReport(kappa=kappa, bound=bound, ratio=ratio)


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
    y = np.log([r.kappa for r in rows])
    return linear_fit(x, y)


def scaling_experiment(experiment: str, param_grid, fixed: dict | None = None):
    """Run a named construction over a descending parameter grid.

    Experiments: ``annulus`` (param delta, fixed zeta), ``polydisc`` (param
    eta, fixed n and gamma; count-only), ``levelset`` (param c real, fixed
    alpha and gamma), ``graph`` (param eps, fixed mu and coeff).
    """
    fixed = dict(fixed or {})
    grid = [float(p) for p in param_grid]
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
            plan = level_base_plan(alpha, p, gamma)
            kappa = alpha[0] * plan.kappa_final
            bound = named_bound("level_set", {"alpha1": alpha[0], "n": len(alpha),
                                              "gamma": gamma, "eta": plan.eta})
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

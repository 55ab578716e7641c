"""Covering-level certification, coverage sampling, chains, and scaling fits."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .core import (
    MATERIALIZE_BUDGET,
    AtlasError,
    Covering,
    DiagonalAffineChart,
    Disconnected,
    InsufficientPoints,
    MonomialLevelSet,
    NoContainingChart,
    PolydiscComplement,
    PuncturedPlane,
    RegionMismatch,
    UnknownBound,
    active_axis_indices,
    chart_contains,
    tolerance,
)
from .levelset import LevelBranchCharts, level_base_plan
from .polydisc import polydisc_bound, polydisc_plan
from .suspension import (
    chart_candidates,
    chart_neighbors,
    covers_points,
)

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


def _product_points(axis_arrays: list) -> np.ndarray:
    grids = np.meshgrid(*axis_arrays, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _polydisc_grid(eta: float, n: int, axes: frozenset, target: int) -> np.ndarray:
    side = max(2, math.ceil(target ** (1.0 / (2 * n))))
    axis_arrays = []
    for i in range(1, n + 1):
        if i in axes:
            axis_arrays.append(_axis_grid(eta, side, log_spaced=True))
        else:
            axis_arrays.append(_axis_grid(0.0, side, log_spaced=False))
    return _product_points(axis_arrays)


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


def certify_doubling(cov: Covering, samples_per_chart: int = 128,
                     seed: int = 0, tol: float | None = None) -> DoublingReport:
    """Per-chart avoidance certificates at the full factor gamma.

    Affine charts get the exact per-axis disk-separation test on every
    punctured axis, once per level (`ChartFamily.doubling_factors`).
    Level-branch charts get the base chart's certificate plus a sampled
    residual bound |psi(x)^alpha - c| <= tol * |c| at unit scale.
    """
    return DoublingReport(cov.family.doubling_factors(
        active_axis_indices(cov.ambient), cov.gamma,
        samples_per_chart=samples_per_chart, seed=seed, tol=tol))


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


def _segment_witness(c1: DiagonalAffineChart, c2: DiagonalAffineChart,
                     tol: float):
    """Deterministic witness on the center segment.

    Both preimage norms are linear along the segment (t * n1 and (1-t) * n2),
    so the minimax point is their crossing; for one-dimensional disks this
    test is complete.
    """
    b1 = np.asarray(c1.b)
    b2 = np.asarray(c2.b)
    n1 = float(np.linalg.norm((b2 - b1) / np.asarray(c1.d)))
    n2 = float(np.linalg.norm((b1 - b2) / np.asarray(c2.d)))
    if n1 + n2 == 0.0:
        return tuple(b1)
    tstar = n2 / (n1 + n2)
    if n1 * n2 / (n1 + n2) <= math.sqrt(1.0 + tol):
        p = b1 + tstar * (b2 - b1)
        return tuple(p)
    return None


def _lagrange_witness(c1: DiagonalAffineChart, c2: DiagonalAffineChart,
                      tol: float):
    """Exact witness for two diagonal charts, or None when the images miss.

    With w = 1/|d|^2 the squared preimage norms f_c(p) = sum_i w_i |p_i - b_i|^2
    are separable.  The minimizer of s f1 + (1-s) f2 is the per-axis weighted
    mean p(s), and by strong duality the minimax point of (f1, f2) is p(s*)
    where f1 = f2.  f1 - f2 falls along the path, so bisection on its sign
    finds s*.  Every value s f1 + (1-s) f2 at p(s) is a lower bound on the
    minimax, so one above 1 + tol proves the images disjoint.
    """
    bound = 1.0 + tol
    root = math.sqrt(bound)
    if any(abs(x - y) > (abs(u) + abs(v)) * root
           for x, y, u, v in zip(c1.b, c2.b, c1.d, c2.d)):
        return None                         # the projections miss on some axis
    w1 = [1.0 / abs(u) ** 2 for u in c1.d]
    w2 = [1.0 / abs(v) ** 2 for v in c2.d]

    def point(s):
        return tuple((s * u * x + (1.0 - s) * v * y) / (s * u + (1.0 - s) * v)
                     for x, y, u, v in zip(c1.b, c2.b, w1, w2))

    def norm2(p, b, w):
        return sum(wi * abs(pi - bi) ** 2 for pi, bi, wi in zip(p, b, w))

    lo, hi = 0.0, 1.0
    for _ in range(60):
        s = 0.5 * (lo + hi)
        p = point(s)
        f1, f2 = norm2(p, c1.b, w1), norm2(p, c2.b, w2)
        if s * f1 + (1.0 - s) * f2 > bound:
            return None
        if f1 > f2:
            lo = s
        else:
            hi = s
    p = point(0.5 * (lo + hi))
    if chart_contains(c1, p, 1.0, tol=tol) and chart_contains(c2, p, 1.0, tol=tol):
        return p
    return None


def intersection_witness(c1, c2, tol: float | None = None):
    """A point in both unit-scale images, or None if they do not meet.

    Diagonal affine charts get an exact test: the center segment first
    (complete for disks), then per-axis projections, then the Lagrange
    bisection of `_lagrange_witness`.  Level-branch charts intersect where
    their bases do and the branch values agree at the base witness; on the
    convex base overlap two roots of one equation agree everywhere or
    nowhere, so this test is exact as well.
    """
    t = tolerance(tol)
    if hasattr(c1, "base"):
        wb = intersection_witness(c1.base, c2.base, tol=t)
        return None if wb is None else _branch_witness(c1, c2, wb, t)
    w = _segment_witness(c1, c2, t)
    if w is not None:
        return w
    return _lagrange_witness(c1, c2, t)


def _branch_witness(c1, c2, wb, tol: float):
    """The witness of two level-branch charts over the base witness ``wb``."""
    g1 = complex(c1.first_coordinate(c1.base.preimage(wb)))
    g2 = complex(c2.first_coordinate(c2.base.preimage(wb)))
    if abs(g1 - g2) <= tol ** 0.5 * max(1.0, abs(g1)):
        return (g1,) + tuple(wb)
    return None


def _containing_charts(fam, p, tol: float) -> list:
    return sorted(i for i in set(chart_candidates(fam, p, 1.0, tol=tol))
                  if fam.contains(i, p, 1.0, tol=tol))


def chain_between(cov: Covering, p, q, seed: int = 0,
                  tol: float | None = None) -> Chain:
    """Shortest witnessed chain of charts joining p to q (BFS, deterministic).

    Edges of the chart intersection graph are confirmed by
    `intersection_witness`; neighbor candidates come from the covering's
    structural index (`chart_neighbors`), so the search visits the charts
    near the path rather than all of them.  Candidates are tried in index
    order, which gives the chain a full scan would give.  On level-branch
    charts the base witness is computed once per pair of base charts and
    shared by their up to alpha_1^2 branch pairs.  ``seed`` is kept for
    compatibility; the witnesses are exact and do not use it.
    """
    t = tolerance(tol)
    charts = cov.family
    starts = _containing_charts(charts, p, t)
    goals = set(_containing_charts(charts, q, t))
    if not starts or not goals:
        raise NoContainingChart("an endpoint lies in no chart of the covering")
    common = sorted(goals.intersection(starts))
    if common:
        return Chain(chart_indices=(common[0],), witnesses=())
    base_witness = {}

    def witness(i, ci, j):
        if not isinstance(charts, LevelBranchCharts):
            return intersection_witness(ci, charts[j], tol=t)
        key = (i // charts.alpha1, j // charts.alpha1)
        if key not in base_witness:
            base_witness[key] = intersection_witness(
                ci.base, charts.base_cov.charts[key[1]], tol=t)
        wb = base_witness[key]
        return None if wb is None else _branch_witness(ci, charts[j], wb, t)

    parent = {i: None for i in starts}
    edge_witness = {}
    frontier = deque(starts)
    found = None
    while frontier and found is None:
        i = frontier.popleft()
        ci = charts[i]
        for j in sorted(set(chart_neighbors(charts, i))):
            if j in parent:
                continue
            w = witness(i, ci, j)
            if w is None:
                continue
            parent[j] = i
            edge_witness[(i, j)] = w
            if j in goals:              # FIFO: the first goal a full BFS pops
                found = j
                break
            frontier.append(j)
    if found is None:
        raise Disconnected("no chain joins the two points in this covering")
    path = [found]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    witnesses = tuple(edge_witness[(a, b)] for a, b in zip(path, path[1:]))
    return Chain(chart_indices=tuple(path), witnesses=witnesses)


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

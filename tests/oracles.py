"""Independent brute-force oracles the tests check the library against.

Everything here recomputes membership, sampling, doubling certificates and
chain witnesses from the raw formulas, chart by chart (or pair by pair),
deliberately bypassing the library's structural point location, its
per-level factoring and its batched witness kernel.
"""

import math
from collections import deque

import numpy as np

from atlascover.annulus import RingDisks
from atlascover.core import (
    Disconnected,
    NoContainingChart,
    NotHolomorphic,
    chart_contains,
    tolerance,
)
from atlascover.levelset import LevelBranchCharts, MonomialLevelChart, level_residual
from atlascover.real_acharts import (
    RealAChart,
    _factors,
    axis_scale_centers,
    box_min_ratio,
    choose_C3,
    offset_grid,
    scan_points,
)
from atlascover.suspension import SuspendedCharts, chart_arrays
from atlascover.verify import Chain


def brute_covered(charts, pts, scale=1.0, tol=1e-10):
    """Membership by direct formula over every chart (no index)."""
    b, d = chart_arrays(charts)
    pts = np.atleast_2d(np.asarray(pts, dtype=complex))
    out = np.zeros(pts.shape[0], dtype=bool)
    for lo in range(0, b.shape[0], 1024):
        bb, dd = b[lo:lo + 1024], d[lo:lo + 1024]
        n2 = (np.abs((pts[:, None, :] - bb[None, :, :]) / dd[None, :, :]) ** 2).sum(axis=2)
        out |= (n2 <= scale * scale * (1.0 + tol)).any(axis=1)
    return out


def ring_passes_full(rings, pts, scale, done):
    """`RingDisks.passes` by one mask over all N points per ring offset, the
    points in range, finite and not done: the pairs and order the live index
    must reproduce.  The anchors are the family's own (`RingDisks._anchors`);
    that every window they centre is sound is checked against
    `containing_pairs`."""
    if len(rings) == 0:
        return
    z, finite = pts[:, 0], np.isfinite(pts[:, 0])
    k0, j0 = (x.astype(int) for x in rings._anchors(z))
    reach = rings._reach(float(scale.max(initial=0.0)))
    if reach is None:
        k0[:] = 0
        ring_offsets, angle_offsets = range(rings.n_rings), range(rings.n_angles)
    else:
        lo, hi, steps = reach
        w = math.ceil(steps) + 1
        ring_offsets = sorted(range(math.floor(lo) - 1, math.ceil(1.0 + hi) + 2), key=abs)
        angle_offsets = sorted(range(-w, w + 1), key=abs)
    for do in ring_offsets:
        k = k0 + do
        idx = np.nonzero((k >= 0) & (k < rings.n_rings) & finite & ~done)[0]
        for da in angle_offsets:
            idx = idx[~done[idx]]
            if idx.size == 0:
                break
            yield idx, k[idx] * rings.n_angles + (j0[idx] + da) % rings.n_angles


def neighbor_list(fam, i, scale):
    """Chart ``i``'s neighbour list at ``scale``, built for that one chart: the
    reference the batched `ChartFamily._neighbors` lists must equal.  Rings take
    rings k -+ w (clipped) times the distinct angles j -+ v, or every disk once
    sigma >= 1; a suspension the outer sum of its layer and inner lists; a
    level family every branch over its base list; anything else every chart."""
    if isinstance(fam, RingDisks):
        reach = fam._reach(scale)
        if reach is None:
            return np.arange(len(fam), dtype=np.int64)
        lo, hi, steps = reach
        k, j = divmod(i, fam.n_angles)
        w, v = math.ceil(hi - lo) + 1, math.ceil(2.0 * steps) + 1
        rings = np.arange(max(0, k - w), min(fam.n_rings, k + w + 1), dtype=np.int64)
        angles = np.unique((j + np.arange(-v, v + 1)) % fam.n_angles)
        return (rings[:, None] * fam.n_angles + angles).ravel()
    if isinstance(fam, SuspendedCharts):
        j, t = divmod(i, len(fam.inner))
        outer = neighbor_list(fam.layers, j, scale * fam.lam_factor) * len(fam.inner)
        return (outer[:, None] + neighbor_list(fam.inner, t, scale * fam.beta)).ravel()
    if isinstance(fam, LevelBranchCharts):
        base = neighbor_list(fam.base_cov.family, i // fam.alpha1, scale) * fam.alpha1
        return (base[:, None] + np.arange(fam.alpha1)).ravel()
    return np.arange(len(fam), dtype=np.int64)


def chart_to_dict(chart):
    """One chart as a v1 covering file stores it, read off the chart object
    (the file writer reads the (b, d) arrays)."""
    pair = lambda z: [complex(z).real, complex(z).imag]
    if isinstance(chart, MonomialLevelChart):
        return {"kind": "level_branch",
                "b": [pair(v) for v in chart.base.b],
                "d": [pair(v) for v in chart.base.d],
                "branch": chart.branch,
                "alpha": list(chart.alpha),
                "c": pair(chart.c)}
    return {"kind": "diag_affine",
            "b": [pair(v) for v in chart.b],
            "d": [pair(v) for v in chart.d]}


def annulus_grid(delta, n_radii, n_angles):
    """Deterministic polar grid of the closed annulus, endpoints included."""
    radii = delta ** np.linspace(1.0, 0.0, n_radii)
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    return (radii[:, None] * np.exp(1j * angles[None, :])).ravel()


def annulus_random(delta, count, seed):
    rng = np.random.default_rng(seed)
    r = delta ** rng.random(count)
    return r * np.exp(2j * np.pi * rng.random(count))


def polydisc_random(eta, n, count, seed):
    rng = np.random.default_rng(seed)
    cols = [eta ** rng.random(count) * np.exp(2j * np.pi * rng.random(count))
            for _ in range(n)]
    return np.stack(cols, axis=-1)


def ball_points(dim, count, seed):
    """Seeded points of the unit ball of C^dim."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    x /= np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-300)
    return x * rng.random((count, 1)) ** (1.0 / (2 * dim))


def level_contains(charts, i, p, scale, tol=None):
    """Whether level-branch chart ``i``'s image at ``scale`` contains ``p``, on
    the built chart: invert the base, then match the branch value at the
    preimage against x1 (the reference rule)."""
    t = tolerance(tol)
    ch = charts[i]
    x = ch.base.preimage(np.asarray(p[1:], dtype=complex))
    if float(np.linalg.norm(x)) > scale * math.sqrt(1.0 + t):
        return False
    g = complex(ch.first_coordinate(x))
    return abs(g - complex(p[0])) <= t ** 0.5 * max(1.0, abs(g))


def containing_pairs(charts, pts, scale=1.0, tol=None):
    """The sorted (point, chart) index pairs whose chart image at ``scale``
    (scalar or per point) contains the point of the (N, dim) array ``pts``,
    by the per-chart rule: `chart_contains`, or `level_contains` for
    level-branch charts.  A vectorized scan of every (b, d) row (of the base,
    for level charts) keeps the charts within 1e-6 of the ball, and only
    those are built and tested."""
    t = tolerance(tol)
    pts = np.asarray(pts, dtype=complex)
    scales = np.broadcast_to(np.asarray(scale, dtype=float), pts.shape[:1])
    level = isinstance(charts, LevelBranchCharts)
    b, d = chart_arrays(charts.base_cov.charts if level else charts)
    a1 = charts.alpha1 if level else 1
    out = []
    for r, (p, s) in enumerate(zip(pts, scales)):
        near, n2 = np.arange(b.shape[0]), np.zeros(b.shape[0])
        for k, x in enumerate(p[1:] if level else p):     # the sum so far, axis by axis
            with np.errstate(invalid="ignore"):     # no |d|^2: it underflows first
                n2 = n2 + np.abs((x - b[near, k]) / d[near, k]) ** 2
            keep = n2 <= s * s * (1.0 + t) * (1.0 + 1e-6)
            near, n2 = near[keep], n2[keep]
        for i in near.tolist():
            out += [(r, c) for c in range(i * a1, (i + 1) * a1)
                    if (level_contains(charts, c, tuple(p), s, tol=t) if level
                        else chart_contains(charts[c], tuple(p), s, tol=t))]
    return out


def level_covers_loop(charts, pts, scale, tol=None):
    """`LevelBranchCharts.covers` point by point: whether `containing_pairs`
    pairs the point with a chart (the reference answer)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=complex))
    out = np.zeros(pts.shape[0], dtype=bool)
    out[[r for r, _ in containing_pairs(charts, pts, scale, tol=tol)]] = True
    return out


def choose_C3_loop(mu, value_bound):
    """`real_acharts.choose_C3` by trying C3 = 4, 5, ... until the certificate
    holds (the search it replaces, linear in C3)."""
    A = float(value_bound)
    M = float(sum(abs(float(mi)) for mi in mu))
    c3 = 4
    while A * (math.exp(M * (3.0 / c3) / (1.0 - 3.0 / c3)) - 1.0) > 1.0:
        c3 += 1
    return float(c3)


def cover_unit_cube_scales(eps, m):
    """Product grid of box centers covering (eps, 1)^m; count = (K+1)^m."""
    if m < 1:
        raise ValueError("dimension must be positive")
    axis = axis_scale_centers(eps)
    centers = [()]
    for _ in range(m):
        centers = [c + (y,) for c in centers for y in axis]
    return centers


def cover_monomial_graph_list(data, eps):
    """`real_acharts.cover_monomial_graph` as a flat list, one box and one
    offset tuple at a time (the reference atlas, in the family's order)."""
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    mu = data.exponents
    c3 = choose_C3(mu, 3.0 ** data.abs_degree)
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


def achart_scan_reference(charts, grid=16, interior=1000, seed=0):
    """`real_acharts.verify_achart_batch` as it was first factored: a (V, m, P)
    table of u^mu per offset value, axis and scan point, gathered (t, m, P) for
    each block of offset tuples and reduced by `np.prod`.  The reference whose
    bits the lattice scan keeps."""
    if not len(charts):
        scan_points(1, grid, 0)
        return np.zeros(0)
    f = _factors(charts)
    data, c3, tuples = f.data, f.c3, f.tuples
    mu = np.asarray(data.exponents)
    values = np.unique(tuples)
    z = np.vstack([scan_points(data.m, grid, interior, seed), np.zeros(data.m)])  # center last
    idx = np.searchsorted(values, tuples)                           # (T, m)
    spread = np.empty(len(tuples))
    step = max(1, (1 << 18) // len(z))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite deviation is refused below
        # u^mu per offset value, axis and point (the center is the last point)
        powers = (1.0 + (values[:, None, None] + z.T) / (2.0 * c3)) ** mu[:, None]  # (V, m, P)
        for lo in range(0, len(tuples), step):
            k = idx[lo:lo + step]
            prod = np.prod(powers[k, np.arange(data.m)], axis=1)    # (t, P)
            spread[lo:lo + step] = np.abs(prod - prod[:, -1:]).max(axis=1)
    affine = (f.boxes * np.abs(z).max(axis=0)).max(axis=1) / (2.0 * c3)
    graph = data.coefficient * np.prod(f.boxes ** mu, axis=1)
    dev = np.maximum(affine[f.box_of], graph[f.box_of] * spread[f.tuple_of]).reshape(-1)
    if not np.isfinite(dev).all():
        raise NotHolomorphic("extension evaluation produced non-finite values")
    return dev


def graph_membership_loop(charts, xs, tol=None):
    """`real_acharts.graph_membership` as a per-point loop over the dyadic
    boxes that contain each point (the reference answer)."""
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


def _axis_box_candidates(x):
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


def doubling_streamed(cov, block=1 << 16):
    """Avoidance flag of every affine chart, streamed over blocks of (b, d)
    rows: |b_i| > gamma |d_i| on every punctured axis (the reference answer)."""
    axes, fam = cov.ambient.punctured_axes, cov.family
    flags = np.empty(cov.kappa, dtype=bool)
    for lo in range(0, cov.kappa, block):
        b, d = fam.arrays_at(np.arange(lo, min(lo + block, cov.kappa)))
        ok = np.ones(b.shape[0], dtype=bool)
        for i in axes:
            ok &= np.abs(b[:, i]) > cov.gamma * np.abs(d[:, i])
        flags[lo:lo + b.shape[0]] = ok
    return flags


def doubling_level_loop(cov, samples_per_chart=128, seed=0, tol=None):
    """Flag of every level-branch chart, one chart at a time: the base
    chart's avoidance on every base axis and the sampled residual of
    `level_residual` (the reference answer).  A chart whose base fails is
    not built: its branch is not single-valued there."""
    t = tolerance(tol)
    charts = cov.charts
    dim = charts.base_cov.ambient.dim
    x = ball_points(dim, samples_per_chart, seed)
    flags = np.empty(cov.kappa, dtype=bool)
    for i in range(cov.kappa):
        base = charts.base_cov.charts[i // charts.alpha1]
        base_ok = all(abs(base.b[a]) > base.gamma * abs(base.d[a]) for a in range(dim))
        flags[i] = base_ok and bool((level_residual(charts[i], x) <= t * abs(charts.c)).all())
    return flags


def doubling_level_bound_loop(cov, tol=None):
    """Flag of every level-branch chart by its own a-priori residual bound,
    one chart at a time: the base chart's avoidance on every base axis and
    `LevelBranchCharts._bound` of the chart's term sum_i alphabar_i T_i,
    T_i = |ln|b_i|| + pi + 2 (1 + q_i) / (1 - q_i), q_i = |d_i| / |b_i|,
    from its own built base chart (the reference for the level-major
    outer products of `doubling_factors`)."""
    t = tolerance(tol)
    charts = cov.charts
    dim = charts.base_cov.ambient.dim
    flags = np.empty(cov.kappa, dtype=bool)
    for i in range(cov.kappa):
        base = charts.base_cov.charts[i // charts.alpha1]
        base_ok = all(abs(base.b[a]) > base.gamma * abs(base.d[a]) for a in range(dim))
        term = 0.0
        for a, w in enumerate(charts.alpha[1:]):
            q = abs(base.d[a]) / abs(base.b[a])
            term += w * (abs(math.log(abs(base.b[a]))) + math.pi
                         + 2.0 * (1.0 + q) / (1.0 - q) if q < 1.0 else math.inf)
        flags[i] = base_ok and bool(charts._bound(term) <= t * abs(charts.c))
    return flags


def _segment_witness(c1, c2, tol):
    """Deterministic witness on the center segment.

    Both preimage norms are linear along the segment (t * n1 and (1-t) * n2),
    so the minimax point is their crossing; for one-dimensional disks this
    test is complete.
    """
    b1 = np.asarray(c1.b)
    b2 = np.asarray(c2.b)
    n1 = math.sqrt((np.abs((b2 - b1) / np.asarray(c1.d)) ** 2).sum())
    n2 = math.sqrt((np.abs((b1 - b2) / np.asarray(c2.d)) ** 2).sum())
    if n1 + n2 == 0.0:
        return tuple(b1)
    tstar = n2 / (n1 + n2)
    if n1 * n2 / (n1 + n2) <= math.sqrt(1.0 + tol):
        p = b1 + tstar * (b2 - b1)
        return tuple(p)
    return None


def _lagrange_witness(c1, c2, tol):
    """Exact witness for two diagonal charts, or None when the images miss:
    the projection test, then a 60-step bisection on the sign of f1 - f2
    along the weighted means p(s) of the two centers, in numpy arithmetic
    on the one pair's coordinate arrays."""
    bound = 1.0 + tol
    root = math.sqrt(bound)
    b1, d1, b2, d2 = (np.asarray(x, dtype=complex) for x in (c1.b, c1.d, c2.b, c2.d))
    if (np.abs(b1 - b2) > (np.abs(d1) + np.abs(d2)) * root).any():
        return None                         # the projections miss on some axis
    w1, w2 = 1.0 / np.abs(d1) ** 2, 1.0 / np.abs(d2) ** 2

    def point(s):
        u, v = s * w1, (1.0 - s) * w2
        return (u * b1 + v * b2) / (u + v)

    def norm2(p, b, w):
        return float((w * np.abs(p - b) ** 2).sum())

    lo, hi = 0.0, 1.0
    for _ in range(60):
        s = 0.5 * (lo + hi)
        p = point(s)
        f1, f2 = norm2(p, b1, w1), norm2(p, b2, w2)
        if s * f1 + (1.0 - s) * f2 > bound:
            return None
        if f1 > f2:
            lo = s
        else:
            hi = s
    p = tuple(point(0.5 * (lo + hi)).tolist())
    if chart_contains(c1, p, 1.0, tol=tol) and chart_contains(c2, p, 1.0, tol=tol):
        return p
    return None


def _branch_witness(c1, c2, wb, tol):
    """The witness of two level-branch charts over the base witness ``wb``."""
    g1 = complex(c1.first_coordinate(c1.base.preimage(wb)))
    g2 = complex(c2.first_coordinate(c2.base.preimage(wb)))
    if np.abs(g1 - g2) <= tol ** 0.5 * np.maximum(1.0, np.abs(g1)):
        return (g1,) + tuple(wb)
    return None


def scalar_witness(c1, c2, tol=None):
    """`verify.intersection_witness` one chart pair at a time: the center
    segment, then `_lagrange_witness`; level-branch charts through their
    bases and `_branch_witness`."""
    t = tolerance(tol)
    if hasattr(c1, "base"):
        wb = scalar_witness(c1.base, c2.base, tol=t)
        return None if wb is None else _branch_witness(c1, c2, wb, t)
    w = _segment_witness(c1, c2, t)
    return w if w is not None else _lagrange_witness(c1, c2, t)


def chain_bfs_loop(cov, p, q, tol=None):
    """`verify.chain_between` as a FIFO BFS that tests one chart pair at a
    time by `scalar_witness`, building each chart, from the endpoints'
    `containing_pairs` (the reference chain)."""
    t = tolerance(tol)
    charts = cov.family
    pairs = containing_pairs(charts, np.array([p, q], dtype=complex), 1.0, tol=t)
    starts, goals = [c for r, c in pairs if r == 0], {c for r, c in pairs if r == 1}
    if not starts or not goals:
        raise NoContainingChart("an endpoint lies in no chart of the covering")
    common = sorted(goals.intersection(starts))
    if common:
        return Chain(chart_indices=(common[0],), witnesses=())
    base_witness = {}

    def witness(i, ci, j):
        if not isinstance(charts, LevelBranchCharts):
            return scalar_witness(ci, charts[j], tol=t)
        key = (i // charts.alpha1, j // charts.alpha1)
        if key not in base_witness:
            base_witness[key] = scalar_witness(
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
        for j in sorted(set(int(k) for k in charts.neighbors(i))):
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

"""Independent brute-force oracles the tests check the library against.

Everything here recomputes membership and sampling from the raw formulas,
deliberately bypassing the library's structural point location.
"""

import math

import numpy as np

from atlascover.core import tolerance
from atlascover.suspension import chart_arrays


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


def level_covers_loop(charts, pts, scale, tol=None):
    """`LevelBranchCharts.covers` as a per-point loop over candidate charts,
    each tested by `LevelBranchCharts.contains` (the reference answer)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=complex))
    n_pts = pts.shape[0]
    scales = np.broadcast_to(np.asarray(scale, dtype=float), (n_pts,))
    out = np.zeros(n_pts, dtype=bool)
    for i in range(n_pts):
        p = tuple(pts[i])
        for j in charts.candidates(p, float(scales[i]), tol=tol):
            if charts.contains(j, p, float(scales[i]), tol=tol):
                out[i] = True
                break
    return out


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

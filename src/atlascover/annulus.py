"""Whitney-disk coverings of the annulus D_1 \\ D_delta inside C \\ {0}.

Construction: concentric rings of disks at radii rho_k = q^k with
q = 1 - 1/(4 zeta).  Ring k carries equally spaced disks centered on the
circle of radius m_k = rho_k (1+q)/2 with common radius r_k = m_k / (2 zeta),
so zeta * r_k = m_k / 2 < |center| holds with a factor-2 margin.  The angular
count per ring is the minimal integer for which consecutive disk
intersections cover the whole radial band [rho_{k+1}, rho_k]; by scale
invariance it is the same for every ring.  Rings stop at the first K with
rho_K <= delta, which yields kappa = K * n_angles = Theta(zeta^2 log(1/delta))
disks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    MATERIALIZE_BUDGET,
    AtlasError,
    ChartFamily,
    Covering,
    DiagonalAffineChart,
    InvalidDoublingFactor,
    PuncturedPlane,
)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class WhitneyDiskParams:
    """Tuning knobs for the ring construction.

    ``ring_ratio`` is the radius shrink factor q between consecutive rings;
    ``disks_per_ring_factor`` multiplies the minimal angular count (values
    below 1 have no effect: the minimal count is a coverage floor).
    """

    ring_ratio: float
    disks_per_ring_factor: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.ring_ratio < 1.0:
            raise ValueError("ring_ratio must lie in (0, 1)")
        if not self.disks_per_ring_factor > 0:
            raise ValueError("disks_per_ring_factor must be positive")


def default_params(zeta: float) -> WhitneyDiskParams:
    return WhitneyDiskParams(ring_ratio=1.0 - 1.0 / (4.0 * zeta))


def _angular_count(q: float, zeta: float, factor: float) -> int:
    """Minimal disks per ring so the band [q*rho, rho] is fully covered.

    For the worst point midway between adjacent centers at band radius rho
    in {q, 1} (relative to the ring scale), containment in the nearest disk
    reads rho^2 + m^2 - 2 rho m cos(dtheta/2) <= r^2.
    """
    cf = (1.0 + q) / 2.0
    rf = cf / (2.0 * zeta)
    half = math.inf
    for rho in (1.0, q):
        c = (rho * rho + cf * cf - rf * rf) / (2.0 * rho * cf)
        if c >= 1.0:
            raise ValueError(
                "ring_ratio too small: a single disk cannot span the band")
        half = min(half, math.acos(max(-1.0, c)))
    n_min = math.ceil(math.pi / half)
    return max(n_min, math.ceil(n_min * factor))


def _ring_count(delta: float, q: float) -> int:
    """Smallest K >= 1 with q^K <= delta (so the last band reaches delta)."""
    if delta >= 1.0:
        return 0
    K = max(1, math.ceil(math.log(delta) / math.log(q)))
    while q ** K > delta:
        K += 1
    while K > 1 and q ** (K - 1) <= delta:
        K -= 1
    return K


class RingDisks(ChartFamily):
    """Lazy family of the ring disks, outermost ring first, by angle.

    Disk (k, j) has center cf*q^k * exp(2 pi i j / n_angles) and radius
    rf*q^k; the flat index is k * n_angles + j.  Point location goes through
    the ring/angle grid (`passes`) instead of a linear scan.  Every accessor
    reads one disk table, so single disks and the bulk arrays agree bit for
    bit; a table over `MATERIALIZE_BUDGET` disks is refused before it exists.
    """

    dim = 1

    def __init__(self, zeta: float, q: float, n_angles: int, n_rings: int):
        self.zeta = self.gamma = float(zeta)
        self.q = float(q)
        self.n_angles = int(n_angles)
        self.n_rings = int(n_rings)
        if not (0.0 < self.q < 1.0 and min(self.n_angles, self.n_rings) >= 0):
            raise ValueError("ring ratio outside (0, 1) or a negative ring or angle count")
        if self.n_rings * self.n_angles > MATERIALIZE_BUDGET:
            raise AtlasError(f"a ring table of {self.n_rings * self.n_angles} disks "
                             "is over the budget")
        self.cf = (1.0 + self.q) / 2.0              # center radius / ring radius
        self.rf = self.cf / (2.0 * self.zeta)       # disk radius / ring radius

    @cached_property
    def _disks(self) -> tuple:
        """Centers and radii of all disks, flat-index order.  Ring radii are
        q^k by Python ``pow`` (numpy's vectorized power can differ from it in
        the last bit); a family with no rings allocates nothing."""
        rho = np.array([self.q ** k for k in range(self.n_rings)], dtype=float)
        unit = np.exp(2j * math.pi * np.arange(self.n_angles if self.n_rings else 0)
                      / self.n_angles)
        return (self.cf * rho[:, None] * unit[None, :]).ravel(), \
            np.repeat(self.rf * rho, self.n_angles)

    def __len__(self) -> int:
        return self.n_rings * self.n_angles

    def _chart(self, i):
        return DiagonalAffineChart(b=(self._disks[0][i],), d=(self._disks[1][i],),
                                   gamma=self.zeta)

    def _recipe(self):
        return self.zeta, self.q, self.n_angles, self.n_rings

    def disk(self, k: int, j: int):
        i = k * self.n_angles + j % self.n_angles
        return complex(self._disks[0][i]), float(self._disks[1][i])

    def chart_arrays(self):
        return self.arrays_at(slice(None))

    def arrays_at(self, idx):
        a, r = self._disks
        return a[idx, None], r[idx, None].astype(complex)

    # -- point location -----------------------------------------------------

    def passes(self, pts: np.ndarray, scale: np.ndarray, done: np.ndarray):
        """(point indices, disk indices) per ring and angle offset.

        A point z is paired with the disks of the rings k0 + o and angles
        j0 + o' around its anchor k0 = floor(log_q |z|), j0 = nearest angle.
        A disk of ring k at scale s reaches radii cf*q^k * (1 -+ s*rf/cf),
        which bounds the ring offsets o; the angle offsets are bounded by
        asin(s*rf / lo) at the smallest such radius lo.  A point that is not
        finite meets no disk.
        """
        smax = float(scale.max(initial=0.0))
        if len(self) == 0 or smax <= 0.0:
            return
        z, finite = pts[:, 0], np.isfinite(pts[:, 0])
        with np.errstate(invalid="ignore"):         # the anchors of those points are not read
            k0 = np.floor(np.log(np.maximum(np.abs(z), 1e-300)) / math.log(self.q)).astype(int)
            j0 = np.round(np.angle(z) / (TWO_PI / self.n_angles)).astype(int)
        lo, hi = self.cf - smax * self.rf, self.cf + smax * self.rf
        angle_offsets = range(self.n_angles)
        if lo <= 0.0:
            ring_offsets = range(-self.n_rings, self.n_rings + 1)
        else:
            lnq = -math.log(self.q)
            ring_offsets = sorted(range(math.floor(math.log(lo) / lnq) - 1,
                                        math.ceil(1.0 + math.log(hi) / lnq) + 2), key=abs)
            if smax * self.rf / lo < 1.0:
                w = math.ceil(math.asin(smax * self.rf / lo) / (TWO_PI / self.n_angles)) + 1
                w = min(w, self.n_angles // 2 + 1)
                angle_offsets = sorted(range(-w, w + 1), key=abs)
        for do in ring_offsets:
            k = k0 + do
            idx = np.nonzero((k >= 0) & (k < self.n_rings) & finite & ~done)[0]
            for da in angle_offsets:
                idx = idx[~done[idx]]
                if idx.size == 0:
                    break
                yield idx, k[idx] * self.n_angles + (j0[idx] + da) % self.n_angles

    def covers(self, pts, scale, tol: float | None = None) -> np.ndarray:
        """Which points lie in some disk scaled by ``scale`` (scalar or per point)."""
        pts, scale, t = self._points(pts, scale, tol)
        covered = np.zeros(pts.shape[0], dtype=bool)
        a, r = self._disks
        for idx, j in self.passes(pts, scale, covered):
            rs = r[j] * scale[idx]
            covered[idx[np.abs(pts[idx, 0] - a[j]) ** 2 <= rs * rs * (1.0 + t)]] = True
        return covered

    def neighbors(self, i: int, scale: float = 1.0) -> np.ndarray:
        """Disk indices (``i`` included) whose disks at ``scale`` can meet disk ``i``'s.

        Two disks meet only if their center radii differ by at most the sum
        of their radii, which bounds the ring offset, and only if
        2 sqrt(R R') sin(dtheta/2) <= r + r', which bounds the angle offset.
        """
        k, j = divmod(i, self.n_angles)
        rs = self.rf * scale
        if self.cf - rs <= 0.0:
            ring_range = range(self.n_rings)
        else:
            span = math.log((self.cf + rs) / (self.cf - rs)) / -math.log(self.q)
            w_ring = math.ceil(span) + 1
            ring_range = range(max(0, k - w_ring), min(self.n_rings, k + w_ring + 1))
        widths = []
        for kk in ring_range:
            rsum = rs * (self.q ** k + self.q ** kk)
            geo = 2.0 * self.cf * math.sqrt(self.q ** (k + kk))
            sin_half = min(1.0, rsum / geo)
            widths.append(min(self.n_angles // 2 + 1, math.ceil(
                2.0 * math.asin(sin_half) / (TWO_PI / self.n_angles)) + 1))
        w = np.array(widths, dtype=np.int64)
        size = np.minimum(2 * w + 1, self.n_angles)    # angle offsets -w.., each angle once
        offset = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size + w, size)
        return np.sort(np.repeat(np.arange(ring_range.start, ring_range.stop), size)
                       * self.n_angles + (j + offset) % self.n_angles)


def construction_constant(zeta: float,
                          params: WhitneyDiskParams | None = None) -> float:
    """A(zeta) with kappa <= A(zeta) * (log(1/delta) + 1) for every delta."""
    if not zeta > 1.0:
        raise InvalidDoublingFactor(f"zeta must exceed 1, got {zeta}")
    params = params or default_params(zeta)
    q = params.ring_ratio
    n = _angular_count(q, zeta, params.disks_per_ring_factor)
    return n * max(1.0, 1.0 / -math.log(q))


def cover_annulus(delta: float, zeta: float,
                  params: WhitneyDiskParams | None = None) -> Covering:
    """Build a zeta-doubling covering of {delta <= |z| <= 1} in C \\ {0}.

    Charts are emitted outermost ring first, ordered by angle within a ring;
    delta >= 1 yields the empty covering.
    """
    if not zeta > 1.0:
        raise InvalidDoublingFactor(f"zeta must exceed 1, got {zeta}")
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    params = params or default_params(zeta)
    q = params.ring_ratio
    n_angles = _angular_count(q, zeta, params.disks_per_ring_factor)
    n_rings = _ring_count(delta, q)
    disks = RingDisks(zeta, q, n_angles, n_rings)
    meta = {
        "construction": "whitney_rings",
        "delta": float(delta),
        "zeta": float(zeta),
        "ring_ratio": q,
        "n_angles": n_angles,
        "n_rings": n_rings,
        "construction_constant": construction_constant(zeta, params),
    }
    return Covering(ambient=PuncturedPlane(), gamma=zeta, charts=disks, meta=meta)

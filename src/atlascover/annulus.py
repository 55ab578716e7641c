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
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    Covering,
    DiagonalAffineChart,
    InvalidDoublingFactor,
    PuncturedPlane,
    tolerance,
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


class RingDisks(Sequence):
    """Lazy sequence of the ring disks, outermost ring first, by angle.

    Disk (k, j) has center cf*q^k * exp(2 pi i j / n_angles) and radius
    rf*q^k; the flat index is k * n_angles + j.  The object doubles as a
    point-location structure: `covers` and `candidates` answer membership
    queries through the ring/angle grid instead of a linear scan.  Every
    accessor reads the ring radii from one table, so single disks and the
    bulk arrays agree bit for bit.
    """

    def __init__(self, zeta: float, q: float, n_angles: int, n_rings: int):
        self.zeta = float(zeta)
        self.q = float(q)
        self.n_angles = int(n_angles)
        self.n_rings = int(n_rings)
        self.cf = (1.0 + self.q) / 2.0              # center radius / ring radius
        self.rf = self.cf / (2.0 * self.zeta)       # disk radius / ring radius

    @cached_property
    def _unit(self) -> np.ndarray:
        """Unit centers by angle; built on first use, so a family with no
        rings allocates nothing whatever its ``n_angles``."""
        return np.exp(2j * math.pi * np.arange(self.n_angles) / self.n_angles)

    @cached_property
    def _rho(self) -> np.ndarray:
        """Ring radii q^k, one Python ``pow`` per ring (numpy's vectorized
        power can differ from it in the last bit)."""
        return np.array([self.q ** k for k in range(self.n_rings)], dtype=float)

    # -- sequence protocol --------------------------------------------------

    def __len__(self) -> int:
        return self.n_rings * self.n_angles

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        k, j = divmod(i, self.n_angles)
        a, r = self.disk(k, j)
        return DiagonalAffineChart(b=(a,), d=(r,), gamma=self.zeta)

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def __eq__(self, other):
        if isinstance(other, RingDisks):
            return (self.zeta, self.q, self.n_angles, self.n_rings) == \
                   (other.zeta, other.q, other.n_angles, other.n_rings)
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    # -- geometry -----------------------------------------------------------

    def disk(self, k: int, j: int):
        rho = float(self._rho[k])
        a = self.cf * rho * complex(self._unit[j % self.n_angles])
        return a, self.rf * rho

    def disk_arrays(self):
        """Centers and radii of all disks, flat-index order."""
        rho = self._rho
        a = (self.cf * rho[:, None] * self._unit[None, :]).ravel()
        r = np.repeat(self.rf * rho, self.n_angles)
        return a, r

    def chart_arrays(self):
        a, r = self.disk_arrays()
        return a[:, None], r[:, None].astype(complex)

    # -- point location -----------------------------------------------------

    def _windows(self, smax: float, rmult: float):
        """Ring/angle offset windows that bound every disk containing a point.

        A disk of ring k at scale s reaches radii cf*q^k * (1 -+ s*rmult/(2 zeta)),
        which pins the candidate rings relative to the anchor ring
        k0 = floor(log_q |z|); the angular half-width is bounded by
        asin(s*r*rmult / u) at the smallest radius u inside the disk.
        """
        lo = self.cf - smax * self.rf * rmult
        hi = self.cf + smax * self.rf * rmult
        lnq = math.log(self.q)
        if lo <= 0.0:
            ring_offsets = range(-self.n_rings, self.n_rings + 1)
            return ring_offsets, range(self.n_angles)
        o_lo = math.floor(math.log(lo) / -lnq) - 1
        o_hi = math.ceil(1.0 + math.log(hi) / -lnq) + 1
        ring_offsets = sorted(range(o_lo, o_hi + 1), key=abs)
        sin_bound = smax * self.rf * rmult / lo
        if sin_bound >= 1.0:
            angle_offsets = range(self.n_angles)
        else:
            w = math.ceil(math.asin(sin_bound) / (TWO_PI / self.n_angles)) + 1
            w = min(w, self.n_angles // 2 + 1)
            angle_offsets = sorted(range(-w, w + 1), key=abs)
        return ring_offsets, angle_offsets

    def covers(self, pts: np.ndarray, scale, tol: float | None = None,
               rmult: float = 1.0) -> np.ndarray:
        """Vectorized: which points lie in some disk scaled by ``scale``.

        ``scale`` may be a scalar or a per-point array; ``rmult`` rescales
        all disk radii uniformly (used by suspension layers).
        """
        pts = np.asarray(pts, dtype=complex).ravel()
        scale = np.broadcast_to(np.asarray(scale, dtype=float), pts.shape)
        t = tolerance(tol)
        covered = np.zeros(pts.shape, dtype=bool)
        if len(self) == 0 or pts.size == 0:
            return covered
        smax = float(scale.max(initial=0.0))
        if smax <= 0.0:
            return covered
        u = np.abs(pts)
        k0 = np.floor(np.log(np.maximum(u, 1e-300)) / math.log(self.q)).astype(int)
        theta = np.angle(pts)
        j0 = np.round(theta / (TWO_PI / self.n_angles)).astype(int)
        ring_offsets, angle_offsets = self._windows(smax, rmult)
        for do in ring_offsets:
            k = k0 + do
            valid_k = (k >= 0) & (k < self.n_rings) & ~covered
            if not valid_k.any():
                continue
            idx = np.nonzero(valid_k)[0]
            rho = self._rho[k[idx]]
            r = self.rf * rho * rmult * scale[idx]
            for da in angle_offsets:
                j = (j0[idx] + da) % self.n_angles
                a = self.cf * rho * self._unit[j]
                hit = np.abs(pts[idx] - a) ** 2 <= r * r * (1.0 + t)
                if hit.any():
                    covered[idx[hit]] = True
                    keep = ~hit
                    idx, rho, r = idx[keep], rho[keep], r[keep]
                    if idx.size == 0:
                        break
        return covered

    def candidates(self, z: complex, scale: float, rmult: float = 1.0):
        """Indices of every disk that could contain ``z`` at ``scale``."""
        if len(self) == 0:
            return
        u = abs(z)
        k0 = math.floor(math.log(max(u, 1e-300)) / math.log(self.q))
        j0 = round(math.atan2(z.imag, z.real) / (TWO_PI / self.n_angles))
        ring_offsets, angle_offsets = self._windows(float(scale), rmult)
        for do in ring_offsets:
            k = k0 + do
            if not 0 <= k < self.n_rings:
                continue
            for da in angle_offsets:
                yield k * self.n_angles + (j0 + da) % self.n_angles

    def neighbors(self, i: int, scale: float = 1.0) -> list:
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
        out = []
        for kk in ring_range:
            rsum = rs * (self.q ** k + self.q ** kk)
            geo = 2.0 * self.cf * math.sqrt(self.q ** (k + kk))
            sin_half = min(1.0, rsum / geo)
            w_ang = min(self.n_angles // 2 + 1,
                        math.ceil(2.0 * math.asin(sin_half) / (TWO_PI / self.n_angles)) + 1)
            out.extend(kk * self.n_angles + (j + da) % self.n_angles
                       for da in range(-w_ang, w_ang + 1))
        return sorted(set(out))


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

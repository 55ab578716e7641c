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
    InvalidDoublingFactor,
    PuncturedPlane,
    check_positive,
)

TWO_PI = 2.0 * math.pi
TINY = np.finfo(float).tiny     # the least normal float: a square below it has lost bits


@dataclass(frozen=True)
class WhitneyDiskParams:
    """``ring_ratio``: the radius shrink factor q between consecutive rings."""

    ring_ratio: float

    def __post_init__(self):
        if not 0.0 < self.ring_ratio < 1.0:
            raise ValueError("ring_ratio must lie in (0, 1)")


def ring_ratio(zeta: float) -> float:
    """The default ring ratio q = 1 - 1/(4 zeta)."""
    return 1.0 - 1.0 / (4.0 * zeta)


def _angular_count(q: float, zeta: float) -> int:
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
    return math.ceil(math.pi / half)


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
    rf*q^k; the flat index is k * n_angles + j.  `passes` and `neighbors`
    read one ring and angle window, `_reach`.  Every accessor reads one disk
    table, so single disks and the bulk arrays agree bit for bit; a table
    over `MATERIALIZE_BUDGET` disks is refused before it exists.
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

    def _recipe(self):
        return self.zeta, self.q, self.n_angles, self.n_rings

    def chart_arrays(self):
        # a slice view, not a gather of every index: the doubling certificate reads it
        return self.arrays_at(slice(None))

    def arrays_at(self, idx):
        a, r = self._disks
        return a[idx, None], r[idx, None].astype(complex)

    # -- point location -----------------------------------------------------

    def _reach(self, scale: float):
        """(lo, hi, steps) of disks at ``scale``, or None once sigma >= 1, when a
        disk holds the origin and every ring and angle is in reach.

        A disk's radius is rf/cf of its center's modulus, so at scale s disk
        (k, j) lies in the band cf*q^k * (1 -+ sigma), sigma = s*rf/cf, and in
        the sector of half-angle asin(sigma) around its center.  lo and hi are
        ring 0's band edges as logarithms to base 1/q (ring k's are k less);
        steps is asin(sigma) in angle steps 2 pi / n_angles."""
        sigma = scale * self.rf / self.cf
        if not sigma < 1.0:
            return None
        lo, hi = (math.log(self.cf * (1.0 + e)) / -math.log(self.q) for e in (-sigma, sigma))
        return lo, hi, math.asin(sigma) / (TWO_PI / self.n_angles)

    def passes(self, pts: np.ndarray, scale: np.ndarray, done: np.ndarray):
        """(point indices, disk indices) per ring and angle offset from each
        point's anchor (`_anchors`), over the band and sector of `_reach` at the
        largest scale; a non-finite z meets none.  ``done`` is not read: only
        the default list scan skips settled points."""
        live = np.nonzero(np.isfinite(pts[:, 0]))[0]
        if len(self) == 0 or live.size == 0:
            return
        k0, j0 = (x.astype(np.int64) for x in self._anchors(pts[live, 0]))
        reach = self._reach(float(scale.max(initial=0.0)))
        if reach is None:                           # every disk, counted from ring 0
            k0[:] = 0
            ring_offsets, angle_offsets = range(self.n_rings), range(self.n_angles)
        else:
            lo, hi, steps = reach
            w = math.ceil(steps) + 1                # at most n_angles/4 + 2: asin < pi/2
            ring_offsets = sorted(range(math.floor(lo) - 1, math.ceil(1.0 + hi) + 2), key=abs)
            angle_offsets = sorted(range(-w, w + 1), key=abs)
        for do in ring_offsets:
            k = k0 + do
            ok = (k >= 0) & (k < self.n_rings)
            idx, ring, j = live[ok], k[ok] * self.n_angles, j0[ok]
            for da in angle_offsets if idx.size else ():
                yield idx, ring + (j + da) % self.n_angles

    def _anchors(self, z):
        """Each z's ring k0 = floor(log_q |z|), clipped to the rings, and nearest
        angle j0 in [0, n_angles), as floats; a NaN z gets (0, 0).

        log |z| is log(re^2 + im^2) / 2, read off np.abs only where re^2 + im^2
        leaves [e^-708, e^708] and so under- or overflows; j0 is rounded from
        [-n_angles/2, n_angles/2] and wrapped in float.  Any disk is a sound
        anchor for `covers`; the windows of `passes` have one ring and one angle
        of slack on each side for a k0 or j0 one off at a rounding edge, and a
        clipped k0 only moves a window towards the rings that can hold z.  Each
        step writes in place: fresh arrays cost as much again on 2^15 points."""
        re, im = z.real, z.imag
        with np.errstate(divide="ignore", invalid="ignore"):
            k = re * re
            k += im * im
            np.log(k, out=k)
            r = np.nonzero(np.abs(k) >= 708.0)[0]
            k[r] = 2.0 * np.log(np.abs(z[r]))
            k *= 0.5 / math.log(self.q)
            np.floor(k, out=k)
            j = np.arctan2(im, re)
            j *= self.n_angles / TWO_PI
            np.rint(j, out=j)
        j += self.n_angles * (j < 0.0)
        np.fmax(k, 0.0, out=k)                     # NaN to ring 0, then the last ring at most
        np.fmin(k, self.n_rings - 1.0, out=k)
        return k, np.fmax(j, 0.0, out=j)           # a NaN z has a NaN angle too

    def _anchor(self, pts):
        """Disk (k0, j0) of `_anchors` as a flat index, or None with no disk."""
        if len(self) == 0:
            return None
        k, j = self._anchors(pts[:, 0])
        return (k * self.n_angles + j).astype(np.int64)

    def _hits(self, pts, scale, t: float, j):
        """Row r: whether disk j[r] scaled by scale[r] holds pts[r], |z - a|^2 <= (r s)^2 (1 + t).
        A row whose |z - a|^2 underflows (|z - a| below ~1e-154) is decided by
        `locate`'s rule, |(z - a)/r|^2 <= s^2 (1 + t), instead.  Where only
        (r s)^2 underflows, s = 0 included, z lies farther than r s from a
        and both rules leave the row out."""
        a, r = self._disks
        rs = r[j] * scale
        rs *= rs
        rs *= 1.0 + t
        with np.errstate(invalid="ignore", over="ignore"):
            y = np.abs(pts[:, 0] - a[j])
            y *= y
            held = y <= rs
            deep = np.nonzero(y < TINY)[0]
        if deep.size:
            held[deep] = self._inside(pts[deep], j[deep], scale[deep], t)
        return held

    covers = ChartFamily.covers             # bound here too: the benchmark tracer times its calls

    def _neighbors(self, idx, scale: float) -> tuple:
        """Disk ``i``'s neighbours, for each i in ``idx``: disks that meet share a
        point, so their bands overlap (at most hi - lo rings apart, `_reach`) and
        so do their sectors (at most 2 asin(sigma) apart).  So they are rings
        k -+ w, clipped, times angles j -+ v mod n_angles, sorted, or every
        angle once 2v + 1 reaches n_angles; the counts are rings times angles."""
        reach = self._reach(scale)
        if reach is None:
            return ChartFamily._neighbors(self, idx, scale)
        lo, hi, steps = reach
        n = self.n_angles
        w, v = math.ceil(hi - lo) + 1, math.ceil(2.0 * steps) + 1
        width = min(2 * v + 1, n)           # angles j - v, ..., counted mod n once each
        k, j = np.divmod(idx, n)
        first = np.maximum(k - w, 0)
        rings = np.minimum(k + w + 1, self.n_rings) - first

        def lists():
            angles = np.sort((j[:, None] + np.arange(-v, width - v)) % n, axis=1)
            row = np.repeat(np.arange(idx.size), rings)         # each listed ring's chart
            ring = first[row] + np.arange(row.size) - (np.cumsum(rings) - rings)[row]
            return (ring[:, None] * n + angles[row]).ravel()
        return rings * width, lists


def construction_constant(zeta: float,
                          params: WhitneyDiskParams | None = None) -> float:
    """A(zeta) with kappa <= A(zeta) * (log(1/delta) + 1) for every delta."""
    if not zeta > 1.0:
        raise InvalidDoublingFactor(f"zeta must exceed 1, got {zeta}")
    q = (params or WhitneyDiskParams(ring_ratio(zeta))).ring_ratio
    return _constant(q, _angular_count(q, zeta))


def _constant(q: float, n_angles: int) -> float:
    """`construction_constant` of disks sized by ``q`` and ``n_angles``."""
    return n_angles * max(1.0, 1.0 / -math.log(q))


def ring_disks(delta: float, zeta: float, params: WhitneyDiskParams | None = None) -> RingDisks:
    """The zeta-doubling ring disks of {delta <= |z| <= 1}, outermost ring first,
    by angle within a ring, sized once: the inputs checked, the ring ratio q of
    ``params`` (default `ring_ratio`), `_angular_count` and `_ring_count`;
    delta >= 1 yields no ring."""
    check_positive("delta", delta)
    if not math.isfinite(zeta):
        raise ValueError(f"zeta must be finite, got {zeta}")
    if not zeta > 1.0:
        raise InvalidDoublingFactor(f"zeta must exceed 1, got {zeta}")
    q = (params or WhitneyDiskParams(ring_ratio(zeta))).ring_ratio
    return RingDisks(zeta, q, _angular_count(q, zeta), _ring_count(delta, q))


def cover_annulus(delta: float, zeta: float,
                  params: WhitneyDiskParams | None = None) -> Covering:
    """Build a zeta-doubling covering of {delta <= |z| <= 1} in C \\ {0}: the
    `ring_disks` family and its sizing as meta."""
    disks = ring_disks(delta, zeta, params)
    meta = {
        "construction": "whitney_rings",
        "delta": float(delta),
        "zeta": float(zeta),
        "ring_ratio": disks.q,
        "n_angles": disks.n_angles,
        "n_rings": disks.n_rings,
        "construction_constant": _constant(disks.q, disks.n_angles),
    }
    return Covering(ambient=PuncturedPlane(), gamma=zeta, charts=disks, meta=meta)

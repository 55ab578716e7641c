"""Suspension of doubling charts: lifting an n-dim covering to n+1 dims.

The suspension with height lambda, shift a and thickening beta sends a chart
psi with factor gamma to

    (x, y) |-> (psi~(beta x), lambda y + a),

a chart with factor theta = gamma / beta.  Layering suspensions over a
Whitney-disk covering of an annulus covers G x (D_1 \\ D_delta): layer j uses
the disk (a_j, r_j) with lambda_j = r_j (1 - 1/beta^2)^{-1/2}, so the layer
covers G x D_{r_j}(a_j) exactly.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .annulus import RingDisks, cover_annulus
from .core import (
    AFFINE_ONLY,
    Covering,
    DiagonalAffineChart,
    InvalidBeta,
    PolydiscComplement,
    PuncturedPlane,
    UnsupportedAmbient,
    tolerance,
)


@dataclass(frozen=True)
class SuspensionParams:
    """Height lambda > 0, vertical shift a, thickening 1 < beta < gamma."""

    lam: float
    a: complex
    beta: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lambda must be positive")
        if not self.beta > 1:
            raise InvalidBeta(f"beta must exceed 1, got {self.beta}")


def vertical_radius(lam: float, beta: float) -> float:
    """Radius nu of the vertical disk covered at unit scale by one layer."""
    return lam * math.sqrt(1.0 - 1.0 / (beta * beta))


def layer_zeta(mu: float, beta: float) -> float:
    """Doubling factor required of layer disks: (2 mu / beta)(1 - 1/beta^2)^{-1/2}."""
    return (2.0 * mu / beta) / math.sqrt(1.0 - 1.0 / (beta * beta))


def suspend_chart(chart: DiagonalAffineChart,
                  params: SuspensionParams) -> DiagonalAffineChart:
    """Suspend one chart: translation (b, a), scales (beta*d, lambda), factor gamma/beta."""
    if not params.beta < chart.gamma:
        raise InvalidBeta(
            f"beta={params.beta} must be smaller than the chart factor {chart.gamma}")
    return DiagonalAffineChart(
        b=chart.b + (params.a,),
        d=tuple(params.beta * di for di in chart.d) + (complex(params.lam),),
        gamma=chart.gamma / params.beta,
    )


class _SingleDisk:
    """Degenerate layer family: one disk (a=0, r=1) covering the whole unit disk.

    Used for axes that carry no puncture.
    """

    n_angles = 1
    n_rings = 1

    def __len__(self):
        return 1

    def disk(self, k, j):
        return 0j, 1.0

    def disk_arrays(self):
        return np.array([0j]), np.array([1.0])

    def candidates(self, z, scale, rmult=1.0):
        yield 0

    def neighbors(self, i, scale=1.0):
        return [0]

    def __eq__(self, other):
        return isinstance(other, _SingleDisk)


class SuspendedCharts(Sequence):
    """Lazy chart family of a layered suspension, ordered (layer, inner chart).

    Chart j * kappa_inner + t is the suspension of inner chart t over layer
    disk j.  Membership splits exactly: with y = |(w - a_j) / lambda_j|, the
    point (v, w) lies in chart (j, t) at scale s iff the inner preimage norm
    of v is at most beta * sqrt(s^2 - y^2).
    """

    def __init__(self, inner: Covering, layers, beta: float, theta: float):
        self.inner = inner
        self.layers = layers
        self.beta = float(beta)
        self.theta = float(theta)
        self.lam_factor = 1.0 / math.sqrt(1.0 - 1.0 / (beta * beta))

    # -- sequence protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.layers) * len(self.inner.charts)

    def _layer(self, j: int):
        k, jj = divmod(j, self.layers.n_angles)
        a, r = self.layers.disk(k, jj)
        return a, r * self.lam_factor

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        j, t = divmod(i, len(self.inner.charts))
        a, lam = self._layer(j)
        return suspend_chart(
            self.inner.charts[t],
            SuspensionParams(lam=lam, a=a, beta=self.beta))

    def __iter__(self):
        kappa_in = len(self.inner.charts)
        for j in range(len(self.layers)):
            a, lam = self._layer(j)
            p = SuspensionParams(lam=lam, a=a, beta=self.beta)
            for t in range(kappa_in):
                yield suspend_chart(self.inner.charts[t], p)

    def __eq__(self, other):
        if isinstance(other, SuspendedCharts):
            return (self.inner, self.layers, self.beta) == \
                   (other.inner, other.layers, other.beta)
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    # -- bulk access ------------------------------------------------------------

    def iter_chart_arrays(self):
        """Yield (b, d) blocks, one layer at a time, for streaming scans."""
        bi, di = chart_arrays(self.inner.charts)
        a_arr, r_arr = self.layers.disk_arrays()
        lam_arr = r_arr * self.lam_factor
        kappa_in = bi.shape[0]
        for j in range(len(self.layers)):
            b = np.empty((kappa_in, bi.shape[1] + 1), dtype=complex)
            d = np.empty_like(b)
            b[:, :-1] = bi
            b[:, -1] = a_arr[j]
            d[:, :-1] = self.beta * di
            d[:, -1] = lam_arr[j]
            yield b, d

    # -- point location -----------------------------------------------------------

    def covers(self, pts: np.ndarray, scale, tol: float | None = None) -> np.ndarray:
        pts = np.asarray(pts, dtype=complex)
        if pts.ndim == 1:
            pts = pts[None, :]
        n_pts = pts.shape[0]
        scale = np.broadcast_to(np.asarray(scale, dtype=float), (n_pts,))
        t = tolerance(tol)
        covered = np.zeros(n_pts, dtype=bool)
        if len(self) == 0 or n_pts == 0:
            return covered
        w = pts[:, -1]
        v = pts[:, :-1]
        for base_idx, layer_j in self._layer_passes(w, scale):
            keep = ~covered[base_idx]
            idx = base_idx[keep]
            if idx.size == 0:
                continue
            jj = layer_j[keep]
            a, lam = self._layer_arrays(jj)
            y2 = np.abs((w[idx] - a) / lam) ** 2
            s2 = scale[idx] ** 2 * (1.0 + t)
            feas = y2 <= s2
            if not feas.any():
                continue
            sub = idx[feas]
            inner_scale = self.beta * np.sqrt(np.maximum(s2[feas] - y2[feas], 0.0))
            ok = covers_points(self.inner.charts, v[sub], inner_scale, tol=t)
            covered[sub] |= ok
        return covered

    def _layer_arrays(self, j: np.ndarray):
        """Centers and lambda heights of the given layer indices (vectorized)."""
        j = np.asarray(j, dtype=int)
        if isinstance(self.layers, _SingleDisk):
            return np.zeros(j.shape, complex), np.full(j.shape, self.lam_factor)
        L = self.layers
        k, jj = np.divmod(j, L.n_angles)
        rho = L._rho[k]
        return L.cf * rho * L._unit[jj], L.rf * rho * self.lam_factor

    def _layer_passes(self, w: np.ndarray, scale: np.ndarray):
        """Enumerate (point indices, layer index per point) candidate passes."""
        n_pts = w.shape[0]
        if isinstance(self.layers, _SingleDisk):
            yield np.arange(n_pts), np.zeros(n_pts, dtype=int)
            return
        L = self.layers
        smax = float(scale.max(initial=0.0))
        u = np.abs(w)
        k0 = np.floor(np.log(np.maximum(u, 1e-300)) / math.log(L.q)).astype(int)
        j0 = np.round(np.angle(w) / (2.0 * math.pi / L.n_angles)).astype(int)
        ring_offsets, angle_offsets = L._windows(smax, self.lam_factor)
        for do in ring_offsets:
            k = k0 + do
            valid = (k >= 0) & (k < L.n_rings)
            if not valid.any():
                continue
            base = np.nonzero(valid)[0]
            for da in angle_offsets:
                j = k[base] * L.n_angles + (j0[base] + da) % L.n_angles
                yield base, j

    def candidates(self, p, scale: float, tol: float | None = None):
        """Indices of all charts that could contain point ``p`` at ``scale``."""
        p = tuple(p)
        w, v = p[-1], p[:-1]
        t = tolerance(tol)
        kappa_in = len(self.inner.charts)
        layer_js = self.layers.candidates(complex(w), scale, rmult=self.lam_factor)
        for j in layer_js:
            a, lam = self._layer(j)
            y2 = abs((complex(w) - a) / lam) ** 2
            s2 = scale * scale * (1.0 + t)
            if y2 > s2:
                continue
            inner_scale = self.beta * math.sqrt(max(s2 - y2, 0.0))
            if inner_scale <= 0.0:
                continue
            for tt in chart_candidates(self.inner.charts, v, inner_scale, tol=t):
                yield j * kappa_in + tt

    def neighbors(self, i: int, scale: float = 1.0) -> list:
        """Chart indices (``i`` included) whose images at ``scale`` can meet chart ``i``'s.

        Two images meet only if their projections meet on every axis: on the
        last axis these are the layer disks at ``scale * lam_factor``, on the
        others the inner images at ``scale * beta``.
        """
        kappa_in = len(self.inner.charts)
        j, t = divmod(i, kappa_in)
        inner = chart_neighbors(self.inner.charts, t, scale * self.beta)
        return [jj * kappa_in + tt
                for jj in self.layers.neighbors(j, scale * self.lam_factor)
                for tt in inner]


# ---------------------------------------------------------------------------
# generic sequence helpers (shared by list-backed and structured coverings)
# ---------------------------------------------------------------------------

def chart_arrays(charts) -> tuple:
    """Materialize (b, d) arrays of shape (kappa, dim) for any chart sequence."""
    if isinstance(charts, RingDisks):
        return charts.chart_arrays()
    if isinstance(charts, SuspendedCharts):
        blocks = list(charts.iter_chart_arrays())
        if not blocks:
            return np.zeros((0, 1), complex), np.zeros((0, 1), complex)
        return (np.concatenate([b for b, _ in blocks]),
                np.concatenate([d for _, d in blocks]))
    if not all(isinstance(c, DiagonalAffineChart) for c in charts):
        raise UnsupportedAmbient(AFFINE_ONLY)
    b = np.array([c.b for c in charts], dtype=complex)
    d = np.array([c.d for c in charts], dtype=complex)
    if b.size == 0:
        b = b.reshape(0, 1)
        d = d.reshape(0, 1)
    return b, d


def iter_chart_arrays(charts, block: int = 1 << 18):
    """Stream (b, d) blocks without materializing lazy chart families."""
    if isinstance(charts, SuspendedCharts):
        yield from charts.iter_chart_arrays()
        return
    b, d = chart_arrays(charts)
    for lo in range(0, b.shape[0], block):
        yield b[lo:lo + block], d[lo:lo + block]


def covers_points(charts, pts: np.ndarray, scale, tol: float | None = None) -> np.ndarray:
    """Vectorized membership of points in the union of chart images.

    Structured chart families answer through their own point location
    (rings, layers, level branches); plain lists get a blocked scan.
    """
    pts = np.asarray(pts, dtype=complex)
    if isinstance(charts, RingDisks):
        return charts.covers(pts.ravel() if pts.ndim > 1 else pts, scale, tol=tol)
    cover_fn = getattr(charts, "covers", None)
    if cover_fn is not None:
        return cover_fn(pts, scale, tol=tol)
    if pts.ndim == 1:
        pts = pts[:, None]
    n_pts = pts.shape[0]
    scale = np.broadcast_to(np.asarray(scale, dtype=float), (n_pts,))
    t = tolerance(tol)
    covered = np.zeros(n_pts, dtype=bool)
    if len(charts) == 0 or n_pts == 0:
        return covered
    b, d = chart_arrays(charts)
    for lo in range(0, b.shape[0], 512):
        idx = np.nonzero(~covered)[0]
        if idx.size == 0:
            break
        bb, dd = b[lo:lo + 512], d[lo:lo + 512]
        z = pts[idx, None, :] - bb[None, :, :]
        norms = (np.abs(z / dd[None, :, :]) ** 2).sum(axis=2)
        hit = (norms <= (scale[idx, None] ** 2) * (1.0 + t)).any(axis=1)
        covered[idx[hit]] = True
    return covered


def chart_candidates(charts, p, scale: float, tol: float | None = None):
    """Candidate chart indices for a single point (superset of the containing set)."""
    if isinstance(charts, RingDisks):
        z = complex(p[0]) if isinstance(p, (tuple, list, np.ndarray)) else complex(p)
        yield from charts.candidates(z, scale)
        return
    cand_fn = getattr(charts, "candidates", None)
    if cand_fn is not None:
        yield from cand_fn(p, scale, tol=tol)
        return
    yield from range(len(charts))


def chart_neighbors(charts, i: int, scale: float = 1.0) -> list:
    """Sorted superset of the chart indices whose images at ``scale`` can meet
    chart ``i``'s (``i`` included); every index for plain lists."""
    neighbors_fn = getattr(charts, "neighbors", None)
    if neighbors_fn is not None:
        return neighbors_fn(i, scale)
    return list(range(len(charts)))


# ---------------------------------------------------------------------------
# the covering-level operators
# ---------------------------------------------------------------------------

def _extended_ambient(ambient, puncture_new_axis: bool) -> PolydiscComplement:
    if isinstance(ambient, PuncturedPlane):
        n, active = 1, frozenset({1})
    elif isinstance(ambient, PolydiscComplement):
        n, active = ambient.n, frozenset(ambient.active_axes)
    else:
        raise UnsupportedAmbient("suspension is defined over affine coverings only")
    if puncture_new_axis:
        active = active | {n + 1}
    return PolydiscComplement(n=n + 1, active_axes=active)


def suspend_covering(cov: Covering, delta: float, beta: float) -> Covering:
    """Cover G x (D_1 \\ D_delta) by layered suspensions of ``cov``.

    Layer disks come from a zeta-covering of the annulus with
    zeta = (2 mu / beta)(1 - 1/beta^2)^{-1/2}; each disk (a_j, r_j) spawns one
    suspension of every inner chart with lambda_j = r_j (1 - 1/beta^2)^{-1/2}.
    The result has factor theta = mu / beta and kappa = N * kappa(cov).
    """
    mu = cov.gamma
    if not 1.0 < beta < mu:
        raise InvalidBeta(f"beta must lie in (1, {mu}), got {beta}")
    theta = mu / beta
    zeta = layer_zeta(mu, beta)
    layer_cov = cover_annulus(delta, zeta)
    charts = SuspendedCharts(cov, layer_cov.charts, beta=beta, theta=theta)
    ambient = _extended_ambient(cov.ambient, puncture_new_axis=True)
    meta = {
        "construction": "suspension",
        "delta": float(delta),
        "beta": float(beta),
        "mu": float(mu),
        "theta": float(theta),
        "zeta": float(zeta),
        "n_layers": len(layer_cov.charts),
        "layer_meta": layer_cov.meta,
    }
    return Covering(ambient=ambient, gamma=theta, charts=charts, meta=meta)


def suspend_trivial(cov: Covering, beta: float) -> Covering:
    """Add an unpunctured axis: a single layer covering the whole unit disk.

    The layer uses the disk (a=0, r=1), so lambda = (1 - 1/beta^2)^{-1/2} and
    the suspended charts cover G x D_1 at unit scale; nothing has to be
    avoided on the new axis.
    """
    mu = cov.gamma
    if not 1.0 < beta < mu:
        raise InvalidBeta(f"beta must lie in (1, {mu}), got {beta}")
    theta = mu / beta
    charts = SuspendedCharts(cov, _SingleDisk(), beta=beta, theta=theta)
    ambient = _extended_ambient(cov.ambient, puncture_new_axis=False)
    meta = {
        "construction": "suspension_trivial",
        "beta": float(beta),
        "mu": float(mu),
        "theta": float(theta),
        "n_layers": 1,
    }
    return Covering(ambient=ambient, gamma=theta, charts=charts, meta=meta)

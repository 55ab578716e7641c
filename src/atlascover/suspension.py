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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .annulus import cover_annulus
from .core import (
    ChartFamily,
    Covering,
    DiagonalAffineChart,
    InvalidBeta,
    PolydiscComplement,
    PuncturedPlane,
    UnsupportedAmbient,
    chart_count,
    family,
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


class SuspendedCharts(ChartFamily):
    """Lazy chart family of a layered suspension, ordered (layer, inner chart).

    Chart j * kappa_inner + t is the suspension of inner chart t over layer
    disk j.  Membership splits exactly: with y = |(w - a_j) / lambda_j|, the
    point (v, w) lies in chart (j, t) at scale s iff the inner preimage norm
    of v is at most beta * sqrt(s^2 - y^2).  The layer disks are any
    one-dimensional chart family.
    """

    def __init__(self, inner: Covering, layers, beta: float):
        self.inner = inner
        self.layers = family(layers)
        self.beta = float(beta)
        self.lam_factor = 1.0 / math.sqrt(1.0 - 1.0 / (beta * beta))
        self._inner = inner.family
        self.dim = inner.dim + 1
        self.gamma = inner.gamma / self.beta

    @cached_property
    def _layer_table(self) -> tuple:
        """Centers a_j and heights lambda_j = r_j * lam_factor of the layer disks."""
        a, r = self.layers.chart_arrays()
        return a[:, 0], r[:, 0].real * self.lam_factor

    def __len__(self) -> int:
        return len(self.layers) * len(self._inner)

    def _chart(self, i):
        j, t = divmod(i, len(self._inner))
        a, lam = self._layer_table
        return suspend_chart(
            self._inner[t],
            SuspensionParams(lam=float(lam[j]), a=complex(a[j]), beta=self.beta))

    def _recipe(self):
        return self.inner, self.layers, self.beta

    # -- bulk access ------------------------------------------------------------

    def chart_arrays(self):
        blocks = list(self.iter_chart_arrays())
        if not blocks:
            return np.zeros((0, 1), complex), np.zeros((0, 1), complex)
        return (np.concatenate([b for b, _ in blocks]),
                np.concatenate([d for _, d in blocks]))

    def arrays_at(self, idx):
        """Rows (inner b_t, a_j) and (beta d_t, lambda_j) of the charts (j, t)."""
        j, t = np.divmod(idx, len(self._inner))
        bi, di = self._inner.arrays_at(t)
        a, lam = self._layer_table
        return (np.concatenate([bi, a[j, None]], axis=1),
                np.concatenate([self.beta * di, lam[j, None].astype(complex)], axis=1))

    def iter_chart_arrays(self):
        """Yield (b, d) blocks, one layer at a time, for streaming scans."""
        kappa_in = len(self._inner)
        for j in range(len(self.layers)):
            yield self.arrays_at(np.arange(j * kappa_in, (j + 1) * kappa_in))

    def doubling_factors(self, axes, scale: float, betas=(), **sampling) -> tuple:
        """The layer family's factors at ``(lam_factor,) + betas``, then the
        inner family's at ``(beta,) + betas``: chart (j, t) has d = (beta d_t,
        lam_factor r_j), so it passes iff layer disk j and inner chart t do."""
        last = self.dim - 1
        return (self.layers.doubling_factors((0,) if last in axes else (), scale,
                                             (self.lam_factor,) + betas)
                + self._inner.doubling_factors(tuple(i for i in axes if i != last),
                                               scale, (self.beta,) + betas))

    # -- point location -----------------------------------------------------------

    def covers(self, pts, scale, tol: float | None = None) -> np.ndarray:
        """Layer candidates from the layer family's passes, then the inner
        family at the scale the exact split leaves for each point."""
        pts = self._points(pts)
        scale = np.broadcast_to(np.asarray(scale, dtype=float), pts.shape[:1])
        t = tolerance(tol)
        covered = np.zeros(pts.shape[0], dtype=bool)
        if chart_count(self) == 0:
            return covered
        w, v = pts[:, -1], pts[:, :-1]
        a, lam = self._layer_table
        for idx, j in self.layers.passes(pts[:, -1:], scale * self.lam_factor, covered):
            y2 = np.abs((w[idx] - a[j]) / lam[j]) ** 2
            s2 = scale[idx] ** 2 * (1.0 + t)
            feas = y2 <= s2
            if not feas.any():
                continue
            sub = idx[feas]
            inner_scale = self.beta * np.sqrt(np.maximum(s2[feas] - y2[feas], 0.0))
            covered[sub] |= self._inner.covers(v[sub], inner_scale, tol=t)
        return covered

    def candidates(self, p, scale: float, tol: float | None = None):
        """Indices of all charts that could contain point ``p`` at ``scale``."""
        w, v = complex(p[-1]), p[:-1]
        t = tolerance(tol)
        a, lam = self._layer_table
        kappa_in = len(self._inner)
        s2 = scale * scale * (1.0 + t)
        for j in self.layers.candidates((w,), scale * self.lam_factor):
            y2 = abs((w - complex(a[j])) / float(lam[j])) ** 2
            if y2 > s2:
                continue
            inner_scale = self.beta * math.sqrt(max(s2 - y2, 0.0))
            if inner_scale <= 0.0:
                continue
            for tt in self._inner.candidates(v, inner_scale, tol=t):
                yield j * kappa_in + tt

    def neighbors(self, i: int, scale: float = 1.0) -> np.ndarray:
        """Chart indices (``i`` included) whose images at ``scale`` can meet chart ``i``'s.

        Two images meet only if their projections meet on every axis: on the
        last axis these are the layer disks at ``scale * lam_factor``, on the
        others the inner images at ``scale * beta``.
        """
        kappa_in = len(self._inner)
        j, t = divmod(i, kappa_in)
        outer = self.layers.neighbors(j, scale * self.lam_factor) * kappa_in
        return (outer[:, None] + self._inner.neighbors(t, scale * self.beta)).ravel()


# ---------------------------------------------------------------------------
# module-level views of the chart-family protocol (any chart sequence)
# ---------------------------------------------------------------------------

def chart_arrays(charts) -> tuple:
    """(b, d) arrays of shape (kappa, dim) for any chart sequence."""
    return family(charts).chart_arrays()


def iter_chart_arrays(charts):
    """Stream (b, d) blocks without materializing lazy chart families."""
    yield from family(charts).iter_chart_arrays()


def covers_points(charts, pts, scale, tol: float | None = None) -> np.ndarray:
    """Vectorized membership of points in the union of chart images."""
    return family(charts).covers(pts, scale, tol=tol)


def chart_candidates(charts, p, scale: float, tol: float | None = None):
    """Candidate chart indices for a single point (superset of the containing set)."""
    yield from family(charts).candidates(p, scale, tol=tol)


def chart_neighbors(charts, i: int, scale: float = 1.0) -> np.ndarray:
    """Sorted int64 superset of the chart indices whose images at ``scale`` can
    meet chart ``i``'s (``i`` included); every index for plain lists."""
    return family(charts).neighbors(i, scale)


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
    charts = SuspendedCharts(cov, layer_cov.charts, beta=beta)
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
    layer = DiagonalAffineChart(b=(0j,), d=(1.0,), gamma=layer_zeta(mu, beta))
    charts = SuspendedCharts(cov, [layer], beta=beta)
    ambient = _extended_ambient(cov.ambient, puncture_new_axis=False)
    meta = {
        "construction": "suspension_trivial",
        "beta": float(beta),
        "mu": float(mu),
        "theta": float(theta),
        "n_layers": 1,
    }
    return Covering(ambient=ambient, gamma=theta, charts=charts, meta=meta)

"""Suspension of doubling charts: lifting an n-dim covering to n+1 dims.

The suspension with height lambda, shift a and thickening beta sends a chart
psi with factor gamma to

    (x, y) |-> (psi~(beta x), lambda y + a),

a chart with factor theta = gamma / beta.  Layering suspensions over a
Whitney-disk covering of an annulus covers G x (D_1 \\ D_delta): layer j uses
the disk (a_j, r_j) with lambda_j = r_j (1 - 1/beta^2)^{-1/2}, so the layer
covers G x D_{r_j}(a_j) exactly; the one layer (0, 1) of an unpunctured axis covers G x D_1.
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
    family,
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
    """Suspend one chart: translation (b, a), scales (beta*d, lambda), factor
    gamma/beta; `SuspendedCharts.arrays_at` states the same map row by row."""
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

    def _recipe(self):
        return self.inner, self.layers, self.beta

    def arrays_at(self, idx):
        """Rows (inner b_t, a_j) and (beta d_t, lambda_j) of the charts (j, t):
        `suspend_chart` of inner chart t with the height and shift of layer disk j."""
        j, t = np.divmod(idx, len(self._inner))
        bi, di = self._inner.arrays_at(t)
        a, lam = self._layer_table
        b, d = np.empty((2, j.size, self.dim), dtype=complex)
        b[:, :-1], b[:, -1] = bi, a[j]
        d[:, :-1], d[:, -1] = self.beta * di, lam[j]
        return b, d

    def level_rows(self, betas=()) -> tuple:
        """The layer family's levels at ``(lam_factor,) + betas`` on the last
        axis, then the inner family's at ``(beta,) + betas``: chart (j, t) has
        d = (beta d_t, lam_factor r_j), so its rows are layer disk j's and inner
        chart t's."""
        last = self.dim - 1
        return (tuple((last + first, b, d) for first, b, d in
                      self.layers.level_rows((self.lam_factor,) + betas))
                + self._inner.level_rows((self.beta,) + betas))

    # -- point location -----------------------------------------------------------

    def _split(self, pts, scale, t: float, idx, j):
        """The rows r of the layer pairs (idx, j) with y^2 <= s^2 (1 + t) for
        y = |(w - a_j) / lambda_j|, and their inner scales beta sqrt(s^2 (1 + t) - y^2)."""
        a, lam = self._layer_table
        with np.errstate(invalid="ignore", over="ignore"):
            y2 = np.abs((pts[idx, -1] - a[j]) / lam[j]) ** 2
        s2 = scale[idx] ** 2 * (1.0 + t)
        r = np.nonzero(y2 <= s2)[0]
        return r, self.beta * np.sqrt(np.maximum(s2[r] - y2[r], 0.0))

    def passes(self, pts, scale, done):
        """The layer family's passes, all at once, then the inner family's passes
        at the scale the exact split leaves: as many passes as the inner family
        makes, however many levels deep.  ``done`` is read once."""
        layer = self.layers.passes(pts[:, -1:], scale * self.lam_factor, done)
        idx, j = np.concatenate([np.zeros((2, 0), dtype=np.int64), *map(np.stack, layer)], axis=1)
        r, inner_scale = self._split(pts, scale, 0.0, idx, j)
        sub, outer = idx[r], j[r] * len(self._inner)
        for k, tt in self._inner.passes(pts[sub, :-1], inner_scale, done[sub]):
            yield sub[k], outer[k] + tt

    def covers(self, pts, scale, tol: float | None = None) -> np.ndarray:
        """Layer candidates from the layer family's passes, then the inner family
        at the scale the exact split leaves, at tolerance 0: the split applied it."""
        pts, scale, t = self._points(pts, scale, tol)
        covered = np.zeros(pts.shape[0], dtype=bool)
        for idx, j in self.layers.passes(pts[:, -1:], scale * self.lam_factor, covered):
            r, inner_scale = self._split(pts, scale, t, idx, j)
            sub = idx[r]
            if r.size:
                covered[sub[self._inner.covers(pts[sub, :-1], inner_scale, tol=0.0)]] = True
        return covered

    def _neighbors(self, i: int, scale: float) -> np.ndarray:
        """Chart indices (``i`` included) whose images at ``scale`` can meet chart ``i``'s.

        Two images meet only if their projections meet on every axis: on the
        last axis these are the layer disks at ``scale * lam_factor``, on the
        others the inner images at ``scale * beta``.
        """
        kappa_in = len(self._inner)
        j, t = divmod(i, kappa_in)
        outer = self.layers._neighbors(j, scale * self.lam_factor) * kappa_in
        return (outer[:, None] + self._inner._neighbors(t, scale * self.beta)).ravel()


# ---------------------------------------------------------------------------
# module-level views of the chart-family protocol (any chart sequence)
# ---------------------------------------------------------------------------

def chart_arrays(charts) -> tuple:
    """(b, d) arrays of shape (kappa, dim) for any chart sequence."""
    return family(charts).chart_arrays()


def iter_chart_arrays(charts):
    """(b, d) of any chart sequence as one block (`chart_arrays`)."""
    yield family(charts).chart_arrays()


def covers_points(charts, pts, scale, tol: float | None = None) -> np.ndarray:
    """Vectorized membership of points in the union of chart images."""
    return family(charts).covers(pts, scale, tol=tol)


def chart_candidates(charts, p, scale: float, tol: float | None = None):
    """The indices of the charts whose images at ``scale`` contain the point ``p``."""
    yield from family(charts).locate(np.reshape(p, (1, -1)), scale, tol=tol)[1].tolist()


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


def cover_axis(delta: float | None, zeta: float) -> Covering:
    """A zeta-covering of one axis: `cover_annulus` of D_1 \\ D_delta when the
    axis is punctured, the one-chart unit disk (b=0, d=1) when ``delta`` is None."""
    if delta is not None:
        return cover_annulus(delta, zeta)
    return Covering(ambient=PolydiscComplement(n=1, active_axes=frozenset()), gamma=zeta,
                    charts=[DiagonalAffineChart(b=(0j,), d=(1.0,), gamma=zeta)],
                    meta={"construction": "unpunctured_disc"})


def suspend_covering(cov: Covering, delta: float | None, beta: float) -> Covering:
    """Cover G x (D_1 \\ D_delta) (G x D_1 if ``delta`` is None) by suspensions of ``cov``.

    Layer disks come from a zeta-covering of the new axis (`cover_axis`) with
    zeta = (2 mu / beta)(1 - 1/beta^2)^{-1/2}; each disk (a_j, r_j) spawns one
    suspension of every inner chart with lambda_j = r_j (1 - 1/beta^2)^{-1/2}.
    The result has factor theta = mu / beta and kappa = N * kappa(cov).
    """
    mu = cov.gamma
    if not 1.0 < beta < mu:
        raise InvalidBeta(f"beta must lie in (1, {mu}), got {beta}")
    theta = mu / beta
    zeta = layer_zeta(mu, beta)
    layer_cov = cover_axis(delta, zeta)
    charts = SuspendedCharts(cov, layer_cov.charts, beta=beta)
    ambient = _extended_ambient(cov.ambient, puncture_new_axis=delta is not None)
    meta = {
        "construction": "suspension",
        "delta": None if delta is None else float(delta),
        "beta": float(beta),
        "mu": float(mu),
        "theta": float(theta),
        "zeta": float(zeta),
        "n_layers": len(layer_cov.charts),
        "layer_meta": layer_cov.meta,
    }
    return Covering(ambient=ambient, gamma=theta, charts=charts, meta=meta)

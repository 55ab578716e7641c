"""Suspension of doubling charts: lifting an n-dim covering to n+1 dims.

The suspension with height lambda, shift a and thickening beta sends a chart
psi with factor gamma to

    (x, y) |-> (psi~(beta x), lambda y + a),

a chart with factor theta = gamma / beta.  `SuspendedCharts` layers the
suspensions of an inner chart family over the chart family of one axis
(`cover_axis`): layer j uses the disk (a_j, r_j) with
lambda_j = r_j (1 - 1/beta^2)^{-1/2}, so it covers G x D_{r_j}(a_j) exactly.
Over the ring disks of an annulus that is G x (D_1 \\ D_delta); the one layer
(0, 1) of an unpunctured axis covers G x D_1.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .annulus import ring_disks
from .core import (
    AtlasError,
    ChartFamily,
    DiagonalAffineChart,
    InvalidBeta,
    UnsupportedAmbient,
    family,
)


def layer_zeta(mu: float, beta: float) -> float:
    """Doubling factor required of layer disks: (2 mu / beta)(1 - 1/beta^2)^{-1/2}."""
    return (2.0 * mu / beta) / math.sqrt(1.0 - 1.0 / (beta * beta))


class SuspendedCharts(ChartFamily):
    """Lazy chart family of a layered suspension, ordered (layer, inner chart).

    Chart (j, t) of `radices` is the suspension of inner chart t over layer
    disk j.  Membership splits exactly: with y = |(w - a_j) / lambda_j|, the
    point (v, w) lies in chart (j, t) at scale s iff the inner preimage norm
    of v is at most beta * sqrt(s^2 - y^2).  The inner charts are any affine
    chart family, beta in (1, its factor), and the layer disks any of dim 1.
    """

    def __init__(self, inner, layers, beta: float):
        self.inner = family(inner)
        self.layers = family(layers)
        self.beta = float(beta)
        if type(self.inner).arrays_at is ChartFamily.arrays_at:
            raise UnsupportedAmbient("suspension is defined over affine chart families only")
        mu = self.inner.gamma
        if mu is None:
            raise AtlasError("the inner family is empty: it has no factor to bound beta")
        if not 1.0 < self.beta < mu:
            raise InvalidBeta(f"beta must lie in (1, {mu}), got {beta}")
        self.lam_factor = 1.0 / math.sqrt(1.0 - 1.0 / (self.beta * self.beta))
        self.dim = self.inner.dim + 1
        self.gamma = mu / self.beta
        self.radices = (self.layers.kappa, self.inner.kappa)

    @cached_property
    def _layer_table(self) -> tuple:
        """Centers a_j, heights lambda_j = r_j * lam_factor and 1 / lambda_j of the layer disks."""
        a, r = self.layers.chart_arrays()
        lam = r[:, 0].real * self.lam_factor
        return a[:, 0], lam, 1.0 / lam

    def _recipe(self):
        return self.inner, self.layers, self.beta

    def arrays_at(self, idx):
        """Rows (inner b_t, a_j) and (beta d_t, lambda_j) of the charts (j, t): the
        suspension (x, y) |-> (psi_t(beta x), lambda_j y + a_j) of inner chart t over
        layer disk j, with lambda_j = r_j lam_factor and factor gamma / beta."""
        j, t = np.unravel_index(idx, self.radices)
        bi, di = self.inner.arrays_at(t)
        a, lam, _ = self._layer_table
        b, d = np.empty((2, j.size, self.dim), dtype=complex)
        b[:, :-1], b[:, -1] = bi, a[j]
        d[:, :-1], d[:, -1] = self.beta * di, lam[j]
        return b, d

    def level_rows(self) -> tuple:
        """The layer family's levels on the last axis, d times lam_factor, then the
        inner family's, d times beta: chart (j, t) has d = (beta d_t, lam_factor r_j),
        so its rows are layer disk j's and inner chart t's."""
        last = self.dim - 1
        return (tuple((last + first, b, self.lam_factor * d)
                      for first, b, d in self.layers.level_rows())
                + tuple((first, b, self.beta * d) for first, b, d in self.inner.level_rows()))

    # -- point location -----------------------------------------------------------

    def _split(self, w, s, t: float, j) -> tuple:
        """Row r: whether y^2 <= s^2 (1 + t) for y = |(w - a_j) / lambda_j|, j = j[r],
        and the inner scale beta sqrt(s^2 (1 + t) - y^2) (0 past the disk).

        numpy divides a complex by a real as a multiplication by its reciprocal,
        so (w - a_j) * (1 / lambda_j) is that quotient bit for bit (lambda_j > 0);
        np.abs stays, as hypot or re^2 + im^2 can differ from it in the last bit.
        The steps write in place, as `RingDisks._anchors` does."""
        a, _, inv = self._layer_table
        with np.errstate(invalid="ignore", over="ignore"):
            y = w - a[j]
            y *= inv[j]
            y2 = np.abs(y)
            y2 *= y2
            s2 = s ** 2 * (1.0 + t)
            inner = s2 - y2
            np.maximum(inner, 0.0, out=inner)
            np.sqrt(inner, out=inner)
            inner *= self.beta
            return y2 <= s2, inner

    def passes(self, pts, scale, done):
        """The layer family's passes, all at once, then the inner family's passes
        at the scale the exact split leaves: as many passes as the inner family
        makes, however many levels deep, and none when the layer passes offer no
        pair; ``done`` is read before the first yield."""
        layer = self.layers.passes(pts[:, -1:], scale * self.lam_factor, done)
        idx, j = np.concatenate([np.zeros((2, 0), dtype=np.int64), *map(np.stack, layer)], axis=1)
        if not idx.size:
            return
        inside, inner_scale = self._split(pts[idx, -1], scale[idx], 0.0, j)
        r = np.nonzero(inside)[0]
        sub, outer = idx[r], j[r]
        for k, tt in self.inner.passes(pts[sub, :-1], inner_scale[r], done[sub]):
            yield sub[k], np.ravel_multi_index((outer[k], tt), self.radices)

    def _anchor(self, pts):
        """(j, t): the layer anchor j of w and the inner anchor t of v, or None."""
        j, t = self.layers._anchor(pts[:, -1:]), self.inner._anchor(pts[:, :-1])
        return None if j is None or t is None else (j, t)

    def _key(self, j):
        """Flat chart indices as (layer disk, inner key), the form `_hits` reads."""
        j, t = np.unravel_index(j, self.radices)
        return j, self.inner._key(t)

    def _hits(self, pts, scale, t: float, anchor):
        """Row r: the exact split of chart (j[r], t[r]), then the inner row test
        at the scale it leaves, at tolerance 0: the split applied it."""
        j, tt = anchor
        inside, inner_scale = self._split(pts[:, -1], scale, t, j)
        return inside & self.inner._hits(pts[:, :-1], inner_scale, 0.0, tt)

    def _grid_hits(self, axes, scale, t: float) -> np.ndarray:
        """`ChartFamily._grid_hits` by factors: the layer anchor of each point of the
        last axis and the exact split at each (scale, point), then the inner family's
        grid pass over the other axes at the M x L scales the split leaves, at
        tolerance 0 as in `_hits`; row r of the product is (inner row, layer point)."""
        w = axes[-1]
        j = self.layers._anchor(w[:, None])
        if j is None:
            return np.zeros((scale.size, math.prod(map(len, axes))), dtype=bool)
        inside, inner_scale = self._split(w, scale[:, None], t, j)
        hits = self.inner._grid_hits(axes[:-1], inner_scale.ravel(), 0.0)
        hits = hits.reshape(*inside.shape, -1) & inside[..., None]
        return hits.transpose(0, 2, 1).reshape(scale.size, -1)

    def _neighbors(self, idx, scale: float) -> tuple:
        """Chart (j, t)'s neighbours, for each chart in ``idx``: two images meet
        only if their projections meet on every axis, the layer disks at
        ``scale * lam_factor`` and the inner images at ``scale * beta``.  So
        they are the ragged outer product, layer-major, of the layer family's
        lists and the inner family's, and the counts are their products."""
        j, t = np.unravel_index(idx, self.radices)
        cj, outer = self.layers._neighbors(j, scale * self.lam_factor)
        ct, inner = self.inner._neighbors(t, scale * self.beta)

        def lists():
            reps = np.repeat(ct, cj)            # each layer neighbour's inner count
            skip = np.repeat(np.cumsum(ct) - ct, cj) - (np.cumsum(reps) - reps)
            pos = np.repeat(skip, reps) + np.arange(reps.sum())
            return np.ravel_multi_index((np.repeat(outer(), reps), inner()[pos]), self.radices)
        return cj * ct, lists


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


def cover_axis(delta: float | None, zeta: float) -> ChartFamily:
    """The zeta-doubling chart family of one axis: the ring disks of
    D_1 \\ D_delta (`ring_disks`) when the axis is punctured, the one-disk list
    (b=0, d=1) when ``delta`` is None."""
    if delta is not None:
        return ring_disks(delta, zeta)
    return family([DiagonalAffineChart(b=(0j,), d=(1.0,), gamma=zeta)])

import math

import numpy as np
import pytest

from atlascover.annulus import cover_annulus
from atlascover.core import (
    DiagonalAffineChart,
    InvalidBeta,
    PolydiscComplement,
    UnsupportedAmbient,
    chart_contains,
)
from atlascover.suspension import SuspendedCharts, chart_arrays, cover_axis, layer_zeta
from atlascover.polydisc import cover_punctured_polydisc

from oracles import SuspensionParams, ball_points, brute_covered, containing_pairs, suspend_chart


def _suspend(inner, delta, beta):
    """One polydisc level over ``inner``: its layers the family of an axis
    punctured at ``delta`` (None: not punctured), sized by `layer_zeta`."""
    return SuspendedCharts(inner, cover_axis(delta, layer_zeta(inner.gamma, beta)), beta)


def test_suspend_chart_instantiation():
    psi = DiagonalAffineChart(b=(0.0,), d=(1.0,), gamma=4.0)
    out = suspend_chart(psi, SuspensionParams(lam=1.0, a=0.0, beta=2.0))
    assert out.b == (0j, 0j)
    assert out.d == ((2 + 0j), (1 + 0j))
    assert out.gamma == 2.0


def test_factor_formula():
    psi = DiagonalAffineChart(b=(0.1,), d=(0.5,), gamma=4.0)
    out = suspend_chart(psi, SuspensionParams(lam=0.3, a=1j, beta=2.0))
    assert abs(out.gamma - 4.0 / 2.0) <= 1e-12


def test_layer_zeta_formula():
    assert abs(layer_zeta(4.0, 2.0) - 8.0 / math.sqrt(3.0)) <= 1e-12


def test_invalid_beta():
    psi = DiagonalAffineChart(b=(0.0,), d=(1.0,), gamma=2.0)
    with pytest.raises(InvalidBeta):
        suspend_chart(psi, SuspensionParams(lam=1.0, a=0.0, beta=2.5))
    with pytest.raises(InvalidBeta):
        SuspensionParams(lam=1.0, a=0.0, beta=0.5)
    rings = cover_annulus(0.5, 4.0).charts
    with pytest.raises(InvalidBeta):
        SuspendedCharts(rings, cover_axis(0.5, 2.0), 4.0)


def test_level_set_coverings_cannot_be_suspended():
    from atlascover.levelset import cover_monomial_level_set
    cov = cover_monomial_level_set((1, 1), 0.25, gamma=4.0)
    with pytest.raises(UnsupportedAmbient):
        _suspend(cov.charts, 0.5, 2.0)


def test_counting_is_exact():
    inner = cover_annulus(0.3, 4.0).charts
    out = _suspend(inner, 0.25, 2.0)
    assert len(out) == len(out.layers) * len(inner)
    assert out.gamma == 2.0
    flat = _suspend(inner, None, 2.0)
    assert len(flat) == len(inner) and len(flat.layers) == 1 and flat.gamma == 2.0


def test_delta_one_empty():
    inner = cover_annulus(0.3, 4.0).charts
    out = _suspend(inner, 1.0, 2.0)
    assert len(out) == 0


def test_double_suspension_multiplies_counts():
    base = cover_annulus(0.4, 8.0).charts
    once = _suspend(base, 0.4, 2.0)
    twice = _suspend(once, 0.4, 2.0)
    n1 = len(once.layers)
    n2 = len(twice.layers)
    assert len(twice) == len(base) * n1 * n2


def test_layer_coverage_via_witness_point():
    # points (psi(x), w) with w in the radius-r_j disk of layer j are inside
    # the suspended chart at unit scale: the witness (x/beta, (w-a_j)/lam_j)
    # has norm <= 1
    inner = cover_annulus(0.4, 4.0).charts
    out = _suspend(inner, 0.3, 2.0)
    beta = 2.0
    layers = out.layers
    lam_f = out.lam_factor
    rng = np.random.default_rng(5)
    a, r = layers.chart_arrays()
    for j in (0, len(layers) // 2, len(layers) - 1):
        a_j, r_j = complex(a[j, 0]), float(r[j, 0].real)
        lam_j = r_j * lam_f
        for t in rng.integers(0, len(inner), 4):
            ch = out[j * len(inner) + int(t)]
            x = ball_points(1, 80, int(t))
            w = a_j + r_j * ball_points(1, 80, 1000 + int(t))[:, 0]
            witness = np.concatenate([x / beta, ((w - a_j) / lam_j)[:, None]], axis=1)
            assert (np.linalg.norm(witness, axis=1) <= 1.0 + 1e-12).all()
            pts = np.concatenate([inner[int(t)].map_points(x), w[:, None]], axis=1)
            for p in pts:
                assert chart_contains(ch, tuple(p), 1.0)


def test_no_touch_on_the_new_axis():
    # theta * lam_j <= |a_j| / 2 for every layer, hence avoidance at scale theta
    inner = cover_annulus(0.3, 4.0).charts
    out = _suspend(inner, 0.1, 2.0)
    theta = out.gamma
    b, d = chart_arrays(out)
    assert (theta * np.abs(d[:, -1]) <= np.abs(b[:, -1]) / 2.0 + 1e-15).all()
    from atlascover.core import avoidance_certificate
    amb = PolydiscComplement(n=2, active_axes={2})
    for i in np.random.default_rng(0).integers(0, len(out), 50):
        assert avoidance_certificate(out[int(i)], amb, theta)


def test_plain_list_layers_that_overlap():
    """Layers given as a plain list of overlapping disks: a list scan pairs a
    point with several layers in one pass, and a point that one of them
    covers stays covered whatever the others say."""
    layers = [DiagonalAffineChart((0.5,), (0.3,), 3.0), DiagonalAffineChart((0.6,), (0.3,), 3.0)]
    fam = SuspendedCharts(cover_annulus(0.5, 8.0).charts, layers, 2.0)
    rng = np.random.default_rng(0)
    pts = np.stack([np.exp(1j * rng.uniform(0, 2 * np.pi, 500)) * rng.uniform(0.4, 1.1, 500),
                    0.5 + 0.25 * rng.standard_normal(500) * (1 + 1j)], axis=1)
    want = brute_covered(fam, pts)
    assert 0 < want.sum() < want.size
    assert np.array_equal(fam.covers(pts, 1.0), want)
    i, j = fam.locate(pts, 1.0)
    assert list(zip(i.tolist(), j.tolist())) == containing_pairs(fam, pts, 1.0)


def _suspended(fam, i):
    """Chart i of a family, each suspension level built by `suspend_chart` from
    the inner chart and the layer disk's center a_j and radius r_j."""
    if not isinstance(fam, SuspendedCharts):
        return fam[i]
    j, t = divmod(i, len(fam.inner))
    layer = fam.layers[j]
    params = SuspensionParams(lam=layer.d[0].real * fam.lam_factor, a=layer.b[0], beta=fam.beta)
    return suspend_chart(_suspended(fam.inner, t), params)


@pytest.mark.parametrize("build", [
    lambda: cover_punctured_polydisc(2, 0.75, 2.0)[0].charts,
    lambda: cover_punctured_polydisc(3, 0.9, 2.0)[0].charts,
    lambda: _suspend(cover_annulus(0.1, 4.0).charts, None, 2.0),
    lambda: cover_punctured_polydisc(2, 0.75, 2.0, {1})[0].charts,
    lambda: cover_punctured_polydisc(2, 0.75, 2.0, {2})[0].charts,
    lambda: cover_punctured_polydisc(3, 0.9, 2.0, {1, 3})[0].charts,
], ids=["polydisc-n2", "polydisc-n3", "trivial", "polydisc-n2-axis1", "polydisc-n2-axis2",
        "polydisc-n3-axes13"])
def test_charts_are_the_suspension_map(build):
    """The rows `arrays_at` states equal `suspend_chart` applied level by level,
    bit for bit, factor included; an unpunctured axis's unit disk too, at
    level 1 or as the one layer of a level."""
    fam = build()
    idx = [0, len(fam) - 1, *np.random.default_rng(6).integers(0, len(fam), 200).tolist()]
    bits = lambda z: np.asarray(z, dtype=complex).view(np.uint64).tolist()
    for i in idx:
        got, want = fam[i], _suspended(fam, i)
        assert (bits(got.b), bits(got.d), got.gamma) == (bits(want.b), bits(want.d), want.gamma)

import math

import numpy as np
import pytest

from atlascover.annulus import cover_annulus
from atlascover.core import (
    DiagonalAffineChart,
    InvalidBeta,
    PolydiscComplement,
    chart_contains,
)
from atlascover.suspension import (
    SuspendedCharts,
    SuspensionParams,
    chart_arrays,
    layer_zeta,
    suspend_chart,
    suspend_covering,
    vertical_radius,
)

from oracles import ball_points, brute_covered, containing_pairs


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


def test_vertical_radius_formula():
    assert abs(vertical_radius(2.0, 2.0) - math.sqrt(3.0)) <= 1e-12


def test_layer_zeta_formula():
    assert abs(layer_zeta(4.0, 2.0) - 8.0 / math.sqrt(3.0)) <= 1e-12


def test_invalid_beta():
    psi = DiagonalAffineChart(b=(0.0,), d=(1.0,), gamma=2.0)
    with pytest.raises(InvalidBeta):
        suspend_chart(psi, SuspensionParams(lam=1.0, a=0.0, beta=2.5))
    with pytest.raises(InvalidBeta):
        SuspensionParams(lam=1.0, a=0.0, beta=0.5)
    cov = cover_annulus(0.5, 4.0)
    with pytest.raises(InvalidBeta):
        suspend_covering(cov, 0.5, 4.0)


def test_level_set_coverings_cannot_be_suspended():
    from atlascover.core import UnsupportedAmbient
    from atlascover.levelset import cover_monomial_level_set
    cov = cover_monomial_level_set((1, 1), 0.25, gamma=4.0)
    with pytest.raises(UnsupportedAmbient):
        suspend_covering(cov, 0.5, 2.0)


def test_counting_is_exact():
    inner = cover_annulus(0.3, 4.0)
    out = suspend_covering(inner, 0.25, 2.0)
    assert out.kappa == out.meta["n_layers"] * inner.kappa
    assert out.gamma == 2.0
    assert out.ambient == PolydiscComplement(n=2, active_axes={1, 2})


def test_delta_one_empty():
    inner = cover_annulus(0.3, 4.0)
    out = suspend_covering(inner, 1.0, 2.0)
    assert out.kappa == 0


def test_double_suspension_multiplies_counts():
    base = cover_annulus(0.4, 8.0)
    once = suspend_covering(base, 0.4, 2.0)
    twice = suspend_covering(once, 0.4, 2.0)
    n1 = once.meta["n_layers"]
    n2 = twice.meta["n_layers"]
    assert twice.kappa == base.kappa * n1 * n2


def test_layer_coverage_via_witness_point():
    # points (psi(x), w) with w in the radius-r_j disk of layer j are inside
    # the suspended chart at unit scale: the witness (x/beta, (w-a_j)/lam_j)
    # has norm <= 1
    inner = cover_annulus(0.4, 4.0)
    out = suspend_covering(inner, 0.3, 2.0)
    beta = 2.0
    layers = out.charts.layers
    lam_f = out.charts.lam_factor
    rng = np.random.default_rng(5)
    for j in (0, len(layers) // 2, len(layers) - 1):
        a_j, r_j = layers.disk(*divmod(j, layers.n_angles))
        lam_j = r_j * lam_f
        for t in rng.integers(0, inner.kappa, 4):
            ch = out.charts[j * inner.kappa + int(t)]
            x = ball_points(1, 80, int(t))
            w = a_j + r_j * ball_points(1, 80, 1000 + int(t))[:, 0]
            witness = np.concatenate([x / beta, ((w - a_j) / lam_j)[:, None]], axis=1)
            assert (np.linalg.norm(witness, axis=1) <= 1.0 + 1e-12).all()
            pts = np.concatenate([inner.charts[int(t)].map_points(x), w[:, None]], axis=1)
            for p in pts:
                assert chart_contains(ch, tuple(p), 1.0)


def test_no_touch_on_the_new_axis():
    # theta * lam_j <= |a_j| / 2 for every layer, hence avoidance at scale theta
    inner = cover_annulus(0.3, 4.0)
    out = suspend_covering(inner, 0.1, 2.0)
    theta = out.gamma
    b, d = chart_arrays(out.charts)
    assert (theta * np.abs(d[:, -1]) <= np.abs(b[:, -1]) / 2.0 + 1e-15).all()
    from atlascover.core import avoidance_certificate
    amb = PolydiscComplement(n=2, active_axes={2})
    for i in np.random.default_rng(0).integers(0, out.kappa, 50):
        assert avoidance_certificate(out.charts[int(i)], amb, theta)


def test_plain_list_layers_that_overlap():
    """Layers given as a plain list of overlapping disks: a list scan pairs a
    point with several layers in one pass, and a point that one of them
    covers stays covered whatever the others say."""
    layers = [DiagonalAffineChart((0.5,), (0.3,), 3.0), DiagonalAffineChart((0.6,), (0.3,), 3.0)]
    fam = SuspendedCharts(cover_annulus(0.5, 8.0), layers, 2.0)
    rng = np.random.default_rng(0)
    pts = np.stack([np.exp(1j * rng.uniform(0, 2 * np.pi, 500)) * rng.uniform(0.4, 1.1, 500),
                    0.5 + 0.25 * rng.standard_normal(500) * (1 + 1j)], axis=1)
    want = brute_covered(fam, pts)
    assert 0 < want.sum() < want.size
    assert np.array_equal(fam.covers(pts, 1.0), want)
    i, j = fam.locate(pts, 1.0)
    assert list(zip(i.tolist(), j.tolist())) == containing_pairs(fam, pts, 1.0)

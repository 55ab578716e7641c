import math
import warnings

import numpy as np
import pytest

from atlascover.core import NotHolomorphic
from atlascover.real_acharts import (
    MonomialData,
    RealAChart,
    axis_scale_centers,
    choose_C3,
    cover_monomial_graph,
    graph_count_bound,
    graph_membership,
    offset_grid,
    scan_points,
    shrink_for_tube,
    verify_achart,
    verify_achart_batch,
)

from oracles import cover_unit_cube_scales, graph_membership_loop


class TestAxisCenters:
    def test_quarter(self):
        assert axis_scale_centers(0.25) == [2.0 / 3.0, 1.0 / 3.0]

    def test_point_four_single_center(self):
        assert axis_scale_centers(0.4) == [2.0 / 3.0]

    def test_interval_union_covers(self):
        for eps in (0.25, 0.1, 1e-2, 1e-3, 0.49):
            centers = axis_scale_centers(eps)
            xs = np.linspace(eps * 1.0001, 0.9999, 2000)
            covered = np.zeros_like(xs, dtype=bool)
            for y in centers:
                covered |= (xs > y / 2.0) & (xs < 1.5 * y)
            assert covered.all(), eps

    def test_product_count(self):
        assert len(cover_unit_cube_scales(0.25, 2)) == 4


class TestChooseC3:
    def test_constant_map(self):
        assert choose_C3((0.0,), 1.0) == 4.0

    def test_linear_with_bound_two(self):
        # frozen from evaluating the certificate for C3 = 4, 5, ...
        assert choose_C3((1.0,), 2.0) == 11.0

    def test_certificate_dominates_boundary_scan(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            m = int(rng.integers(1, 3))
            mu = tuple(rng.uniform(-1.5, 1.5, m))
            data = MonomialData(coefficient=float(rng.uniform(0.2, 2.0)),
                                exponents=mu)
            c3 = choose_C3(mu, 3.0 ** data.abs_degree)
            y = tuple(rng.uniform(0.05, 0.95, m))
            z0 = tuple(rng.uniform(-c3, c3, m))
            ch = RealAChart(y=y, z0=z0, c3=c3, data=data)
            rep = verify_achart(ch, grid=16, interior=200, seed=3)
            assert rep.max_deviation <= ch.deviation_certificate() + 1e-12


def test_offset_grid_tiles():
    for c3 in (4.0, 9.0, 10.0, 11.0):
        zs = offset_grid(c3)
        assert all(z % 2 != 0 for z in zs)
        assert max(abs(z) for z in zs) <= c3
        edges = sorted(z - 1 for z in zs) + [max(zs) + 1]
        assert edges[0] <= -c3 and edges[-1] >= c3


class _CallableChart:
    """Adapter: a map on the radius-3 polydisc given as a plain function."""

    def __init__(self, fn, m):
        self.fn = fn
        self.m = m

    def __call__(self, z):
        return self.fn(np.asarray(z))


def test_verify_achart_boundary_case_passes():
    # psi(x) = x/3 + c: deviation is exactly max |z| / 3 = 1
    ch = _CallableChart(lambda z: z / 3.0 + 0.7, m=1)
    rep = verify_achart(ch, grid=16, interior=100)
    assert rep.max_deviation == pytest.approx(1.0, abs=1e-12)
    assert rep.passed


def test_verify_achart_identity_fails():
    ch = _CallableChart(lambda z: z, m=1)
    rep = verify_achart(ch, grid=16, interior=100)
    assert rep.max_deviation == pytest.approx(3.0, abs=1e-12)
    assert not rep.passed


def test_verify_achart_singularity_raises():
    def singular(z):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / (z - 3.0)

    ch = _CallableChart(singular, m=1)
    with pytest.raises(NotHolomorphic):
        verify_achart(ch, grid=16, interior=10)


def test_graph_exactness_on_real_points():
    data = MonomialData(1.0, (0.5, -0.25))
    charts = cover_monomial_graph(data, 0.05)
    rng = np.random.default_rng(1)
    for ch in charts[:: max(1, len(charts) // 40)]:
        w = rng.uniform(-1.0, 1.0, (50, 2))
        pts = ch.extend_points(w)
        want = data.value(pts[:, :2].real)
        assert np.allclose(pts[:, 2].real, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("mu,coeff", [((1.0,), 1.0), ((0.5, -0.25), 1.0),
                                      ((1.0,), 1.6), ((-0.5,), 0.7)])
def test_graph_coverage(mu, coeff):
    data = MonomialData(coeff, mu)
    eps = 0.02
    charts = cover_monomial_graph(data, eps)
    rng = np.random.default_rng(8)
    xs = []
    while len(xs) < 4000:
        x = np.exp(math.log(eps) * rng.random((2000, data.m)))
        keep = data.value(x) < 1.0
        xs.extend(x[keep][: 4000 - len(xs)])
    xs = np.asarray(xs)
    assert graph_membership(charts, xs).all()


def test_every_chart_verifies():
    # every chart (a sample of the m=3 atlas, stride 499) against the one-chart path
    for mu, coeff, eps, stride in (((0.5, -0.25), 1.0, 0.05, 1), ((1.0,), 1.6, 0.05, 1),
                                   ((-0.5,), 0.7, 0.05, 1),
                                   ((0.5, -0.25, 0.25), 0.9, 0.3, 499)):
        charts = cover_monomial_graph(MonomialData(coeff, mu), eps)
        devs = verify_achart_batch(charts, grid=12, interior=200, seed=0)
        assert (devs <= 1.0 + 1e-9).all()
        for i in range(0, len(charts), stride):
            rep = verify_achart(charts[i], grid=12, interior=200, seed=0)
            assert rep.max_deviation == pytest.approx(float(devs[i]), rel=1e-12, abs=0)


def test_batch_rejects_mixed_atlases():
    one = cover_monomial_graph(MonomialData(1.0, (1.0,)), 0.05)
    two = cover_monomial_graph(MonomialData(1.6, (1.0,)), 0.05)
    with pytest.raises(ValueError, match="share"):
        verify_achart_batch(one + two)
    wider = [RealAChart(y=c.y, z0=c.z0, c3=c.c3 + 1.0, data=c.data) for c in one]
    with pytest.raises(ValueError, match="share"):
        verify_achart_batch(one[:3] + wider[:3])


def test_grid_below_two_is_rejected():
    ch = cover_monomial_graph(MonomialData(1.0, (1.0,)), 0.05)
    for call in (lambda: scan_points(1, 1, 10), lambda: verify_achart(ch[0], grid=1),
                 lambda: verify_achart_batch(ch, grid=1)):
        with pytest.raises(ValueError, match="grid"):
            call()


def test_count_bound_and_scaling():
    data = MonomialData(1.0, (1.0,))
    counts = []
    epss = [1e-1, 1e-2, 1e-3, 1e-4]
    for eps in epss:
        n = len(cover_monomial_graph(data, eps))
        counts.append(n)
        assert n <= graph_count_bound(data, eps)
    x = np.log(np.log(1.0 / np.asarray(epss)))
    slope = np.polyfit(x, np.log(counts), 1)[0]
    assert abs(slope - 1.0) <= 0.3


def test_empty_when_domain_missed():
    # coefficient so large that no dyadic box meets {a x^mu < 1}
    data = MonomialData(1e9, (1.0,))
    assert cover_monomial_graph(data, 0.3) == []


class TestShrink:
    def test_identity_lipschitz(self):
        assert shrink_for_tube(0.1, 1.0) == 0.1

    def test_worked_instance(self):
        assert shrink_for_tube(0.1, 4.0) == 0.025

    def test_monotonicity(self):
        assert shrink_for_tube(0.2, 2.0) > shrink_for_tube(0.1, 2.0)
        assert shrink_for_tube(0.1, 4.0) < shrink_for_tube(0.1, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            shrink_for_tube(0.0, 1.0)
        with pytest.raises(ValueError):
            shrink_for_tube(0.1, 0.5)


def test_scan_points_shapes():
    pts = scan_points(2, 8, 50, seed=1)
    assert pts.shape == (64 + 50, 2)
    assert np.allclose(np.abs(pts[:64]), 3.0)


def _edge_points(charts, count, seed):
    """Seeded points whose coordinates sit on the box edges of the atlas's
    scales: x = y/2 and 3y/2 (|u| = C3), unit-box edges |w| = 1, one ulp
    either side of those, and log-uniform values in (eps/3, 3/2)."""
    rng = np.random.default_rng(seed)
    c3 = charts[0].c3
    ys = np.unique([c.y for c in charts])
    edges = np.concatenate([ys / 2.0, 3.0 * ys / 2.0]
                           + [ys * (1.0 + j / c3) for j in range(1 - int(c3), int(c3))])
    values = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0),
                             (ys.min() / 3.0) ** rng.random(len(edges)) * 1.5])
    return rng.choice(values, size=(count, charts[0].m))


@pytest.mark.parametrize("mu, coeff, eps", [((1.0,), 1.0, 1e-3),
                                            ((0.5, -0.25), 1.0, 0.01),
                                            ((0.5, -0.25, 0.25), 0.9, 0.3)])
def test_membership_matches_the_per_point_loop(mu, coeff, eps):
    """The array lookup gives the loop's answers bit for bit, on the full and
    a pruned atlas, on domain points and on the exact box edges."""
    data = MonomialData(coeff, mu)
    charts = cover_monomial_graph(data, eps)
    rng = np.random.default_rng(3)
    inside = eps ** rng.random((600, data.m))
    xs = np.concatenate([inside, _edge_points(charts, 1500, 4)])
    for atlas in (charts, charts[::3]):
        for tol in (None, 1e-6):
            got = graph_membership(atlas, xs, tol)
            assert np.array_equal(got, graph_membership_loop(atlas, xs, tol))
            assert got.any() and not got.all()


def test_membership_with_hand_made_offsets():
    """Offsets that are not odd integers never match; a non-dyadic y takes
    the key of the nearest scale, as in the loop."""
    data = MonomialData(1.0, (1.0,))
    charts = [RealAChart(y=(2.0 / 3.0,), z0=(z,), c3=5.0, data=data)
              for z in (-3.0, 0.0, 1.0, 2.0, 2.5)]
    charts.append(RealAChart(y=(0.3,), z0=(3.0,), c3=5.0, data=data))
    xs = _edge_points(charts, 400, 5)
    got = graph_membership(charts, xs)
    assert np.array_equal(got, graph_membership_loop(charts, xs))
    u = 10.0 * (xs[:, 0] / (2.0 / 3.0) - 1.0)
    assert not got[(u > -1.0) & (u < 0.0)].any()     # z0 = -1 is missing


def test_membership_outside_the_positive_orthant():
    """Chart images lie in (0, inf)^m: zero, negative, NaN, infinite and
    uninvertible coordinates are not members, and raise no warning."""
    charts = cover_monomial_graph(MonomialData(1.0, (0.5, -0.25)), 0.01)
    xs = [[0.0, 0.5], [-0.3, 0.5], [math.nan, 0.5], [math.inf, 0.5],
          [0.5, -math.inf], [1e-320, 0.5], [0.5, 0.5]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = graph_membership(charts, xs)
    assert got.tolist() == [False] * 6 + [True]

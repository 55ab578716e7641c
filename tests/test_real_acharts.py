import math
import re
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from atlascover import core
from atlascover.core import AtlasError, DimensionMismatch, NotHolomorphic, UnsupportedAmbient
from atlascover.real_acharts import (
    GraphCharts,
    MonomialData,
    RealAChart,
    axis_scale_centers,
    choose_C3,
    cover_monomial_graph,
    graph_c3,
    graph_count_bound,
    graph_membership,
    offset_grid,
    scan_points,
    verify_achart,
    verify_achart_batch,
)

from oracles import achart_scan_reference, cover_unit_cube_scales, graph_membership_loop


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

    @pytest.mark.parametrize("eps", [5e-324, 1e-320, 1e-308, 1e-3, 1.0 / 6.0, 0.25, 1.0 / 3.0])
    def test_least_index_down_to_subnormal_eps(self, eps):
        """1/(3 eps) overflows below about 1.2e-309; K stays the least index
        with (1/3) 2^-K <= eps."""
        k = len(axis_scale_centers(eps)) - 1
        assert (1.0 / 3.0) * 2.0 ** -k <= eps
        assert k == 0 or (1.0 / 3.0) * 2.0 ** -(k - 1) > eps


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


def test_an_overflowing_extension_raises_without_a_warning():
    """mu=(2000,) with C3=4 overflows u^mu: the batch raises `NotHolomorphic`
    and lets no numpy `RuntimeWarning` out before it."""
    chart = RealAChart((0.5,), (1.0,), 4.0, MonomialData(1.0, (2000.0,)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHolomorphic, match="non-finite values"):
            verify_achart_batch([chart])


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
        verify_achart_batch([*one, *two])
    wider = [RealAChart(y=c.y, z0=c.z0, c3=c.c3 + 1.0, data=c.data) for c in one]
    with pytest.raises(ValueError, match="share"):
        verify_achart_batch([*one[:3], *wider[:3]])


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


def test_scan_points_shapes():
    pts = scan_points(2, 8, 50, seed=1)
    assert pts.shape == (64 + 50, 2)
    assert np.allclose(np.abs(pts[:64]), 3.0)


def test_scans_over_the_budget_are_refused(monkeypatch):
    """The scan set, (grid^m + interior) x m entries, and the batch scan's
    (V, m, P) powers table are counted exactly before they are built: a
    budget of their entries passes, one entry less refuses them."""
    charts = cover_monomial_graph(MonomialData(1.0, (0.5, -0.25)), 0.01)
    n_values = len(charts.offsets)
    scan, table = (64 + 50) * 2, n_values * 2 * (64 + 50 + 1)
    monkeypatch.setattr(core, "MATERIALIZE_BUDGET", scan)
    assert scan_points(2, 8, 50).size == scan
    monkeypatch.setattr(core, "MATERIALIZE_BUDGET", scan - 1)
    with pytest.raises(AtlasError, match=re.escape(f"(8^2 + 50) scan points x 2 axes = {scan} ")):
        scan_points(2, 8, 50)
    monkeypatch.setattr(core, "MATERIALIZE_BUDGET", table)
    want = verify_achart_batch(charts, grid=8, interior=50)
    monkeypatch.setattr(core, "MATERIALIZE_BUDGET", table - 1)
    with pytest.raises(AtlasError, match=f"{n_values} offsets x 2 axes x 115 scan points = {table} "):
        verify_achart_batch(charts, grid=8, interior=50)
    monkeypatch.undo()
    assert np.array_equal(verify_achart_batch(charts, grid=8, interior=50), want)


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
                                            ((0.5, -0.25, 0.25), 0.9, 0.3),
                                            ((0.1, -0.1, 0.1, 0.05), 1.0, 0.3)])
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


def _scale_window(x):
    """The scales `graph_membership` tries for a coordinate x: c and c + 1,
    c = ceil(log2((2/3) / x) - 1 - 1e-9), or none where that log is not finite."""
    with np.errstate(divide="ignore", over="ignore"):
        lg = np.log2((2.0 / 3.0) / np.float64(x))
    return set() if not np.isfinite(lg) else {int(np.ceil(lg - (1.0 + 1e-9))) + j for j in (0, 1)}


def _in_scale(x, k):
    """The exact interval test y/2 < x < 3y/2 of scale k, y = fl(2/3) 2^-k."""
    with np.errstate(over="ignore"):
        y = np.ldexp(2.0 / 3.0, -k)
        return bool(y / 2.0 < x < 3.0 * y / 2.0)


def _dyadic_edges():
    """fl(2/3) 2^-k {1/2, 3/2} for k <= 60, each with its neighbours one ulp either side."""
    edges = np.ldexp(2.0 / 3.0, -np.arange(61))[:, None] * np.array([0.5, 1.5])
    return np.unique(np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0)]))


@given(st.one_of(st.builds(lambda e: 4.0 * 2.0 ** -e, st.floats(0.0, 1080.0)),     # log-uniform in (0, 4)
                 st.sampled_from(_dyadic_edges().tolist()),
                 st.integers(1, 2 ** 52 - 1).map(lambda i: i * 5e-324),           # subnormals
                 st.floats(2.0 / 3.0, 1e308, exclude_min=True)))
@example(x=5e-324)
@example(x=2.0 ** -1022)
@example(x=2.0 / 3.0)
def test_the_two_scale_window_holds_every_scale_that_passes(x):
    """Every scale floor(lg) + {-2, ..., 2} that passes the exact interval
    test lies in {c, c + 1}: the window `graph_membership` tries drops none."""
    window = _scale_window(x)
    if not window:
        return
    base = math.floor(np.log2((2.0 / 3.0) / x))
    assert {k for k in range(base - 2, base + 3) if _in_scale(x, k)} <= window


def test_the_two_scale_window_on_every_dyadic_edge():
    """The window holds every passing scale on each edge and its neighbours."""
    for x in _dyadic_edges():
        window = _scale_window(x)
        base = math.floor(np.log2((2.0 / 3.0) / x))
        assert {k for k in range(base - 2, base + 3) if _in_scale(x, k)} <= window, x


_C3S = sorted({5.0, graph_c3(MonomialData(1.0, (0.5, -0.25))), graph_c3(MonomialData(1.0, (1.0,)))})


@pytest.mark.parametrize("t", [0.0, 1e-10, 1e-3, 1e6])
@pytest.mark.parametrize("c3", _C3S)
@given(data=st.data())
def test_the_offset_remainder_needs_no_test(c3, t, data):
    """For every |u| < C3 (1 + t), w = u - (2 floor(u/2) + 1) rounds into
    [-1, 1], so |w| <= 1 + t holds unasked; w is 1 itself only for u in
    [-2^-54, 0), where 1 + u rounds up."""
    bound = c3 * (1.0 + t)
    inside = float(np.nextafter(bound, 0.0))
    u = data.draw(st.one_of(st.floats(-inside, inside),
                            st.sampled_from([inside, -inside, 0.0, -0.0, 5e-324, -5e-324,
                                             -2.0 ** -54, -2.0 ** -53, 2.0 ** -54]),
                            st.integers(-int(inside), int(inside)).map(float)))
    u = np.float64(u)
    w = u - (2.0 * np.floor(u / 2.0) + 1.0)
    assert -1.0 <= w <= 1.0 <= 1.0 + t
    assert w < 1.0 or -2.0 ** -54 <= u < 0.0


def _proof_edge_points(charts, m, seed):
    """Rows of the edge sets the two proofs turn on: the dyadic edges, the
    unit-box edges of `_edge_points`, log-uniform values in (0, 4),
    subnormals x whose (2/3) / x is finite (the loop takes no other) and
    values past 2/3, mixed over the m axes."""
    rng = np.random.default_rng(seed)
    values = np.concatenate([_dyadic_edges(), _edge_points(charts, 2000, seed).ravel(),
                             4.0 * 2.0 ** -rng.uniform(0.0, 1020.0, 500),
                             rng.integers(2 ** 50, 2 ** 52, 100) * 5e-324,
                             rng.uniform(2.0 / 3.0, 4.0, 100)])
    return rng.choice(values, size=(3000, m))


def _bench_atlas(mu, eps):
    return cover_monomial_graph(MonomialData(1.0, mu), eps)


@pytest.mark.parametrize("atlas", [
    lambda: _bench_atlas((0.5, -0.25), 0.01),
    lambda: _bench_atlas((1.0,), 1e-6),
    lambda: list(_bench_atlas((0.5, -0.25), 0.01))[::3],
], ids=["m2", "m1", "m2-listed"])
@pytest.mark.parametrize("tol", [0.0, None, 1e-3])
def test_membership_is_the_loop_on_the_proof_edges(atlas, tol):
    """`graph_membership`, two scales and no w test, gives the three-scale
    loop's answers bit for bit on the edges both proofs turn on."""
    charts = atlas()
    xs = _proof_edge_points(charts, charts[0].m, 6)
    got = graph_membership(charts, xs, tol)
    assert np.array_equal(got, graph_membership_loop(list(charts), xs, tol))
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


def _chart_points(charts, count, seed, spread=1.2):
    """Seeded points x = y (1 + (z0 + w) / (2 C3)) of random charts, w uniform
    in (-spread, spread) per axis, so some fall outside their chart."""
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, len(charts), count)
    y = np.array([charts[i].y for i in pick])
    z0 = np.array([charts[i].z0 for i in pick])
    w = rng.uniform(-spread, spread, y.shape)
    return y * (1.0 + (z0 + w) / (2.0 * charts[0].c3))


def test_listed_keys_past_two_to_the_63():
    """A listed m=5 atlas whose per-axis (k, z0) values span 501 scales times
    20 offsets, a code space of (501 * 20)^5 > 2^63: the lookup and `is_key`
    answer as the loop and the key dict do."""
    data = MonomialData(1.0, (1.0,) * 5)
    rng = np.random.default_rng(8)
    ks, odd = np.array([0, 1, 250, 499, 500]), np.arange(-19.0, 20.0, 2.0)
    k = rng.choice(ks, (300, 5))
    z0 = rng.choice(odd, (300, 5))
    k[0], z0[0], z0[1] = 500, -19.0, 19.0
    charts = [RealAChart(y=tuple((2.0 / 3.0) * 2.0 ** -ki), z0=tuple(zi), c3=20.0, data=data)
              for ki, zi in zip(k, z0)]
    assert ((int(k.max() - k.min()) + 1) * len(np.unique(z0))) ** 5 > 2 ** 63
    xs = _chart_points(charts, 3000, 9)
    for tol in (None, 1e-6):
        got = graph_membership(charts, xs, tol)
        assert np.array_equal(got, graph_membership_loop(charts, xs, tol))
        assert got.any() and not got.all()
    fam = GraphCharts.listed(charts)
    keys = {(tuple(ki), tuple(zi)) for ki, zi in zip(k, z0)}
    qk, qz = k.copy(), z0.copy()
    qk[::2, 1] = rng.choice(ks, 150)
    qz[1::3, 4] = rng.choice(odd, 100)
    want = [(tuple(a), tuple(b)) in keys for a, b in zip(qk, qz)]
    assert np.array_equal(fam.is_key(qk, qz), want) and not all(want)
    assert fam.is_key(k, z0).all()


@pytest.mark.parametrize("offsets, c3", [([-5.0, -1.0, 3.0, 5.0], 6.0),
                                         ([-5.0, -1.0, 0.5, 3.0, 5.0], 6.0),
                                         ([1.0 - 2e6, -3.0, 1.0], 2e6)])
def test_membership_with_hand_made_product_offsets(offsets, c3):
    """A product `GraphCharts` built by hand with offsets that are not the odd
    grid (gaps, a value that is not an odd integer, odd values too far apart
    for a table) answers as the loop on its charts."""
    data = MonomialData(1.0, (0.5, -0.25))
    y = [(2.0 / 3.0) * 2.0 ** -k for k in (0, 1, 3)]
    boxes = [(a, b) for a in y for b in y if (a, b) != (y[1], y[2])]
    fam = GraphCharts(data, c3, boxes, np.array(offsets))
    lst = list(fam)
    xs = np.concatenate([_chart_points(lst, 2000, 10), _edge_points(lst[:8], 400, 11)
                         if c3 < 100 else np.empty((0, 2))])
    for tol in (None, 1e-6):
        got = graph_membership(fam, xs, tol)
        assert np.array_equal(got, graph_membership_loop(lst, xs, tol))
        assert got.any() and not got.all()


def test_membership_builds_no_offset_tuples():
    """The lookup on a built atlas reads its boxes and 1-D offsets only: the
    V^m offset tuples are never made."""
    fam = cover_monomial_graph(MonomialData(1.0, (0.5, -0.75, 0.25)), 0.2)
    assert graph_membership(fam, np.full((4, 3), 0.5)).all()
    assert "tuples" not in fam.__dict__


def test_membership_refuses_arrays_of_more_dims_and_complex_points():
    """A points array of more than 2 dims raises `DimensionMismatch`, a
    complex one `ValueError` with no `ComplexWarning`, on the family and on a
    plain list alike."""
    charts = cover_monomial_graph(MonomialData(1.0, (0.5, -0.25)), 0.01)
    for atlas in (charts, charts[::3]):
        with pytest.raises(DimensionMismatch, match="an .N, m. array"):
            graph_membership(atlas, np.full((2, 2, 2), 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="complex"):
                graph_membership(atlas, [[0.5 + 0.1j, 0.5]])
    with pytest.raises(DimensionMismatch):
        graph_membership([], np.full((2, 2, 2), 0.5))


def test_an_empty_list_needs_its_monomial_data():
    with pytest.raises(ValueError, match="monomial data is missing"):
        GraphCharts.listed([])
    data = MonomialData(1.0, (0.5,))
    assert len(GraphCharts.listed([], data)) == 0


def test_two_threads_on_two_plain_lists_get_their_own_answers():
    """Two threads that scan and look points up in two different plain lists
    at once each get the answers of the oracles for their own list: a list's
    rows are derived again on every call, and nothing is shared between calls."""
    lists = [list(cover_monomial_graph(MonomialData(1.0, (1.0,)), 0.05)),
             list(cover_monomial_graph(MonomialData(0.7, (0.5,)), 0.05))]
    xs = _edge_points(lists[0], 600, 6)
    want = [(graph_membership_loop(lst, xs), achart_scan_reference(lst, 8, 50)) for lst in lists]
    assert not np.array_equal(want[0][0], want[1][0])
    start = threading.Barrier(2)

    def run(k):
        start.wait()
        for _ in range(20):
            member = graph_membership(lists[k], xs)
            devs = verify_achart_batch(lists[k], 8, 50)
            if not (np.array_equal(member, want[k][0])
                    and np.array_equal(devs.view(np.uint64), want[k][1].view(np.uint64))):
                return False
        return True

    with ThreadPoolExecutor(2) as pool:
        assert list(pool.map(run, range(2))) == [True, True]


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


def test_membership_of_the_largest_floats_raises_no_warning():
    """A coordinate near the largest float has scales k near -1024, whose
    y = (2/3) 2^-k and 3y overflow: it is not a member, and raises no warning."""
    charts = cover_monomial_graph(MonomialData(1.0, (0.5, -0.25)), 0.01)
    xs = [[1e308, 0.5], [0.5, np.finfo(float).max], [0.5, 0.5]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = graph_membership(charts, xs)
    assert got.tolist() == [False, False, True]


def test_affine_queries_refuse_a_charts():
    """An a-chart has no (b, d) rows: `covers`, like `locate`, raises
    `UnsupportedAmbient` rather than reading its (y, z0) as (b, d)."""
    charts = cover_monomial_graph(MonomialData(1.0, (0.5,)), 0.1)
    for query in (charts.covers, charts.locate):
        with pytest.raises(UnsupportedAmbient):
            query([[0.5]], 1.0)


def test_a_charts_have_no_affine_rows():
    """`chart_arrays`, `level_rows` and `doubling_factors` raise
    `UnsupportedAmbient` on an a-chart family rather than reading its (y, z0)
    as (b, d); the file writer reads `graph_arrays`."""
    charts = cover_monomial_graph(MonomialData(1.0, (0.5,)), 0.1)
    for query in (charts.chart_arrays, charts.level_rows,
                  lambda: charts.doubling_factors((0,), 1.0)):
        with pytest.raises(UnsupportedAmbient):
            query()
    y, z0 = charts.graph_arrays()
    assert y.shape == z0.shape == (len(charts), 1)


def test_membership_refuses_points_of_another_width():
    """The full graph point (x, a x^mu), or any width other than m, raises
    `DimensionMismatch` on the family and on a plain list, as `locate` does."""
    data = MonomialData(1.0, (0.5, -0.25))
    charts = cover_monomial_graph(data, 0.01)
    x = np.full((3, 2), 0.5)
    full = np.concatenate([x, data.value(x)[:, None]], axis=1)
    assert graph_membership(charts, x).all()
    for atlas in (charts, charts[::3]):
        for xs in (full, x[:, :1], full[0]):
            with pytest.raises(DimensionMismatch, match="points of width"):
                graph_membership(atlas, xs)

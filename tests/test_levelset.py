import math

import numpy as np
import pytest

from atlascover.core import (
    BranchUndefined,
    DiagonalAffineChart,
    LevelOutsideRange,
    MonomialLevelSet,
    NotARegularValue,
)
from atlascover.levelset import (
    LevelBranchCharts,
    MonomialLevelChart,
    cover_monomial_level_set,
    direct_branch_values,
    level_residual,
)
from atlascover.core import Covering, UnsupportedAmbient
from atlascover.suspension import chart_arrays, covers_points
from atlascover.verify import (
    LevelGraphRegion,
    certify_doubling,
    check_coverage,
    region_samples,
)

from oracles import ball_points, containing_pairs, level_covers_loop


BASE = DiagonalAffineChart(b=(0.5,), d=(0.05,), gamma=2.0)


def test_linear_alpha_is_exact_division():
    ch = MonomialLevelChart(base=BASE, branch=0, alpha=(1, 1), c=0.25)
    assert ch.map_points(np.zeros(1)).tolist() == [0.5 + 0j, 0.5 + 0j]


def test_square_root_branches():
    values = []
    for k in (0, 1):
        ch = MonomialLevelChart(base=BASE, branch=k, alpha=(2, 1), c=0.25)
        g = complex(ch.map_points(np.zeros(1))[0])
        values.append(g)
        # residual cross-check: the point really lies on the hypersurface
        assert abs(g * g * 0.5 - 0.25) <= 1e-12
    assert values[0] == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert values[1] == pytest.approx(-math.sqrt(0.5), rel=1e-12)


def test_branch_undefined_without_certificate():
    bad = DiagonalAffineChart(b=(0.1,), d=(0.2,), gamma=2.0)
    with pytest.raises(BranchUndefined):
        MonomialLevelChart(base=bad, branch=0, alpha=(2, 1), c=0.25)


def test_invalid_levels():
    with pytest.raises(NotARegularValue):
        cover_monomial_level_set((2, 1), 0.0)
    with pytest.raises(LevelOutsideRange):
        cover_monomial_level_set((2, 1), 1.5)


def test_kappa_is_alpha1_times_base():
    for alpha, c in (((1, 1), 0.25), ((2, 1), 0.04), ((3, 2), 0.1)):
        cov = cover_monomial_level_set(alpha, c)
        assert cov.kappa == alpha[0] * cov.meta["base_kappa"]
        assert cov.ambient == MonomialLevelSet(alpha=alpha, c=c)


def test_residual_invariant_scales_1_and_2():
    cov = cover_monomial_level_set((2, 1), 0.04)
    rng = np.random.default_rng(0)
    c_abs = 0.04
    for i in rng.integers(0, cov.kappa, 40):
        ch = cov.charts[int(i)]
        x1 = ball_points(1, 1000, int(i))
        assert level_residual(ch, x1).max() <= 1e-10 * c_abs
        x2 = 2.0 * ball_points(1, 1000, int(i) + 1)
        assert level_residual(ch, x2).max() <= 1e-8 * c_abs


def test_graph_coverage_oracle():
    # sample the base region, extract every root directly, and require each
    # graph point to sit in some chart image
    cov = cover_monomial_level_set((2, 1), 0.04)
    rep = check_coverage(cov, LevelGraphRegion(alpha=(2, 1), c=0.04),
                         n_samples=20000, seed=1)
    assert rep.passed
    assert rep.samples_total >= 20000


def test_branch_distinctness_at_center():
    alpha = (3, 1)
    c = 0.1
    cov = cover_monomial_level_set(alpha, c)
    omega_gap = abs(1.0 - np.exp(2j * np.pi / alpha[0]))
    floor = abs(c) ** (1.0 / alpha[0]) * omega_gap
    for t in (0, 17, 101):
        vals = [complex(cov.charts[t * alpha[0] + k].map_points(np.zeros(1))[..., 0])
                for k in range(alpha[0])]
        for i in range(alpha[0]):
            for j in range(i + 1, alpha[0]):
                assert abs(vals[i] - vals[j]) >= floor - 1e-12


def test_derivative_lower_bound_on_chart_points():
    # |alpha_1 x_1^(alpha_1 - 1) xbar^alphabar| >= alpha_1 * eta^|alpha| > 0
    alpha = (2, 1)
    c = 0.04
    cov = cover_monomial_level_set(alpha, c)
    eta = cov.meta["eta"]
    floor = alpha[0] * eta ** sum(alpha)
    rng = np.random.default_rng(2)
    for i in rng.integers(0, cov.kappa, 25):
        ch = cov.charts[int(i)]
        pts = np.atleast_2d(ch.map_points(ball_points(1, 200, int(i))))
        x1, xbar = pts[:, 0], pts[:, 1:]
        deriv = alpha[0] * x1 ** (alpha[0] - 1) * np.prod(
            xbar ** np.asarray(alpha[1:]), axis=-1)
        assert np.abs(deriv).min() >= floor


def test_certify_doubling_level_charts():
    cov = cover_monomial_level_set((2, 1), 0.04)
    rep = certify_doubling(cov)
    assert rep.passed
    assert rep.n_charts == cov.kappa


def test_direct_roots_satisfy_equation():
    xbar = np.array([[0.3 + 0.1j], [0.9j], [-0.5 + 0.2j]])
    roots = direct_branch_values((3, 2), 0.07, xbar)
    for i, xb in enumerate(xbar[:, 0]):
        for g in roots[i]:
            assert abs(g ** 3 * xb ** 2 - 0.07) <= 1e-12


@pytest.mark.parametrize("alpha", [(2, 1, 1), (3, 2), (5, 1, 3)])
def test_one_branch_has_the_bits_of_all_branches(alpha):
    """`direct_branch_values` over a slice of branches is those columns of
    the full call, bit for bit, down to under- and overflowing rows."""
    rng = np.random.default_rng(5)
    shape = (2000, len(alpha) - 1)
    xbar = 10.0 ** rng.uniform(-300, 300, shape) * np.exp(1j * rng.uniform(0, 7, shape))
    with np.errstate(all="ignore"):
        full = direct_branch_values(alpha, 0.3 + 0.1j, xbar)
        for k in range(alpha[0]):
            col = direct_branch_values(alpha, 0.3 + 0.1j, xbar, slice(k, k + 1))
            assert col.tobytes() == np.ascontiguousarray(full[:, k:k + 1]).tobytes()


def test_plain_list_of_level_charts_is_a_domain_error():
    """Only `LevelBranchCharts` carries level charts; a covering of a plain
    list of them, and the list's arrays or membership, raise an
    `UnsupportedAmbient` naming it, not an `AttributeError`."""
    lvl = cover_monomial_level_set((2, 1), 0.04)
    charts = list(lvl.charts)[2:]
    pts = np.array([list(lvl.charts[2].map_points(np.zeros(1)))])
    for call in (lambda: Covering(lvl.ambient, lvl.gamma, charts),
                 lambda: chart_arrays(charts),
                 lambda: covers_points(charts, pts, 1.0)):
        with pytest.raises(UnsupportedAmbient, match="LevelBranchCharts"):
            call()


class _CountingList(list):
    """A plain chart list that counts the charts read from it, by index or
    by iteration."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __iter__(self):
        for chart in super().__iter__():
            self.reads += 1
            yield chart


def test_chain_on_plain_list_of_level_charts_is_a_domain_error():
    """A covering of a plain list of level charts, which `chain_between`
    would search, is refused as it is built, naming `LevelBranchCharts` like
    `chart_arrays` does, at the first chart it reads rather than after all of them."""
    lvl = cover_monomial_level_set((2, 1), 0.04)
    charts = _CountingList(list(lvl.charts)[2:])
    charts.reads = 0
    with pytest.raises(UnsupportedAmbient, match="LevelBranchCharts"):
        Covering(lvl.ambient, lvl.gamma, charts)
    assert charts.reads == 1


def _level_test_points(alpha, c, count):
    """Surface points and moved copies: x1 off by a relative 1e-3, 2e-5 and
    -5e-6 (sqrt(t) = 1e-5 lies between the last two), xbar moved out of the
    base region with x1 a root there, and a coordinate of xbar set to 0."""
    pts = region_samples(LevelGraphRegion(alpha, c), count, 5)
    sets = [pts]
    for rel in (1e-3, 2e-5, -5e-6):
        moved = pts.copy()
        moved[:, 0] *= 1.0 + rel
        sets.append(moved)
    out = pts.copy()
    out[:, -1] *= 1.3 / np.abs(out[:, -1])
    out[:, 0] = direct_branch_values(alpha, c, out[:, 1:])[:, 0]
    zero = pts.copy()
    zero[:, -1] = 0.0
    return np.concatenate(sets + [out, zero])


@pytest.mark.parametrize("alpha, c, count, scales", [
    ((2, 1), 0.04, 60, ("one", "per-point", "two")),
    ((2, 1, 1), 0.5, 12, ("one", "per-point")),
    ((3, 1), 0.07 + 0.02j, 40, ("one", "per-point", "two")),
])
def test_covers_matches_the_per_point_loop(alpha, c, count, scales):
    """Base location plus the root match answers like the loop over
    candidate charts and `contains`, on and off the surface."""
    charts = cover_monomial_level_set(alpha, c).charts
    pts = _level_test_points(alpha, c, count)
    n = len(pts) // 6
    per_point = np.random.default_rng(0).uniform(0.5, 1.0, len(pts))
    for name in scales:
        scale = {"one": 1.0, "per-point": per_point, "two": 2.0}[name]
        got = charts.covers(pts, scale)
        assert np.array_equal(got, level_covers_loop(charts, pts, scale)), name
        if name == "one":
            assert got[:n].all() and not got[n:2 * n].any()
            assert got[3 * n:4 * n].all() and not got[4 * n:].any()


@pytest.mark.parametrize("alpha, c, count", [
    ((2, 1), 0.04, 30), ((2, 1, 1), 0.5, 4), ((3, 1), 0.07 + 0.02j, 20),
])
def test_locate_equals_the_per_chart_rule(alpha, c, count):
    """`locate` gives exactly the (point, chart) pairs of the rule on built
    charts, on and off the surface, and covers the points `covers` covers."""
    charts = cover_monomial_level_set(alpha, c).charts
    pts = _level_test_points(alpha, c, count)
    per_point = np.random.default_rng(1).uniform(0.5, 1.0, len(pts))
    for scale in (1.0, per_point):
        i, j = charts.locate(pts, scale)
        want = containing_pairs(charts, pts, scale)
        assert len(want) > len(pts) // 4
        assert list(zip(i.tolist(), j.tolist())) == want
        assert np.array_equal(np.isin(np.arange(len(pts)), i), charts.covers(pts, scale))


def test_covers_does_not_test_charts_one_by_one(monkeypatch):
    charts = cover_monomial_level_set((2, 1), 0.04).charts
    pts = _level_test_points((2, 1), 0.04, 30)
    expected = charts.covers(pts, 1.0)

    def refuse(*args, **kwargs):
        raise AssertionError("per-chart membership test")

    monkeypatch.setattr(LevelBranchCharts, "contains", refuse)
    assert np.array_equal(charts.covers(pts, 1.0), expected)
    assert expected.any()

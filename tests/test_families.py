"""The chart-family protocol, checked the same way on every kind of family."""

import numpy as np
import pytest

from atlascover.annulus import cover_annulus
from atlascover.core import (
    ChartList,
    DiagonalAffineChart,
    DimensionMismatch,
    family,
)
from atlascover.levelset import cover_monomial_level_set
from atlascover.polydisc import cover_punctured_polydisc
from atlascover.suspension import (
    chart_arrays,
    chart_candidates,
    covers_points,
    iter_chart_arrays,
)

from oracles import brute_covered, containing_pairs

FAMILIES = {
    "rings": lambda: cover_annulus(1e-2, 2.0).charts,
    "polydisc-all-axes": lambda: cover_punctured_polydisc(2, 0.75, 2.0)[0].charts,
    "polydisc-unpunctured-axis1": lambda: cover_punctured_polydisc(2, 0.75, 2.0, {2})[0].charts,
    "polydisc-unpunctured-axis2": lambda: cover_punctured_polydisc(2, 0.75, 2.0, {1})[0].charts,
    "polydisc-n3-unpunctured-axis2": lambda: cover_punctured_polydisc(3, 0.9, 2.0, {1, 3})[0].charts,
    "level-set-base": lambda: cover_monomial_level_set((2, 1), 0.04).charts.base_cov.charts,
    "pruned-list": lambda: list(cover_punctured_polydisc(2, 0.75, 2.0)[0].charts)[::2],
}

TOL = 1e-10


def _charts(name):
    return FAMILIES[name]()


def _points(charts, count=400, seed=0):
    """Half of the points near chart centres (moved by up to twice the chart
    radius), half spread over the polydisc of radius 1.4, which reaches past
    the covered region."""
    b, d = chart_arrays(charts)
    rng = np.random.default_rng(seed)
    i = rng.integers(0, b.shape[0], count // 2)
    u = rng.standard_normal(b[i].shape) + 1j * rng.standard_normal(b[i].shape)
    r = 2.0 * rng.random((i.size, 1)) / np.sqrt(b.shape[1])
    near = b[i] + d[i] * u / np.abs(u) * r
    wide = 1.4 * np.sqrt(rng.random(near.shape)) * np.exp(2j * np.pi * rng.random(near.shape))
    return np.concatenate([near, wide])


@pytest.mark.parametrize("name", FAMILIES)
def test_covers_matches_brute_force(name):
    charts = _charts(name)
    pts = _points(charts)
    per_point = 0.5 + np.random.default_rng(1).random(pts.shape[0])
    for scale, oracle_scale in ((1.0, 1.0), (1.7, 1.7), (per_point, per_point[:, None])):
        got = covers_points(charts, pts, scale, tol=TOL)
        want = brute_covered(charts, pts, oracle_scale, tol=TOL)
        assert 0 < want.sum() < want.size
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("scale", [1.0, 1.7, "per-point"])
def test_candidates_contain_every_containing_chart(name, scale):
    """`locate` gives exactly the (point, chart) pairs that `chart_contains`
    accepts, as int64 arrays sorted by point, then chart; `contains` and
    `chart_candidates`, its one-point view, agree with it."""
    charts = _charts(name)
    fam = family(charts)
    pts = _points(charts, count=60, seed=2)
    if scale == "per-point":
        scale = 0.5 + np.random.default_rng(3).random(pts.shape[0])
    i, j = fam.locate(pts, scale, tol=TOL)
    want = containing_pairs(charts, pts, scale, tol=TOL)
    assert i.dtype == j.dtype == np.int64
    assert 0 < len({r for r, _ in want}) < pts.shape[0]
    assert list(zip(i.tolist(), j.tolist())) == want
    r, c = want[len(want) // 2]
    s = np.broadcast_to(scale, pts.shape[:1])[r]
    assert fam.contains(c, pts[r], s, tol=TOL)
    assert list(chart_candidates(charts, pts[r], s, tol=TOL)) == [k for q, k in want if q == r]


@pytest.mark.parametrize("fam, pts", [
    (cover_punctured_polydisc(2, 1.5, 2.0)[0].family, np.full((3, 2), 0.5 + 0j)),
    (cover_annulus(1e-2, 2.0).charts, np.zeros((0, 1), dtype=complex)),
    (cover_monomial_level_set((2, 1), 0.04).charts, np.zeros((0, 2), dtype=complex)),
    (family([], dim=2), np.full((3, 2), 0.5 + 0j)),
])
def test_locate_without_charts_or_points(fam, pts):
    i, j = fam.locate(pts, 1.0)
    assert i.dtype == j.dtype == np.int64 and i.shape == j.shape == (0,)


@pytest.mark.parametrize("name", FAMILIES)
def test_contains_refuses_a_scale_outside_the_factor(name):
    fam = family(_charts(name))
    p = fam.arrays_at(np.array([0]))[0][0]
    assert fam.contains(0, p, fam.gamma)
    for scale in (0.0, -1.0, fam.gamma * 1.01):
        with pytest.raises(ValueError, match="scale must lie in"):
            fam.contains(0, p, scale)


@pytest.mark.parametrize("name", FAMILIES)
def test_streamed_arrays_equal_the_full_arrays(name):
    charts = _charts(name)
    b, d = chart_arrays(charts)
    blocks = list(iter_chart_arrays(charts))
    bits = lambda z: np.ascontiguousarray(z).view(np.uint64)
    assert np.array_equal(bits(np.concatenate([x for x, _ in blocks])), bits(b))
    assert np.array_equal(bits(np.concatenate([y for _, y in blocks])), bits(d))


@pytest.mark.parametrize("name", FAMILIES)
def test_arrays_at_equals_the_charts(name):
    """`arrays_at` gathers the rows of random charts, repeats and all, bit for
    bit as the charts hold them."""
    charts = _charts(name)
    fam = family(charts)
    idx = np.random.default_rng(4).integers(0, len(fam), 300)
    b, d = fam.arrays_at(idx)
    bits = lambda z: np.ascontiguousarray(z, dtype=complex).view(np.uint64)
    assert b.shape == d.shape == (idx.size, fam.dim)
    assert np.array_equal(bits(b), bits([charts[i].b for i in idx]))
    assert np.array_equal(bits(d), bits([charts[i].d for i in idx]))


def test_plain_list_view_is_not_a_copy():
    charts = [DiagonalAffineChart((0.5j,), (0.25,), 2.0)]
    view = family(charts)
    assert isinstance(view, ChartList) and view.charts is charts
    assert family(view) is view
    charts.append(DiagonalAffineChart((-0.5j,), (0.25,), 2.0))
    assert len(view) == 2 and view == charts


# -- point shapes ---------------------------------------------------------------

ONE_DIM = [
    lambda: cover_annulus(1e-2, 2.0).charts,
    lambda: [DiagonalAffineChart((0.5,), (0.25,), 2.0)],
]
TWO_DIM = [
    lambda: cover_punctured_polydisc(2, 0.75, 2.0, {2})[0].charts,
    lambda: [DiagonalAffineChart((0.5, 0.5), (0.25, 0.25), 2.0)],
    lambda: cover_monomial_level_set((2, 1), 0.04).charts,
    lambda: cover_punctured_polydisc(2, 1.5, 2.0)[0].family,     # no charts
]


@pytest.mark.parametrize("build", ONE_DIM + TWO_DIM)
def test_points_of_the_wrong_dimension_are_rejected(build):
    charts = build()
    dim = family(charts).dim
    for shape in ((3, dim + 1), (3, 1, dim), (), (dim + 1,) if dim > 1 else (3, 2)):
        with pytest.raises(DimensionMismatch):
            covers_points(charts, np.full(shape, 0.5 + 0j), 1.0)
    if dim > 1:
        with pytest.raises(DimensionMismatch):
            covers_points(charts, np.full((3, 1), 0.5 + 0j), 1.0)


@pytest.mark.parametrize("build", ONE_DIM + TWO_DIM)
def test_accepted_point_shapes(build):
    charts = build()
    dim = family(charts).dim
    pts = np.full((3, dim), 0.5 + 0j)
    pts[1] = 0.9
    pts[2] = 0.3j
    want = covers_points(charts, pts, 1.0)
    assert want.shape == (3,)
    assert covers_points(charts, pts[1], 1.0).tolist() == want[1:2].tolist()
    if dim == 1:
        assert covers_points(charts, pts[:, 0], 1.0).tolist() == want.tolist()


def test_list_scan_meets_every_chart():
    """Enough points for many scan blocks, each point in exactly one chart."""
    charts = [DiagonalAffineChart((complex(k),), (0.25,), 2.0) for k in range(3000)]
    assert covers_points(charts, np.arange(3000, dtype=complex), 1.0).all()
    assert not covers_points(charts, np.arange(3000) + 0.5j, 1.0).any()

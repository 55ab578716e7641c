"""The chart-family protocol, checked the same way on every kind of family."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import atlascover.verify as verify_mod
from atlascover import core
from atlascover.annulus import TINY, RingDisks, cover_annulus
from atlascover.core import (
    DEFAULT_TOL,
    AtlasError,
    ChartFamily,
    Covering,
    DiagonalAffineChart,
    DimensionMismatch,
    PolydiscComplement,
    PuncturedPlane,
    UnsupportedAmbient,
    _product_rows,
    family,
)
from atlascover.jsonio import covering_to_dict
from atlascover.levelset import (
    LevelBranchCharts,
    MonomialLevelChart,
    cover_monomial_level_set,
    direct_branch_values,
)
from atlascover.polydisc import cover_punctured_polydisc
from atlascover.real_acharts import GraphCharts, MonomialData, cover_monomial_graph
from atlascover.suspension import (
    SuspendedCharts,
    chart_arrays,
    chart_candidates,
    covers_points,
    iter_chart_arrays,
)
from atlascover.verify import AnnulusRegion, PolydiscRegion, certify_doubling, check_coverage

from oracles import brute_covered, containing_pairs, coverage_by_rows, neighbor_list

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

REGIONS = {     # the region of each family's covering: the annulus or polydisc it covers
    "rings": AnnulusRegion(1e-2),
    "polydisc-all-axes": PolydiscRegion(0.75, 2),
    "polydisc-unpunctured-axis1": PolydiscRegion(0.75, 2, frozenset({2})),
    "polydisc-unpunctured-axis2": PolydiscRegion(0.75, 2, frozenset({1})),
    "polydisc-n3-unpunctured-axis2": PolydiscRegion(0.9, 3, frozenset({1, 3})),
    "level-set-base": PolydiscRegion(0.04, 1),
    "pruned-list": PolydiscRegion(0.75, 2),
}


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


def _axis_families(fam):
    """Per axis, the one-dimensional family that covers it: its ring disks, or
    the one-disk list of an unpunctured axis; then the scale factor the images
    of the whole family carry on the last axis."""
    if isinstance(fam, SuspendedCharts):
        return _axis_families(fam.inner)[0] + [family(fam.layers)], fam.lam_factor
    return [fam], 1.0


def _anchor_misses(name, tol, count=200, seed=8):
    """Points where a point's anchor chart is likely to miss it: on each axis
    |z| within 1e-12 of a ring radius q^k and half the angles half way between
    two disk centres; points at squared preimage norm 1 + t/2 and 1 + 3t/2 of
    random charts (t = tol, or 1e-10 at tol 0); points t outside the last
    axis's outermost disks, so outside the union; and rows with nan and inf."""
    rng = np.random.default_rng(seed)
    fam = family(_charts("polydisc-all-axes" if name == "pruned-list" else name))
    axes, factor = _axis_families(fam)
    cols = []
    for ax in axes:
        if isinstance(ax, RingDisks):
            radius = ax.q ** rng.integers(0, ax.n_rings + 1, count) * (1.0 + 1e-12 * rng.uniform(-1, 1, count))
            half = 2.0 * np.pi * (rng.integers(0, ax.n_angles, count) + 0.5) / ax.n_angles
            angle = np.where(rng.random(count) < 0.5, half, 2.0 * np.pi * rng.random(count))
            cols.append(radius * np.exp(1j * angle))
        else:
            cols.append(np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count)))
    rims = np.stack(cols, axis=1)
    last = axes[-1]
    a, r = (x[:, 0] for x in last.arrays_at(rng.integers(0, getattr(last, "n_angles", 1), count)))
    way = np.where(a == 0, np.exp(2j * np.pi * rng.random(count)), a / np.where(a == 0, 1, np.abs(a)))
    outside = rims.copy()
    outside[:, -1] = way * (np.abs(a) + r.real * factor * (1.0 + (tol or 1e-10)))
    b, d = fam.arrays_at(rng.integers(0, len(fam), count))
    u = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    edge = [b + d * u * np.sqrt(1.0 + k * (tol or 1e-10)) for k in (0.5, 1.5)]
    bad = rims[:30].copy()
    bad[::3, 0], bad[1::3, -1], bad[2::3, 0] = np.nan, np.inf, complex(np.inf, np.nan)
    return np.concatenate([rims, *edge, outside, bad]), outside


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("tol", [0.0, DEFAULT_TOL, 1e-6], ids=["tol-0", "default", "tol-1e-6"])
def test_covers_where_the_anchor_misses(name, tol, monkeypatch):
    """`covers` equals the oracle on points where the anchor chart decides
    little: near ring radii, at half angle steps, on either side of the
    tolerance edge, just outside the union and not finite.  The windowed
    passes receive exactly the points the anchor leaves open."""
    charts = _charts(name)
    fam = family(charts)
    pts, outside = _anchor_misses(name, tol)
    received = []
    passes = RingDisks.passes
    monkeypatch.setattr(RingDisks, "passes", lambda self, p, *a: received.append(p.shape[0])
                        or passes(self, p, *a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fam.covers(pts, 1.0, tol=tol)
    with np.errstate(invalid="ignore", over="ignore"):
        want = brute_covered(charts, pts, 1.0, tol=tol)
    assert np.array_equal(got, want)
    assert 0 < want.sum() < want.size and not brute_covered(charts, outside, 1.0, tol=tol).any()
    assert (sum(received) > 0) == (name != "pruned-list")
    j = fam._anchor(pts)
    if j is not None:                       # the anchor decided some points, the passes the rest
        rest = ~fam._hits(pts, np.ones(pts.shape[0]), tol, j)
        assert 0 < received[0] == rest.sum() < pts.shape[0]


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("tol", [0.0, DEFAULT_TOL, 1e-6], ids=["tol-0", "default", "tol-1e-6"])
def test_one_row_test_decides_covers_locate_and_contains(name, tol):
    """`covers` holds exactly the points that `locate` finds, and `contains(c, p)`
    holds exactly where (p, c) is a `locate` pair: one row test, `_hits`,
    decides all three.  The points lie at squared preimage norm 1 + t of
    random charts (t = tol), where the ring and suspension rules and the ball
    rule can part in the last bit, or are the `_anchor_misses` points; the
    pairs checked with `contains` are each edge point's own chart and random
    `locate` pairs.  The plain list, which offers every chart to every point,
    takes 300 edge points and every fourth other point."""
    fam, step = family(_charts(name)), 4 if name == "pruned-list" else 1
    rng = np.random.default_rng(12)
    own = rng.integers(0, len(fam), 1200 // step)
    b, d = fam.arrays_at(own)
    u = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    pts = np.concatenate([b + d * u * np.sqrt(1.0 + tol), _anchor_misses(name, tol)[0][::step]])
    i, j = fam.locate(pts, 1.0, tol=tol)
    assert np.array_equal(fam.covers(pts, 1.0, tol=tol), np.isin(np.arange(pts.shape[0]), i))
    pairs = set(zip(i.tolist(), j.tolist()))
    sample = [*enumerate(own[:300].tolist()), *rng.permutation(sorted(pairs))[:100].tolist()]
    got = [fam.contains(c, pts[r], 1.0, tol=tol) for r, c in sample]
    assert got == [pair in pairs for pair in map(tuple, sample)]
    assert 0 < sum(got[:300]) < 300


# SHA-256 over the bytes of every `covers` result of `test_covers_bits_are_pinned`,
# computed before the affine families shared one `covers`.
COVERS_PINS = {
    "rings": "c698c04356077d63f366376ebbaadc1fb4f19087a861153bbd3976376752b34a",
    "polydisc-all-axes": "3935a1a33669f235b5e224a13b3320739bce81f920e1a8a5d234b555124c281b",
    "polydisc-unpunctured-axis1": "7cf46db82fc8f66e49d4fc40f46918672130ff66630c0bc1a006465e7fb8db6b",
    "polydisc-unpunctured-axis2": "c16b746d582fa2b8e7dcb66588b77bfe79d61f35a8e7c3d061040e266965bc2d",
    "polydisc-n3-unpunctured-axis2": "0d93ff057901fb4114ee739123578407f35584f5a644b50731b702f1cf74b08e",
    "level-set-base": "9a4b18218adfd92f3ffd1efedf2a5f462517d0067dd6e520100c6b3d2a82ce3f",
    "pruned-list": "ce7d8d26dcbb4464d89b1dc132b98f15738b9b16e82d6fed76b7b8284ba10ea6",
    "level-set": "a1109cdb75766821071d3f79b5575e0f0beb41f79bef603817a00ad3d28b6de3",
    "empty": "ec7dd12fff2b8b2fda972dbe361988d2876318a0d954b41c0145f3927f081057",
}
PIN_POINTS = {"level-set": "level-set-base", "empty": "polydisc-all-axes"}


def _family_of(name):
    """The family of a `FAMILIES` entry, of the level set, or with no charts (eta >= 1)."""
    if name == "level-set":
        return cover_monomial_level_set((2, 1), 0.04).charts
    if name == "empty":
        return cover_punctured_polydisc(2, 1.5, 2.0)[0].charts
    return family(_charts(name))


@pytest.mark.parametrize("name", COVERS_PINS)
def test_covers_bits_are_pinned(name):
    """`covers` at scales 0.5, 1, 1.7 and per point and at tolerances 0, the
    default and 1e-6, on the points of `_points` and `_anchor_misses` (not
    finite rows included), gives the pinned bits.  The level set's x1 is a
    branch root at xbar, or the first root moved by 1e-4; the empty family
    (eta >= 1) reads the two-dimensional points; the plain list, which offers
    every chart to every point, every eighth point."""
    fam, source = _family_of(name), PIN_POINTS.get(name, name)
    digest = hashlib.sha256()
    for tol in (0.0, DEFAULT_TOL, 1e-6):
        for pts in (_points(_charts(source)), _anchor_misses(source, tol)[0]):
            if name == "level-set":
                with np.errstate(all="ignore"):
                    g = direct_branch_values((2, 1), 0.04, pts)
                k = np.arange(pts.shape[0])
                x1 = np.where(k % 3 == 2, g[:, 0] * (1.0 + 1e-4), g[k, k % 2])
                pts = np.concatenate([x1[:, None], pts], axis=1)
            pts = pts[::8] if name == "pruned-list" else pts
            per_point = 0.5 + np.random.default_rng(1).random(pts.shape[0])
            for scale in (0.5, 1.0, 1.7, per_point):
                digest.update(fam.covers(pts, scale, tol=tol).tobytes())
    assert digest.hexdigest() == COVERS_PINS[name]


@pytest.mark.parametrize("name", FAMILIES)
def test_points_that_are_not_finite_leave_the_rest_unchanged(name):
    """With nan and inf coordinates mixed in, `locate` and `covers` still
    equal the oracles, quietly, and no such point lies in a chart."""
    charts = _charts(name)
    fam = family(charts)
    pts = _points(charts, count=300, seed=4)
    pts[::7, 0], pts[3::11, -1], pts[5::13, 0] = np.nan, np.inf, complex(np.inf, np.nan)
    bad = ~np.isfinite(pts).all(axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        i, j = fam.locate(pts, 1.0, tol=TOL)
        got = fam.covers(pts, 1.0, tol=TOL)
    with np.errstate(invalid="ignore", over="ignore"):
        want = brute_covered(charts, pts, 1.0, tol=TOL)
    assert list(zip(i.tolist(), j.tolist())) == containing_pairs(charts, pts, 1.0, tol=TOL)
    assert np.array_equal(got, want)
    assert not got[bad].any() and got[~bad].any()


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
    (cover_punctured_polydisc(2, 1.5, 2.0)[0].charts, np.full((3, 2), 0.5 + 0j)),
    (cover_annulus(1e-2, 2.0).charts, np.zeros((0, 1), dtype=complex)),
    (cover_monomial_level_set((2, 1), 0.04).charts, np.zeros((0, 2), dtype=complex)),
    (family([], dim=2), np.full((3, 2), 0.5 + 0j)),
])
def test_locate_without_charts_or_points(fam, pts):
    """No pairs, and `covers` answers False for every point, quietly."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        i, j = fam.locate(pts, 1.0)
        got = fam.covers(pts, 1.0)
    assert i.dtype == j.dtype == np.int64 and i.shape == j.shape == (0,)
    assert got.dtype == bool and got.shape == pts.shape[:1] and not got.any()


@pytest.mark.parametrize("name", FAMILIES)
def test_contains_refuses_a_scale_outside_the_factor(name):
    fam = family(_charts(name))
    p = fam.arrays_at(np.array([0]))[0][0]
    assert fam.contains(0, p, fam.gamma)
    for scale in (0.0, -1.0, fam.gamma * 1.01):
        with pytest.raises(ValueError, match="scale must lie in"):
            fam.contains(0, p, scale)


@pytest.mark.parametrize("name", [*FAMILIES, "empty"])
def test_neighbors_checks_its_index(name):
    """In `neighbors` and `contains` a negative index counts from the end and
    one past either end raises `IndexError`, as `charts[i]` does; a family
    with no charts has no index."""
    fam = _family_of(name)
    n = len(fam)
    p = np.full(fam.dim, 0.5 + 0j)
    if n:
        assert np.array_equal(fam.neighbors(-1), fam.neighbors(n - 1))
        assert fam.contains(-1, p, 1.0) == fam.contains(n - 1, p, 1.0)
    for i in (n, n + 7, -n - 1):
        with pytest.raises(IndexError):
            fam.neighbors(i)
        with pytest.raises(IndexError):
            fam.contains(i, p, 1.0)
        with pytest.raises(IndexError):
            fam[i]


@pytest.mark.parametrize("name", [*FAMILIES, "level-branches"])
def test_neighbors_checks_its_scale(name):
    """A NaN or negative scale raises `ValueError`, as in `locate`; scale 0
    is allowed and chart ``i`` is among its own neighbours there."""
    charts = (cover_monomial_level_set((2, 1), 0.04).charts if name == "level-branches"
              else _charts(name))
    fam = family(charts)
    for bad, shown in ((np.nan, "nan"), (-1.0, "-1.0")):
        with pytest.raises(ValueError, match=f"scale must be a number >= 0, got {shown}"):
            fam.neighbors(20, bad)
    assert 20 in fam.neighbors(20, 0.0)


@pytest.mark.parametrize("scale", [0.5, 1.0, 3.8, 5.0], ids=["half", "unit", "all-angles", "sigma-1"])
@pytest.mark.parametrize("name", [*FAMILIES, "level-set", "empty"])
def test_batched_neighbor_lists_equal_the_per_chart_lists(name, scale):
    """`_neighbors` of a layer (both ends, a repeat and random charts, in no
    order) counts and lists, chart by chart, the lists `oracles.neighbor_list`
    builds one chart at a time, and `neighbors(i, scale)` is the list of [i].
    At scale 3.8 an annulus ring window holds every angle; at 5 (sigma >= 1)
    it holds every disk."""
    fam = _family_of(name)
    n = len(fam)
    idx = np.concatenate([[n - 1, 0, n - 1], np.random.default_rng(2).integers(0, n, 9)] if n
                         else [[]]).astype(np.int64)
    want = [neighbor_list(fam, i, scale) for i in idx.tolist()]
    counts, lists = fam._neighbors(idx, scale)
    assert counts.dtype == np.int64 and counts.tolist() == [w.size for w in want]
    got = lists()
    assert got.dtype == np.int64 and np.array_equal(got, np.concatenate([[], *want]))
    for i, w in zip(idx[:3].tolist(), want):
        assert np.array_equal(fam.neighbors(i, scale), w)
    if name == "rings" and scale > 1.0:
        assert all(w.size % fam.n_angles == 0 and np.unique(w % fam.n_angles).size == fam.n_angles
                   for w in want)


@pytest.mark.parametrize("build", [
    lambda: cover_annulus(1e-2, 2.0).charts,
    lambda: cover_punctured_polydisc(2, 0.75, 2.0)[0].charts,
    lambda: list(cover_punctured_polydisc(2, 0.75, 2.0, {2})[0].charts),
], ids=["rings", "suspension", "plain-list"])
def test_a_nan_or_negative_scale_is_refused(build):
    """`locate` and `covers` refuse a NaN or negative scale, scalar or per
    point, with a `ValueError` naming it; at scale 0 they find the chart
    centres, the images of the ball of radius 0."""
    charts = build()
    fam = family(charts)
    pts = _points(charts, count=40)
    mixed = np.ones(pts.shape[0])
    mixed[3] = -0.5
    for bad, shown in ((np.nan, "nan"), (-1.0, "-1.0"), (mixed, "-0.5")):
        for query in (fam.locate, fam.covers):
            with pytest.raises(ValueError, match=f"scale must be a number >= 0, got {shown}"):
                query(pts, bad)
    centres = fam.arrays_at(np.arange(3))[0]
    i, j = fam.locate(centres, 0.0)
    assert i.tolist() == j.tolist() == [0, 1, 2]
    assert fam.covers(centres, np.zeros(3)).all() and not fam.covers(pts, 0.0).any()


def test_rings_where_the_angle_window_narrows():
    """At sigma = s*rf/cf of 0.625 and 0.975 `passes` narrows its angle offsets
    to asin(sigma); `locate` and `covers` still give every containing disk.
    Past sigma = 1 every disk is offered, so the points near the origin that
    a disk then holds are found too."""
    rings = cover_annulus(1e-2, 2.0).charts
    pts = _points(rings, count=200, seed=5)
    small = 1e-6 * np.exp(2j * np.pi * np.random.default_rng(6).random((20, 1)))
    wide = [DiagonalAffineChart(c.b, c.d, 4.0) for c in rings]    # the oracle's charts accept scale 3.9
    for scale in (2.5, 3.9):
        assert scale * rings.rf / rings.cf in (0.625, 0.975)
        i, j = rings.locate(pts[::4], scale, tol=TOL)
        assert list(zip(i.tolist(), j.tolist())) == containing_pairs(wide, pts[::4], scale, tol=TOL)
        assert np.array_equal(rings.covers(pts, scale, tol=TOL), brute_covered(rings, pts, scale, tol=TOL))
    for scale in (4.5, 6.0):
        both = np.concatenate([pts, small])
        want = brute_covered(rings, both, scale, tol=TOL)
        assert want[-20:].all()
        assert np.array_equal(rings.covers(both, scale, tol=TOL), want)


@pytest.mark.parametrize("name", FAMILIES)
def test_streamed_arrays_equal_the_full_arrays(name):
    """`arrays_at` over blocks of 1000 charts, and `iter_chart_arrays`'s one
    block, give `chart_arrays` bit for bit."""
    charts = _charts(name)
    b, d = chart_arrays(charts)
    fam = family(charts)
    blocks = [fam.arrays_at(np.arange(lo, min(lo + 1000, len(fam))))
              for lo in range(0, len(fam), 1000)]
    bits = lambda z: np.ascontiguousarray(z).view(np.uint64)
    for got in (blocks, list(iter_chart_arrays(charts))):
        assert np.array_equal(bits(np.concatenate([x for x, _ in got])), bits(b))
        assert np.array_equal(bits(np.concatenate([y for _, y in got])), bits(d))


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


def test_plain_list_rows_are_built_once_at_construction():
    """`family` of a list builds its read-only rows once, and a `Covering` of a
    list holds that family: changing the list afterwards changes neither."""
    charts = [DiagonalAffineChart((0.5j,), (0.25,), 2.0)]
    fam, cov = family(charts), Covering(PuncturedPlane(), 2.0, charts)
    assert family(fam) is fam and fam.chart_arrays()[0] is fam.chart_arrays()[0]
    assert cov.charts == fam and cov.charts.chart_arrays()[0] is cov.charts.chart_arrays()[0]
    charts.append(DiagonalAffineChart((-0.5j,), (0.25,), 2.0))
    charts[0] = DiagonalAffineChart((0.25j,), (0.5,), 2.0)
    for got in (fam, cov.charts):
        assert len(got) == 1 and list(got) == [DiagonalAffineChart((0.5j,), (0.25,), 2.0)]
        assert got.contains(0, (0.5j,), 1.0) and not got.contains(0, (0.25j,), 0.5)
        with pytest.raises(ValueError):
            got.chart_arrays()[1][0, 0] = 0j


def test_list_arrays_are_built_once_per_locate(monkeypatch):
    """A `locate` that decides its pairs in several calls of `_hits` reads
    the list's (b, d), built once by `family`, in every call."""
    charts = list(cover_punctured_polydisc(2, 0.75, 2.0)[0].charts)[::5]
    fam, pts = family(charts), _points(charts, count=40)
    rows, calls = fam.chart_arrays(), []
    hits = type(fam)._hits
    monkeypatch.setattr(type(fam), "_hits", lambda self, *a: calls.append(1) or hits(self, *a))
    i, j = fam.locate(pts, 1.0)
    assert len(calls) > 1 and i.size > 0
    assert all(x is y for x, y in zip(fam.chart_arrays(), rows))
    with pytest.raises(ValueError):
        fam.chart_arrays()[0][0, 0] = 0j


def test_covers_settled_by_the_anchor_pass_splits_once_per_level(monkeypatch):
    """Points at chart centres are settled by their anchor charts, so the
    passes after the anchor pass offer no pair and split nothing: `_split`
    runs once per suspension level, for the anchor pass."""
    charts = cover_punctured_polydisc(3, 0.3, 2.0)[0].charts
    calls = []
    split = SuspendedCharts._split
    monkeypatch.setattr(SuspendedCharts, "_split", lambda self, *a: calls.append(1) or split(self, *a))
    pts = charts.arrays_at(np.arange(0, len(charts), len(charts) // 999))[0]
    assert charts.covers(pts, 1.0).all()
    assert len(calls) == 2


def _covering(name, region):
    """The covering of FAMILIES[name] in the ambient of ``region``."""
    fam = family(_charts(name))
    ambient = PuncturedPlane() if isinstance(region, AnnulusRegion) else \
        PolydiscComplement(n=region.n, active_axes=region.axes())
    return Covering(ambient=ambient, gamma=fam.gamma, charts=fam)


def test_every_family_has_a_region():
    assert REGIONS.keys() == FAMILIES.keys()


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("tol", [0.0, None, 1e-6], ids=["tol-0", "default", "tol-1e-6"])
@pytest.mark.parametrize("shrink", [1.0, 0.8], ids=["own-eta", "smaller-eta"])
@pytest.mark.parametrize("block", [None, 20], ids=["one-call", "slabs-of-20"])
def test_check_coverage_is_the_row_by_row_report(name, tol, shrink, block, monkeypatch):
    """`check_coverage` gives the `coverage_by_rows` report, its counts and
    first 100 uncovered rows: on every family, the unpunctured axes' one-disk
    lists with no anchor included; at each tolerance; in one call, and at 20
    rows a block, where the n >= 2 grids (5^4 and 3^6 rows) are cut into slabs
    that range over the second axis; and on a region with a smaller eta than
    the covering, whose grid rows the anchor pass leaves to the windowed
    passes and to ``uncovered``."""
    region = REGIONS[name]
    cov = _covering(name, region)
    if shrink != 1.0:
        region = type(region)(*(x * shrink if isinstance(x, float) else x
                                for x in vars(region).values()))
    if block is not None:
        monkeypatch.setattr(verify_mod, "POINT_BLOCK", block)
    want = coverage_by_rows(cov, region, 1000, 5, tol)
    assert check_coverage(cov, region, 1000, 5, tol) == want
    grid = region.grid(1000)
    if block is not None and len(grid) > 1:
        assert any(slab[1] != (0, grid[1][0].size ** 2)
                   for _, _, slab in verify_mod._slabs(grid, 0, verify_mod._grid_rows(grid), block))
    if shrink != 1.0:
        g = verify_mod._grid_rows(grid)
        assert not covers_points(cov.charts, verify_mod.region_samples(region, 1000, 5)[:g], 1.0,
                                 tol=tol).all()


@pytest.mark.parametrize("suspended", [False, True], ids=["rings", "suspension"])
def test_grid_hits_on_a_disk_centre_take_the_ball_rule(suspended):
    """Grid points on a ring-disk centre, where |z - a|^2 is 0, below `TINY`,
    and the ring row test takes the ball rule for them: the factored
    `_grid_hits` equals the row path `_hits(rows, scale, t, _anchor(rows))`
    at each scale, for the rings and for a suspension whose inner rings meet
    those points at every layer point."""
    fam = cover_punctured_polydisc(2, 1e-2, 2.0)[0].charts if suspended else cover_annulus(1e-2, 2.0).charts
    rings = fam.inner if suspended else fam
    a = rings.arrays_at(np.array([3, 40, 77]))[0][:, 0]
    axes = [np.concatenate([a, a * 1.01, [0.3 + 0.2j, 0.9]])]
    if suspended:
        axes.append(np.concatenate([fam.layers.arrays_at(np.array([0, 9]))[0][:, 0], [0.5j]]))
    rows = _product_rows(axes)
    centres = rings.arrays_at(rings._anchor(rows[:, :1]))[0][:, 0]
    assert (np.abs(rows[:, 0] - centres) ** 2 < TINY).sum() == 3 * rows.shape[0] // axes[0].size
    scale, t = np.array([0.0, 0.5, 1.0, 1.7]), 1e-10
    want = np.stack([fam._hits(rows, np.full(rows.shape[0], s), t, fam._anchor(rows)) for s in scale])
    got = fam._grid_hits(axes, scale, t)
    assert got.shape == want.shape and np.array_equal(got, want) and want.any()


def test_locate_decides_small_passes_together(monkeypatch):
    """Two annulus endpoints meet the rings in dozens of small passes, and
    one `_hits` call decides them all."""
    rings = cover_annulus(1e-2, 2.0).charts
    calls = []
    hits = type(rings)._hits
    monkeypatch.setattr(type(rings), "_hits", lambda self, *a: calls.append(1) or hits(self, *a))
    i, j = rings.locate(np.array([0.5, 0.5j]), 1.0)
    assert calls == [1] and set(i.tolist()) == {0, 1}
    assert len(list(rings.passes(np.array([[0.5], [0.5j]]), np.ones(2), np.zeros(2, bool)))) > 2


def test_list_scan_of_points_that_are_not_finite_is_quiet():
    charts = list(cover_annulus(1e-2, 2.0).charts)
    pts = _points(charts, count=200)
    pts[7], pts[11] = np.inf, np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = covers_points(charts, pts, 1.0)
        i, _ = family(charts).locate(pts, 1.0)
    want = np.zeros(pts.shape[0], dtype=bool)
    want[i] = True
    assert not got[7] and not got[11]
    assert np.array_equal(got, want) and 0 < want.sum() < want.size


@pytest.mark.parametrize("charts, error", [
    (cover_punctured_polydisc(3, 0.3, 2.0)[0].charts, AtlasError),
    (cover_monomial_level_set((2, 1, 1), 0.5).charts, UnsupportedAmbient),
], ids=["kappa-3.7e9", "level-211"])
def test_oversized_or_rowless_arrays_are_refused_unallocated(charts, error):
    tracemalloc.start()
    try:
        for call in (charts.chart_arrays, lambda: chart_arrays(charts),
                     lambda: ChartFamily.chart_arrays(charts)):
            with pytest.raises(error):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20          # the layer tables, nothing of kappa's size


def _per_chart_flags():
    rep = certify_doubling(cover_punctured_polydisc(2, 0.5, 2.0)[0])
    return rep.n_charts, lambda: rep.per_chart


def _chart_rows():
    fam = cover_punctured_polydisc(2, 0.5, 2.0)[0].charts
    return fam.kappa, fam.chart_arrays


def _listed_charts():
    cov = cover_annulus(0.5, 2.0)
    return cov.kappa, lambda: covering_to_dict(cov)


def _level_flags():
    cov = cover_monomial_level_set((2, 1), 0.5)     # tol 0: every chart's own residual flag
    return cov.kappa, lambda: certify_doubling(cov, tol=0.0)


# site: () -> (the entries it lists, the call that lists them)
BUDGET_SITES = {
    "ring-table": lambda: (120, lambda: RingDisks(2.0, 0.875, 12, 10)),
    "chart-rows": _chart_rows,
    "listed-charts": _listed_charts,
    "level-flags": _level_flags,
    "per-chart-flags": _per_chart_flags,
}


@pytest.mark.parametrize("site", BUDGET_SITES)
def test_every_budget_site_reads_the_budget_at_call_time(site, monkeypatch):
    """Each refusal over the budget goes through `core.check_budget`: the
    budget patched on `core` to the count passes the call, one less refuses it."""
    count, call = BUDGET_SITES[site]()
    assert count > 1
    monkeypatch.setattr(core, "MATERIALIZE_BUDGET", count)
    call()
    monkeypatch.setattr(core, "MATERIALIZE_BUDGET", count - 1)
    with pytest.raises(AtlasError, match=f" = {count} entries are over the budget of {count - 1}$"):
        call()


@pytest.mark.parametrize("name", FAMILIES)
def test_len_is_the_stated_kappa(name):
    fam = family(_charts(name))
    assert type(fam.kappa) is int and len(fam) == fam.kappa == len(list(fam))


ATLAS_DATA = MonomialData(1.0, (0.5, -0.25))

ADDRESSED = {       # every family kind, each form: a `FAMILIES` entry, level branches, a-chart atlases
    **FAMILIES,
    "level-set": lambda: cover_monomial_level_set((2, 1), 0.04).charts,
    "atlas-m1": lambda: cover_monomial_graph(MonomialData(1.0, (1.0,)), 0.05),
    "atlas-m2": lambda: cover_monomial_graph(ATLAS_DATA, 0.3),
    "atlas-listed": lambda: GraphCharts.listed(list(cover_monomial_graph(ATLAS_DATA, 0.3))[::3]),
}


def _check_address(fam, i):
    """Chart i is the chart that the `np.unravel_index` columns of i over the
    family's radices name, read off its factors: a suspension's inner chart t
    and layer disk j, a ring's ring k and angle j, a level chart's base chart t
    and branch k (a Python int), a list's row and an atlas's `graph_arrays` row,
    which for a product is box center ``box`` and offsets ``t``."""
    cols, chart = np.unravel_index(i, fam.radices), fam[i]
    if isinstance(fam, SuspendedCharts):
        j, t = (np.array([x]) for x in cols)
        (bt, dt), (bj, dj) = fam.inner.arrays_at(t), fam.layers.arrays_at(j)
        assert chart == DiagonalAffineChart(np.append(bt, bj), np.append(
            fam.beta * dt, fam.lam_factor * dj.real), fam.gamma)
        _check_address(fam.inner, int(t[0]))
    elif isinstance(fam, RingDisks):
        k, j = (int(x) for x in cols)
        assert chart.d == (fam.rf * fam.q ** k,)
        assert np.isclose(chart.b[0], fam.cf * fam.q ** k * np.exp(2j * np.pi * j / fam.n_angles),
                          rtol=1e-14, atol=0.0)
    elif isinstance(fam, LevelBranchCharts):
        t, k = cols
        assert type(chart.branch) is int and chart == MonomialLevelChart(
            base=fam.base[int(t)], branch=int(k), alpha=fam.alpha, c=fam.c)
    elif isinstance(fam, GraphCharts):
        y, z0 = fam.graph_arrays()
        assert np.array_equal(np.array(chart.y).view(np.uint64), y[i].view(np.uint64))
        assert np.array_equal(np.array(chart.z0).view(np.uint64), z0[i].view(np.uint64))
        if fam.offsets is not None:
            box, *t = cols
            assert len(t) == fam.m and np.array_equal(y[i], fam.boxes[box])
            assert np.array_equal(z0[i], fam.offsets[t])
    else:
        assert cols == (i,) and chart == DiagonalAffineChart(fam.b[i], fam.d[i], fam.gamma)


@pytest.mark.parametrize("name", ADDRESSED)
def test_kappa_is_the_product_of_the_radices_and_chart_i_their_address(name):
    """kappa is the product of the radices, and chart i, for the first, the last
    and 30 random i, is the chart its mixed-radix columns name (`_check_address`)."""
    fam = family(ADDRESSED[name]())
    assert type(fam.kappa) is int and fam.kappa == math.prod(fam.radices) == len(fam) > 1
    for i in [0, len(fam) - 1, *np.random.default_rng(5).integers(0, len(fam), 30).tolist()]:
        _check_address(fam, i)


# -- point shapes ---------------------------------------------------------------

ONE_DIM = [
    lambda: cover_annulus(1e-2, 2.0).charts,
    lambda: [DiagonalAffineChart((0.5,), (0.25,), 2.0)],
]
TWO_DIM = [
    lambda: cover_punctured_polydisc(2, 0.75, 2.0, {2})[0].charts,
    lambda: [DiagonalAffineChart((0.5, 0.5), (0.25, 0.25), 2.0)],
    lambda: cover_monomial_level_set((2, 1), 0.04).charts,
    lambda: cover_punctured_polydisc(2, 1.5, 2.0)[0].charts,     # no charts
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


@pytest.mark.parametrize("name", FAMILIES)
def test_covers_applies_the_tolerance_once(name):
    """Points at squared preimage norm 1 + 1.5 t and 1 + 0.5 t of random
    charts: `covers` holds exactly the points that `locate` finds, so a
    suspension widens its charts by the tolerance once, not once per level."""
    fam = family(_charts(name))
    rng = np.random.default_rng(7)
    b, d = fam.arrays_at(rng.integers(0, len(fam), 300))
    u = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    pts = np.concatenate([b + d * u * np.sqrt(1.0 + k * TOL) for k in (1.5, 0.5)])
    want = np.zeros(pts.shape[0], dtype=bool)
    want[fam.locate(pts, 1.0, tol=TOL)[0]] = True
    assert want[300:].all() and not want[:300].all()
    assert np.array_equal(fam.covers(pts, 1.0, tol=TOL), want)

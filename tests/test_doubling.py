"""Factored doubling certificates against the per-chart reference loops."""

import time
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from atlascover.annulus import cover_annulus
from atlascover.cli import main
from atlascover.core import (
    AtlasError,
    Covering,
    DiagonalAffineChart,
    MonomialLevelSet,
    PolydiscComplement,
)
from atlascover.levelset import LevelBranchCharts, cover_monomial_level_set, level_residual
from atlascover.polydisc import cover_punctured_polydisc
from atlascover.suspension import SuspendedCharts
from atlascover.verify import certify_doubling

from oracles import ball_points, doubling_level_bound_loop, doubling_level_loop, doubling_streamed
from test_jsonio import BUILDS


def _fat_layer_covering(fat_at, delta=0.5):
    """Level 1 an annulus covering, level 2 the annulus disks of ``layers``
    with a fat disk (|a| <= gamma * lambda) inserted at index ``fat_at``."""
    inner = cover_annulus(delta, 4.0).charts
    layers = list(cover_annulus(delta, 4.0).charts)
    layers.insert(fat_at, DiagonalAffineChart((0.5,), (0.5,), 4.0))
    charts = SuspendedCharts(inner, layers, beta=2.0)
    return Covering(PolydiscComplement(2, {1, 2}), 2.0, charts)


def _fat_inner_covering(fat_at):
    """Level 2 annulus disks, level 1 an annulus covering with a fat disk
    inserted at index ``fat_at``: every layer block holds a failure, so
    `failures` walks into the inner factor."""
    inner = list(cover_annulus(0.5, 4.0).charts)
    inner.insert(fat_at, DiagonalAffineChart((0.5,), (0.5,), 4.0))
    charts = SuspendedCharts(inner, cover_annulus(0.5, 4.0).charts, beta=2.0)
    return Covering(PolydiscComplement(2, {1, 2}), 2.0, charts)


AFFINE = dict(BUILDS, **{
    "polydisc-n2-axis1-small-eta": lambda: cover_punctured_polydisc(2, 0.05, 2.0, {1})[0],
    "polydisc-n3-axes12": lambda: cover_punctured_polydisc(3, 0.7, 2.0, {1, 2})[0],
    "polydisc-n4-axes24": lambda: cover_punctured_polydisc(4, 0.9, 2.0, {2, 4})[0],
    "polydisc-n4-axis3": lambda: cover_punctured_polydisc(4, 0.8, 2.0, {3})[0],
    "polydisc-n2-1.5e-3": lambda: cover_punctured_polydisc(2, 1.5e-3, 2.0)[0],
    "fat-layer-first": lambda: _fat_layer_covering(0),
    "fat-layer-middle": lambda: _fat_layer_covering(17),
    "fat-inner-chart": lambda: _fat_inner_covering(5),
    "list-every-third-fat": lambda: Covering(
        cover_annulus(0.1, 2.0).ambient, 2.0,
        [DiagonalAffineChart(c.b, (c.d[0] * (3 if i % 3 == 0 else 1),), 2.0)
         for i, c in enumerate(cover_annulus(0.1, 2.0).charts)]),
})
AFFINE = {k: v for k, v in AFFINE.items() if not k.startswith("level")}
LEVEL = {
    "level-21": lambda: cover_monomial_level_set((2, 1), 0.04),
    "level-211": lambda: cover_monomial_level_set((2, 1, 1), 0.9),
    "level-31-complex": lambda: cover_monomial_level_set((3, 1), 0.3 + 0.2j),
    "level-31-small": lambda: cover_monomial_level_set((3, 1), 0.07 + 0.02j),
}


def _same_report(rep, want):
    assert rep.n_charts == want.size
    assert rep.n_passed == int(want.sum())
    assert rep.passed == bool(want.all())
    assert np.array_equal(rep.per_chart, want)
    assert rep.failures == tuple(np.nonzero(~want)[0][:100].tolist())


@pytest.mark.parametrize("name", AFFINE)
def test_factored_flags_equal_the_streamed_loop(name):
    cov = AFFINE[name]()
    assert cov.kappa <= 10 ** 7
    _same_report(certify_doubling(cov), doubling_streamed(cov))


@pytest.mark.parametrize("name", LEVEL)
@pytest.mark.parametrize("tol", [None, 1e-15])
def test_level_flags_equal_the_chart_loop(name, tol):
    """The flags equal each chart's own bound, evaluated chart by chart.  At
    the default tol they come from the per-level factors; at 1e-15 from the
    listed outer products, whose order must be the chart order."""
    cov = LEVEL[name]()
    want = doubling_level_bound_loop(cov, tol=tol)
    rep = certify_doubling(cov, tol=tol)
    _same_report(rep, want)
    assert len(rep.factors) == (1 if tol is not None else len(cov.charts._base.level_rows()) + 1)


@pytest.mark.parametrize("name", LEVEL)
@pytest.mark.parametrize("tol", [None, 1e-15])
def test_the_bound_implies_the_samples(name, tol):
    """The bound never passes a chart that the sampled chart-by-chart loop
    fails.  At the default tol the flags equal the loop's and stay factored
    by level; at 1e-15, below every chart's bound, every chart fails in one
    factor while the loop's residuals pass on some charts and fail on others."""
    cov = LEVEL[name]()
    want = doubling_level_loop(cov, samples_per_chart=32, seed=4, tol=tol)
    rep = certify_doubling(cov, tol=tol)
    assert not (rep.per_chart & ~want).any()
    if tol is None:
        _same_report(rep, want)
        assert len(rep.factors) == len(cov.charts._base.level_rows()) + 1
        assert rep.factors[-1].size == cov.charts.alpha1 and rep.factors[-1].all()
    else:
        assert len(rep.factors) == 1 and rep.n_passed == 0
        assert 0 < want.sum() < want.size


def _residual_bounds(cov):
    """The a-priori residual bound of every base chart: the fixed part plus
    its rows' terms, one row per level of the base."""
    charts = cov.charts
    terms = charts._residual_terms(charts._base.level_rows())
    return charts._bound(reduce(np.add.outer, terms)).ravel()


def _sampled_residuals(cov, base_idx, samples=128, seed=0):
    """Per listed base chart: the largest `level_residual` over all its
    branches at ``samples`` seeded points of the unit ball."""
    charts = cov.charts
    x = ball_points(cov.dim - 1, samples, seed)
    return np.array([max(level_residual(charts[int(t) * charts.alpha1 + k], x).max()
                         for k in range(charts.alpha1)) for t in base_idx])


BOUNDED = dict(LEVEL, **{"level-211-half": lambda: cover_monomial_level_set((2, 1, 1), 0.5)})


@pytest.mark.parametrize("name", BOUNDED)
def test_the_residual_bound_holds_at_the_samples(name):
    """Every chart's bound is at least its largest 128-sample residual (on
    a seeded 2,000 base charts of the larger coverings) and far below the
    default tolerance, so the default certificate passes."""
    cov = BOUNDED[name]()
    bound = _residual_bounds(cov)
    idx = np.arange(bound.size)
    if bound.size > 2000:
        idx = np.sort(np.random.default_rng(3).choice(bound.size, 2000, replace=False))
    assert (bound[idx] >= _sampled_residuals(cov, idx)).all()
    assert bound.max() <= 1e-12 * abs(cov.charts.c)
    assert certify_doubling(cov).passed


def test_level_base_failures_are_not_masked():
    """A level set over a base with one fat layer disk fails on exactly the
    charts the sampled chart loop fails, and names the layer level.  The
    base is kept small (54 x 55 charts) for the loop's sake."""
    base = _fat_layer_covering(17, delta=0.9)
    alpha, c = (2, 1, 1), 0.3
    cov = Covering(MonomialLevelSet(alpha, c), base.gamma, LevelBranchCharts(base, alpha, c))
    want = doubling_level_loop(cov, samples_per_chart=16)
    assert not want.all()
    rep = certify_doubling(cov)
    _same_report(rep, want)
    assert rep.level_failures == {3: 1, 2: 0, 1: 0}


@pytest.mark.parametrize("alpha, kappa", [((2, 1, 1), 239_382), ((2, 1, 1, 1), 1_490_516_456)])
def test_level_certificates_scale_with_the_levels(alpha, kappa):
    cov = cover_monomial_level_set(alpha, 0.5)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        rep = certify_doubling(cov)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.failures == ()
    assert rep.n_charts == rep.n_passed == cov.kappa == kappa
    assert elapsed < 1.0
    assert peak < 16 * 2 ** 20
    if kappa > 10 ** 8:
        with pytest.raises(AtlasError, match=rf"^chart flags past the residual bound .* = {kappa} "
                                             "entries are over the budget"):
            certify_doubling(cov, tol=1e-15)


def test_a_fat_layer_disk_is_named_by_its_level():
    cov = _fat_layer_covering(17)
    rep = certify_doubling(cov)
    assert rep.level_failures == {1: 0, 2: 1}
    kappa_in = len(cov.charts.inner)
    assert rep.failures == tuple(range(17 * kappa_in, 17 * kappa_in + 100))
    assert rep.n_passed == rep.n_charts - kappa_in


@pytest.mark.parametrize("n, eta", [(3, 0.3), (4, 1e-3)])
def test_certificates_scale_with_the_levels(n, eta):
    cov, plan = cover_punctured_polydisc(n, eta, 2.0)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        rep = certify_doubling(cov)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.failures == ()
    assert rep.n_charts == rep.n_passed == plan.kappa_final == cov.kappa
    assert elapsed < 1.0
    assert peak < 64 * 2 ** 20
    with pytest.raises(AtlasError, match=f"^per-chart flags = {plan.kappa_final} entries are over the budget"):
        rep.per_chart


@pytest.mark.parametrize("build", [
    lambda: cover_punctured_polydisc(2, 1.5, 2.0)[0],
    lambda: cover_annulus(2.0, 2.0),
])
def test_empty_coverings_pass_vacuously(build):
    rep = certify_doubling(build())
    assert rep.passed and rep.n_charts == rep.n_passed == 0
    assert rep.failures == () and rep.per_chart.size == 0


# `atlas verify doubling` stdout as the streamed certificate printed it
CLI_OUTPUT = {
    ("annulus", "--delta", "0.01", "--zeta", "2"): "doubling 490/490 pass=True\n",
    ("polydisc", "--dim", "2", "--eta", "0.75", "--gamma", "2"):
        "doubling 25110/25110 pass=True\n",
    ("polydisc", "--dim", "3", "--eta", "0.9", "--gamma", "2", "--active-axes", "1,3"):
        "doubling 13144/13144 pass=True\n",
    ("levelset", "--alpha", "2,1", "--c", "0.04,0", "--gamma", "2"):
        "doubling 700/700 pass=True\n",
    ("polydisc", "--dim", "2", "--eta", "1.5", "--gamma", "2"): "doubling 0/0 pass=True\n",
}


@pytest.mark.parametrize("argv", CLI_OUTPUT)
def test_cli_doubling_output(argv, tmp_path, capsys):
    path = str(tmp_path / "cov.json")
    assert main(["cover", *argv, "--out", path]) == 0
    capsys.readouterr()
    assert main(["verify", "doubling", "--covering", path]) == 0
    assert capsys.readouterr().out == CLI_OUTPUT[argv]


def test_reports_compare_factor_by_factor():
    cov = cover_annulus(0.1, 2.0)
    assert certify_doubling(cov) == certify_doubling(cov)
    assert certify_doubling(cov) != certify_doubling(cover_annulus(0.05, 2.0))
    assert certify_doubling(cov) != certify_doubling(cov).factors

import hashlib
import math
import types

import numpy as np
import pytest

import atlascover.verify as verify_mod
from atlascover.annulus import cover_annulus
from atlascover.core import (
    DiagonalAffineChart,
    DimensionMismatch,
    Disconnected,
    InsufficientPoints,
    NoContainingChart,
    PolydiscComplement,
    PuncturedPlane,
    RegionMismatch,
    UnknownBound,
    chart_contains,
    family,
)
from atlascover.core import Covering
from atlascover.levelset import (
    MonomialLevelChart,
    cover_monomial_level_set,
    direct_branch_values,
    level_base_plan,
)
from atlascover.polydisc import cover_punctured_polydisc, level_lower_bound
from atlascover.suspension import chart_arrays
from atlascover.verify import (
    AnnulusRegion,
    LevelGraphRegion,
    PolydiscRegion,
    certify_doubling,
    chain_between,
    check_coverage,
    complexity_report,
    fit_log_exponent,
    intersection_witness,
    linear_fit,
    region_samples,
    scaling_experiment,
)

from oracles import _lagrange_witness, _segment_witness, chain_bfs_loop


class TestCoverage:
    def test_full_annulus_passes(self):
        cov = cover_annulus(0.1, 2.0)
        rep = check_coverage(cov, AnnulusRegion(0.1), n_samples=8000, seed=0)
        assert rep.passed and rep.rate == 1.0

    def test_deleting_first_chart_uncovers_its_private_region(self):
        cov = cover_annulus(0.1, 2.0)
        pruned = Covering(ambient=cov.ambient, gamma=cov.gamma,
                          charts=list(cov.charts)[1:], meta=cov.meta)
        rep = check_coverage(pruned, AnnulusRegion(0.1), n_samples=8000, seed=0)
        assert not rep.passed
        assert len(rep.uncovered) > 0

    def test_empty_region_passes_vacuously(self):
        cov = cover_annulus(1.0, 2.0)
        rep = check_coverage(cov, AnnulusRegion(1.0), n_samples=100, seed=0)
        assert rep.passed and rep.samples_total == 0

    def test_region_mismatch(self):
        cov = cover_annulus(0.1, 2.0)
        with pytest.raises(RegionMismatch):
            check_coverage(cov, PolydiscRegion(eta=0.1, n=2), 100, 0)

    def test_deterministic(self):
        cov = cover_annulus(0.05, 2.0)
        r1 = check_coverage(cov, AnnulusRegion(0.05), n_samples=4000, seed=42)
        r2 = check_coverage(cov, AnnulusRegion(0.05), n_samples=4000, seed=42)
        assert r1 == r2


class TestCertify:
    def test_hand_built_fat_disk_fails(self):
        ch = DiagonalAffineChart(b=(0.5,), d=(0.3,), gamma=2.0)
        cov = Covering(ambient=PuncturedPlane(), gamma=2.0, charts=[ch])
        rep = certify_doubling(cov)
        assert not rep.passed
        assert rep.failures == (0,)

    def test_annulus_all_pass(self):
        rep = certify_doubling(cover_annulus(0.01, 4.0))
        assert rep.passed


class TestChains:
    def test_two_points_in_one_chart(self):
        cov = cover_annulus(0.5, 2.0)
        ch = cov.charts[0]
        p = (ch.b[0],)
        q = (ch.b[0] + 0.5 * ch.d[0],)
        chain = chain_between(cov, p, q)
        assert chain.length == 1

    def test_antipodal_chain_has_valid_witnesses(self):
        cov = cover_annulus(0.01, 2.0)
        chain = chain_between(cov, (0.01,), (-0.01,))
        assert chain.length >= 2
        assert len(chain.witnesses) == chain.length - 1
        assert chart_contains(cov.charts[chain.chart_indices[0]], (0.01,), 1.0)
        assert chart_contains(cov.charts[chain.chart_indices[-1]], (-0.01,), 1.0)
        for (i, j), w in zip(zip(chain.chart_indices, chain.chart_indices[1:]),
                             chain.witnesses):
            assert chart_contains(cov.charts[i], w, 1.0)
            assert chart_contains(cov.charts[j], w, 1.0)

    def test_uncovered_endpoint(self):
        cov = cover_annulus(0.5, 2.0)
        with pytest.raises(NoContainingChart):
            chain_between(cov, (2.5,), (0.9,))

    def test_disconnected(self):
        charts = [DiagonalAffineChart(b=(0.9,), d=(0.01,), gamma=2.0),
                  DiagonalAffineChart(b=(-0.9,), d=(0.01,), gamma=2.0)]
        cov = Covering(ambient=PuncturedPlane(), gamma=2.0, charts=charts)
        with pytest.raises(Disconnected):
            chain_between(cov, (0.9,), (-0.9,))

    def test_chain_length_trend_across_deltas(self):
        lengths, logs = [], []
        for delta in (1e-1, 1e-2, 1e-3):
            cov = cover_annulus(delta, 2.0)
            lengths.append(chain_between(cov, (delta,), (-delta,)).length)
            logs.append(math.log(1.0 / delta))
        fit = linear_fit(logs, lengths)
        assert math.isfinite(fit.slope)
        assert fit.r2 >= 0.95


class TestWitness:
    def test_segment_witness_for_overlapping_disks(self):
        c1 = DiagonalAffineChart(b=(0.0,), d=(1.0,), gamma=2.0)
        c2 = DiagonalAffineChart(b=(1.5,), d=(1.0,), gamma=2.0)
        w = intersection_witness(c1, c2)
        assert w is not None
        assert chart_contains(c1, w, 1.0) and chart_contains(c2, w, 1.0)

    def test_no_witness_for_disjoint_disks(self):
        c1 = DiagonalAffineChart(b=(0.0,), d=(0.3,), gamma=2.0)
        c2 = DiagonalAffineChart(b=(1.5,), d=(0.3,), gamma=2.0)
        assert intersection_witness(c1, c2) is None


class TestComplexity:
    def test_annulus_instance(self):
        cov = cover_annulus(0.1, 2.0)
        rep = complexity_report(cov, "polydisc", n=1, gamma=2.0, eta=0.1)
        assert rep.bound == pytest.approx(18.0 * math.log(180.0), rel=1e-12)
        assert rep.ratio == cov.kappa / rep.bound

    def test_empty_ratio_zero(self):
        cov = cover_annulus(1.0, 2.0)
        rep = complexity_report(cov, "polydisc", n=1, gamma=2.0, eta=1.0)
        assert rep.ratio == 0.0

    def test_unknown_bound(self):
        cov = cover_annulus(0.5, 2.0)
        with pytest.raises(UnknownBound):
            complexity_report(cov, "mystery", n=1)

    def test_ratio_stability_one_dim(self):
        ratios = []
        for eta in (1e-1, 1e-2, 1e-3, 1e-4):
            cov = cover_annulus(eta, 2.0)
            rep = complexity_report(cov, "polydisc", n=1, gamma=2.0, eta=eta)
            ratios.append(rep.ratio)
        assert max(ratios) / min(ratios) < 2.0


class TestFits:
    def test_recovers_synthetic_exponent(self):
        for n in (1, 2, 3):
            rows = [types.SimpleNamespace(kappa=math.log(1.0 / d) ** n,
                                          log_inv_param=math.log(1.0 / d))
                    for d in (1e-1, 1e-2, 1e-3, 1e-4)]
            fit = fit_log_exponent(rows)
            assert abs(fit.slope - n) <= 1e-6
            assert fit.r2 >= 1.0 - 1e-12

    def test_constant_series_is_perfect_fit(self):
        fit = linear_fit([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r2 == 1.0

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPoints):
            scaling_experiment("annulus", [0.1, 0.01], {"zeta": 2.0})
        with pytest.raises(InsufficientPoints):
            fit_log_exponent([])


class TestScaling:
    def test_annulus_rows(self):
        rows = scaling_experiment("annulus", [1e-1, 1e-2, 1e-3], {"zeta": 2.0})
        assert [r.kappa for r in rows] == [cover_annulus(d, 2.0).kappa
                                           for d in (1e-1, 1e-2, 1e-3)]
        assert all(r.paper_bound > 0 and r.ratio > 0 for r in rows)

    def test_polydisc_count_only_rows(self):
        rows = scaling_experiment("polydisc", [0.3, 0.1, 0.03],
                                  {"n": 2, "gamma": 2.0})
        fit = fit_log_exponent(rows)
        assert abs(fit.slope - 2.0) <= 0.3

    def test_grid_must_descend(self):
        with pytest.raises(ValueError):
            scaling_experiment("annulus", [0.01, 0.1, 0.001], {"zeta": 2.0})

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            scaling_experiment("fractal", [0.1, 0.01, 0.001], {})


def test_polydisc_region_requires_matching_axes():
    cov, _ = cover_punctured_polydisc(2, 0.4, 2.0, active_axes={2})
    with pytest.raises(RegionMismatch):
        check_coverage(cov, PolydiscRegion(eta=0.4, n=2), 100, 0)


# ---------------------------------------------------------------------------
# chart neighbours and exact witnesses
# ---------------------------------------------------------------------------

def _projections_meet(b, d, i, scale):
    """Brute force: charts whose per-axis image disks at ``scale`` meet chart i's."""
    meet = np.abs(b - b[i]) <= scale * (np.abs(d) + np.abs(d[i]))
    return set(np.nonzero(meet.all(axis=1))[0].tolist())


def _assert_neighbors_cover(charts, indices, base_of=lambda t: [t]):
    """``neighbors(i, s)`` contains every chart whose projections meet chart i's.

    ``base_of`` maps a projection index to the chart indices it stands for
    (the branches of a level family's base chart).
    """
    base = charts.base_cov.charts if hasattr(charts, "base_cov") else charts
    b, d = chart_arrays(base)
    stride = len(charts) // len(base)
    for s in (1.0, 2.0):
        for i in indices:
            got = set(family(charts).neighbors(int(i), s))
            assert i in got
            for t in _projections_meet(b, d, int(i) // stride, s):
                assert set(base_of(t)) <= got, (i, t, s)


class TestNeighbors:
    def test_ring_disks(self):
        charts = cover_annulus(1e-2, 2.0).charts
        _assert_neighbors_cover(charts, range(len(charts)))

    def test_ring_disks_at_a_scale_with_no_ring_bound(self):
        charts = cover_annulus(1e-2, 2.0).charts
        rings = {i // charts.n_angles
                 for i in charts.neighbors(0, 1.01 * charts.cf / charts.rf)}
        assert rings == set(range(charts.n_rings))

    def test_single_axis_polydisc(self):
        cov, _ = cover_punctured_polydisc(2, 0.75, 2.0, active_axes={2})
        assert cov.kappa == 186
        _assert_neighbors_cover(cov.charts, range(cov.kappa))

    @pytest.mark.parametrize("eta, kappa", [(0.75, 25_110), (0.3, 349_866)])
    def test_full_polydisc_sampled(self, eta, kappa):
        cov, _ = cover_punctured_polydisc(2, eta, 2.0)
        assert cov.kappa == kappa
        rng = np.random.default_rng(0)
        idx = np.concatenate([[0, cov.kappa - 1], rng.integers(0, cov.kappa, 40)])
        _assert_neighbors_cover(cov.charts, idx)

    def test_level_set(self):
        cov = cover_monomial_level_set((2, 1), 0.04, 2.0)
        charts = cov.charts
        _assert_neighbors_cover(charts, range(0, len(charts), 3),
                                base_of=lambda t: [2 * t, 2 * t + 1])

    def test_plain_list_yields_every_index(self):
        charts = list(cover_annulus(0.5, 2.0).charts)
        got = family(charts).neighbors(3)
        assert got.dtype == np.int64 and got.tolist() == list(range(len(charts)))


class TestStructuredChains:
    @pytest.mark.parametrize("build, p, q", [
        (lambda: cover_annulus(1e-2, 2.0), (0.01,), (-0.01,)),
        (lambda: cover_punctured_polydisc(2, 0.75, 2.0, active_axes={2})[0],
         (0.1, 0.9), (0.1, 0.9j)),
    ])
    def test_structure_matches_full_scan(self, build, p, q):
        cov = build()
        flat = Covering(cov.ambient, cov.gamma, list(cov.charts))
        fast = chain_between(cov, p, q)
        assert fast == chain_between(flat, p, q)
        for (i, j), w in zip(zip(fast.chart_indices, fast.chart_indices[1:]),
                             fast.witnesses):
            assert chart_contains(cov.charts[i], w, 1.0, tol=1e-10)
            assert chart_contains(cov.charts[j], w, 1.0, tol=1e-10)

    def test_chain_does_not_depend_on_seed(self):
        cov, _ = cover_punctured_polydisc(2, 0.75, 2.0, active_axes={2})
        chains = {chain_between(cov, (0.1, 0.9), (0.1, 0.9j), seed=s)
                  for s in range(3)}
        assert len(chains) == 1

    def test_polydisc_chain_witness_calls(self, monkeypatch):
        """Every BFS layer is decided by one batched kernel call, so a chain
        of length L takes at most L calls; no chart pair is tested alone."""
        calls = []
        real = verify_mod._witness_rows

        def counted(*args, **kwargs):
            calls.append(args[0].shape[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(verify_mod, "_witness_rows", counted)
        monkeypatch.setattr(verify_mod, "intersection_witness", None)
        cov, _ = cover_punctured_polydisc(2, 0.75, 2.0, active_axes={2})
        chain = chain_between(cov, (0.1, 0.9), (0.1, 0.9j))
        assert chain.chart_indices == tuple(range(9))
        assert 1 <= len(calls) <= chain.length
        assert sum(calls) > len(calls)

    def test_level_set_chain(self):
        cov = cover_monomial_level_set((2, 1), 0.04, 2.0)
        pts = region_samples(LevelGraphRegion((2, 1), 0.04), 10, 1)
        chain = chain_between(cov, tuple(pts[0]), tuple(pts[3]))
        assert chain.chart_indices == (616, 532, 448, 364, 280, 196, 170,
                                       144, 118, 92, 66, 40, 14)
        for (i, j), w in zip(zip(chain.chart_indices, chain.chart_indices[1:]),
                             chain.witnesses):
            assert cov.charts.contains(i, w, 1.0, tol=1e-10)
            assert cov.charts.contains(j, w, 1.0, tol=1e-10)


class TestExactWitness:
    def test_crossed_ellipses_off_the_segment(self):
        c1 = DiagonalAffineChart(b=(0, 0), d=(1, 0.05), gamma=2.0)
        c2 = DiagonalAffineChart(b=(0.9, 0.9), d=(0.05, 1), gamma=2.0)
        assert _segment_witness(c1, c2, 1e-10) is None
        w = intersection_witness(c1, c2)
        assert w is not None
        assert chart_contains(c1, w, 1.0, tol=1e-10)
        assert chart_contains(c2, w, 1.0, tol=1e-10)

    def test_disjoint_balls_whose_projections_meet(self):
        ball = DiagonalAffineChart(b=(0, 0), d=(1, 1), gamma=2.0)
        small = DiagonalAffineChart(b=(0.95, 0.95), d=(0.3, 0.3), gamma=2.0)
        assert intersection_witness(ball, small) is None
        assert intersection_witness(small, ball) is None

    def test_disjoint_projection_on_one_axis(self):
        c1 = DiagonalAffineChart(b=(0, 0), d=(1, 0.1), gamma=2.0)
        c2 = DiagonalAffineChart(b=(0, 0.5), d=(1, 0.1), gamma=2.0)
        assert intersection_witness(c1, c2) is None


# ---------------------------------------------------------------------------
# the batched witness kernel and the layer-at-a-time BFS against the scalar oracles
# ---------------------------------------------------------------------------

def _bits(w):
    """A witness (or None) as the raw bits of its coordinates."""
    return None if w is None else np.array(w, dtype=complex).view(np.uint64).tolist()


def _staircase():
    """Crossed ellipses along the diagonal: consecutive charts meet off their
    center segment, so only the Lagrange stage finds their witnesses."""
    charts = [DiagonalAffineChart(b=(0.9 * k, 0.9 * k),
                                  d=(1, 0.05) if k % 2 == 0 else (0.05, 1), gamma=2.0)
              for k in range(5)]
    return Covering(PolydiscComplement(2), 2.0, charts)


def _polydisc_axis2():
    return cover_punctured_polydisc(2, 0.75, 2.0, active_axes={2})[0]


def _level_21():
    return cover_monomial_level_set((2, 1), 0.04, 2.0)


_LEVEL_PTS = region_samples(LevelGraphRegion((2, 1), 0.04), 10, 1)

CHAIN_CASES = {
    "annulus-1e-2": (lambda: cover_annulus(1e-2, 2.0), (0.01,), (-0.01,)),
    "annulus-1e-2-quarter": (lambda: cover_annulus(1e-2, 2.0), (0.5,), (0.5j,)),
    "annulus-1e-3": (lambda: cover_annulus(1e-3, 2.0), (1e-3,), (-1e-3,)),
    "polydisc-axis2": (_polydisc_axis2, (0.1, 0.9), (0.1, 0.9j)),
    "polydisc-axis2-list": (lambda: Covering(_polydisc_axis2().ambient, 2.0,
                                             list(_polydisc_axis2().charts)),
                            (0.1, 0.9), (0.1, 0.9j)),
    "level-21": (_level_21, tuple(_LEVEL_PTS[0]), tuple(_LEVEL_PTS[3])),
    "crossed-ellipses": (_staircase, (-0.9, 0.0), (3.6, 3.6 + 0.04j)),
}


class TestBatchedChains:
    @pytest.mark.parametrize("name", CHAIN_CASES)
    def test_chain_equals_the_fifo_oracle(self, name):
        build, p, q = CHAIN_CASES[name]
        cov = build()
        got, ref = chain_between(cov, p, q), chain_bfs_loop(cov, p, q)
        assert got.chart_indices == ref.chart_indices
        assert [_bits(w) for w in got.witnesses] == [_bits(w) for w in ref.witnesses]
        fam = cov.family
        for (i, j), w in zip(zip(got.chart_indices, got.chart_indices[1:]), got.witnesses):
            assert fam.contains(i, w, 1.0, tol=1e-10) and fam.contains(j, w, 1.0, tol=1e-10)
        if name == "crossed-ellipses":
            assert got.length == 5
            assert all(_segment_witness(cov.charts[i], cov.charts[i + 1], 1e-10) is None
                       for i in range(4))

    @pytest.mark.parametrize("name", ["annulus-1e-2", "polydisc-axis2", "level-21"])
    def test_the_bfs_builds_no_chart(self, name, monkeypatch):
        """No chart is built, for the endpoints or in the search."""
        build, p, q = CHAIN_CASES[name]
        cov = build()
        built = []
        for cls in (DiagonalAffineChart, MonomialLevelChart):
            real_post_init = cls.__post_init__

            def counting(self, real=real_post_init):
                built.append(1)
                real(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        assert chain_between(cov, p, q).length > 2
        assert built == []

    def test_kernel_equals_the_scalar_tests_row_by_row(self):
        """About 2,000 random chart pairs in dimensions 1 to 3 and the hand-made
        pairs of `TestExactWitness`: the same None-or-not and the same bits."""
        rng = np.random.default_rng(11)
        pairs = [((0, 0), (1, 0.05), (0.9, 0.9), (0.05, 1)),
                 ((0, 0), (1, 1), (0.95, 0.95), (0.3, 0.3)),
                 ((0.95, 0.95), (0.3, 0.3), (0, 0), (1, 1)),
                 ((0, 0), (1, 0.1), (0, 0.5), (1, 0.1))]
        for dim in (1, 2, 3):
            for _ in range(670):
                b1 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                b2 = b1 + rng.uniform(0.0, 1.5) * (rng.standard_normal(dim)
                                                   + 1j * rng.standard_normal(dim))
                d1, d2 = (rng.uniform(0.05, 1.5, dim) * np.exp(
                    1j * rng.uniform(0, 2 * np.pi, dim) * (rng.random() < 0.3))
                    for _ in range(2))
                pairs.append((b1, d1, b2, d2))
        stages = {"segment": 0, "lagrange": 0, "none": 0}
        for dim in (1, 2, 3):
            group = [x for x in pairs if len(x[0]) == dim]
            ok, w = verify_mod._witness_rows(
                *(np.array([x[k] for x in group], dtype=complex) for k in range(4)), 1e-10)
            for r, (b1, d1, b2, d2) in enumerate(group):
                c1 = DiagonalAffineChart(b=tuple(b1), d=tuple(d1), gamma=2.0)
                c2 = DiagonalAffineChart(b=tuple(b2), d=tuple(d2), gamma=2.0)
                ref = _segment_witness(c1, c2, 1e-10)
                stage = "segment"
                if ref is None:
                    ref = _lagrange_witness(c1, c2, 1e-10)
                    stage = "none" if ref is None else "lagrange"
                stages[stage] += 1
                assert bool(ok[r]) == (ref is not None), (dim, r)
                if ok[r]:
                    assert _bits(w[r]) == _bits(ref), (dim, r)
                    assert _bits(intersection_witness(c1, c2)) == _bits(ref)
        assert min(stages.values()) >= 100, stages


ENDPOINT_COVERINGS = {
    "annulus": lambda: cover_annulus(1e-2, 2.0),
    "polydisc": lambda: cover_punctured_polydisc(2, 0.75, 2.0)[0],
    "polydisc-axis2": _polydisc_axis2,
    "polydisc-axis1": lambda: cover_punctured_polydisc(2, 0.75, 2.0, {1})[0],
    "polydisc-axis2-list": CHAIN_CASES["polydisc-axis2-list"][0],
    "level-21": _level_21,
    "level-211": lambda: cover_monomial_level_set((2, 1, 1), 0.5, 2.0),
    "no-charts": lambda: cover_punctured_polydisc(2, 1.5, 2.0)[0],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ENDPOINT_COVERINGS)
def test_malformed_endpoints_are_domain_errors(name):
    """An endpoint of the wrong length, or two of different lengths, is a
    `DimensionMismatch` naming the covering's dimension; a coordinate that is
    nan or infinite lies in no chart, and no numpy warning is raised."""
    cov = ENDPOINT_COVERINGS[name]()
    n = cov.dim
    good = (0.5,) * n
    for p, q in (((0.5,) * (n + 1), good), (good, (0.5,) * (n + 1)), ((), ()),
                 ((0.5,) * (n + 1),) * 2):
        with pytest.raises(DimensionMismatch, match=f"for a covering of dim {n}$"):
            chain_between(cov, p, q)
    for bad in (math.nan, math.inf, complex(0, -math.inf), complex(math.inf, math.nan)):
        for axis in range(n):
            p = good[:axis] + (bad,) + good[axis + 1:]
            for ends in ((p, good), (good, p)):
                with pytest.raises(NoContainingChart):
                    chain_between(cov, *ends)


@pytest.mark.parametrize("alpha, c", [((2, 1), 0.04), ((2, 1, 1), 0.5)])
def test_level_region_samples_use_the_base_plan_eta(alpha, c):
    """The samples equal those drawn from the original eta formula, bit for bit."""
    eta = level_lower_bound(c, 1.0, min(alpha))
    assert level_base_plan(alpha, c).eta == eta
    n = 2_000
    base = region_samples(PolydiscRegion(eta=eta, n=len(alpha) - 1),
                          n // alpha[0], 3)
    roots = direct_branch_values(alpha, c, base)
    expected = np.concatenate([np.concatenate([roots[:, k:k + 1], base], axis=1)
                               for k in range(alpha[0])])
    got = region_samples(LevelGraphRegion(alpha, c), n, 3)
    assert got.tobytes() == expected.tobytes()


ANNULUS_SAMPLES = {     # sha256 of the samples before the annulus branch was routed
    (0.1, 0): "99c04c25fe19408a2e5f238b366323b7083623ebc1a868a720f699752c01f351",
    (1e-3, 7): "78dea117d22310cf91aaa05880e6736d169edb90ca14bcad0aa4801e865bc56e",
    (0.5, 3): "cb24d8f85eb9ff8d294747ad06c2576c0383ee9a1196de5f4244a1847e41f039",
    (1.0, 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


@pytest.mark.parametrize("delta, seed", ANNULUS_SAMPLES)
def test_annulus_samples_are_the_n1_polydisc_samples(delta, seed):
    got = region_samples(AnnulusRegion(delta), 1001, seed)
    want = region_samples(PolydiscRegion(eta=delta, n=1), 1001, seed)
    assert got.shape == want.shape == (0 if delta >= 1.0 else 1029, 1)
    assert got.tobytes() == want.tobytes()
    assert hashlib.sha256(got.tobytes()).hexdigest() == ANNULUS_SAMPLES[delta, seed]

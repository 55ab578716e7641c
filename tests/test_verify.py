import hashlib
import math
import signal
import sys
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest

import atlascover.core as core
import atlascover.verify as verify_mod
from atlascover.annulus import RingDisks, WhitneyDiskParams, cover_annulus
from atlascover.core import (
    AtlasError,
    DiagonalAffineChart,
    DimensionMismatch,
    Disconnected,
    InsufficientPoints,
    NoContainingChart,
    PolydiscComplement,
    PuncturedPlane,
    RegionMismatch,
    UnknownBound,
    UnsupportedAmbient,
    chart_contains,
    family,
)
from atlascover.core import Covering
from atlascover.levelset import (
    MonomialLevelChart,
    cover_monomial_level_set,
    direct_branch_values,
)
from atlascover.polydisc import cover_punctured_polydisc, level_lower_bound, polydisc_plan
from atlascover.suspension import chart_arrays, covers_points
from atlascover.verify import (
    AnnulusRegion,
    CoverageReport,
    LevelGraphRegion,
    PolydiscRegion,
    ScalingRow,
    certify_doubling,
    chain_between,
    check_coverage,
    fit_log_exponent,
    intersection_witness,
    linear_fit,
    named_bound,
    region_samples,
    sample_rows,
    scaling_experiment,
)

from oracles import _lagrange_witness, _segment_witness, chain_bfs_loop, coverage_by_rows


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


def _pruned_annulus():
    """Every 7th disk left out: 400 of 3,021 samples uncovered, the first 100
    of them spread over the first three 300-row blocks."""
    cov = cover_annulus(0.1, 2.0)
    return Covering(ambient=cov.ambient, gamma=cov.gamma,
                    charts=[c for i, c in enumerate(cov.charts) if i % 7], meta=cov.meta)


def _coverage_peak(cov, region, n_samples):
    """(report, tracemalloc peak) of one `check_coverage` call at seed 0."""
    tracemalloc.start()
    try:
        rep = check_coverage(cov, region, n_samples, 0)
        return rep, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


BLOCKED_COVERAGE = {
    "annulus": (lambda: cover_annulus(1e-2, 2.0), AnnulusRegion(1e-2), 5000),
    "polydisc": (lambda: cover_punctured_polydisc(2, 1e-2, 2.0)[0], PolydiscRegion(1e-2, 2), 3000),
    "level-set": (lambda: cover_monomial_level_set((2, 1, 1), 0.5, 2.0),
                  LevelGraphRegion((2, 1, 1), 0.5), 2000),
    "pruned-list": (_pruned_annulus, AnnulusRegion(0.1), 3000),
    "n3-axes13": (lambda: cover_punctured_polydisc(3, 0.5, 2.0, active_axes=(1, 3))[0],
                  PolydiscRegion(0.5, 3, frozenset({1, 3})), 3000),
}


class TestBlockedCoverage:
    @pytest.mark.parametrize("name", BLOCKED_COVERAGE)
    def test_blocks_give_the_one_call_report(self, name, monkeypatch):
        """At 300 rows a block, several blocks and a ragged last one, the
        report equals one `covers_points` call's, `uncovered` included."""
        build, region, n = BLOCKED_COVERAGE[name]
        cov = build()
        want = coverage_by_rows(cov, region, n, 5)
        assert want.samples_total % 300 and want.samples_total > 3 * 300
        monkeypatch.setattr(verify_mod, "POINT_BLOCK", 300)
        got = check_coverage(cov, region, n, 5)
        assert got == want
        if name == "pruned-list":
            assert len(got.uncovered) == 100 and got.samples_total - got.samples_covered == 400

    def test_peak_memory_at_200k_samples(self):
        """n=3, eta=0.3: 217,649 samples (10 MB) are drawn and decided a block
        at a time, under an 8 MiB peak; drawn whole, they peaked at 14.5 MiB,
        and in one call the working arrays near 68 MiB."""
        rep, peak = _coverage_peak(cover_punctured_polydisc(3, 0.3, 2.0)[0],
                                   PolydiscRegion(0.3, 3), 200_000)
        assert rep.passed and rep.samples_total == 217_649
        assert peak < 8 << 20

    def test_the_annulus_grid_is_not_held_whole(self):
        """2,000,000 annulus samples: the 10^6 grid points of its one axis are
        built a slab at a time from 1,000 radii and 1,000 turns, under a 5 MiB
        peak; held whole, that grid alone was 16 MB (an 18.8 MiB peak)."""
        rep, peak = _coverage_peak(cover_annulus(1e-2, 2.0), AnnulusRegion(1e-2), 2_000_000)
        assert rep.passed and rep.samples_total == 2_000_000
        assert peak < 5 << 20

    @pytest.mark.parametrize("build, region, count, total", [
        (lambda: cover_punctured_polydisc(3, 0.3, 2.0)[0], PolydiscRegion(0.3, 3),
         2_000_000, 2_000_000),
        (lambda: cover_monomial_level_set((2, 1, 1), 0.5, 2.0), LevelGraphRegion((2, 1, 1), 0.5),
         200_000, 201_250)], ids=["n3-2M", "level-211-200k"])
    def test_peak_memory_does_not_grow_with_the_samples(self, build, region, count, total):
        """One block of samples is held at a time: 2,000,000 samples at n=3
        and 201,250 level-set samples peak under 8 MiB too, where the whole
        sample set peaked at 137 and 24.6 MiB."""
        rep, peak = _coverage_peak(build(), region, count)
        assert rep.passed and rep.samples_total == total
        assert peak < 8 << 20

    @pytest.mark.parametrize("region, dim", [
        (AnnulusRegion(1e-2), 1), (PolydiscRegion(0.3, 3), 3),
        (PolydiscRegion(0.5, 2, frozenset({2})), 2), (LevelGraphRegion((2, 1, 1), 0.5), 3),
        (LevelGraphRegion((3, 1), 0.04), 2)])
    def test_sample_sets_over_the_budget_are_refused(self, region, dim, monkeypatch):
        """The budget check counts the rows `region_samples` draws exactly: a
        budget of their entries passes, one entry less refuses them, and a
        count of 0 draws no row and passes a budget of 0."""
        entries = region_samples(region, 1234, 0).size
        monkeypatch.setattr(core, "MATERIALIZE_BUDGET", entries)
        assert region_samples(region, 1234, 0).shape == (entries // dim, dim)
        monkeypatch.setattr(core, "MATERIALIZE_BUDGET", entries - 1)
        with pytest.raises(AtlasError, match=f"samples x {dim} dims = {entries} entries"):
            region_samples(region, 1234, 0)
        monkeypatch.setattr(core, "MATERIALIZE_BUDGET", 0)
        assert region_samples(region, 0, 0).shape == (0, dim)


def _counting(calls, fail_at=None, exc=ValueError):
    """A `covers_points` that records each call's thread, and raises ``exc``
    on call ``fail_at`` and sleeps 10 ms on every later call, so queued blocks
    are still queued when the error reaches the caller."""
    lock = threading.Lock()

    def counted(*args, **kwargs):
        with lock:
            calls.append(threading.get_ident())
            k = len(calls)
        if k == fail_at:
            raise exc(f"block {k} failed")
        if fail_at is not None and k > fail_at:
            time.sleep(0.01)
        return covers_points(*args, **kwargs)
    return counted


class _DrawLog:
    """``region``, whose ``rows(lo, hi)`` record each range's thread in
    ``draws`` and raise ``ValueError`` on range ``fail_at``."""

    def __init__(self, region, fail_at=None):
        self.region, self.fail_at, self.draws = region, fail_at, []

    def __getattr__(self, name):
        return getattr(self.region, name)

    def rows(self, n_samples, seed):
        total, rows = self.region.rows(n_samples, seed)

        def logged(lo, hi):
            self.draws.append(threading.get_ident())
            if len(self.draws) == self.fail_at:
                raise ValueError(f"range {self.fail_at} failed")
            return rows(lo, hi)
        return total, logged


def _starts(monkeypatch):
    """The threads `threading.Thread.start` starts from now on, in a list."""
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda th: started.append(th) or start(th))
    return started


class TestPooledCoverage:
    @pytest.mark.parametrize("build, region, count, block, n_calls", [
        (lambda: cover_punctured_polydisc(3, 0.3, 2.0)[0], PolydiscRegion(0.3, 3), 31_000, None, 1),
        (lambda: cover_annulus(0.1, 2.0), AnnulusRegion(0.1), 20_000, 10_000, 1),
        (lambda: cover_annulus(0.1, 2.0), AnnulusRegion(0.1), 20_000, 9_999, 2)],
        ids=["n3-31125-rows", "two-blocks", "past-two-blocks"])
    def test_only_a_set_past_two_blocks_starts_threads(self, build, region, count, block,
                                                       n_calls, monkeypatch):
        """31,125 rows (at most 2 `POINT_BLOCK`) and 20,000 rows at 10,000 a
        block are one draw and one `covers_points` call on the calling
        thread, and start no thread; at 9,999 a block they are two calls,
        one per range of the 10,000 random rows (the anchor pass settles both
        slabs of the 10,000 grid rows), still on the calling thread, while
        one pool thread draws both ranges and has ended when the check
        returns."""
        cov, calls, region = build(), [], _DrawLog(region)
        monkeypatch.setattr(verify_mod, "covers_points", _counting(calls))
        monkeypatch.setattr(verify_mod, "_coverage_threads", lambda: 2)
        started = _starts(monkeypatch)
        if block is not None:
            monkeypatch.setattr(verify_mod, "POINT_BLOCK", block)
        rep = check_coverage(cov, region, count, 0)
        assert rep.passed and calls == [threading.get_ident()] * n_calls
        if n_calls == 1:
            assert region.draws == [threading.get_ident()] and not started
        else:
            assert len(started) == 1 and region.draws == [started[0].ident] * 2
            assert not started[0].is_alive()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_the_report_does_not_depend_on_the_threads(self, threads, monkeypatch):
        """The pruned annulus at 300 rows a block, with one usable CPU or two:
        the one-call report, its 100 uncovered samples of 400 included, from
        11 `covers_points` calls on the calling thread; the 5 random ranges
        are drawn there too, or on one pool thread, ended when the check
        returns."""
        cov, region, n = BLOCKED_COVERAGE["pruned-list"]
        cov = cov()
        want = coverage_by_rows(cov, region, n, 5)
        calls, region = [], _DrawLog(region)
        monkeypatch.setattr(verify_mod, "covers_points", _counting(calls))
        monkeypatch.setattr(verify_mod, "POINT_BLOCK", 300)
        monkeypatch.setattr(verify_mod, "_coverage_threads", lambda: threads)
        started = _starts(monkeypatch)
        got = check_coverage(cov, region, n, 5)
        assert got == want and want.samples_total - want.samples_covered == 400
        assert calls == [threading.get_ident()] * 11
        assert len(started) == threads - 1 and not any(th.is_alive() for th in started)
        drawer = started[0].ident if started else threading.get_ident()
        assert region.draws == [drawer] * 5

    @pytest.mark.parametrize("threads", [1, 2])
    def test_an_error_in_a_draw_ends_the_check_and_its_thread(self, threads, monkeypatch):
        """A region whose 3rd range of 15 raises: `check_coverage` raises that
        error, no later range is drawn, and no thread is left."""
        monkeypatch.setattr(verify_mod, "POINT_BLOCK", 100)
        monkeypatch.setattr(verify_mod, "_coverage_threads", lambda: threads)
        region, before = _DrawLog(AnnulusRegion(0.1), fail_at=3), threading.active_count()
        with pytest.raises(ValueError, match="^range 3 failed$"):
            check_coverage(_pruned_annulus(), region, 3000, 5)
        assert len(region.draws) == 3 and threading.active_count() == before

    @pytest.mark.parametrize("name, n, block, slabs", [
        ("n3-axes13", 3000, 300, 16), ("level-set", 2000, 300, 0), ("pruned-list", 600, 50, 7),
        ("pruned-list", 1, 1, 4)])
    def test_the_pipeline_gives_the_one_call_report(self, name, n, block, slabs, monkeypatch):
        """A polydisc whose every grid slab leaves rows open, a level set (no
        grid), the pruned annulus at 624 samples, whose 78 uncovered samples
        all enter the report, from grid and random rows alike, and at one
        sample, a 4-row grid and no random row: with one range drawn ahead,
        the one-call report, from one `covers_points` call per slab left
        open and per range."""
        build, region, _ = BLOCKED_COVERAGE[name]
        cov = build()
        want = coverage_by_rows(cov, region, n, 5)
        calls, region = [], _DrawLog(region)
        monkeypatch.setattr(verify_mod, "covers_points", _counting(calls))
        monkeypatch.setattr(verify_mod, "POINT_BLOCK", block)
        monkeypatch.setattr(verify_mod, "_coverage_threads", lambda: 2)
        assert check_coverage(cov, region, n, 5) == want
        assert want.samples_total - want.samples_covered == len(want.uncovered)
        g = verify_mod._grid_rows(region.grid(n))
        ranges = -(-(want.samples_total - g) // block)
        assert len(list(verify_mod._slabs(region.grid(n), 0, g, block))) == slabs
        assert len(region.draws) == ranges and len(calls) == slabs + ranges

    def test_concurrent_pipelines_keep_their_reports(self, monkeypatch):
        """Three threads each run pooled checks of the pruned annulus at 300
        rows a block, at once and with the interpreter switching threads
        every microsecond: each report is the one-call report of its seed,
        and every thread has ended within the time allowed."""
        cov, region, n = BLOCKED_COVERAGE["pruned-list"]
        cov = cov()
        want = {seed: coverage_by_rows(cov, region, n, seed) for seed in range(3)}
        monkeypatch.setattr(verify_mod, "POINT_BLOCK", 300)
        monkeypatch.setattr(verify_mod, "_coverage_threads", lambda: 2)
        got, errors = {}, []

        def run(seed):
            try:
                for _ in range(3):
                    got.setdefault(seed, []).append(check_coverage(cov, region, n, seed))
            except BaseException as exc:        # reported by the main thread
                errors.append(exc)

        callers = [threading.Thread(target=run, args=(seed,)) for seed in range(3)]
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in callers:
                th.start()
            for th in callers:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(saved)
        assert not any(th.is_alive() for th in callers) and not errors
        assert got == {seed: [rep] * 3 for seed, rep in want.items()}

    @pytest.mark.parametrize("exc", [ValueError, KeyboardInterrupt])
    def test_an_error_in_a_block_ends_the_check_and_its_threads(self, exc, monkeypatch):
        """`covers_points` raising on the 3rd of 31 blocks: `check_coverage`
        raises that error, the blocks still queued are never decided, and no
        pool thread is left once it returns."""
        cov, calls = _pruned_annulus(), []
        monkeypatch.setattr(verify_mod, "covers_points", _counting(calls, fail_at=3, exc=exc))
        monkeypatch.setattr(verify_mod, "POINT_BLOCK", 100)
        before = threading.active_count()
        with pytest.raises(exc, match="^block 3 failed$"):
            check_coverage(cov, AnnulusRegion(0.1), 3000, 5)
        assert threading.active_count() == before
        assert 3 <= len(calls) < 31

    @pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs a POSIX interval timer")
    def test_an_alarm_during_a_pooled_check_leaves_no_thread(self):
        """An exception from a SIGALRM handler, as a wall-clock budget raises,
        ends a 2,000,000-sample check on the calling thread; the pool's
        threads have ended when it leaves `check_coverage`."""
        class Budget(Exception):
            pass

        def alarm(signum, frame):
            raise Budget()

        cov, region = cover_punctured_polydisc(3, 0.3, 2.0)[0], PolydiscRegion(0.3, 3)
        before = threading.active_count()
        saved = signal.signal(signal.SIGALRM, alarm)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.05)
            with pytest.raises(Budget):
                check_coverage(cov, region, 2_000_000, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, saved)
        assert threading.active_count() == before


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

    def test_level_charts_whose_bases_meet(self):
        charts = cover_monomial_level_set((2, 1), 0.04).charts
        w = intersection_witness(charts[0], charts[2])
        assert w is not None
        assert charts.contains(0, w, 1.0) and charts.contains(2, w, 1.0)

    def test_pairs_it_cannot_decide_are_refused(self):
        """Charts of two level sets, of two kinds or of two dims."""
        level = cover_monomial_level_set((2, 1), 0.04).charts
        other = cover_monomial_level_set((2, 1), 0.05).charts
        plane = DiagonalAffineChart(b=(0.2, 0.9), d=(0.25, 0.25), gamma=2.0)
        line = DiagonalAffineChart(b=(0.2,), d=(0.25,), gamma=2.0)
        for c1, c2, error in ((level[0], other[0], UnsupportedAmbient),
                              (level[0], plane, UnsupportedAmbient),
                              (plane, level[0], UnsupportedAmbient),
                              (line, plane, DimensionMismatch)):
            with pytest.raises(error):
                intersection_witness(c1, c2)


class TestComplexity:
    def test_annulus_instance(self):
        bound = named_bound("polydisc", {"n": 1, "gamma": 2.0, "eta": 0.1})
        assert bound == pytest.approx(18.0 * math.log(180.0), rel=1e-12)

    def test_empty_ratio_zero(self):
        cov = cover_annulus(1.0, 2.0)
        bound = named_bound("polydisc", {"n": 1, "gamma": 2.0, "eta": 1.0})
        assert ScalingRow(param=1.0, kappa=cov.kappa, paper_bound=bound, log_inv_param=0.0).ratio == 0.0

    def test_unknown_bound(self):
        with pytest.raises(UnknownBound):
            named_bound("mystery", {})

    def test_ratio_stability_one_dim(self):
        ratios = []
        for eta in (1e-1, 1e-2, 1e-3, 1e-4):
            cov = cover_annulus(eta, 2.0)
            ratios.append(cov.kappa / named_bound("polydisc", {"n": 1, "gamma": 2.0, "eta": eta}))
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

    def test_fit_takes_chart_counts_past_int64(self):
        """kappa passes 2^63 at n=4, eta=1e-12; the fit still reads it."""
        rows = scaling_experiment("polydisc", [1e-1, 1e-3, 1e-6, 1e-9, 1e-12], {"n": 4})
        assert rows[-1].kappa > 2 ** 63
        assert fit_log_exponent(rows).slope == pytest.approx(4.0, abs=0.05)

    def test_level_set_rows_past_int64_stay_count_only(self):
        """At alpha = (2, 1, 1, 1, 1, 1) the base is 5-dim and kappa passes 2^63:
        each row is alpha_1 times the base plan's count at the eta formula, a
        Python int, although the covering itself cannot be indexed."""
        alpha, grid = (2, 1, 1, 1, 1, 1), [1e-1, 1e-2, 1e-3]
        rows = scaling_experiment("levelset", grid, {"alpha": alpha})
        assert [r.kappa for r in rows] == [
            2 * polydisc_plan(5, level_lower_bound(c, 1.0, 1), 2.0).kappa_final for c in grid]
        assert all(type(r.kappa) is int for r in rows) and rows[-1].kappa > 2 ** 63
        with pytest.raises(AtlasError, match="more than an index can address"):
            cover_monomial_level_set(alpha, grid[-1]).kappa

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
    """``neighbors(i, s)`` is strictly increasing int64 in [0, kappa) and
    contains every chart whose projections meet chart i's, at scales 0.5, 1
    and 2, and on a ring family also where sigma = s*rf/cf is 0.9.

    ``base_of`` maps a projection index to the chart indices it stands for
    (the branches of a level family's base chart).
    """
    base = charts.base_cov.charts if hasattr(charts, "base_cov") else charts
    b, d = chart_arrays(base)
    stride = len(charts) // len(base)
    scales = (0.5, 1.0, 2.0)
    if isinstance(charts, RingDisks):
        scales += (0.9 * charts.cf / charts.rf,)
    for s in scales:
        for i in indices:
            got = family(charts).neighbors(int(i), s)
            assert got.dtype == np.int64 and (np.diff(got) > 0).all()
            assert 0 <= got[0] and got[-1] < len(charts)
            got = set(got.tolist())
            assert i in got
            for t in _projections_meet(b, d, int(i) // stride, s):
                assert set(base_of(t)) <= got, (i, t, s)


class TestNeighbors:
    def test_ring_disks(self):
        charts = cover_annulus(1e-2, 2.0).charts
        _assert_neighbors_cover(charts, range(len(charts)))

    def test_ring_disks_with_twice_the_angles(self):
        meta = cover_annulus(1e-2, 2.0, WhitneyDiskParams(ring_ratio=0.875)).meta
        charts = RingDisks(2.0, 0.875, 2 * meta["n_angles"], meta["n_rings"])
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
        real = core._witness_rows

        def counted(*args, **kwargs):
            calls.append(args[0].shape[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(core, "_witness_rows", counted)
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

# SHA-256 of repr((chart_indices, witnesses)) of each case's chain: the
# annulus and kappa=186 polydisc chains of the bench's lazy-large workload,
# the endpoints of its file-flows annulus chain, a level set and a plain list
CHAIN_PINS = {
    "annulus-1e-2": "bd51c516fd99b4090593262192be2a2d46ceeb06840e9354606d235c8a49f3b1",
    "annulus-1e-2-quarter": "298d4aff882e48cbe53438a0ac868626a5e304bbea330ccfe4255917a61a0188",
    "annulus-1e-3": "8dfcbd66d33759056e3f67d898461684818a57f1ff303ae3a43a30aec1f23f1a",
    "polydisc-axis2": "2726e70c2678a1ef8ac531b853f81cb183b73167a302049b45a5b456a45fb470",
    "polydisc-axis2-list": "2726e70c2678a1ef8ac531b853f81cb183b73167a302049b45a5b456a45fb470",
    "level-21": "1175d0621b17bdab8c5f3d56f43b88639c8f71be53e15fe471caad806214a6dc",
    "crossed-ellipses": "eb9bd59ff9200cb9b75a1b00fad53b4f1ee0a07407f27448b7c76edb4ff4eb80",
}

# The chart indices of each case's chain, pinned apart from the witness bits:
# a change to the witness arithmetic may move those bits, never these indices.
CHAIN_INDEX_PINS = {
    "annulus-1e-2": (448, 435, 422, 409, 410, 425, 440, 455),
    "annulus-1e-2-quarter": (42, 29, 44, 59),
    "annulus-1e-3": (700, 687, 674, 661, 662, 677, 692, 707),
    "polydisc-axis2": tuple(range(9)),
    "polydisc-axis2-list": tuple(range(9)),
    "level-21": (616, 532, 448, 364, 280, 196, 170, 144, 118, 92, 66, 40, 14),
    "crossed-ellipses": (0, 1, 2, 3, 4),
}


class TestBatchedChains:
    @pytest.mark.parametrize("name", CHAIN_CASES)
    def test_chain_bits_are_pinned(self, name):
        build, p, q = CHAIN_CASES[name]
        chain = chain_between(build(), p, q)
        digest = hashlib.sha256(repr((chain.chart_indices, chain.witnesses)).encode()).hexdigest()
        assert digest == CHAIN_PINS[name]

    @pytest.mark.parametrize("name", CHAIN_CASES)
    def test_chain_indices_are_pinned(self, name):
        build, p, q = CHAIN_CASES[name]
        assert chain_between(build(), p, q).chart_indices == CHAIN_INDEX_PINS[name]

    @pytest.mark.parametrize("name", ["annulus-1e-2", "polydisc-axis2", "polydisc-axis2-list",
                                      "level-21"])
    def test_neighbour_lists_are_asked_once_per_bfs_layer(self, name, monkeypatch):
        """One `_neighbors` call lists a whole BFS layer: a chain of L charts
        expands L - 1 layers, so the search asks L - 1 times."""
        build, p, q = CHAIN_CASES[name]
        cov = build()
        calls = []
        top = type(cov.charts)
        real = top._neighbors
        monkeypatch.setattr(top, "_neighbors", lambda self, *a: calls.append(1) or real(self, *a))
        chain = chain_between(cov, p, q)
        assert chain.length > 2 and len(calls) == chain.length - 1
    @pytest.mark.parametrize("name", CHAIN_CASES)
    def test_chain_equals_the_fifo_oracle(self, name):
        build, p, q = CHAIN_CASES[name]
        cov = build()
        got, ref = chain_between(cov, p, q), chain_bfs_loop(cov, p, q)
        assert got.chart_indices == ref.chart_indices
        assert [_bits(w) for w in got.witnesses] == [_bits(w) for w in ref.witnesses]
        fam = cov.charts
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

    def test_a_layer_over_the_pair_budget_is_refused(self):
        """n=3, eta=0.3 (kappa=3.7e9): each of the 1,004 start charts has about
        9 M neighbours, so the first BFS layer is refused while its neighbour
        lists are gathered, before they can fill the memory."""
        cov = cover_punctured_polydisc(3, 0.3, 2.0)[0]
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(AtlasError, match="neighbour pairs, over the budget of 16777216"):
                chain_between(cov, (0.5, 0.5, 0.5), (0.5j, 0.5, -0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 2.0
        assert peak < 256 << 20

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


def test_a_dim_1_chain_takes_bare_numbers():
    """On a dim-1 covering a number is a point, as for `contains`: the chain
    between two numbers is the one between the one-coordinate tuples."""
    cov = cover_annulus(1e-2, 2.0)
    chain = chain_between(cov, 0.9, -0.015)
    assert chain == chain_between(cov, (0.9,), (-0.015,)) and chain.length == 15


@pytest.mark.parametrize("alpha, c", [((2, 1), 0.04), ((2, 1, 1), 0.5)])
def test_level_region_samples_use_the_base_plan_eta(alpha, c):
    """The samples equal those drawn from the original eta formula, bit for bit."""
    eta = level_lower_bound(c, 1.0, min(alpha))
    assert cover_monomial_level_set(alpha, c).meta["eta"] == eta
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


SAMPLE_REGIONS = {
    "n2": PolydiscRegion(eta=1e-3, n=2),
    "n3": PolydiscRegion(eta=0.3, n=3),
    "n3-axes13": PolydiscRegion(eta=0.5, n=3, active_axes=frozenset({1, 3})),
    "level-211": LevelGraphRegion((2, 1, 1), 0.5),
}
REGION_SAMPLES = {      # sha256 of the samples before they were drawn into one array
    ("n2", 200000, 0): "3b8ed1e640ff010c88e33eca0448439d80354b55f860373acad9bfada3c55664",
    ("n2", 200000, 5): "63c2bd6345dea2e764fdd624791a56fff5c192efa8f9a9d61f4419b30ce8bfd7",
    ("n2", 1001, 0): "ea430918f51f93df7af5fd79376c2bb1e2cc0f2c44df7eb5628ef3e96fb83c69",
    ("n2", 1001, 5): "a72b7a7c5b1b3afe5a2279e126f2236f1ba585dd8df0f0cb53e5961c067a4ea2",
    ("n2", 3, 0): "d143a363822971fa8bed1f86d8ad0fb30f96852c6496226af092940e86a50aad",
    ("n2", 3, 5): "f4c49f0ac311f6cca263b34ecba67bc867bdc557a71275717bfbb00725ab09a1",
    ("n3", 200000, 0): "2495f3fa282d82139d6a9d120a4716a099a93287904cd07699f5c6957388958d",
    ("n3", 200000, 5): "8ee4cf173bcaa889abacddbeb334c183dd34a2ac4e5fdb9fe71b306f73f1cceb",
    ("n3", 1001, 0): "cfc4e9c20ad03095771a231f0dca11eaf93b652fc7b981e1733263c629c4112b",
    ("n3", 1001, 5): "c84df5c24831cda1160731a7e0fd152a76862361fdc3a77bdf8fa1fa4295f872",
    ("n3", 3, 0): "cc8077f1b8c4920b05cfa688fd2a2a4bcda4ad30da6f259c96b271872e63d885",
    ("n3", 3, 5): "fad9af7f936dd8aa35995fcbcc15469709e955106b589a6a111e4166c09df3e1",
    ("n3-axes13", 200000, 0): "2dcea6cd47460f19f48b8f3787079484c45c10bd3f1f2b535f0203c848ffb371",
    ("n3-axes13", 200000, 5): "18020d00dc2b5e36cf07c17e13faaf68aa69e1a801ba3811da9a85de873cce7e",
    ("n3-axes13", 1001, 0): "1ab20649ff72973d106e54ed591765085b35aaea00992203d7ded59619eee3fe",
    ("n3-axes13", 1001, 5): "850d7de1b0e0506b3e64bf95a45b75e8bc5b4e48f726e7c5984705d5c6680747",
    ("n3-axes13", 3, 0): "adae6e59ee57381710910ed92267fe2a930f7b07e3e492c9773b4e25109d685a",
    ("n3-axes13", 3, 5): "944a13aa70a8ac20c7075cce21c54562388817af457ea4cb1adda36830a2da83",
    ("level-211", 200000, 0): "840c1f1dc31fb8aab66d0af313e267abce0cc041679bb11a3378339ba5167ff9",
    ("level-211", 200000, 5): "d378b25c4a6631592d2aa6b8d2c6f22f44c2183efd2650e9274c343dd9099311",
    ("level-211", 1001, 0): "57b14e98877b94c7581d4e888cb59327763c816fce3d72ec669cd8ce0c3950c1",
    ("level-211", 1001, 5): "0978c75553ea39a34106b1433e78e874e3288fb4261e9227992fe018e1ae2472",
    ("level-211", 3, 0): "9ee7280834c55a02babb8c4556ebd5596d69b74c296e75bad2fe411bd452e64c",
    ("level-211", 3, 5): "9ee7280834c55a02babb8c4556ebd5596d69b74c296e75bad2fe411bd452e64c",
}


@pytest.mark.parametrize("name, count, seed", REGION_SAMPLES)
def test_region_samples_keep_their_bits(name, count, seed):
    got = region_samples(SAMPLE_REGIONS[name], count, seed)
    assert got.dtype == complex and got.flags.c_contiguous
    assert hashlib.sha256(got.tobytes()).hexdigest() == REGION_SAMPLES[name, count, seed]


@pytest.mark.parametrize("name", SAMPLE_REGIONS)
@pytest.mark.parametrize("size", [1, 7, 300, verify_mod.POINT_BLOCK, 2 * verify_mod.POINT_BLOCK])
def test_sample_ranges_join_to_the_sample_set(name, size):
    """`sample_rows` ranges of any size, joined, are `region_samples` bit for
    bit: 1,001 samples at 1, 7 and 300 rows a range, 200,000 at `POINT_BLOCK`
    (a pooled check's range) and twice that (the most one check draws at once)."""
    count = 200_000 if size >= verify_mod.POINT_BLOCK else 1001
    total, rows = sample_rows(SAMPLE_REGIONS[name], count, 5)
    parts = [rows(lo, min(lo + size, total)) for lo in range(0, total, size)]
    assert all(p.dtype == complex and p.flags.c_contiguous for p in parts)
    assert np.concatenate(parts).tobytes() == region_samples(SAMPLE_REGIONS[name], count, 5).tobytes()


@pytest.mark.parametrize("name", SAMPLE_REGIONS)
def test_ranges_drawn_on_four_threads_join_to_the_sample_set(name):
    """Four threads draw interleaved 97-row ranges of 20,000 samples at once,
    switching every microsecond: joined, they are `region_samples` byte for
    byte, so no range reads another's place in the random stream."""
    total, rows = sample_rows(SAMPLE_REGIONS[name], 20_000, 5)
    starts = range(0, total, 97)
    parts, gate = {}, threading.Barrier(4)

    def draw(k):
        gate.wait(timeout=60)
        for lo in starts[k::4]:
            parts[lo] = rows(lo, min(lo + 97, total))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads) and len(parts) == len(starts)
    joined = np.concatenate([parts[lo] for lo in starts])
    assert joined.tobytes() == region_samples(SAMPLE_REGIONS[name], 20_000, 5).tobytes()


@pytest.mark.parametrize("name, edge", [
    ("n3", 7 ** 6), ("n3-axes13", 7 ** 6), ("level-211", 100_625), ("level-211", 100_625 + 15 ** 4)],
    ids=["n3-grid", "n3-axes13-grid", "level-211-branch", "level-211-base-grid"])
def test_a_range_across_an_edge_is_those_rows(name, edge):
    """200,000 samples: a range across the grid/random edge of a polydisc, the
    edge between the two branches of the level set (100,625 base rows), and
    the base's grid/random edge (15^4 grid rows) inside the second branch."""
    want = region_samples(SAMPLE_REGIONS[name], 200_000, 0)
    total, rows = sample_rows(SAMPLE_REGIONS[name], 200_000, 0)
    assert total == want.shape[0]
    assert rows(edge - 5, edge + 6).tobytes() == want[edge - 5:edge + 6].tobytes()


@pytest.mark.parametrize("name, stacked_peak", [("n3", 19.9), ("n2", 12.5)])
def test_region_samples_peak_memory(name, stacked_peak):
    """Drawn in place, 200,000 samples peak below the 19.9 MiB (n=3) and
    12.5 MiB (n=2) that stacked columns and a joined grid took."""
    region_samples(SAMPLE_REGIONS[name], 200_000, 0)
    tracemalloc.start()
    try:
        region_samples(SAMPLE_REGIONS[name], 200_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= stacked_peak * 2 ** 20

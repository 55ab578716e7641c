"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Every tolerance is pinned here; a failing criterion prints FAIL via the
assertion message.
"""

import math
import time

import numpy as np
import pytest

import atlascover as ac
from atlascover.jsonio import covering_from_dict, covering_to_dict, dumps
from atlascover.real_acharts import scan_points, verify_achart_batch
from atlascover.suspension import chart_arrays
from atlascover.verify import named_bound

from oracles import SuspensionParams, suspend_chart


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_annulus():
    worst_rate, worst_r2, worst_time = 1.0, 1.0, 0.0
    for zeta in (2.0, 4.0):
        kappas, logs = [], []
        for delta in (1e-1, 1e-2, 1e-3, 1e-4):
            t0 = time.perf_counter()
            cov = ac.cover_annulus(delta, zeta)
            rep = ac.check_coverage(cov, ac.AnnulusRegion(delta),
                                    n_samples=20000, seed=1)
            worst_time = max(worst_time, time.perf_counter() - t0)
            assert rep.samples_total >= 20000
            worst_rate = min(worst_rate, rep.rate)
            b, d = chart_arrays(cov.charts)
            assert (zeta * np.abs(d[:, 0]) < np.abs(b[:, 0])).all()
            kappas.append(cov.kappa)
            logs.append(math.log(1.0 / delta))
        fit = ac.linear_fit(logs, kappas)
        worst_r2 = min(worst_r2, fit.r2)
    ok = worst_rate == 1.0 and worst_r2 >= 0.99 and worst_time < 5.0
    _report("criterion 1 (annulus)", ok,
            f"coverage={worst_rate:.4f} linear-fit R2={worst_r2:.5f} "
            f"max_time={worst_time:.2f}s")


def test_criterion_2_polydisc():
    t_full = 0.0
    for eta in (1e-1, 1e-2, 1e-3):
        t0 = time.perf_counter()
        cov, plan = ac.cover_punctured_polydisc(2, eta, 2.0)
        kappa = 1
        for lv in plan.levels:
            kappa *= lv.annulus_count
            assert lv.kappa == kappa
        assert cov.kappa == kappa
        assert ac.certify_doubling(cov).passed
        rep = ac.check_coverage(cov, ac.PolydiscRegion(eta=eta, n=2),
                                n_samples=10000, seed=2)
        assert rep.passed, rep.uncovered[:3]
        t_full = max(t_full, time.perf_counter() - t0)
    rows = ac.scaling_experiment("polydisc", [1e-1, 1e-2, 1e-3],
                                 {"n": 2, "gamma": 2.0})
    slope2 = ac.fit_log_exponent(rows).slope
    assert abs(slope2 - 2.0) <= 0.3

    t0 = time.perf_counter()
    plan3 = ac.polydisc_plan(3, 1e-1, 2.0)
    assert plan3.kappa_final > 0 and len(plan3.levels) == 3
    rows3 = ac.scaling_experiment("polydisc", [0.3, 0.1, 0.03],
                                  {"n": 3, "gamma": 2.0})
    slope3 = ac.fit_log_exponent(rows3).slope
    t_count = time.perf_counter() - t0
    ok = abs(slope3 - 3.0) <= 0.4 and t_full < 60.0 and t_count < 10.0
    _report("criterion 2 (polydisc induction)", ok,
            f"slope(n=2)={slope2:.3f} slope(n=3)={slope3:.3f} "
            f"full(n=2)={t_full:.1f}s count(n=3)={t_count:.2f}s")


def test_criterion_3_reference_bound_and_eta():
    cov, _ = ac.cover_punctured_polydisc(2, 0.1, 2.0)
    bound = named_bound("polydisc", {"n": 2, "gamma": 2.0, "eta": 0.1})
    # (9*2^2)^2 * log(36/0.1)^2, frozen from independent arithmetic
    assert bound == pytest.approx(44901.501987093696, rel=1e-12)
    assert f"{bound:.6g}" == "44901.5"
    params = ac.EtaParams(c_lower=0.5, C_unit=2.0, d=2, alpha0=2)
    eta = ac.eta_from_delta(0.1, params)
    assert eta == pytest.approx(0.05, rel=1e-15, abs=0)
    _report("criterion 3 (bound instantiation)", True,
            f"bound={bound:.6g} ratio={cov.kappa / bound:.3g} eta={eta!r}")


def test_criterion_4_level_sets():
    t0 = time.perf_counter()
    cov = ac.cover_monomial_level_set((2, 1), 0.04)
    assert cov.kappa == 2 * cov.meta["base_kappa"]
    rng = np.random.default_rng(0)
    c_abs = 0.04
    worst = 0.0
    for i in range(cov.kappa):
        ch = cov.charts[i]
        x = rng.standard_normal((1000, 1)) + 1j * rng.standard_normal((1000, 1))
        x /= np.maximum(np.abs(x), 1.0)
        worst = max(worst, float(ac.level_residual(ch, x).max()))
    assert worst <= 1e-10 * c_abs
    rep = ac.check_coverage(cov, ac.LevelGraphRegion(alpha=(2, 1), c=0.04),
                            n_samples=20000, seed=3)
    assert rep.passed and rep.samples_total >= 20000
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report("criterion 4 (level sets)", ok,
            f"kappa={cov.kappa} residual={worst / c_abs:.2e}|c| "
            f"coverage={rep.rate:.4f} time={elapsed:.1f}s")


def test_criterion_5_real_acharts():
    worst_time = 0.0
    details = []
    for mu in ((1.0,), (0.5, -0.25)):
        data = ac.MonomialData(1.0, mu)
        m = data.m
        A = 2.0 ** data.abs_degree
        counts, epss = [], (1e-1, 1e-2, 1e-3, 1e-4)
        for eps in epss:
            t0 = time.perf_counter()
            charts = ac.cover_monomial_graph(data, eps)
            counts.append(len(charts))
            devs = verify_achart_batch(charts, grid=16, interior=1000, seed=0)
            assert (devs <= 1.0 + 1e-9).all()
            # extended values relative to the center monomial value stay <= 2^M
            z = scan_points(m, 16, 0)
            rel = 0.0
            for lo in range(0, len(charts), 1024):
                chs = charts[lo:lo + 1024]
                y = np.array([c.y for c in chs])[:, None, :]
                z0 = np.array([c.z0 for c in chs])[:, None, :]
                coords = y * (1.0 + (z0 + z[None, :, :]) / (2.0 * charts[0].c3))
                last = np.abs(np.prod(coords ** np.asarray(mu), axis=-1))
                rel = max(rel, float((last.max(axis=1) /
                                      data.value(y[:, 0, :])).max()))
            assert rel <= A + 1e-12
            # graph coverage on 1e4 valid samples
            rng = np.random.default_rng(5)
            xs = []
            while len(xs) < 10000:
                x = np.exp(math.log(eps) * rng.random((5000, m)))
                keep = data.value(x) < 1.0
                xs.extend(x[keep][: 10000 - len(xs)])
            assert ac.graph_membership(charts, np.asarray(xs)).all()
            worst_time = max(worst_time, time.perf_counter() - t0)
        x = np.log(np.log(1.0 / np.asarray(epss)))
        slope = ac.linear_fit(x, np.log(counts)).slope
        assert abs(slope - m) <= 0.3
        details.append(f"mu={mu}: slope={slope:.3f} N={counts}")
    ok = worst_time < 30.0
    _report("criterion 5 (real a-charts)", ok,
            "; ".join(details) + f" max_time={worst_time:.1f}s")


def test_criterion_6_suspension_formulas():
    assert abs(suspend_chart(
        ac.DiagonalAffineChart(b=(0.0,), d=(1.0,), gamma=4.0),
        SuspensionParams(lam=1.0, a=0.0, beta=2.0)).gamma - 2.0) <= 1e-12
    level = ac.cover_punctured_polydisc(2, 0.5, 2.0)[0].charts     # beta = 2
    assert abs(2.0 / level.lam_factor - math.sqrt(3.0)) <= 1e-12     # nu at lambda = 2
    assert abs(ac.layer_zeta(4.0, 2.0) - 8.0 / math.sqrt(3.0)) <= 1e-12
    _report("criterion 6 (suspension formulas)", True,
            "theta=gamma/beta, nu=lambda*sqrt(1-1/beta^2), "
            "zeta=(2mu/beta)(1-1/beta^2)^(-1/2) at 1e-12")


def test_criterion_7_chains():
    lengths, logs = [], []
    for delta in (1e-1, 1e-2, 1e-3, 1e-4):
        cov = ac.cover_annulus(delta, 2.0)
        chain = ac.chain_between(cov, (delta,), (-delta,))
        assert len(chain.witnesses) == chain.length - 1
        for (i, j), w in zip(zip(chain.chart_indices, chain.chart_indices[1:]),
                             chain.witnesses):
            assert ac.chart_contains(cov.charts[i], w, 1.0)
            assert ac.chart_contains(cov.charts[j], w, 1.0)
        lengths.append(chain.length)
        logs.append(math.log(1.0 / delta))
    fit = ac.linear_fit(logs, lengths)
    ok = math.isfinite(fit.slope) and fit.r2 >= 0.95
    _report("criterion 7 (chains)", ok,
            f"lengths={lengths} slope={fit.slope:.4f} R2={fit.r2:.3f}")


def test_criterion_8_determinism_round_trip():
    for build in (lambda: ac.cover_annulus(0.01, 2.0),
                  lambda: ac.cover_monomial_level_set((2, 1), 0.04)):
        c1, c2 = build(), build()
        b1 = dumps(covering_to_dict(c1))
        b2 = dumps(covering_to_dict(c2))
        assert b1 == b2
        back = covering_from_dict(covering_to_dict(c1))
        assert back == c1
        assert dumps(covering_to_dict(back)) == b1
    _report("criterion 8 (determinism & round-trip)", True,
            "byte-identical builds, lossless JSON round-trip")

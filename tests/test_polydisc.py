import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from atlascover.annulus import RingDisks, cover_annulus
from atlascover.cli import main
from atlascover.core import (
    AtlasError,
    Covering,
    EtaParams,
    GammaTooSmall,
    NotARegularValue,
    PolydiscComplement,
    avoidance_certificate,
)
from atlascover.levelset import cover_monomial_level_set
from atlascover.polydisc import (
    cover_punctured_polydisc,
    eta_from_delta,
    level_lower_bound,
    polydisc_bound,
    polydisc_plan,
)
from atlascover.suspension import SuspendedCharts, cover_axis, covers_points, layer_zeta
from atlascover.jsonio import dumps
from atlascover.verify import PolydiscRegion, certify_doubling, chain_between, check_coverage

from oracles import brute_covered, polydisc_random


class TestEtaFromDelta:
    def test_all_ones_is_identity(self):
        p = EtaParams(c_lower=1.0, C_unit=1.0, d=1, alpha0=1)
        assert eta_from_delta(0.37, p) == 0.37

    def test_worked_instance(self):
        p = EtaParams(c_lower=0.5, C_unit=2.0, d=2, alpha0=2)
        assert eta_from_delta(0.1, p) == pytest.approx(0.05, rel=1e-15, abs=0)

    @given(st.floats(1e-6, 0.9), st.floats(1e-6, 0.9))
    @example(0.8999999999999999, 0.9)
    def test_monotone_in_delta(self, d1, d2):
        """Monotone always, strictly once delta grows by more than rounding:
        neighbouring doubles such as 0.8999999999999999 and 0.9 share an eta."""
        p = EtaParams(c_lower=0.5, C_unit=2.0, d=2, alpha0=3)
        lo, hi = sorted((d1, d2))
        assert eta_from_delta(lo, p) <= eta_from_delta(hi, p)
        if hi >= lo * (1 + 1e-12):
            assert eta_from_delta(lo, p) < eta_from_delta(hi, p)

    @pytest.mark.parametrize("flag, value, message", [
        ("--delta", "inf", "delta must be finite and positive, got inf"),
        ("--delta", "nan", "delta must be finite and positive, got nan"),
        ("--c-lower", "nan", "c_lower must be finite, got nan"),
        ("--c-unit", "inf", "C_unit must be finite, got inf"),
    ])
    def test_non_finite_inputs_are_domain_errors(self, capsys, flag, value, message):
        """`atlas eta` used to print inf or 0.0 with exit 0 for an infinite
        delta or C_unit."""
        argv = ["eta", "--delta", "0.1", "--c-lower", "0.5", "--c-unit", "2",
                "--d", "2", "--alpha0", "2"]
        assert main([*argv, flag, value]) == 2
        assert capsys.readouterr() == ("", f"error: ValueError: {message}\n")


class TestLevelLowerBound:
    def test_square_root_case(self):
        assert level_lower_bound(0.01, 1.0, 2) == pytest.approx(0.1, rel=1e-15)

    def test_unit_level_degenerate(self):
        assert level_lower_bound(1.0, 1.0, 5) == 1.0

    def test_linear_case(self):
        assert level_lower_bound(0.25, 1.0, 1) == 0.25

    def test_zero_rejected(self):
        with pytest.raises(NotARegularValue):
            level_lower_bound(0.0, 1.0, 1)


def test_dimension_one_reduces_to_annulus():
    cov, plan = cover_punctured_polydisc(1, 0.07, 2.0)
    ann = cover_annulus(0.07, 2.0)
    assert list(cov.charts) == list(ann.charts)
    assert plan.kappa_final == ann.kappa
    assert [lv.zeta for lv in plan.levels] == [2.0]


def test_recurrence_exact():
    cov, plan = cover_punctured_polydisc(2, 0.05, 2.0)
    kappa = 1
    for lv in plan.levels:
        kappa *= lv.annulus_count
        assert lv.kappa == kappa
    assert cov.kappa == plan.kappa_final == kappa


def test_factor_bookkeeping_through_levels():
    # intermediate level l carries factor gamma^(n-l+1)
    n, gamma, eta = 3, 2.0, 0.4
    fam = cover_annulus(eta, gamma ** n).charts
    assert fam.gamma == gamma ** n
    for l in range(2, n + 1):
        fam = SuspendedCharts(fam, cover_axis(eta, layer_zeta(fam.gamma, gamma)), gamma)
        assert fam.gamma == pytest.approx(gamma ** (n - l + 1), rel=1e-12)
    assert fam.gamma == pytest.approx(gamma, rel=1e-12)


def test_one_covering_per_build(monkeypatch):
    """Each level is a chart family: an n=4 build, and a level set over an
    n=2 base, make one `Covering` each for the whole, none per level."""
    built = []
    init = Covering.__init__
    monkeypatch.setattr(Covering, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    cov, plan = cover_punctured_polydisc(4, 1e-3, 2.0)
    assert len(built) == 1 and plan.kappa_final == cov.kappa
    cover_monomial_level_set((2, 1, 1), 0.5, 2.0)
    assert len(built) == 3


def test_gamma_too_small():
    with pytest.raises(GammaTooSmall):
        cover_punctured_polydisc(2, 0.1, 1.5)


def test_a_ring_ratio_that_rounds_to_one_names_dim_and_gamma():
    """At dim 1000 every level but the last few has a ring factor near 2^1000,
    so 1 - 1/(4 zeta) rounds to 1 there; at level 960 (zeta near 2^42) it is
    below 1 but too close to it for any ring of disks to cover the band.  A
    punctured such level is refused naming gamma^dim and the level;
    unpunctured, it needs no rings."""
    for axes, level in ((None, 1), ({2, 1000}, 2), ({960}, 960)):
        with pytest.raises(ValueError, match=rf"gamma\^dim = 2.0\^1000 is too large: .* of level {level} "):
            cover_punctured_polydisc(1000, 0.5, 2.0, axes)
    assert cover_punctured_polydisc(1000, 0.5, 2.0, {1000})[1].kappa_final == 403


def test_eta_above_one_empty():
    cov, plan = cover_punctured_polydisc(2, 1.0, 2.0)
    assert cov.kappa == 0
    assert plan.kappa_final == 0


def test_coverage_dimensions_1_2_3():
    for n, eta, samples in ((1, 0.02, 10000), (2, 0.2, 10000), (3, 0.5, 4000)):
        cov, _ = cover_punctured_polydisc(n, eta, 2.0)
        rep = check_coverage(cov, PolydiscRegion(eta=eta, n=n),
                             n_samples=samples, seed=11)
        assert rep.passed, (n, eta, rep.uncovered[:3])
        assert rep.samples_total >= samples


def test_avoidance_all_charts_n2():
    cov, _ = cover_punctured_polydisc(2, 0.1, 2.0)
    rep = certify_doubling(cov)
    assert rep.passed
    assert rep.n_charts == cov.kappa


def test_avoidance_sampled_n3():
    cov, _ = cover_punctured_polydisc(3, 0.5, 2.0)
    rng = np.random.default_rng(3)
    for i in rng.integers(0, cov.kappa, 300):
        assert avoidance_certificate(cov.charts[int(i)], cov.ambient, 2.0)


def test_locator_agrees_with_brute_force_n2():
    cov, _ = cover_punctured_polydisc(2, 0.6, 2.0)
    rng = np.random.default_rng(9)
    pts = np.concatenate([
        polydisc_random(0.6, 2, 300, 1),
        polydisc_random(0.2, 2, 100, 2),          # partly below eta
        rng.standard_normal((100, 2)) * 0.5 + 1j * rng.standard_normal((100, 2)) * 0.5,
    ])
    got = covers_points(cov.charts, pts, 1.0)
    want = brute_covered(cov.charts, pts)
    assert (got == want).all()


def test_paper_bound_ratio_finite():
    for eta in (0.1, 0.01):
        plan = polydisc_plan(2, eta, 2.0)
        bound = polydisc_bound(2, 2.0, eta)
        ratio = plan.kappa_final / bound
        assert 0 < ratio < math.inf


def test_inactive_axis_gets_trivial_level():
    cov, plan = cover_punctured_polydisc(2, 0.3, 2.0, active_axes={2})
    assert plan.levels[0].annulus_count == 1
    assert cov.kappa == plan.levels[1].annulus_count
    assert cov.ambient == PolydiscComplement(n=2, active_axes={2})
    rep = check_coverage(cov, PolydiscRegion(eta=0.3, n=2, active_axes=frozenset({2})),
                         n_samples=4000, seed=4)
    assert rep.passed
    assert certify_doubling(cov).passed


def test_plan_matches_construction():
    cov, plan = cover_punctured_polydisc(2, 0.15, 2.0)
    assert plan.levels[0].zeta == 4.0
    assert plan.levels[1].zeta == pytest.approx(8.0 / math.sqrt(3.0), rel=1e-12)
    assert cov.meta["plan"] == plan.to_dict()


def built_levels(fam) -> list:
    """(level, mu, zeta, count, kappa) of every level, read off the built
    families: mu is the factor of the family a level extends, zeta its
    layer disks' factor (0 for a one-disk layer), count its layer disks."""
    out = []
    while isinstance(fam, SuspendedCharts):
        layers, inner = fam.layers, fam.inner
        zeta = layers.zeta if isinstance(layers, RingDisks) else 0.0
        out.append((inner.gamma, zeta, len(layers), len(fam)))
        fam = inner
    zeta = fam.zeta if isinstance(fam, RingDisks) else 0.0
    out.append((fam.gamma, zeta, len(fam), len(fam)))
    return [(l, *row) for l, row in enumerate(reversed(out), 1)]


@pytest.mark.parametrize("gamma", [2.0, 2.2, 3.3])
@pytest.mark.parametrize("n, axes", [
    (1, None), (2, None), (2, {2}), (2, {1}), (3, None), (3, {1, 3}), (3, {2}),
    (4, None), (4, {2, 4}), (4, {1, 2, 3}),
])
def test_plan_is_read_off_the_build(n, axes, gamma):
    """Every level's mu, zeta, count and kappa are those the layers were
    built with, bit for bit, for gammas whose powers round and for none."""
    eta = 0.2 if gamma > 3.0 else 0.05
    cov, plan = cover_punctured_polydisc(n, eta, gamma, active_axes=axes)
    got = [(lv.level, lv.mu, lv.zeta, lv.annulus_count, lv.kappa) for lv in plan.levels]
    assert got == built_levels(cov.charts)
    assert [lv.axis_active for lv in plan.levels] == \
        [l in (axes or range(1, n + 1)) for l in range(1, n + 1)]
    assert plan.to_dict() == cov.meta["plan"]
    assert polydisc_plan(n, eta, gamma, active_axes=axes) == plan
    assert plan.kappa_final == cov.kappa


def test_plan_factors_are_the_built_ones_where_powers_round():
    """At gamma=2.2, n=4 the fourth level extends a covering of factor 4.84
    (two divisions of 2.2^4 by 2.2), not 2.2^2 = 4.840000000000001."""
    plan = polydisc_plan(4, 1e-3, 2.2)
    assert plan.levels[3].mu == 4.84 != 2.2 ** 2
    assert plan.levels[3].zeta == 4.939804314612742


COUNT_ONLY_BYTES = {        # --count-only stdout before the plan was read off the build
    ("2", "0.1"): (
        '{"n":2,"eta":0.1,"gamma":2.0,"levels":[{"level":1,"axis_active":true,'
        '"mu":4.0,"zeta":4.0,"annulus_count":972,"kappa":972},{"level":2,'
        '"axis_active":true,"mu":4.0,"zeta":4.618802153517007,"annulus_count":1302,'
        '"kappa":1265544}],"kappa":1265544}\n'),
    ("4", "1e-3"): "c3da184891fd573e37b95efa26cc7af3818daf63b80f3d318d57837eb063b828",
}


@pytest.mark.parametrize("dim, eta", COUNT_ONLY_BYTES)
def test_count_only_bytes_at_gamma_two(capsys, dim, eta):
    assert main(["cover", "polydisc", "--dim", dim, "--eta", eta, "--gamma", "2",
                 "--count-only"]) == 0
    out = capsys.readouterr().out
    want = COUNT_ONLY_BYTES[dim, eta]
    assert out == want or hashlib.sha256(out.encode()).hexdigest() == want


def test_lazy_build_allocates_no_ring_table():
    """n=4, eta=1e-3 has sum N_l = 126,810 layer disks; building lists none."""
    cover_punctured_polydisc(2, 0.5, 2.0)      # one-off first-call costs are not the build's
    tracemalloc.start()
    try:
        cov, plan = cover_punctured_polydisc(4, 1e-3, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10
    assert sum(lv.annulus_count for lv in plan.levels) == 126_810
    assert cov.kappa == plan.kappa_final == 168_773_782_806_090_000


def test_kappa_beyond_an_index_is_a_domain_error(tmp_path, capsys):
    """n=4, eta=0.01, gamma=3 has kappa = 6.5e19 >= 2^63: it can be counted
    and planned, but not written or listed."""
    kappa = 65_171_733_770_154_375_000
    argv = ["cover", "polydisc", "--dim", "4", "--eta", "0.01", "--gamma", "3"]
    assert main([*argv, "--count-only"]) == 0
    assert json.loads(capsys.readouterr().out)["kappa"] == kappa
    path = tmp_path / "big.json"
    assert main([*argv, "--out", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: AtlasError: kappa={kappa}")
    assert not path.exists()
    csv = tmp_path / "scaling.csv"
    assert main(["scaling", "--experiment", "polydisc", "--dim", "4", "--gamma", "3",
                 "--grid", "0.1,0.03,0.01", "--out", str(csv)]) == 0
    assert csv.read_text().splitlines()[-1].startswith(f"0.01,{kappa},")


def test_kappa_beyond_an_index_in_memory_is_a_domain_error():
    """The same covering built in memory: indexing a chart and sampling its
    coverage raise `AtlasError`, not numpy's or Python's `OverflowError`."""
    cov = cover_punctured_polydisc(4, 0.01, 3.0)[0]
    region = PolydiscRegion(eta=0.01, n=4, active_axes=frozenset(range(1, 5)))
    for call in (lambda: cov.charts[5], lambda: cov.kappa,
                 lambda: check_coverage(cov, region, n_samples=100)):
        with pytest.raises(AtlasError, match="more than an index can address"):
            call()


def test_len_past_two_to_the_63_is_a_domain_error():
    """The n=5, eta=1e-3 family counts its 1.65e23 charts exactly as ``kappa``,
    every level as its plan records; builtin ``len()`` of it raises `AtlasError`,
    not Python's `OverflowError`."""
    cov, plan = cover_punctured_polydisc(5, 1e-3, 2.0)
    assert cov.charts.kappa == polydisc_plan(5, 1e-3, 2.0).kappa_final == 165401018815031520444000
    fam = cov.charts
    for level in reversed(plan.levels):
        assert fam.kappa == level.kappa
        fam = getattr(fam, "inner", None)
    with pytest.raises(AtlasError, match="kappa=165401018815031520444000 charts are more than an index"):
        len(cov.charts)


def test_chain_beyond_an_index_is_a_domain_error(tmp_path, capsys):
    """A chain on the kappa >= 2^63 covering raises `AtlasError` before any
    search (it could not address its charts), and `atlas chain` on a
    hand-written recipe of that covering exits 2."""
    cov = cover_punctured_polydisc(4, 0.01, 3.0)[0]
    p, q = (0.5, 0.5, 0.5, 0.5), (0.5j, 0.5, 0.5, 0.5)
    with pytest.raises(AtlasError, match="more than an index can address"):
        chain_between(cov, p, q)
    recipe = {"schema_version": "2", "ambient": cov.ambient.to_dict(),
              "gamma": cov.gamma, "kappa": 65_171_733_770_154_375_000,
              "meta": json.loads(dumps(cov.meta))}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(recipe))
    assert main(["chain", "--covering", str(path), "--from=0.5,0,0.5,0,0.5,0,0.5,0",
                 "--to=0,0.5,0.5,0,0.5,0,0.5,0"]) == 2
    assert "more than an index can address" in capsys.readouterr().err


def test_bound_formula_value():
    # (9*2^2)^2 * log(36/0.1)^2
    assert polydisc_bound(2, 2.0, 0.1) == pytest.approx(
        1296.0 * math.log(360.0) ** 2, rel=1e-15)

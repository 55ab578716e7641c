"""Each public input check raises its own error type and message."""

import math
import re

import pytest

from atlascover.annulus import WhitneyDiskParams, construction_constant, cover_annulus
from atlascover.core import (
    AtlasError,
    Covering,
    DiagonalAffineChart,
    DimensionMismatch,
    EtaParams,
    InsufficientPoints,
    InvalidBeta,
    InvalidDoublingFactor,
    MalformedFile,
    MonomialLevelSet,
    NotARegularValue,
    NotHolomorphic,
    PolydiscComplement,
    PuncturedPlane,
    RegionMismatch,
    UnsupportedAmbient,
    avoidance_certificate,
    chart_contains,
)
from atlascover.cli import main
from atlascover.jsonio import covering_from_dict
from atlascover.levelset import MonomialLevelChart, cover_monomial_level_set
from atlascover.polydisc import cover_punctured_polydisc, level_lower_bound
from atlascover.real_acharts import (
    MonomialData,
    RealAChart,
    axis_scale_centers,
    choose_C3,
    cover_monomial_graph,
    graph_count_bound,
    scan_points,
    verify_achart,
    verify_achart_batch,
)
from atlascover.suspension import SuspendedCharts, cover_axis
from atlascover.verify import (
    AnnulusRegion,
    LevelGraphRegion,
    PolydiscRegion,
    check_coverage,
    linear_fit,
    named_bound,
    region_samples,
    sample_rows,
)

DISK = DiagonalAffineChart(b=(0.5,), d=(0.1,), gamma=2.0)
LEVEL = MonomialLevelChart(DISK, 0, (2, 1), 0.5)
DATA = MonomialData(1.0, (0.5,))
ACHART = RealAChart((0.5,), (1.0,), 4.0, DATA)
RINGS = cover_axis(0.5, 4.0)        # the ring disks of an annulus, factor 4
TWO_COORDINATE_ROWS = {     # a v1 covering of the plane whose one chart has two coordinates
    "schema_version": "1", "ambient": {"kind": "punctured_plane"}, "gamma": 2.0, "kappa": 1,
    "charts": [{"kind": "diag_affine", "b": [[0.5, 0.0]] * 2, "d": [[0.1, 0.0]] * 2}]}
STRING_ROWS = {     # a v1 covering of the plane whose one chart's b holds a string
    **TWO_COORDINATE_ROWS, "charts": [{"kind": "diag_affine", "b": [["0.5", 0.0]], "d": [[0.1, 0.0]]}]}

CHECKS = {
    "polydisc-dim-0": (lambda: PolydiscComplement(0),
                       DimensionMismatch, "dimension must be an integer >= 1, got 0"),
    "polydisc-dim-1.5": (lambda: PolydiscComplement(1.5),
                         DimensionMismatch, "dimension must be an integer >= 1, got 1.5"),
    "polydisc-axis-3": (lambda: PolydiscComplement(2, {3}),
                        ValueError, "active axes must lie in 1..2"),
    "level-set-exponent-0": (lambda: MonomialLevelSet((0, 1), 0.5),
                             ValueError, "all exponents must be >= 1"),
    "level-set-exponent-2.5": (lambda: MonomialLevelSet((2.5, 1), 0.5),
                               ValueError, "an exponent must be an integer, got 2.5"),
    "polydisc-axis-1.5": (lambda: PolydiscComplement(2, {1.5}),
                          ValueError, "an active axis must be an integer, got 1.5"),
    "covering-gamma-1": (lambda: Covering(PuncturedPlane(), 1.0, []),
                         InvalidDoublingFactor, "gamma must exceed 1, got 1.0"),
    "covering-other-factor": (lambda: Covering(PuncturedPlane(), 3.0, [DISK]),
                              ValueError, "charts do not share the covering factor"),
    "covering-two-factors": (lambda: Covering(PuncturedPlane(), 9.0, [
                                 DiagonalAffineChart((0.5,), (0.1,), 9.0), DISK]),
                             ValueError, "charts of factors [2.0, 9.0] in one list"),
    "covering-two-dims": (lambda: Covering(PuncturedPlane(), 2.0, [
                              DISK, DiagonalAffineChart((0.5, 0.5), (0.1, 0.1), 2.0)]),
                          DimensionMismatch, "charts of dims [1, 2] in one list"),
    "covering-other-dim": (lambda: Covering(PolydiscComplement(2), 2.0, [DISK]),
                           DimensionMismatch, "charts of dim 1 for an ambient of dim 2"),
    "covering-level-list": (lambda: Covering(MonomialLevelSet((2, 1), 0.5), 2.0, [LEVEL]),
                            UnsupportedAmbient, "supported as a LevelBranchCharts family"),
    "eta-c-lower-0": (lambda: EtaParams(c_lower=0.0, C_unit=1.0, d=1, alpha0=1),
                      ValueError, "c_lower must be positive"),
    "eta-c-unit-half": (lambda: EtaParams(c_lower=0.1, C_unit=0.5, d=1, alpha0=1),
                        ValueError, "C_unit must be >= 1"),
    "eta-d-1.5": (lambda: EtaParams(0.5, 1.0, 1.5, 1), ValueError, "d must be an integer, got 1.5"),
    "eta-alpha0-2.5": (lambda: EtaParams(0.5, 1.0, 1, 2.5),
                       ValueError, "alpha0 must be an integer, got 2.5"),
    "avoidance-above-gamma": (lambda: avoidance_certificate(DISK, PuncturedPlane(), 3.0),
                              ValueError, "scale 3.0 exceeds the chart factor 2.0"),
    "avoidance-other-dim": (lambda: avoidance_certificate(DISK, PolydiscComplement(2), 1.0),
                            DimensionMismatch, "ambient dim 2 != chart dim 1"),
    "contains-level-chart": (lambda: chart_contains(LEVEL, (0.5, 0.5), 1.0),
                             UnsupportedAmbient, "chart arrays need diagonal affine charts"),
    "level-chart-branch": (lambda: MonomialLevelChart(DISK, 2, (2, 1), 0.5),
                           ValueError, "branch must lie in [0, 2)"),
    "level-chart-alpha-length": (lambda: MonomialLevelChart(DISK, 0, (2, 1, 1), 0.5),
                                 DimensionMismatch, "alpha has 3 entries for a base of dim 1"),
    "level-chart-c-0": (lambda: MonomialLevelChart(DISK, 0, (2, 1), 0.0),
                        NotARegularValue, "0 is the singular value of a monomial"),
    "level-chart-c-nan": (lambda: MonomialLevelChart(DISK, 0, (2, 1), math.nan),
                          ValueError, "c must be finite, got (nan+0j)"),
    "level-chart-exponent-0": (lambda: MonomialLevelChart(DISK, 0, (0, 1), 0.5),
                               ValueError, "all exponents must be >= 1"),
    "v1-rows-of-other-dim": (lambda: covering_from_dict(TWO_COORDINATE_ROWS), MalformedFile,
                             "expected data of shape (1, 1, 2), got (1, 2, 2)"),
    "v1-string-row-entry": (lambda: covering_from_dict(STRING_ROWS), MalformedFile,
                            "TypeError: expected numbers in data of shape (1, 1, 2)"),
    "construction-constant-zeta-1": (lambda: construction_constant(1.0),
                                     InvalidDoublingFactor, "zeta must exceed 1, got 1.0"),
    "annulus-ratio-rounds-to-1": (lambda: cover_annulus(1e-3, 1e300), ValueError,
                                  "the ring ratio 1 - 1/(4 zeta) of zeta = 1e+300 rounds to 1"),
    "annulus-ratio-too-close-to-1": (lambda: cover_annulus(1e-3, 2.0 ** 45), ValueError,
                                     "the ring ratio 0.9999999999999929 of zeta = 35184372088832.0 "
                                     "is too close to 1: the angle a disk spans rounds to 0"),
    "annulus-ratio-too-small": (lambda: cover_annulus(0.5, 2.0, WhitneyDiskParams(0.05)), ValueError,
                                "the ring ratio 0.05 of zeta = 2.0 is too small: "
                                "a single disk cannot span the band"),
    "construction-constant-ratio-rounds-to-1": (lambda: construction_constant(1e300), ValueError,
                                                "the ring ratio 1 - 1/(4 zeta) of zeta = 1e+300 "
                                                "rounds to 1"),
    "level-set-dim-1": (lambda: cover_monomial_level_set((2,), 0.5),
                        DimensionMismatch, "the graph construction needs dimension >= 2"),
    "level-set-cover-exponent-2.5": (lambda: cover_monomial_level_set((2.5, 1), 0.5),
                                     ValueError, "an exponent must be an integer, got 2.5"),
    "polydisc-no-axes": (lambda: cover_punctured_polydisc(2, 0.5, 2.0, active_axes=set()),
                         ValueError, "at least one axis must be punctured"),
    "polydisc-axes-3": (lambda: cover_punctured_polydisc(2, 0.5, 2.0, active_axes={3}),
                        ValueError, "active axes must lie in 1..2"),
    "polydisc-axes-1.9": (lambda: cover_punctured_polydisc(2, 0.5, 2.0, {1.9}),
                          ValueError, "an active axis must be an integer, got 1.9"),
    "polydisc-n-0": (lambda: cover_punctured_polydisc(0, 0.5, 2.0),
                     DimensionMismatch, "dimension must be an integer >= 1, got 0"),
    "polydisc-n-1.5": (lambda: cover_punctured_polydisc(1.5, 0.5, 2.0),
                       DimensionMismatch, "dimension must be an integer >= 1, got 1.5"),
    "polydisc-eta-0": (lambda: cover_punctured_polydisc(2, 0.0, 2.0),
                       ValueError, "eta must be positive, got 0.0"),
    "lower-bound-c-unit": (lambda: level_lower_bound(0.5, 0.5, 1),
                           ValueError, "C_unit must be >= 1"),
    "lower-bound-alpha0": (lambda: level_lower_bound(0.5, 1.0, 0),
                           ValueError, "alpha0 must be a positive integer"),
    "lower-bound-alpha0-2.5": (lambda: level_lower_bound(0.5, 1.0, 2.5),
                               ValueError, "alpha0 must be an integer, got 2.5"),
    "achart-y": (lambda: RealAChart((1.5,), (1.0,), 4.0, DATA),
                 ValueError, "box centers must lie in (0, 1)^m"),
    "achart-c3": (lambda: RealAChart((0.5,), (1.0,), 3.0, DATA),
                  ValueError, "C3 must exceed 3 for the radius-3 extension"),
    "achart-z0": (lambda: RealAChart((0.5,), (5.0,), 4.0, DATA),
                  ValueError, "offsets must satisfy |z0_i| <= C3"),
    "achart-z0-nan": (lambda: RealAChart((0.5,), (math.nan,), 4.0, DATA),
                      ValueError, "offsets must satisfy |z0_i| <= C3"),
    "achart-length": (lambda: RealAChart((0.5, 0.5), (1.0,), 4.0, DATA),
                      ValueError, "y and z0 must match the exponent dimension"),
    "monomial-no-exponent": (lambda: MonomialData(1.0, ()),
                             ValueError, "need at least one exponent"),
    "scale-centers-eps-1": (lambda: axis_scale_centers(1.0),
                            ValueError, "eps must lie in (0, 1)"),
    "c3-value-bound": (lambda: choose_C3((1.0,), 0.5),
                       ValueError, "value_bound must be >= 1"),
    "graph-eps": (lambda: cover_monomial_graph(DATA, 0.6),
                  ValueError, "eps must lie in (0, 1/2)"),
    "count-bound-eps-0": (lambda: graph_count_bound(DATA, 0.0),
                          ValueError, "eps must lie in (0, 1/2)"),
    "count-bound-eps-negative": (lambda: graph_count_bound(DATA, -1.0),
                                 ValueError, "eps must lie in (0, 1/2)"),
    "count-bound-eps-nan": (lambda: graph_count_bound(DATA, math.nan),
                            ValueError, "eps must lie in (0, 1/2)"),
    "count-bound-eps-0.7": (lambda: graph_count_bound(DATA, 0.7),
                            ValueError, "eps must lie in (0, 1/2)"),
    "scan-grid-1": (lambda: scan_points(2, 1, 10),
                    ValueError, "grid must be at least 2, got 1"),
    "scan-grid-fraction": (lambda: scan_points(2, 16.5, 10),
                           ValueError, "grid must be an integer, got 16.5"),
    "scan-interior-negative": (lambda: scan_points(2, 4, -1),
                               ValueError, "interior must be at least 0, got -1"),
    "scan-interior-fraction": (lambda: scan_points(2, 4, 2.5),
                               ValueError, "interior must be an integer, got 2.5"),
    "scan-m-0": (lambda: scan_points(0, 4, 10),
                 ValueError, "m must be at least 1, got 0"),
    "verify-grid-fraction": (lambda: verify_achart(ACHART, grid=16.5),
                             ValueError, "grid must be an integer, got 16.5"),
    "verify-batch-grid-fraction": (lambda: verify_achart_batch([ACHART], grid=16.5),
                                   ValueError, "grid must be an integer, got 16.5"),
    "verify-batch-interior-negative": (lambda: verify_achart_batch([ACHART], interior=-1),
                                       ValueError, "interior must be at least 0, got -1"),
    "verify-empty-batch-grid-fraction": (lambda: verify_achart_batch([], grid=16.5),
                                         ValueError, "grid must be an integer, got 16.5"),
    "verify-callable-without-m": (lambda: verify_achart(lambda z: z),
                                  ValueError, "callable charts need an .m attribute"),
    "verify-batch-overflow": (lambda: verify_achart_batch(
                                  [RealAChart((0.5,), (1.0,), 4.0, MonomialData(1.0, (2000.0,)))]),
                              NotHolomorphic, "extension evaluation produced non-finite values"),
    "complement-bound-delta-negative": (
        lambda: named_bound("complement", {"C1": 1.0, "c1": 1.0, "delta": -1.0, "n": 2}),
        ValueError, "delta must be positive, got -1.0"),
    "complement-bound-delta-0": (
        lambda: named_bound("complement", {"C1": 1.0, "c1": 1.0, "delta": 0.0, "n": 2}),
        ValueError, "delta must be positive, got 0.0"),
    "complement-bound-delta-inf": (
        lambda: named_bound("complement", {"C1": 1.0, "c1": 1.0, "delta": math.inf, "n": 2}),
        ValueError, "delta must be finite, got inf"),
    "complement-bound-c1-negative": (
        lambda: named_bound("complement", {"C1": 1.0, "c1": -1.0, "delta": 0.5, "n": 2}),
        ValueError, "c1/delta must be positive, got -2.0"),
    "suspended-beta-half": (lambda: SuspendedCharts(RINGS, RINGS, 0.5),
                            InvalidBeta, "beta must lie in (1, 4.0), got 0.5"),
    "suspended-beta-1": (lambda: SuspendedCharts(RINGS, RINGS, 1.0),
                         InvalidBeta, "beta must lie in (1, 4.0), got 1.0"),
    "suspended-beta-inner-gamma": (lambda: SuspendedCharts(RINGS, RINGS, 4.0),
                                   InvalidBeta, "beta must lie in (1, 4.0), got 4.0"),
    "suspended-empty-inner": (lambda: SuspendedCharts([], cover_axis(None, 2.0), 1.5),
                              AtlasError, "the inner family is empty"),
    "suspended-rowless-list": (
        lambda: SuspendedCharts(list(cover_monomial_level_set((1, 1), 0.25, 4.0).charts),
                                cover_axis(None, 2.0), 1.5),
        UnsupportedAmbient, "chart arrays need diagonal affine charts"),
    "unknown-region": (lambda: region_samples("disk", 10, 0),
                       RegionMismatch, "unknown region 'disk'"),
    "coverage-region-other-ambient": (
        lambda: check_coverage(cover_annulus(0.5, 2.0), PolydiscRegion(eta=0.5, n=1), 10),
        RegionMismatch, "region PolydiscRegion(eta=0.5, n=1, active_axes=None) "
                        "does not fit ambient PuncturedPlane()"),
    "coverage-polydisc-other-axes": (
        lambda: check_coverage(cover_punctured_polydisc(2, 0.75, 2.0)[0],
                               PolydiscRegion(eta=0.75, n=2, active_axes=frozenset({2})), 10),
        RegionMismatch, "region PolydiscRegion(eta=0.75, n=2, active_axes=frozenset({2})) "
                        "does not fit ambient PolydiscComplement(n=2, active_axes=frozenset({1, 2}))"),
    "coverage-other-level": (lambda: check_coverage(cover_monomial_level_set((2, 1), 0.5),
                                                    LevelGraphRegion((2, 1), 0.25), 10),
                             RegionMismatch, "region LevelGraphRegion(alpha=(2, 1), c=0.25) does not "
                                             "fit ambient MonomialLevelSet(alpha=(2, 1), c=(0.5+0j))"),
    "coverage-count-10.5": (lambda: check_coverage(cover_annulus(0.1, 2.0), AnnulusRegion(0.1), 10.5),
                            ValueError, "the sample count must be an integer, got 10.5"),
    "coverage-seed-string": (lambda: check_coverage(cover_annulus(0.1, 2.0), AnnulusRegion(0.1),
                                                    10, seed="x"),
                             ValueError, "the seed must be an integer, got 'x'"),
    "coverage-seed-negative": (lambda: check_coverage(cover_annulus(0.1, 2.0), AnnulusRegion(0.1),
                                                      10, seed=-1),
                               ValueError, "the seed must be >= 0, got -1"),
    # a bool is not an integer, as the file reader (`json_number`) already holds
    "polydisc-dim-true": (lambda: cover_punctured_polydisc(True, 0.5, 2.0),
                          DimensionMismatch, "dimension must be an integer >= 1, got True"),
    "polydisc-axis-true": (lambda: PolydiscComplement(2, {True}),
                           ValueError, "an active axis must be an integer, got True"),
    "level-set-exponent-true": (lambda: MonomialLevelSet((2, True), 0.5),
                                ValueError, "an exponent must be an integer, got True"),
    "coverage-count-true": (lambda: sample_rows(PolydiscRegion(0.5, 2), True, 0),
                            ValueError, "the sample count must be an integer, got True"),
    "coverage-seed-true": (lambda: sample_rows(PolydiscRegion(0.5, 2), 10, True),
                           ValueError, "the seed must be an integer, got True"),
    "polydisc-region-eta-nan": (lambda: region_samples(PolydiscRegion(math.nan, 2), 10 ** 12, 0),
                                ValueError, "eta must be finite, got nan"),
    **{f"polydisc-region-n-{n}": (
        lambda n=n: region_samples(PolydiscRegion(0.5, n), 10, 0), DimensionMismatch,
        f"the region's dimension n must be an integer >= 1, got {n}") for n in (0, -1, 1.5)},
    **{f"polydisc-region-axes-{a}": (
        lambda a=a: PolydiscRegion(0.5, 2, frozenset({a})), ValueError, message)
       for a, message in ((1.5, "an active axis must be an integer, got 1.5"),
                          (3, "active axes must lie in 1..2"))},
    "annulus-region-delta-negative": (lambda: region_samples(AnnulusRegion(-0.5), 100, 0),
                                      ValueError, "delta must be positive, got -0.5"),
    "fit-one-point": (lambda: linear_fit([1.0], [2.0]),
                      InsufficientPoints, "need at least two points to fit a line"),
}


@pytest.mark.parametrize("name", CHECKS)
def test_input_check_raises_its_error(name):
    call, error, message = CHECKS[name]
    with pytest.raises(error, match=re.escape(message)):
        call()


@pytest.mark.parametrize("argv, kappa", [
    (["cover", "polydisc", "--dim", "5", "--eta", "1e-3", "--gamma", "2"], 165401018815031520444000),
    (["cover", "levelset", "--alpha", "2,1,1,1,1,1", "--c", "0.001,0"], 330802037630063040888000),
], ids=["polydisc-n5", "levelset-n6"])
def test_cli_refuses_more_charts_than_an_index(argv, kappa, tmp_path, capsys):
    """A covering whose inner levels already pass 2^63 charts (the n=5 base
    has 1.65e23) ends in `AtlasError` and exit 2 when it is written, with no
    file and no traceback."""
    out = tmp_path / "f.json"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: AtlasError: kappa={kappa} charts are more than an index can address\n"
    assert not out.exists()

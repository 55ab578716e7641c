import numpy as np
import pytest
from hypothesis import given, strategies as st

from atlascover.core import (
    ChartList,
    DiagonalAffineChart,
    DimensionMismatch,
    EtaParams,
    InvalidDoublingFactor,
    InvalidTolerance,
    MonomialLevelSet,
    PolydiscComplement,
    PuncturedPlane,
    UnsupportedAmbient,
    _in_ball,
    avoidance_certificate,
    chart_contains,
    cpoint,
    tolerance,
)

from oracles import ball_points


def disk(a, r, gamma=2.0):
    return DiagonalAffineChart(b=(a,), d=(r,), gamma=gamma)


class TestChartContains:
    def test_identity_scale_disk(self):
        ch = disk(0.0, 1.0)
        assert chart_contains(ch, (0.5,), 1.0)

    def test_outside_at_unit_scale_inside_at_double(self):
        ch = disk(0.0, 1.0)
        assert not chart_contains(ch, (1.5,), 1.0)
        assert chart_contains(ch, (1.5,), 2.0)

    def test_two_dim_direct_formula(self):
        ch = DiagonalAffineChart(b=(0.5, 0.5), d=(0.1, 0.2), gamma=2.0)
        # |0.05/0.1|^2 = 0.25 <= 1
        assert chart_contains(ch, (0.55, 0.5), 1.0)

    def test_dimension_mismatch(self):
        ch = disk(0.0, 1.0)
        with pytest.raises(DimensionMismatch):
            chart_contains(ch, (0.1, 0.2), 1.0)

    def test_scale_outside_gamma_rejected(self):
        ch = disk(0.0, 1.0)
        with pytest.raises(ValueError):
            chart_contains(ch, (0.5,), 3.0)


def _rule_rows(dim: int, rng) -> tuple:
    """(pts, b, d, scale), 3,300 rows of ``dim`` coordinates: random rows
    within 0.1 % of the ball's boundary; 300 of them again, each at a scale
    whose bound s^2 (1 + t), t = 1e-10, is a few ulps from its squared norm;
    then 180 rows of unit charts whose first coordinate steps by ulps over
    sqrt(s^2 (1 + t)).  So every row set has rows just inside and just outside."""
    n = 3000
    b = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    d = rng.uniform(0.05, 2.0, (n, dim)) * np.exp(2j * np.pi * rng.random((n, dim)))
    scale = rng.uniform(0.05, 1.9, n)
    x = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    x *= (scale * rng.uniform(0.999, 1.001, n) / np.linalg.norm(x, axis=1))[:, None]
    pts = b + d * x
    norms = (np.abs((pts[:300] - b[:300]) / d[:300]) ** 2).sum(axis=1)
    near = np.sqrt(norms / (1.0 + 1e-10))
    near += (np.arange(300) % 5 - 2) * np.spacing(near)           # -2 to 2 ulps
    r = np.sqrt(np.repeat(rng.uniform(0.05, 1.9, 20), 9) ** 2 * (1.0 + 1e-10))
    unit_scale = np.sqrt(r ** 2 / (1.0 + 1e-10))
    r += (np.arange(180) % 9 - 4) * np.spacing(r)                  # -4 to 4 ulps
    unit = np.zeros((180, dim), dtype=complex)
    unit[:, 0] = r
    ones = np.ones((180, dim), dtype=complex)
    return (np.vstack([pts, pts[:300], unit]), np.vstack([b, b[:300], 0.0 * ones]),
            np.vstack([d, d[:300], ones]), np.concatenate([scale, near, unit_scale]))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_the_ball_rule_answers_a_row_alone_as_in_a_block(dim):
    """The one ball rule decides each row as it decides it alone: the
    N-row `_in_ball` equals one-row calls, `chart_contains`,
    `ChartList.contains` and the default `_hits` on every row, on random rows
    near the boundary and on rows a few ulps inside and outside it."""
    pts, b, d, scale = _rule_rows(dim, np.random.default_rng(dim))
    block = _in_ball(pts, b, d, scale, 1e-10)
    for edge in (block[:3000], block[3000:3300], block[3300:]):
        assert edge.any() and not edge.all()
    charts = [DiagonalAffineChart(b=tuple(bi), d=tuple(di), gamma=2.0) for bi, di in zip(b, d)]
    fam = ChartList(charts)
    assert np.array_equal(fam._hits(pts, scale, 1e-10, np.arange(len(charts))), block)
    for r, (p, s) in enumerate(zip(pts, scale)):
        alone = _in_ball(pts[r:r + 1], b[r:r + 1], d[r:r + 1], scale[r:r + 1], 1e-10)
        assert alone.tolist() == [block[r]], r
        assert chart_contains(charts[r], tuple(p), s, tol=1e-10) == block[r], r
        assert fam.contains(r, p, s, tol=1e-10) == block[r], r


class TestAvoidance:
    def test_disk_with_margin(self):
        assert avoidance_certificate(disk(0.5, 0.1), PuncturedPlane(), 2.0)

    def test_disk_too_fat(self):
        assert not avoidance_certificate(disk(0.5, 0.3), PuncturedPlane(), 2.0)

    def test_polydisc_both_axes(self):
        ch = DiagonalAffineChart(b=(0.5, 0.5), d=(0.1, 0.1), gamma=2.0)
        amb = PolydiscComplement(n=2, active_axes={1, 2})
        assert avoidance_certificate(ch, amb, 2.0)

    def test_level_set_ambient_unsupported(self):
        amb = MonomialLevelSet(alpha=(2, 1), c=0.04)
        with pytest.raises(UnsupportedAmbient):
            avoidance_certificate(disk(0.5, 0.1), amb, 2.0)

    def test_inactive_axis_is_ignored(self):
        ch = DiagonalAffineChart(b=(0.0, 0.5), d=(1.0, 0.1), gamma=2.0)
        amb = PolydiscComplement(n=2, active_axes={2})
        assert avoidance_certificate(ch, amb, 2.0)


complex_st = st.builds(complex,
                       st.floats(-2, 2, allow_nan=False),
                       st.floats(-2, 2, allow_nan=False))
scale_st = st.builds(complex,
                     st.floats(-2, 2).filter(lambda v: abs(v) > 1e-3),
                     st.floats(-2, 2, allow_nan=False))


@st.composite
def charts(draw, max_dim=3):
    dim = draw(st.integers(1, max_dim))
    b = tuple(draw(complex_st) for _ in range(dim))
    d = tuple(draw(scale_st) for _ in range(dim))
    gamma = draw(st.floats(1.1, 4.0))
    return DiagonalAffineChart(b=b, d=d, gamma=gamma)


@given(charts(), st.integers(0, 2 ** 31 - 1))
def test_round_trip_membership(chart, seed):
    # psi(x) with ||x|| <= 1 always lies in the unit-scale image
    x = ball_points(chart.dim, 32, seed)
    pts = chart.map_points(x)
    for p in pts:
        assert chart_contains(chart, tuple(p), 1.0, tol=1e-12)


@given(charts(), st.integers(0, 2 ** 31 - 1),
       st.floats(0.1, 1.0), st.floats(0.0, 1.0))
def test_contains_monotone_in_scale(chart, seed, s, bump):
    s2 = min(s * (1.0 + bump), chart.gamma)
    s = min(s, chart.gamma)
    p = tuple(chart.map_points(ball_points(chart.dim, 1, seed) * 2.0)[0])
    if chart_contains(chart, p, s):
        assert chart_contains(chart, p, s2)


@given(charts(max_dim=2), st.integers(0, 2 ** 31 - 1))
def test_avoidance_soundness_by_sampling(chart, seed):
    # certificate at gamma => no sampled extended point hits a punctured axis
    amb = (PuncturedPlane() if chart.dim == 1 else
           PolydiscComplement(n=chart.dim, active_axes=set(range(1, chart.dim + 1))))
    if not avoidance_certificate(chart, amb, chart.gamma):
        return
    x = ball_points(chart.dim, 256, seed) * chart.gamma
    pts = chart.map_points(x)
    assert np.abs(pts).min() > 0.0


def test_cpoint_rejects_empty():
    with pytest.raises(DimensionMismatch):
        cpoint([])


def test_chart_validation():
    with pytest.raises(ValueError):
        DiagonalAffineChart(b=(0.0,), d=(0.0,), gamma=2.0)
    with pytest.raises(InvalidDoublingFactor):
        DiagonalAffineChart(b=(0.0,), d=(1.0,), gamma=1.0)
    with pytest.raises(DimensionMismatch):
        DiagonalAffineChart(b=(0.0, 0.0), d=(1.0,), gamma=2.0)


def test_eta_params_validation():
    EtaParams(c_lower=0.5, C_unit=2.0, d=2, alpha0=2)
    with pytest.raises(ValueError):
        EtaParams(c_lower=3.0, C_unit=2.0, d=2, alpha0=2)
    with pytest.raises(ValueError):
        EtaParams(c_lower=0.5, C_unit=2.0, d=0, alpha0=2)


def test_tolerance_env_override(monkeypatch):
    assert tolerance() == 1e-10
    assert tolerance(1e-6) == 1e-6
    monkeypatch.setenv("ATLAS_TOL", "1e-8")
    assert tolerance() == 1e-8


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, -1e-300])
def test_malformed_tolerances_are_refused(monkeypatch, value):
    """A NaN, infinite or negative tolerance is a domain error naming its source."""
    with pytest.raises(InvalidTolerance, match="the tol argument"):
        tolerance(value)
    monkeypatch.setenv("ATLAS_TOL", repr(value))
    with pytest.raises(InvalidTolerance, match=f"ATLAS_TOL='{value!r}'"):
        tolerance()
    assert tolerance(0.0) == 0.0
    monkeypatch.setenv("ATLAS_TOL", "1e-8x")
    with pytest.raises(InvalidTolerance, match="not a number"):
        tolerance()

import numpy as np
import pytest
from hypothesis import given, strategies as st

from atlascover.core import (
    DiagonalAffineChart,
    DimensionMismatch,
    EtaParams,
    InvalidDoublingFactor,
    InvalidTolerance,
    MonomialLevelSet,
    PolydiscComplement,
    PuncturedPlane,
    UnsupportedAmbient,
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

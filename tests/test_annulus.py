import math
from functools import partial

import numpy as np
import pytest

from atlascover import annulus
from atlascover.annulus import (
    WhitneyDiskParams,
    construction_constant,
    cover_annulus,
    ring_disks,
)
from atlascover.core import InvalidDoublingFactor, PuncturedPlane, _in_ball, avoidance_certificate
from atlascover.jsonio import covering_to_dict, dumps
from atlascover.polydisc import cover_punctured_polydisc
from atlascover.suspension import chart_arrays, covers_points
from atlascover.verify import linear_fit

from oracles import (
    annulus_grid,
    annulus_random,
    brute_covered,
    containing_pairs,
    ring_passes_full,
)

# regression constants, frozen after the first certified run
KAPPA_1E3_ZETA4 = 2916
A4_MEASURED = 370.0


def disks_of(cov):
    b, d = chart_arrays(cov.charts)
    return b[:, 0], np.abs(d[:, 0])


def test_delta_one_is_empty():
    cov = cover_annulus(1.0, 2.0)
    assert cov.kappa == 0
    assert cov.ambient == PuncturedPlane()


def test_invalid_zeta():
    with pytest.raises(InvalidDoublingFactor):
        cover_annulus(0.5, 1.0)
    with pytest.raises(ValueError):
        cover_annulus(0.0, 2.0)


def test_zeta_doubling_condition_exact():
    for zeta in (2.0, 4.0):
        for delta in (0.5, 1e-2, 1e-4):
            a, r = disks_of(cover_annulus(delta, zeta))
            assert (zeta * r < np.abs(a)).all()


def test_coverage_brute_force_oracle():
    # delta=0.5, zeta=2: every grid sample of {0.5 <= |z| <= 1} lies in a disk,
    # checked by the direct distance formula over all charts
    cov = cover_annulus(0.5, 2.0)
    pts = annulus_grid(0.5, 100, 100)[:, None]
    assert brute_covered(cov.charts, pts).all()
    for ch in cov.charts:
        assert avoidance_certificate(ch, PuncturedPlane(), 2.0)


def test_locator_agrees_with_brute_force():
    cov = cover_annulus(0.05, 2.0)
    rng = np.random.default_rng(7)
    # mix of region points, deep exterior, near-boundary
    z = np.concatenate([
        annulus_random(0.05, 400, 3),
        0.02 * np.exp(2j * np.pi * rng.random(50)),
        1.4 * np.exp(2j * np.pi * rng.random(50)),
        rng.standard_normal(100) * 0.4 + 1j * rng.standard_normal(100) * 0.4,
    ])
    got = covers_points(cov.charts, z, 1.0)
    want = brute_covered(cov.charts, z[:, None])
    assert (got == want).all()


def _edge_points(rings, scale, ring_range=None):
    """z on the edges where the anchor and the windows of `passes` round: ring
    radii q^k and band radii cf q^k (1 -+ sigma), rings beyond both ends too,
    at the disk centre angles, half-way between them (where the nearest angle
    changes), asin(sigma) off them (the sector edges) and at -+pi; then rows
    that are not finite, and 0."""
    sigma = scale * rings.rf / rings.cf
    k = np.arange(-1, rings.n_rings + 1) if ring_range is None else np.asarray(ring_range)
    rho = rings.q ** k.astype(float)
    radii = np.concatenate([rho, rings.cf * rho * (1.0 - sigma), rings.cf * rho * (1.0 + sigma)])
    step = 2.0 * math.pi / rings.n_angles
    j = np.arange(rings.n_angles) * step
    angles = np.concatenate([j, j + 0.5 * step, j + math.asin(sigma), j - math.asin(sigma),
                             [math.pi, -math.pi]])
    z = (radii[:, None] * np.exp(1j * angles)).ravel()
    return np.concatenate([z, [np.nan, np.inf, complex(np.inf, np.nan), complex(1.0, np.nan),
                               complex(-np.inf, 0.5), 0.0]])


@pytest.mark.parametrize("case", ["annulus", "deep-rings", "suspension"])
def test_locate_on_the_window_edges_equals_the_oracle(case):
    """`locate` equals `oracles.containing_pairs`, and `covers` holds exactly
    the points it finds, on the rounding edges of `_edge_points`: the anchor
    formula moves no window off a disk that holds the point.  The deep ring
    family reaches |z| ~ 1e-168, where re^2 + im^2 and the squares of
    `RingDisks._hits` underflow, and no disk holds z = 0; the suspension puts
    the edges on its last axis, at the scale its layer disks see."""
    if case == "suspension":
        fam = cover_punctured_polydisc(2, 0.75, 2.0)[0].charts
        w = _edge_points(fam.layers, fam.lam_factor)
        v = np.random.default_rng(4).choice(_edge_points(fam.inner, fam.beta), w.size)
        pts = np.stack([v, w], axis=1)[::7]
    else:
        fam = cover_annulus(1e-2, 2.0).charts if case == "annulus" else ring_disks(1e-200, 2.0)
        pts = _edge_points(fam, 1.0, None if case == "annulus" else range(2900, 2904))[:, None]
    for scale in (1.0, 1.7):
        i, j = fam.locate(pts, scale)
        assert list(zip(i.tolist(), j.tolist())) == containing_pairs(fam, pts, scale)
        assert i.size > 0
        assert np.array_equal(fam.covers(pts, scale), np.isin(np.arange(pts.shape[0]), i))
        if case == "deep-rings":    # |0 - a|^2 and (r s)^2 underflow to 0 on the inner disks
            assert fam.locate([[0j]], scale)[0].size == 0
            assert fam.covers([[0j]], scale).tolist() == [False]


def test_ring_rows_at_scale_zero_follow_the_locate_rule():
    """At scale 0 (a suspension row past its layer disk) `RingDisks._hits`
    holds a row iff the ball rule `_in_ball` on the disk rows does, on the
    largest and the deepest disk: z = a, or |z - a| small enough that both
    rules see 0, and not a z 1e-170 from the deepest centre, whose
    |z - a|^2 underflows while |z - a|/r is about 4e30."""
    fam = ring_disks(1e-200, 2.0)
    a, r = fam._disks
    j = np.repeat([np.argmax(r), np.argmin(r)], 4)
    pts = (a[j] + np.tile([0.0, 1e-170, 1e-100, 0.1], 2))[:, None]
    zero = np.zeros(j.size)
    assert np.array_equal(fam._hits(pts, zero, 0.0, j), _in_ball(pts, *fam.arrays_at(j), zero, 0.0))


def test_cover_annulus_sizes_its_rings_once(monkeypatch):
    """The meta's construction constant is read off the built disks: one
    angular count per annulus."""
    calls = []
    count = annulus._angular_count
    monkeypatch.setattr(annulus, "_angular_count", lambda *a: calls.append(1) or count(*a))
    cov = cover_annulus(1e-3, 4.0)
    assert len(calls) == 1
    assert cov.meta["construction_constant"] == construction_constant(4.0)


def test_kappa_regression_and_construction_constant():
    cov = cover_annulus(1e-3, 4.0)
    assert cov.kappa == KAPPA_1E3_ZETA4
    ratio = cov.kappa / (math.log(1e3) + 1.0)
    assert ratio <= A4_MEASURED
    assert ratio <= construction_constant(4.0)
    assert cov.meta["construction_constant"] == construction_constant(4.0)


def test_complexity_affine_in_log_inv_delta():
    deltas = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
    kappas = [cover_annulus(d, 2.0).kappa for d in deltas]
    fit = linear_fit(np.log(1.0 / np.asarray(deltas)), kappas)
    assert fit.r2 >= 0.99
    assert fit.slope > 0


def test_determinism_bit_identical():
    c1 = cover_annulus(0.01, 2.0)
    c2 = cover_annulus(0.01, 2.0)
    assert c1 == c2
    assert dumps(covering_to_dict(c1)) == dumps(covering_to_dict(c2))


def test_chart_ordering_outermost_first_by_angle():
    cov = cover_annulus(0.3, 2.0)
    n = cov.meta["n_angles"]
    a, _ = disks_of(cov)
    radii = np.abs(a)
    # ring radii are non-increasing block by block
    per_ring = radii.reshape(-1, n)
    assert (np.diff(per_ring[:, 0]) < 0).all()
    assert np.allclose(per_ring, per_ring[:, :1])
    angles = np.angle(a.reshape(-1, n)[0]) % (2 * np.pi)
    assert (np.diff(angles) > 0).all()


def test_custom_params_validation():
    with pytest.raises(ValueError):
        # rings shrink too fast for a single disk to span a band
        cover_annulus(0.5, 2.0, WhitneyDiskParams(ring_ratio=0.05))
    with pytest.raises(ValueError):
        WhitneyDiskParams(ring_ratio=1.2)


def test_near_one_delta_single_ring():
    cov = cover_annulus(0.95, 2.0)
    assert cov.meta["n_rings"] == 1
    pts = annulus_grid(0.95, 40, 200)[:, None]
    assert brute_covered(cov.charts, pts).all()


@pytest.mark.parametrize("scale", [1.0, "per-point", 5.0], ids=["unit", "per-point", "no-ring-bound"])
def test_ring_passes_equal_the_full_mask_passes(scale):
    """The passes yield the pairs of one full mask per ring offset, the same
    arrays in the same order, and the same pairs again when ``done`` is set
    between yields: ring windows do not read it."""
    rings = cover_annulus(1e-2, 2.0).charts
    rng = np.random.default_rng(8)
    z = 1.2 * np.sqrt(rng.random(600)) * np.exp(2j * np.pi * rng.random(600))
    z[::37], z[5::41], z[9::43], z[13] = np.nan, np.inf, complex(np.inf, np.nan), 0.0
    pts = z[:, None]
    s = 0.2 + rng.random(600) if scale == "per-point" else np.full(600, scale)
    got, want, settled = [], [], []
    for out, passes, settle in ((got, rings.passes, None),
                                (want, partial(ring_passes_full, rings), None),
                                (settled, rings.passes, slice(None, None, 3))):
        done = np.zeros(600, dtype=bool)
        for idx, j in passes(pts, s, done):
            out.append((idx.tolist(), j.tolist()))
            if settle is not None:
                done[idx[settle]] = True
    assert len(got) > 1 and got == want == settled

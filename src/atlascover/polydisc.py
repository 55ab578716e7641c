"""Coverings of the punctured polydisc Q_n^eta = {eta <= |x_i| <= 1 for all i}.

The construction is inductive in the dimension, one chart family per level:
level 1 is the family of the first axis (`cover_axis`) with factor gamma^n,
and level l+1 the `SuspendedCharts` of level l over the family of axis l+1
with beta = gamma, trading the factor gamma^(n-l+1) down to gamma^(n-l).
After n levels the family has factor exactly gamma and kappa equal to the
product of the per-level annulus counts; only it is wrapped in a `Covering`.

An axis without a puncture is covered by the one-chart unit disk (`cover_axis`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import (
    Covering,
    EtaParams,
    GammaTooSmall,
    NotARegularValue,
    PolydiscComplement,
    check_dimension,
    check_integer,
    check_positive,
)
from .suspension import SuspendedCharts, cover_axis, layer_zeta


@dataclass(frozen=True)
class LevelPlan:
    """One level of the induction: its factor budget and annulus size."""

    level: int
    axis_active: bool
    mu: float            # factor of the covering being extended (gamma^n at level 1)
    zeta: float          # factor of the level's layer disks (0 if unpunctured)
    annulus_count: int   # N_l, number of layer disks (1 if unpunctured)
    kappa: int           # chart count after this level, a Python int


@dataclass(frozen=True)
class PolydiscCoveringPlan:
    """Per-level bookkeeping of the induction; kappa_final = prod of counts."""

    n: int
    eta: float
    gamma: float
    levels: tuple = field(default_factory=tuple)

    @property
    def kappa_final(self) -> int:
        return self.levels[-1].kappa if self.levels else 0

    def to_dict(self) -> dict:
        return {**vars(self), "levels": [dict(vars(lv)) for lv in self.levels],
                "kappa": self.kappa_final}


def _normalize_axes(n: int, active_axes) -> frozenset:
    if active_axes is None:
        return frozenset(range(1, n + 1))
    axes = frozenset(active_axes)
    if not axes:
        raise ValueError("at least one axis must be punctured")
    return axes                 # `PolydiscComplement` checks that they are integers in range


def polydisc_plan(n: int, eta: float, gamma: float,
                  active_axes=None) -> PolydiscCoveringPlan:
    """Count-only mode: the plan the lazy construction records; no chart is built."""
    return cover_punctured_polydisc(n, eta, gamma, active_axes)[1]


def cover_punctured_polydisc(n: int, eta: float, gamma: float,
                             active_axes=None):
    """Build a gamma-doubling covering of Q_n^eta in C^n minus the punctured axes.

    Returns (covering, plan).  Level 1 is the family of the first axis, with
    factor gamma^n; each later level suspends the one below with beta = gamma.
    eta >= 1 yields the empty covering.  Chart storage is lazy: kappa grows
    like the product of the per-level counts, but construction cost does not,
    and no chart or ring table is built.  The plan records each level as it is
    built: the factor mu it extends, its layer family's factor and count, and
    kappa.
    """
    check_dimension(n)
    check_positive("eta", eta)
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if not gamma >= 2.0:
        raise GammaTooSmall(f"the induction requires gamma >= 2, got {gamma}")
    ambient = PolydiscComplement(n=n, active_axes=_normalize_axes(n, active_axes))
    axes = ambient.active_axes
    if eta >= 1.0:
        plan = PolydiscCoveringPlan(n=n, eta=float(eta), gamma=float(gamma))
        cov = Covering(ambient=ambient, gamma=float(gamma), charts=[],
                       meta={"construction": "punctured_polydisc", "eta": float(eta),
                             "n": n, "plan": plan.to_dict()})
        return cov, plan

    try:
        mu = gamma ** n
    except OverflowError:
        raise ValueError(f"gamma^dim = {gamma}^{n} overflows a float") from None

    def axis(level, zeta):              # a punctured level's rings, sized once
        try:
            return cover_axis(eta if level in axes else None, zeta)
        except ValueError as exc:       # only the ring sizing, which names zeta and why
            raise ValueError(f"gamma^dim = {gamma}^{n} is too large: the rings of level {level} "
                             f"cannot be sized, as {exc}") from None
    fam, levels = None, []
    for l in range(1, n + 1):           # mu: the factor of the family level l extends
        layers = axis(l, mu if fam is None else layer_zeta(mu, gamma))
        fam = layers if fam is None else SuspendedCharts(fam, layers, gamma)
        levels.append(LevelPlan(level=l, axis_active=l in axes, mu=mu,
                                zeta=layers.gamma if l in axes else 0.0,
                                annulus_count=layers.kappa, kappa=fam.kappa))
        mu = fam.gamma

    plan = PolydiscCoveringPlan(n=n, eta=float(eta), gamma=float(gamma),
                                levels=tuple(levels))
    meta = {
        "construction": "punctured_polydisc",
        "eta": float(eta),
        "gamma": float(gamma),
        "n": n,
        "plan": plan.to_dict(),
    }
    cov = Covering(ambient=ambient, gamma=fam.gamma, charts=fam, meta=meta)
    if abs(cov.gamma - gamma) > 1e-9:
        raise AssertionError("factor bookkeeping broke: final factor != gamma")
    return cov, plan


def eta_from_delta(delta: float, p: EtaParams) -> float:
    """Inner-radius parameter for a modulus tube: (c_lower * delta^d / C_unit)^(1/alpha0).

    Shrinking the polydisc by this eta guarantees the removed neighborhood of
    the coordinate cross lies inside the delta-tube of the zero set.
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be finite and positive, got {delta}")
    return (p.c_lower * delta ** p.d / p.C_unit) ** (1.0 / p.alpha0)


def level_lower_bound(c: complex, C_unit: float, alpha0: int) -> float:
    """Lower bound (|c| / C_unit)^(1/alpha0) on every coordinate along {x^alpha = c}.

    This is the eta of the base covering used for level hypersurfaces.
    """
    c = complex(c)
    if c == 0:
        raise NotARegularValue("0 is the singular value of a monomial")
    if not C_unit >= 1:
        raise ValueError("C_unit must be >= 1")
    check_integer("alpha0", alpha0)
    if alpha0 < 1:
        raise ValueError("alpha0 must be a positive integer")
    return (abs(c) / C_unit) ** (1.0 / alpha0)


def polydisc_bound(n: int, gamma: float, eta: float) -> float:
    """Reference chart-count value (9 gamma^n)^n (log(9 gamma^n / eta))^n."""
    g = 9.0 * gamma ** n
    return g ** n * math.log(g / eta) ** n

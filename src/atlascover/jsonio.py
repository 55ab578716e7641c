"""Stable JSON serialization for coverings and real-chart atlases.

Files are bit-reproducible for fixed inputs: keys are emitted in a fixed
order and floats use the shortest round-trip representation, so loading a
file reproduces the covering field for field.

Charts are written from the covering's (b, d) arrays.  On reading, the lazy
construction named by ``meta["construction"]`` is rebuilt, and kept with its
structural index, only when it reproduces every stored chart bit for bit;
any other file is read as the plain chart list it stores.  A file that does
not follow the schema raises `MalformedFile`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np

from .annulus import RingDisks
from .core import (
    AtlasError,
    Covering,
    DiagonalAffineChart,
    MalformedFile,
    MonomialLevelSet,
    PolydiscComplement,
    PuncturedPlane,
)
from .levelset import (
    LevelBranchCharts,
    MonomialLevelChart,
    cover_monomial_level_set,
    level_base_plan,
)
from .polydisc import cover_punctured_polydisc, polydisc_plan
from .real_acharts import MonomialData, RealAChart
from .suspension import chart_arrays

SCHEMA_VERSION = "1"


@contextmanager
def _reading(what: str):
    """Report a structural error while reading ``what`` as `MalformedFile`."""
    try:
        yield
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise MalformedFile(f"malformed {what}: {type(exc).__name__}: {exc}") from exc


def _c2j(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _j2c(v) -> complex:
    return complex(v[0], v[1])


def ambient_to_dict(ambient) -> dict:
    if isinstance(ambient, PuncturedPlane):
        return {"kind": "punctured_plane"}
    if isinstance(ambient, PolydiscComplement):
        return {"kind": "polydisc_complement", "n": ambient.n,
                "active_axes": sorted(ambient.active_axes)}
    if isinstance(ambient, MonomialLevelSet):
        return {"kind": "monomial_level_set", "alpha": list(ambient.alpha),
                "c": _c2j(ambient.c)}
    raise TypeError(f"unknown ambient {ambient!r}")


def ambient_from_dict(d: dict):
    kind = d["kind"]
    if kind == "punctured_plane":
        return PuncturedPlane()
    if kind == "polydisc_complement":
        return PolydiscComplement(n=d["n"], active_axes=frozenset(d["active_axes"]))
    if kind == "monomial_level_set":
        return MonomialLevelSet(alpha=tuple(d["alpha"]), c=_j2c(d["c"]))
    raise ValueError(f"unknown ambient kind {kind!r}")


def chart_to_dict(chart) -> dict:
    """One chart as stored in a covering file."""
    if isinstance(chart, DiagonalAffineChart):
        return {"kind": "diag_affine",
                "b": [_c2j(v) for v in chart.b],
                "d": [_c2j(v) for v in chart.d]}
    if isinstance(chart, MonomialLevelChart):
        return {"kind": "level_branch",
                "b": [_c2j(v) for v in chart.base.b],
                "d": [_c2j(v) for v in chart.base.d],
                "branch": chart.branch,
                "alpha": list(chart.alpha),
                "c": _c2j(chart.c)}
    raise TypeError(f"unknown chart {chart!r}")


def _jsonable(v):
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, np.bool_):
        return bool(v)
    return v


def _pairs(z: np.ndarray) -> np.ndarray:
    """Complex array -> float array with a trailing (re, im) axis."""
    return np.stack([z.real, z.imag], axis=-1)


def _charts_to_list(charts) -> list:
    """`chart_to_dict` of every chart, built from the (b, d) arrays."""
    level = isinstance(charts, LevelBranchCharts)
    b, d = chart_arrays(charts.base_cov.charts if level else charts)
    rows = zip(_pairs(b).tolist(), _pairs(d).tolist())
    if not level:
        return [{"kind": "diag_affine", "b": bi, "d": di} for bi, di in rows]
    alpha, c = list(charts.alpha), _c2j(charts.c)
    return [{"kind": "level_branch", "b": bi, "d": di, "branch": k,
             "alpha": alpha, "c": c}
            for bi, di in rows for k in range(charts.alpha1)]


def covering_to_dict(cov: Covering) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "ambient": ambient_to_dict(cov.ambient),
        "gamma": cov.gamma,
        "kappa": cov.kappa,
        "charts": _charts_to_list(cov.charts),
        "meta": _jsonable(cov.meta),
    }


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def _complex_array(rows: list, shape: tuple) -> np.ndarray:
    """Stored [re, im] pairs as a complex array of ``shape``, bit for bit."""
    arr = np.array(rows, dtype=float) if rows else np.zeros(shape + (2,))
    if arr.shape != shape + (2,):
        raise MalformedFile(f"expected [re, im] data of shape {shape}, got {arr.shape}")
    return arr.view(complex)[..., 0]


def _stored_arrays(charts: list, ambient):
    """(b, d) of the stored charts as complex arrays of shape (kappa, dim).

    Level-set charts are checked to be stored base-major, the branches
    0..alpha_1-1 of one base chart in a row, with the ambient's alpha and c;
    only the base charts' arrays are returned.
    """
    level = isinstance(ambient, MonomialLevelSet)
    kind = "level_branch" if level else "diag_affine"
    if any(ch["kind"] != kind for ch in charts):
        raise MalformedFile(f"every chart of this ambient must be {kind!r}")
    k = len(charts)
    shape = (k, ambient.dim - 1 if level else ambient.dim)
    b = _complex_array([ch["b"] for ch in charts], shape)
    d = _complex_array([ch["d"] for ch in charts], shape)
    if not level:
        return b, d
    a1 = ambient.alpha[0]
    grouped = (k // a1, a1, shape[1])
    if k and not (k % a1 == 0
                  and np.array_equal([ch["branch"] for ch in charts], np.arange(k) % a1)
                  and np.array_equal([ch["alpha"] for ch in charts],
                                     np.broadcast_to(ambient.alpha, (k, ambient.dim)))
                  and _same_bits(_complex_array([ch["c"] for ch in charts], (k,)),
                                 np.full(k, ambient.c))
                  and _same_bits(b.reshape(grouped), np.repeat(b[::a1, None], a1, axis=1))
                  and _same_bits(d.reshape(grouped), np.repeat(d[::a1, None], a1, axis=1))):
        raise MalformedFile(
            "level charts must be stored base-major with branches 0..alpha_1-1 "
            "of equal base data and the ambient's alpha and c")
    return b[::a1], d[::a1]


def _rebuild(meta: dict, ambient, gamma: float, b: np.ndarray, d: np.ndarray):
    """The charts of the construction ``meta`` names if they reproduce (b, d)
    bit for bit, else None.

    The construction's chart count is checked by count-only arithmetic first,
    so a meta that promises more charts than the file holds allocates nothing.
    """
    level = isinstance(ambient, MonomialLevelSet)
    kappa = b.shape[0] * (ambient.alpha[0] if level else 1)
    kind = meta.get("construction")
    try:
        if kind == "whitney_rings" and isinstance(ambient, PuncturedPlane):
            zeta, q = float(meta["zeta"]), float(meta["ring_ratio"])
            n_angles, n_rings = int(meta["n_angles"]), int(meta["n_rings"])
            if n_angles * n_rings != kappa or min(n_angles, n_rings) < 0:
                return None
            cov = Covering(ambient, zeta, RingDisks(zeta, q, n_angles, n_rings))
        elif kind == "punctured_polydisc" and isinstance(ambient, PolydiscComplement):
            args = (ambient.n, float(meta["eta"]), float(meta.get("gamma", gamma)),
                    ambient.active_axes)
            if polydisc_plan(*args).kappa_final != kappa:
                return None
            cov = cover_punctured_polydisc(*args)[0]
        elif kind == "monomial_level_graph" and level:
            args = (ambient.alpha, ambient.c, gamma)
            if ambient.alpha[0] * level_base_plan(*args).kappa_final != kappa:
                return None
            cov = cover_monomial_level_set(*args)
        else:
            return None
    except (AtlasError, ArithmeticError, KeyError, TypeError, ValueError):
        return None
    rb, rd = chart_arrays(cov.charts.base_cov.charts if level else cov.charts)
    if cov.gamma == gamma and _same_bits(rb, b) and _same_bits(rd, d):
        return cov.charts
    return None


def covering_from_dict(d: dict) -> Covering:
    with _reading("covering"):
        gamma = float(d["gamma"])
        ambient = ambient_from_dict(d["ambient"])
        meta = dict(d.get("meta") or {})
        b, dd = _stored_arrays(list(d["charts"]), ambient)
        charts = _rebuild(meta, ambient, gamma, b, dd)
        if charts is None:
            charts = [DiagonalAffineChart(b=x, d=y, gamma=gamma)
                      for x, y in zip(b.tolist(), dd.tolist())]
            if isinstance(ambient, MonomialLevelSet):
                base_cov = Covering(
                    ambient=PolydiscComplement(
                        n=ambient.dim - 1,
                        active_axes=frozenset(range(1, ambient.dim))),
                    gamma=gamma, charts=charts)
                charts = LevelBranchCharts(base_cov, ambient.alpha, ambient.c)
        cov = Covering(ambient=ambient, gamma=gamma, charts=charts, meta=meta)
        if cov.kappa != d.get("kappa", cov.kappa):
            raise MalformedFile("kappa field disagrees with the chart list")
    return cov


def dumps(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def write_covering(cov: Covering, path) -> None:
    text = dumps(covering_to_dict(cov))         # built first: no partial file on failure
    with open(path, "w") as fh:
        fh.write(text)


def read_covering(path) -> Covering:
    with open(path) as fh:
        return covering_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# real-chart atlases
# ---------------------------------------------------------------------------

def achart_atlas_to_dict(charts: list, data: MonomialData, eps: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "real_achart_atlas",
        "mu": list(data.exponents),
        "coefficient": data.coefficient,
        "eps": float(eps),
        "c3": charts[0].c3 if charts else None,
        "count": len(charts),
        "charts": [{"y": list(c.y), "z0": list(c.z0)} for c in charts],
    }


def achart_atlas_from_dict(d: dict):
    with _reading("a-chart atlas"):
        data = MonomialData(coefficient=d["coefficient"], exponents=tuple(d["mu"]))
        charts = [RealAChart(y=tuple(c["y"]), z0=tuple(c["z0"]), c3=d["c3"], data=data)
                  for c in d["charts"]]
        return charts, data, d["eps"]


def write_achart_atlas(charts, data, eps, path) -> None:
    text = dumps(achart_atlas_to_dict(charts, data, eps))
    with open(path, "w") as fh:
        fh.write(text)


def read_achart_atlas(path):
    with open(path) as fh:
        return achart_atlas_from_dict(json.load(fh))

"""Stable JSON serialization for coverings and real-chart atlases.

Files are bit-reproducible for fixed inputs: keys are emitted in a fixed
order and floats use the shortest round-trip representation, so loading a
file reproduces the covering field for field.

Schema 2 stores a covering's recipe alone when its charts are the lazy family
that ``meta["construction"]`` builds, and an a-chart atlas's when it is the
`GraphCharts` that ``cover_monomial_graph`` builds.  Reading calls that
construction on the inputs the file stores (an annulus: `cover_annulus`) and
checks kappa and every meta key (an atlas: count and c3).  Others, and any
under ``materialize``, list every chart (schema 1); their reader keeps the
rebuilt construction only if it reproduces every chart bit for bit.
Malformed files raise `MalformedFile`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np

from .annulus import WhitneyDiskParams, cover_annulus
from .core import (
    MATERIALIZE_BUDGET,
    AtlasError,
    Covering,
    DiagonalAffineChart,
    MalformedFile,
    MonomialLevelSet,
    PolydiscComplement,
    PuncturedPlane,
    family,
)
from .levelset import LevelBranchCharts, cover_monomial_level_set
from .polydisc import cover_punctured_polydisc
from .real_acharts import (
    GraphCharts,
    MonomialData,
    RealAChart,
    cover_monomial_graph,
    graph_c3,
    graph_grid_size,
)

SCHEMA_VERSION = "2"        # written for a covering or atlas that has a recipe


@contextmanager
def _reading(what: str):
    """Report a structural error while reading ``what`` as `MalformedFile`."""
    try:
        yield
    except (ArithmeticError, IndexError, KeyError, TypeError, ValueError) as exc:
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


def _affine(charts):
    """The family of diagonal affine charts under ``charts``: the base of a level family."""
    return charts._base if isinstance(charts, LevelBranchCharts) else family(charts)


def _charts_to_list(charts) -> list:
    """Every chart as a v1 file stores it, built from the (b, d) arrays."""
    rows = zip(*(_pairs(z).tolist() for z in _affine(charts).chart_arrays()))
    if not isinstance(charts, LevelBranchCharts):
        return [{"kind": "diag_affine", "b": bi, "d": di} for bi, di in rows]
    alpha, c = list(charts.alpha), _c2j(charts.c)
    return [{"kind": "level_branch", "b": bi, "d": di, "branch": k,
             "alpha": alpha, "c": c}
            for bi, di in rows for k in range(charts.alpha1)]


def covering_to_dict(cov: Covering) -> dict:
    """Schema 1: every chart, refused above `MATERIALIZE_BUDGET` before any is built."""
    if cov.kappa > MATERIALIZE_BUDGET:
        raise AtlasError(f"{cov.kappa} charts are too many to list; write the recipe")
    return {
        "schema_version": "1",
        "ambient": ambient_to_dict(cov.ambient),
        "gamma": cov.gamma,
        "kappa": cov.kappa,
        "charts": _charts_to_list(cov.charts),
        "meta": _jsonable(cov.meta),
    }


def recipe_to_dict(cov: Covering) -> dict | None:
    """Schema 2: the recipe alone, or None when the charts are not the family
    that ``cov.meta``'s construction builds.  The family types must match, so
    `==` compares recipes and never scans charts."""
    meta = _jsonable(cov.meta)
    try:
        built = _construction(cov.meta, cov.ambient, cov.gamma, cov.kappa)
    except (AtlasError, ArithmeticError, KeyError, TypeError, ValueError):
        return None
    if not (type(_affine(built.charts)) is type(_affine(cov.charts))
            and built == cov and _jsonable(built.meta) == meta):
        return None
    return {"schema_version": SCHEMA_VERSION, "ambient": ambient_to_dict(cov.ambient),
            "gamma": cov.gamma, "kappa": cov.kappa, "meta": meta}


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def _float_array(rows: list, shape: tuple) -> np.ndarray:
    """Stored numbers as a float array of ``shape``, bit for bit."""
    arr = np.array(rows, dtype=float) if rows else np.zeros(shape)
    if arr.shape != shape:
        raise MalformedFile(f"expected data of shape {shape}, got {arr.shape}")
    return arr


def _complex_array(rows: list, shape: tuple) -> np.ndarray:
    """Stored [re, im] pairs as a complex array of ``shape``, bit for bit."""
    return _float_array(rows, shape + (2,)).view(complex)[..., 0]


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


def _construction(meta: dict, ambient, gamma: float, kappa) -> Covering:
    """The covering that the construction named in ``meta`` builds on ``ambient``
    from the inputs ``meta`` stores, checked to have ``kappa`` charts and factor
    ``gamma``.  Building lists no chart, and `RingDisks` refuses a ring table
    over the budget."""
    kind = meta.get("construction")
    if kind == "whitney_rings" and isinstance(ambient, PuncturedPlane):
        cov = cover_annulus(float(meta["delta"]), float(meta["zeta"]),
                            WhitneyDiskParams(float(meta["ring_ratio"])))
    elif kind == "punctured_polydisc" and isinstance(ambient, PolydiscComplement):
        cov = cover_punctured_polydisc(ambient.n, float(meta["eta"]),
                                       float(meta.get("gamma", gamma)), ambient.active_axes)[0]
    elif kind == "monomial_level_graph" and isinstance(ambient, MonomialLevelSet):
        cov = cover_monomial_level_set(ambient.alpha, ambient.c, gamma)
    else:
        raise MalformedFile(f"no construction {kind!r} for {ambient!r}")
    if cov.kappa != kappa:
        raise MalformedFile(f"the recipe builds {cov.kappa} charts, not kappa={kappa}")
    if cov.gamma != gamma:
        raise MalformedFile(f"the recipe builds factor {cov.gamma}, not gamma={gamma}")
    return cov


def _rebuild(meta: dict, ambient, gamma: float, b: np.ndarray, d: np.ndarray):
    """The charts of the construction ``meta`` names if they reproduce (b, d)
    bit for bit, else None."""
    kappa = b.shape[0] * (ambient.alpha[0] if isinstance(ambient, MonomialLevelSet) else 1)
    try:
        cov = _construction(meta, ambient, gamma, kappa)
    except (AtlasError, ArithmeticError, KeyError, TypeError, ValueError):
        return None
    rb, rd = _affine(cov.charts).chart_arrays()
    return cov.charts if _same_bits(rb, b) and _same_bits(rd, d) else None


def covering_from_dict(d: dict) -> Covering:
    with _reading("covering"):
        version = d["schema_version"]
        gamma = float(d["gamma"])
        ambient = ambient_from_dict(d["ambient"])
        meta = dict(d.get("meta") or {})
        if version == SCHEMA_VERSION:
            if "charts" in d:
                raise MalformedFile("a schema-2 covering stores its recipe, not charts")
            cov = _construction(meta, ambient, gamma, d["kappa"])
            if _jsonable(cov.meta) != meta:
                raise MalformedFile("meta disagrees with the one its construction builds")
            return cov
        if version != "1":
            raise MalformedFile(f"unknown covering schema_version {version!r}")
        b, dd = _stored_arrays(list(d["charts"]), ambient)
        charts = _rebuild(meta, ambient, gamma, b, dd)
        if charts is None:
            charts = [DiagonalAffineChart(b=x, d=y, gamma=gamma)
                      for x, y in zip(b.tolist(), dd.tolist())]
            if isinstance(ambient, MonomialLevelSet):
                base = PolydiscComplement(ambient.dim - 1, range(1, ambient.dim))
                charts = LevelBranchCharts(Covering(base, gamma, charts), ambient.alpha, ambient.c)
        cov = Covering(ambient=ambient, gamma=gamma, charts=charts, meta=meta)
        if cov.kappa != d.get("kappa", cov.kappa):
            raise MalformedFile("kappa field disagrees with the chart list")
    return cov


def dumps(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def write_covering(cov: Covering, path, materialize: bool = False) -> None:
    """Write ``cov`` as its recipe (schema 2) when it has one; otherwise, or
    with ``materialize``, as its chart list (schema 1)."""
    d = None if materialize else recipe_to_dict(cov)
    text = dumps(d or covering_to_dict(cov))    # built first: no partial file on failure
    with open(path, "w") as fh:
        fh.write(text)


def read_covering(path) -> Covering:
    with open(path) as fh:
        return covering_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# real-chart atlases
# ---------------------------------------------------------------------------

def _achart_header(version: str, data: MonomialData, eps: float, c3, count: int) -> dict:
    return {"schema_version": version, "kind": "real_achart_atlas",
            "mu": list(data.exponents), "coefficient": data.coefficient,
            "eps": float(eps), "c3": c3, "count": count}


def achart_atlas_to_dict(charts, data: MonomialData, eps: float) -> dict:
    """Schema 1: every chart's (y, z0), read off the arrays of a `GraphCharts`."""
    if isinstance(charts, GraphCharts):
        rows = zip(*(a.tolist() for a in charts.graph_arrays()))
        c3 = charts.c3 if len(charts) else None
    else:
        rows = ((list(c.y), list(c.z0)) for c in charts)
        c3 = charts[0].c3 if charts else None
    d = _achart_header("1", data, eps, c3, len(charts))
    d["charts"] = [{"y": y, "z0": z0} for y, z0 in rows]
    return d


def achart_recipe_to_dict(charts, data: MonomialData, eps: float) -> dict | None:
    """Schema 2: the recipe alone, or None when ``charts`` are not the family
    that ``cover_monomial_graph(data, eps)`` builds (compared by recipe)."""
    if not (isinstance(charts, GraphCharts) and charts.data == data
            and charts.eps == float(eps)):
        return None
    try:
        built = cover_monomial_graph(data, eps)
    except (AtlasError, ArithmeticError, TypeError, ValueError):
        return None
    if built != charts:
        return None
    return _achart_header(SCHEMA_VERSION, data, eps, built.c3, len(built))


def _graph_of_size(data: MonomialData, eps, c3, count):
    """``cover_monomial_graph(data, eps)`` if its C3 is ``c3`` and it has
    ``count`` charts, else None.  C3, and the count against the grid sizes
    (a multiple of the offset tuples, at most the boxes times them), are
    checked before anything is built, so a file that names a family other
    than its own builds none of it; one over the budget is refused unbuilt."""
    try:
        if c3 != graph_c3(data):
            return None
        n_boxes, n_tuples = graph_grid_size(data, eps, c3)
        if count % n_tuples or count > n_boxes * n_tuples:
            return None
        charts = cover_monomial_graph(data, eps)
    except (AtlasError, ArithmeticError, TypeError, ValueError):
        return None
    return charts if len(charts) == count else None


def _rebuild_graph(data: MonomialData, eps, c3, rows: list):
    """``cover_monomial_graph(data, eps)`` if it reproduces the stored charts
    (C3 and the (y, z0) arrays) bit for bit, else None."""
    charts = _graph_of_size(data, eps, c3, len(rows))
    if charts is None:
        return None
    shape = (len(rows), data.m)
    y = _float_array([r["y"] for r in rows], shape)
    z0 = _float_array([r["z0"] for r in rows], shape)
    same = all(_same_bits(a, b) for a, b in zip(charts.graph_arrays(), (y, z0)))
    return charts if same else None


def achart_atlas_from_dict(d: dict):
    """(charts, data, eps) of an atlas file.  Schema 2 rebuilds the family and
    checks ``count`` and ``c3``; schema 1 is that family when its charts
    reproduce it, else a list of `RealAChart` (an empty one for no charts)."""
    with _reading("a-chart atlas"):
        version = d["schema_version"]
        if d["kind"] != "real_achart_atlas":
            raise MalformedFile(f"not an a-chart atlas: kind {d['kind']!r}")
        data = MonomialData(coefficient=d["coefficient"], exponents=tuple(d["mu"]))
        eps = d["eps"]
        if version == SCHEMA_VERSION:
            if "charts" in d:
                raise MalformedFile("a schema-2 atlas stores its recipe, not charts")
            charts = _graph_of_size(data, eps, d["c3"], d["count"])
            if charts is None:
                raise MalformedFile(f"the recipe builds no family of count={d['count']} "
                                    f"charts with c3={d['c3']} within the budget")
            return charts, data, eps
        if version != "1":
            raise MalformedFile(f"unknown atlas schema_version {version!r}")
        rows = list(d["charts"])
        if d["count"] != len(rows):
            raise MalformedFile(f"count={d['count']} but {len(rows)} chart rows")
        charts = _rebuild_graph(data, eps, d["c3"], rows) if rows else None
        if charts is None:
            charts = [RealAChart(y=tuple(c["y"]), z0=tuple(c["z0"]), c3=d["c3"], data=data)
                      for c in rows]
        return charts, data, eps


def write_achart_atlas(charts, data, eps, path, materialize: bool = False) -> None:
    """Write the atlas as its recipe (schema 2) when it has one; otherwise,
    or with ``materialize``, as its chart list (schema 1)."""
    d = None if materialize else achart_recipe_to_dict(charts, data, eps)
    text = dumps(d or achart_atlas_to_dict(charts, data, eps))
    with open(path, "w") as fh:
        fh.write(text)


def read_achart_atlas(path):
    with open(path) as fh:
        return achart_atlas_from_dict(json.load(fh))

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
rebuilt construction only if it reproduces every chart bit for bit, and a
covering's its meta too (else the family of the stored rows: `chart_rows`, or
an atlas's `GraphCharts.listed`).  Malformed files, and header values or row
entries of another JSON type, raise `MalformedFile`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np

from .annulus import WhitneyDiskParams, cover_annulus
from .core import (
    AtlasError,
    Covering,
    MalformedFile,
    MonomialLevelSet,
    PolydiscComplement,
    PuncturedPlane,
    ambient_from_dict,
    chart_rows,
    check_budget,
    json_number,
    json_numbers,
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


def _jsonable(v):
    """``v`` as its JSON text reads back: tuples as lists, numpy scalars as Python numbers."""
    return json.loads(json.dumps(v, default=np.generic.item))


def _pairs(z: np.ndarray) -> np.ndarray:
    """Complex array -> float array with a trailing (re, im) axis."""
    return np.stack([z.real, z.imag], axis=-1)


def _charts_to_list(cov: Covering) -> list:
    """Every chart as a v1 file stores it: per branch of each affine chart under them
    (`ChartFamily.base`), its (b, d) and that branch's fields."""
    amb = cov.ambient
    kind, fields = amb.chart_kind, _STORED[amb.chart_kind]["fields"]
    branches = [fields(amb, k) for k in range(amb.branches)]
    rows = zip(*(_pairs(z).tolist() for z in cov.charts.base.chart_arrays()))
    return [{"kind": kind, "b": bi, "d": di, **f} for bi, di in rows for f in branches]


def _header(version: str, cov: Covering) -> dict:
    return {"schema_version": version, "ambient": cov.ambient.to_dict(),
            "gamma": cov.gamma, "kappa": cov.kappa}


def covering_to_dict(cov: Covering) -> dict:
    """Schema 1: every chart, refused over the budget (`check_budget`) before any is built."""
    check_budget(cov.kappa, "listed charts")
    return {**_header("1", cov), "charts": _charts_to_list(cov), "meta": _jsonable(cov.meta)}


def recipe_to_dict(cov: Covering) -> dict | None:
    """Schema 2: the recipe alone, or None when the charts are not the family
    that ``cov.meta``'s construction builds.  The family types must match, so
    `==` compares recipes and never scans charts."""
    meta = _jsonable(cov.meta)
    try:
        built = _construction(meta, cov.ambient, cov.gamma, cov.kappa)
    except (AtlasError, ArithmeticError, KeyError, TypeError, ValueError):
        return None
    if not (type(built.charts.base) is type(cov.charts.base) and built == cov):
        return None
    return {**_header(SCHEMA_VERSION, cov), "meta": meta}


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def _float_array(rows: list, shape: tuple) -> np.ndarray:
    """Stored numbers as a float array of ``shape``, bit for bit; an entry that
    is not a JSON number (a string, a bool) raises `TypeError`."""
    arr = np.array(rows, dtype=object) if rows else np.zeros(shape)
    if arr.shape != shape:
        raise MalformedFile(f"expected data of shape {shape}, got {arr.shape}")
    if not set(map(type, arr.ravel().tolist())) <= {float, int}:
        raise TypeError(f"expected numbers in data of shape {shape}")
    return arr.astype(float)


def _complex_array(rows: list, shape: tuple) -> np.ndarray:
    """Stored [re, im] pairs as a complex array of ``shape``, bit for bit."""
    return _float_array(rows, shape + (2,)).view(complex)[..., 0]


def _rows(charts: list, ambient, dim: int) -> tuple:
    """(b, d) of stored charts of the ambient's `chart_kind`, of shape (len(charts), dim)."""
    kind = ambient.chart_kind
    if any(ch["kind"] != kind for ch in charts):
        raise MalformedFile(f"every chart of this ambient must be {kind!r}")
    shape = (len(charts), dim)
    return (_complex_array([ch["b"] for ch in charts], shape),
            _complex_array([ch["d"] for ch in charts], shape))


def _level_rows(charts: list, ambient) -> tuple:
    """(b, d) of the base charts of a level set's stored charts, checked to be
    stored base-major, the branches 0..alpha_1-1 of one base chart in a row,
    with the ambient's alpha and c."""
    b, d = _rows(charts, ambient, ambient.dim - 1)
    k, a1 = len(charts), ambient.branches
    grouped = (k // a1, a1, b.shape[1])
    if k and not (k % a1 == 0
                  and np.array_equal([ch["branch"] for ch in charts], np.arange(k) % a1)
                  and np.array_equal([ch["alpha"] for ch in charts],
                                     np.broadcast_to(ambient.alpha, (k, ambient.dim)))
                  and _same_bits(_complex_array([ch["c"] for ch in charts], (k,)),
                                 np.full(k, ambient.c))
                  and all(_same_bits(x.reshape(grouped), np.repeat(x[::a1, None], a1, axis=1))
                          for x in (b, d))):
        raise MalformedFile(
            "level charts must be stored base-major with branches 0..alpha_1-1 "
            "of equal base data and the ambient's alpha and c")
    return b[::a1], d[::a1]


# chart kind: how a schema-1 file stores such charts: "rows", the checked (b, d) of the affine
# charts under them; "fields", the rest of a chart of branch k; "charts", the charts over the
# family of those rows
_STORED = {
    "diag_affine": {"rows": lambda charts, ambient: _rows(charts, ambient, ambient.dim),
                    "fields": lambda ambient, k: {},
                    "charts": lambda ambient, gamma, rows: rows},
    "level_branch": {"rows": _level_rows,
                     "fields": lambda ambient, k: {"branch": k, "alpha": list(ambient.alpha),
                                                   "c": [ambient.c.real, ambient.c.imag]},
                     "charts": lambda ambient, gamma, rows: LevelBranchCharts(
                         Covering(ambient.base, gamma, rows), ambient.alpha, ambient.c)},
}


# construction name: (the kind of ambient it builds on, its build from meta, ambient and gamma)
_CONSTRUCTIONS = {
    "whitney_rings": (PuncturedPlane.kind, lambda meta, ambient, gamma: cover_annulus(
        json_number(meta["delta"]), json_number(meta["zeta"]),
        WhitneyDiskParams(json_number(meta["ring_ratio"])))),
    "punctured_polydisc": (PolydiscComplement.kind, lambda meta, ambient, gamma:
                           cover_punctured_polydisc(ambient.n, json_number(meta["eta"]),
                                                    json_number(meta.get("gamma", gamma)),
                                                    ambient.active_axes)[0]),
    "monomial_level_graph": (MonomialLevelSet.kind, lambda meta, ambient, gamma:
                             cover_monomial_level_set(ambient.alpha, ambient.c, gamma)),
}


def _construction(meta: dict, ambient, gamma: float, kappa) -> Covering:
    """The covering that the construction named in ``meta`` builds on ``ambient``
    from the inputs ``meta`` stores, checked to have ``kappa`` charts, factor
    ``gamma`` and the meta ``meta`` (as JSON reads it back).  Building lists no
    chart, and `RingDisks` refuses a ring table over the budget."""
    kind = meta.get("construction")
    needs, build = _CONSTRUCTIONS.get(str(kind), (None, None))  # str: a file may hold a list
    if needs != ambient.kind:
        raise MalformedFile(f"no construction {kind!r} for {ambient!r}")
    cov = build(meta, ambient, gamma)
    if cov.kappa != kappa:
        raise MalformedFile(f"the recipe builds {cov.kappa} charts, not kappa={kappa}")
    if cov.gamma != gamma:
        raise MalformedFile(f"the recipe builds factor {cov.gamma}, not gamma={gamma}")
    if _jsonable(cov.meta) != meta:
        raise MalformedFile("meta disagrees with the one its construction builds")
    return cov


def _rebuild(meta: dict, ambient, gamma: float, b: np.ndarray, d: np.ndarray):
    """The construction's charts if they reproduce (b, d) bit for bit and its
    meta is ``meta``, else None."""
    try:
        cov = _construction(meta, ambient, gamma, b.shape[0] * ambient.branches)
    except (AtlasError, ArithmeticError, KeyError, TypeError, ValueError):
        return None
    rb, rd = cov.charts.base.chart_arrays()
    return cov.charts if _same_bits(rb, b) and _same_bits(rd, d) else None


def covering_from_dict(d: dict) -> Covering:
    with _reading("covering"):
        version = d["schema_version"]
        gamma = json_number(d["gamma"])
        ambient = ambient_from_dict(d["ambient"])
        meta = dict(d.get("meta") or {})
        if version == SCHEMA_VERSION:
            if "charts" in d:
                raise MalformedFile("a schema-2 covering stores its recipe, not charts")
            return _construction(meta, ambient, gamma, json_number(d["kappa"], integral=True))
        if version != "1":
            raise MalformedFile(f"unknown covering schema_version {version!r}")
        b, dd = _STORED[ambient.chart_kind]["rows"](list(d["charts"]), ambient)
        charts = _rebuild(meta, ambient, gamma, b, dd)
        if charts is None:
            charts = _STORED[ambient.chart_kind]["charts"](ambient, gamma, chart_rows(b, dd, gamma))
        cov = Covering(ambient=ambient, gamma=gamma, charts=charts, meta=meta)
        if cov.kappa != json_number(d.get("kappa", cov.kappa), integral=True):
            raise MalformedFile("kappa field disagrees with the chart list")
    return cov


def dumps(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _write(path, d: dict) -> None:
    """Write ``d`` as its `dumps` text, built before the file is opened: a
    refusal, here or in building ``d``, leaves no file."""
    text = dumps(d)
    with open(path, "w") as fh:
        fh.write(text)


def write_covering(cov: Covering, path, materialize: bool = False) -> None:
    """Write ``cov`` as its recipe (schema 2) when it has one; otherwise, or
    with ``materialize``, as its chart list (schema 1)."""
    _write(path, (None if materialize else recipe_to_dict(cov)) or covering_to_dict(cov))


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
    """Schema 1: every chart's (y, z0), read off the family's arrays.  The header states
    C3 and the data once: charts of two C3 values, or not of ``data``, raise `ValueError`."""
    charts = GraphCharts.listed(charts, data)
    if len(charts) and charts.data != data:
        raise ValueError(f"charts of one atlas must share its monomial data {data} and one C3")
    d = _achart_header("1", data, eps, charts.c3 if len(charts) else None, len(charts))
    rows = zip(*(a.tolist() for a in charts.graph_arrays()))
    d["charts"] = [{"y": y, "z0": z0} for y, z0 in rows]
    return d


def achart_recipe_to_dict(charts, data: MonomialData, eps: float) -> dict | None:
    """Schema 2: the recipe alone, or None when ``charts`` are not the family
    that ``cover_monomial_graph(data, eps)`` builds (compared by recipe)."""
    charts = GraphCharts.listed(charts, data)
    built = _graph_of_size(data, eps, charts.c3, len(charts)) if charts.eps == float(eps) else None
    if built is None or built != charts:
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


def achart_atlas_from_dict(d: dict):
    """(charts, data, eps) of an atlas file, the charts a `GraphCharts`.  Schema 2
    rebuilds the family and checks ``count`` and ``c3``; schema 1 is that family
    when its charts reproduce it, else the `GraphCharts.listed` form of its rows."""
    with _reading("a-chart atlas"):
        version = d["schema_version"]
        if d["kind"] != "real_achart_atlas":
            raise MalformedFile(f"not an a-chart atlas: kind {d['kind']!r}")
        data = MonomialData(json_number(d["coefficient"]), json_numbers(d["mu"]))
        eps, count = json_number(d["eps"]), json_number(d["count"], integral=True)
        c3 = None if d["c3"] is None else json_number(d["c3"])
        if version == SCHEMA_VERSION:
            if "charts" in d:
                raise MalformedFile("a schema-2 atlas stores its recipe, not charts")
            charts = _graph_of_size(data, eps, c3, count)
            if charts is None:
                raise MalformedFile(f"the recipe builds no family of count={count} "
                                    f"charts with c3={c3} within the budget")
            return charts, data, eps
        if version != "1":
            raise MalformedFile(f"unknown atlas schema_version {version!r}")
        rows = list(d["charts"])
        if count != len(rows):
            raise MalformedFile(f"count={count} but {len(rows)} chart rows")
        y, z0 = (_float_array([c[key] for c in rows], (count, data.m)) for key in ("y", "z0"))
        charts = _graph_of_size(data, eps, c3, count) if rows else None
        if charts is None or not all(     # the stored rows must be the family's bit for bit
                _same_bits(a, b) for a, b in zip(charts.graph_arrays(), (y, z0))):
            charts = GraphCharts.listed([RealAChart(y=yi, z0=zi, c3=c3, data=data)
                                         for yi, zi in zip(y.tolist(), z0.tolist())], data)
        return charts, data, eps


def write_achart_atlas(charts, data, eps, path, materialize: bool = False) -> None:
    """Write the atlas as its recipe (schema 2) when it has one; otherwise,
    or with ``materialize``, as its chart list (schema 1)."""
    charts = GraphCharts.listed(charts, data)
    _write(path, (None if materialize else achart_recipe_to_dict(charts, data, eps))
           or achart_atlas_to_dict(charts, data, eps))


def read_achart_atlas(path):
    with open(path) as fh:
        return achart_atlas_from_dict(json.load(fh))

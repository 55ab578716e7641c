"""The benchmark's tracer hooks and workload calls name what exists in the package.

`bench/tracing.py` patches functions and methods by name when a traced run
starts, and `bench/workloads.py` calls through module attributes; a name lost
in a refactor would only show up there, as an `AttributeError` or `KeyError`
in a benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from atlascover import verify
from atlascover.annulus import RingDisks
from atlascover.core import tolerance
from atlascover.polydisc import cover_punctured_polydisc

BENCH = Path(__file__).resolve().parents[1] / "bench"
_spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("mod, attr, kind, _", tracing.FUNCTIONS,
                         ids=[f"{m}.{a}" for m, a, _, _ in tracing.FUNCTIONS])
def test_function_hooks_resolve(mod, attr, kind, _):
    fn = getattr(importlib.import_module(f"atlascover.{mod}"), attr)
    assert callable(fn)
    if kind == "gen":
        assert inspect.isgeneratorfunction(fn)


@pytest.mark.parametrize("mod, cls, attr, kind, _", tracing.METHODS,
                         ids=[f"{m}.{c}.{a}" for m, c, a, _, _ in tracing.METHODS])
def test_method_hooks_resolve(mod, cls, attr, kind, _):
    owner = getattr(importlib.import_module(f"atlascover.{mod}"), cls)
    fn = owner.__dict__[attr]               # the tracer patches the class's own attribute
    assert callable(fn)
    if kind == "gen":
        assert inspect.isgeneratorfunction(fn)


@pytest.mark.parametrize("eta, open_slabs", [(0.5, 0), (0.4, 6)], ids=["settled", "open"])
def test_coverage_calls_covers_points_once_per_random_range(eta, open_slabs, monkeypatch):
    """`suspension.covers_points.calls` reads one call per `POINT_BLOCK` random
    samples of `check_coverage`, plus one per grid slab whose anchor pass
    (`ChartFamily._grid_hits`) leaves rows open, none for a slab it settles:
    no level of a suspension calls it again.  The 4^6 grid rows are 6 slabs
    at 1,000 rows a block; the eta = 0.4 region leaves rows open in each."""
    calls = []
    covers_points = verify.covers_points
    monkeypatch.setattr(verify, "covers_points", lambda *a, **k: calls.append(1) or covers_points(*a, **k))
    monkeypatch.setattr(verify, "POINT_BLOCK", 1000)
    cov, region = cover_punctured_polydisc(3, 0.5, 2.0)[0], verify.PolydiscRegion(eta, 3)
    rep = verify.check_coverage(cov, region, 3000, 5)
    grid = region.grid(3000)
    g = verify._grid_rows(grid)
    left = [not cov.charts._grid_hits(verify._slab_points(grid, slab), np.ones(1), tolerance(None)).all()
            for _, _, slab in verify._slabs(grid, 0, g, 1000)]
    assert rep.passed == (eta == 0.5) and rep.samples_total - g == 1500
    assert len(left) == 6 and sum(left) == open_slabs
    assert len(calls) == 2 + open_slabs


def test_coverage_anchors_the_grid_once_per_axis_point(monkeypatch):
    """A 200,000-sample n=3, eta=0.3 check anchors (`RingDisks._anchors`) at
    most n points per random row plus, per grid slab, the points of its axes:
    anchoring the 7^6 grid rows one by one, as the row path does, would add
    3 x 117,649."""
    seen = []
    anchors = RingDisks._anchors
    monkeypatch.setattr(RingDisks, "_anchors", lambda self, z: seen.append(z.size) or anchors(self, z))
    region = verify.PolydiscRegion(0.3, 3)
    rep = verify.check_coverage(cover_punctured_polydisc(3, 0.3, 2.0)[0], region, 200_000, 0)
    grid = region.grid(200_000)
    g = verify._grid_rows(grid)
    slabs = list(verify._slabs(grid, 0, g, verify.POINT_BLOCK))
    assert rep.passed and g == 7 ** 6 and rep.samples_total - g == 100_000
    assert sum(seen) <= 100_000 * 3 + len(slabs) * sum(r.size * t.size for r, t in grid)


def test_tracer_installs_and_restores():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer._saved
    finally:
        tracer.uninstall()
    assert not tracer._saved


def _workload_reads():
    """The atlascover modules `bench/workloads.py` imports, and (module,
    attribute) of every ``module.attr`` it reads from them, by an AST walk."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "atlascover"
               for a in node.names}
    return modules, sorted({(node.value.id, node.attr) for node in ast.walk(tree)
                            if isinstance(node, ast.Attribute)
                            and isinstance(node.value, ast.Name) and node.value.id in modules})


WORKLOAD_MODULES, WORKLOAD_READS = _workload_reads()


@pytest.mark.parametrize("mod, attr", WORKLOAD_READS, ids=[f"{m}.{a}" for m, a in WORKLOAD_READS])
def test_workload_reads_resolve(mod, attr):
    assert hasattr(importlib.import_module(f"atlascover.{mod}"), attr)


def test_every_imported_module_is_read():
    assert WORKLOAD_MODULES and {m for m, _ in WORKLOAD_READS} == WORKLOAD_MODULES

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

import pytest

from atlascover import verify
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


def test_coverage_calls_covers_points_once_per_block(monkeypatch):
    """`suspension.covers_points.calls` reads one call per `POINT_BLOCK` samples
    of `check_coverage`: no level of a suspension calls it again."""
    calls = []
    covers_points = verify.covers_points
    monkeypatch.setattr(verify, "covers_points", lambda *a, **k: calls.append(1) or covers_points(*a, **k))
    monkeypatch.setattr(verify, "POINT_BLOCK", 1000)
    rep = verify.check_coverage(cover_punctured_polydisc(3, 0.5, 2.0)[0], verify.PolydiscRegion(0.5, 3), 3000, 5)
    assert rep.passed and rep.samples_total > 3000
    assert len(calls) == -(-rep.samples_total // 1000)


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

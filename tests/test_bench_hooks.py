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

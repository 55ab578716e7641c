"""The benchmark tracer's hooks name callables that exist in the package.

`bench/tracing.py` patches functions and methods by name when a traced run
starts; a name lost in a refactor would only show up there, as an
`AttributeError` or `KeyError` at install time.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
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

"""Guard for the ambient, region and chart-family protocols: no library
module tells an ambient or a sample region apart by an `isinstance` test, and
`verify` and `jsonio` do not test for `LevelBranchCharts`.  Each type answers
for itself (`kind`, `punctured_axes`, `fits`, `rows`, `_pair_witnesses`), so a
new ambient adds a type, not a branch in every module.

It also guards the one ball rule: no library module defines the helpers that
once emulated CPython's complex division, libm ``hypot``/``pow`` and
left-to-right ``sum`` in numpy, or reaches for numpy's ``hypot`` or
``float_power``, so membership and the chain witnesses stay plain numpy."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "atlascover"
PROTOCOL_TYPES = {"PuncturedPlane", "PolydiscComplement", "MonomialLevelSet",
                  "AnnulusRegion", "PolydiscRegion", "LevelGraphRegion"}
FAMILY_BLIND = {"verify.py": {"LevelBranchCharts"}, "jsonio.py": {"LevelBranchCharts"}}
EMULATION_HELPERS = {"_abs", "_complex", "_quot", "_rowsum", "_norm"}
EMULATION_CALLS = {"hypot", "float_power"}


def isinstance_tests(source: str, banned: set) -> list:
    """(line, names) of each ``isinstance(x, T)`` call whose class argument
    (a name, an attribute or a tuple of them) names a type in ``banned``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.args[1])
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if names & banned:
                hits.append((node.lineno, sorted(names & banned)))
    return hits


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_isinstance_on_protocol_types(path):
    banned = PROTOCOL_TYPES | FAMILY_BLIND.get(path.name, set())
    assert isinstance_tests(path.read_text(), banned) == []


def test_guard_finds_each_spelling():
    source = ("isinstance(a, PuncturedPlane)\n"
              "isinstance(a, (int, core.PolydiscRegion))\n"
              "isinstance(a, LevelBranchCharts)\n"
              "isinstance(a, dict)\n")
    assert isinstance_tests(source, PROTOCOL_TYPES) == [
        (1, ["PuncturedPlane"]), (2, ["PolydiscRegion"])]
    assert isinstance_tests(source, PROTOCOL_TYPES | {"LevelBranchCharts"})[-1] == (
        3, ["LevelBranchCharts"])


def emulation_spellings(source: str) -> list:
    """(line, name) of each definition of an `EMULATION_HELPERS` name (a
    ``def`` or an assignment) and each use of numpy's `EMULATION_CALLS`
    (``np.hypot``, ``numpy.float_power`` or a name imported from numpy)."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in EMULATION_HELPERS:
            hits.append((node.lineno, node.name))
        elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                and node.id in EMULATION_HELPERS):
            hits.append((node.lineno, node.id))
        elif (isinstance(node, ast.Attribute) and node.attr in EMULATION_CALLS
                and isinstance(node.value, ast.Name) and node.value.id in {"np", "numpy"}):
            hits.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            hits += [(node.lineno, a.name) for a in node.names if a.name in EMULATION_CALLS]
    return sorted(hits)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_rounding_emulation(path):
    assert emulation_spellings(path.read_text()) == []


def test_emulation_guard_finds_each_spelling():
    source = ("def _abs(z): pass\n"
              "def _complex(re, im): pass\n"
              "_quot = lambda a, b: a / b\n"
              "async def _rowsum(x): pass\n"
              "def _norm(z): return np.hypot(z.real, z.imag)\n"
              "y = numpy.float_power(x, 2.0)\n"
              "from numpy import hypot, sqrt\n"
              "def _norm2(z): return math.hypot(*z) + np.abs(z) + _abs(z)\n")
    assert emulation_spellings(source) == [
        (1, "_abs"), (2, "_complex"), (3, "_quot"), (4, "_rowsum"), (5, "_norm"),
        (5, "np.hypot"), (6, "numpy.float_power"), (7, "hypot")]

"""Guard for the ambient, region and chart-family protocols: no library
module tells an ambient or a sample region apart by an `isinstance` test, and
`verify` and `jsonio` do not test for `LevelBranchCharts`.  Each type answers
for itself (`kind`, `punctured_axes`, `fits`, `rows`, `_pair_witnesses`), so a
new ambient adds a type, not a branch in every module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "atlascover"
PROTOCOL_TYPES = {"PuncturedPlane", "PolydiscComplement", "MonomialLevelSet",
                  "AnnulusRegion", "PolydiscRegion", "LevelGraphRegion"}
FAMILY_BLIND = {"verify.py": {"LevelBranchCharts"}, "jsonio.py": {"LevelBranchCharts"}}


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

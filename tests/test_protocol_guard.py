"""Guard for the ambient, region and chart-family protocols: no library
module tells an ambient or a sample region apart by an `isinstance` test, and
`verify` and `jsonio` do not test for `LevelBranchCharts`.  Each type answers
for itself (`kind`, `punctured_axes`, `fits`, `rows`, `_pair_witnesses`), so a
new ambient adds a type, not a branch in every module.

It also guards the one ball rule: no library module defines the helpers that
once emulated CPython's complex division, libm ``hypot``/``pow`` and
left-to-right ``sum`` in numpy, or reaches for numpy's ``hypot`` or
``float_power``, so membership and the chain witnesses stay plain numpy.

And it guards the one row test: no library module defines or reads a chart
family hook named ``_inside``, as a family's `_hits` decides `locate`,
`contains` and `covers` alike.

And the one a-chart atlas type: every atlas is a `GraphCharts`, and a plain
list of charts becomes one in `GraphCharts.listed` alone, the one place that
tests for the type; no library module keeps state in a module global.

And the one plain-list family: a list of charts becomes a `ChartList` of rows
in ``core`` alone (`family`, `chart_rows`), no module reads a ``.family``
view beside ``Covering.charts``, and families do not concatenate with ``+``.

And the library keeps only what it runs: no module defines or imports the
single-chart helpers and the base-plan reader that nothing in it called.

And one count and one budget: a chart family states its factor sizes once,
as ``radices``, and no subclass of `ChartFamily` defines or sets ``kappa``
(their product) or ``__len__`` (its index-safe view), both defined once there;
no module but ``core`` names ``MATERIALIZE_BUDGET``, so every refusal over it
goes through `check_budget`, which reads it at call time.

And one address: no library module calls ``divmod`` or numpy's, as every
family splits and joins its flat index over its ``radices`` with
``np.unravel_index`` and ``np.ravel_multi_index``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "atlascover"
PROTOCOL_TYPES = {"PuncturedPlane", "PolydiscComplement", "MonomialLevelSet",
                  "AnnulusRegion", "PolydiscRegion", "LevelGraphRegion"}
FAMILY_BLIND = {"verify.py": {"LevelBranchCharts"}, "jsonio.py": {"LevelBranchCharts"}}
EMULATION_HELPERS = {"_abs", "_complex", "_quot", "_rowsum", "_norm"}
EMULATION_CALLS = {"hypot", "float_power"}
RETIRED_HOOKS = {"_inside"}


def isinstance_tests(source: str, banned: set, where: bool = False) -> list:
    """(line, names) of each ``isinstance(x, T)`` call whose class argument
    (a name, an attribute or a tuple of them) names a type in ``banned``, in
    line order; with ``where``, the name of the innermost function around the
    call instead of its line (None at module level)."""
    nodes, scope = list(ast.walk(ast.parse(source))), {}
    for node in nodes:      # breadth first, so an inner function's name is set last
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope.update((child, node.name) for child in ast.walk(node))
    hits = []
    for node in sorted((n for n in nodes if isinstance(n, ast.Call)), key=lambda n: n.lineno):
        if (isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                and len(node.args) == 2):
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.args[1])
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if names & banned:
                hits.append((scope.get(node) if where else node.lineno, sorted(names & banned)))
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


def hook_spellings(source: str) -> list:
    """(line, name) of each definition of a `RETIRED_HOOKS` name (a ``def`` or
    an assignment), each attribute of that name read or set, and each string
    of it alone (as ``getattr`` reads it)."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant):
            name = node.value
        else:
            continue
        if isinstance(name, str) and name in RETIRED_HOOKS:
            hits.append((node.lineno, name))
    return sorted(hits)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_second_row_test(path):
    assert hook_spellings(path.read_text()) == []


def test_hook_guard_finds_each_spelling():
    source = ("class F:\n"
              "    def _inside(self, pts): pass\n"
              "    _inside = _hits\n"
              "ok = fam._inside(pts, idx, s, t)\n"
              "ok = getattr(fam, '_inside')(pts)\n"
              "ok = fam._hits(pts)  # `_inside` named in a comment\n"
              "doc = 'the rule of `_inside`'\n")
    assert hook_spellings(source) == [(2, "_inside"), (3, "_inside"), (4, "_inside"), (5, "_inside")]


def globals_declared(source: str) -> list:
    """(line, names) of each ``global`` statement."""
    return [(node.lineno, node.names) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Global)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_global_state(path):
    assert globals_declared(path.read_text()) == []


def test_one_place_tells_an_atlas_from_a_list():
    hits = [(path.name, *hit) for path in sorted(SRC.glob("*.py"))
            for hit in isinstance_tests(path.read_text(), {"GraphCharts"}, where=True)]
    assert hits == [("real_acharts.py", "listed", ["GraphCharts"])]


def test_atlas_guards_find_each_spelling():
    source = ("_kept = None\n"
              "def _factors(charts):\n"
              "    global _kept\n"
              "    if isinstance(charts, GraphCharts):\n"
              "        return charts\n"
              "    def inner(c):\n"
              "        return isinstance(c, (list, real_acharts.GraphCharts))\n"
              "ok = isinstance(x, GraphCharts)\n")
    assert globals_declared(source) == [(3, ["_kept"])]
    assert isinstance_tests(source, {"GraphCharts"}, where=True) == [
        ("_factors", ["GraphCharts"]), ("inner", ["GraphCharts"]), (None, ["GraphCharts"])]


PLAIN_LIST = "ChartList"
RETIRED_OPERATORS = {"__add__", "__radd__"}


def plain_list_spellings(source: str, in_core: bool = False) -> list:
    """(line, name) of each `ChartList` named outside ``core`` (a name, an
    attribute or an import), each ``.family`` attribute read, and each
    ``__add__``/``__radd__`` a class ``ChartFamily`` defines or assigns."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        named = (node.id if isinstance(node, ast.Name) else node.attr
                 if isinstance(node, ast.Attribute) else node.name
                 if isinstance(node, ast.alias) else None)
        if named == PLAIN_LIST and not in_core:
            hits.append((node.lineno, PLAIN_LIST))
        elif named == "family" and isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            hits.append((node.lineno, ".family"))
        elif isinstance(node, ast.ClassDef) and node.name == "ChartFamily":
            for item in node.body:
                names = ([item.name] if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                         else [t.id for t in getattr(item, "targets", []) if isinstance(t, ast.Name)])
                hits += [(item.lineno, n) for n in names if n in RETIRED_OPERATORS]
    return sorted(hits)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_plain_list_family(path):
    assert plain_list_spellings(path.read_text(), in_core=path.name == "core.py") == []


def test_plain_list_guard_finds_each_spelling():
    source = ("from .core import ChartList, family\n"
              "fam = core.ChartList(b, d, 2.0, 1)\n"
              "ok = isinstance(x, ChartList)\n"
              "rows = cov.family.chart_arrays()\n"
              "cov.family = family(charts)\n"
              "class ChartFamily:\n"
              "    def __add__(self, other): pass\n"
              "    __radd__ = __add__\n"
              "    def __eq__(self, other): pass\n")
    assert plain_list_spellings(source) == [
        (1, "ChartList"), (2, "ChartList"), (3, "ChartList"), (4, ".family"),
        (7, "__add__"), (8, "__radd__")]
    assert plain_list_spellings(source, in_core=True) == [
        (4, ".family"), (7, "__add__"), (8, "__radd__")]


RETIRED_API = {"SuspensionParams", "suspend_chart", "vertical_radius", "shrink_for_tube",
               "complexity_report", "ComplexityReport", "evaluate_level_chart",
               "first_coordinate", "level_base_plan"}


def api_spellings(source: str) -> list:
    """(line, name) of each definition of a `RETIRED_API` name (a ``def``, a
    ``class`` or an assignment) and each import of it."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names = [node.id]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [part for a in node.names for part in (a.name.split(".")[-1], a.asname)]
        else:
            continue
        hits += [(node.lineno, n) for n in names if n in RETIRED_API]
    return sorted(hits)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_retired_api(path):
    assert api_spellings(path.read_text()) == []


def test_retired_api_guard_finds_each_spelling():
    source = ("from .suspension import SuspensionParams, layer_zeta\n"
              "from .levelset import level_base_plan as plan\n"
              "import atlascover.verify.complexity_report\n"
              "class ComplexityReport: pass\n"
              "def shrink_for_tube(delta, c): pass\n"
              "vertical_radius = lambda lam, beta: lam\n"
              "class Chart:\n"
              "    def first_coordinate(self, x): pass\n"
              "g = chart.map_points(x)[..., 0]  # was `first_coordinate`\n"
              "doc = 'evaluate_level_chart'\n")
    assert api_spellings(source) == [
        (1, "SuspensionParams"), (2, "level_base_plan"), (3, "complexity_report"),
        (4, "ComplexityReport"), (5, "shrink_for_tube"), (6, "vertical_radius"),
        (8, "first_coordinate")]


def family_definitions(source: str, name: str) -> list:
    """(line, class) of each ``name`` defined or assigned in the body of a class
    that derives from `ChartFamily`, or set as ``self.<name>`` in its methods: a
    class that names it as a base (a name or an attribute), or a class of
    ``source`` that does, defined before it."""
    families, hits = {"ChartFamily"}, []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None) for b in node.bases}
        if not bases & families:
            continue
        families.add(node.name)
        for item in node.body:
            names = ([item.name] if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                     else [t.id for t in getattr(item, "targets", []) if isinstance(t, ast.Name)])
            hits += [(item.lineno, node.name) for n in names if n == name]
        hits += [(n.lineno, node.name) for n in ast.walk(node)
                 if isinstance(n, ast.Attribute) and n.attr == name and isinstance(n.ctx, ast.Store)
                 and isinstance(n.value, ast.Name) and n.value.id == "self"]
    return sorted(hits)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_families_state_kappa_not_len(path):
    assert family_definitions(path.read_text(), "__len__") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_families_state_radices_not_kappa(path):
    assert family_definitions(path.read_text(), "kappa") == []


def test_family_len_guard_finds_each_spelling():
    source = ("class ChartFamily(Sequence):\n"
              "    def __len__(self): return self.kappa\n"
              "class Rings(ChartFamily):\n"
              "    def __len__(self): return self.n_rings * self.n_angles\n"
              "class Deep(Rings):\n"
              "    __len__ = lambda self: 2\n"
              "class Listed(core.ChartFamily, Mixin):\n"
              "    async def __len__(self): pass\n"
              "class Plain:\n"
              "    def __len__(self): return 0\n"
              "class Counted(ChartFamily):\n"
              "    kappa = 3  # not `__len__`\n")
    assert family_definitions(source, "__len__") == [(4, "Rings"), (6, "Deep"), (8, "Listed")]


def test_family_kappa_guard_finds_each_spelling():
    source = ("class ChartFamily(Sequence):\n"
              "    kappa = property(lambda self: math.prod(self.radices))\n"
              "class Rings(ChartFamily):\n"
              "    def __init__(self, n):\n"
              "        self.kappa = n\n"
              "class Deep(Rings):\n"
              "    @property\n"
              "    def kappa(self): return 2\n"
              "class Listed(core.ChartFamily):\n"
              "    kappa = 3\n"
              "    def grow(self, b):\n"
              "        self.b, self.kappa = b, 4\n"
              "class Plain:\n"
              "    def __init__(self): self.kappa = 0\n"
              "class Counted(ChartFamily):\n"
              "    radices = (3,)  # not `kappa`\n"
              "    def count(self, other): other.kappa = self.kappa\n")
    assert family_definitions(source, "kappa") == [
        (5, "Rings"), (8, "Deep"), (10, "Listed"), (12, "Listed")]


def divmod_spellings(source: str) -> list:
    """(line, spelling) of each call of the builtin ``divmod`` and each use of
    numpy's (``np.divmod``, ``numpy.divmod`` or the name imported from numpy)."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "divmod":
            hits.append((node.lineno, "divmod"))
        elif (isinstance(node, ast.Attribute) and node.attr == "divmod"
                and isinstance(node.value, ast.Name) and node.value.id in {"np", "numpy"}):
            hits.append((node.lineno, f"{node.value.id}.divmod"))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            hits += [(node.lineno, a.name) for a in node.names if a.name == "divmod"]
    return sorted(hits)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_mixed_radix_address(path):
    assert divmod_spellings(path.read_text()) == []


def test_address_guard_finds_each_spelling():
    source = ("t, k = divmod(i, self.alpha1)\n"
              "j, t = np.divmod(idx, len(self.inner))\n"
              "q, r = numpy.divmod(a, b)\n"
              "from numpy import divmod, unravel_index\n"
              "j, t = np.unravel_index(idx, self.radices)  # not `divmod`\n"
              "ring = (j + da) % n_angles\n"
              "doc = 'np.divmod(idx, n)'\n")
    assert divmod_spellings(source) == [
        (1, "divmod"), (2, "np.divmod"), (3, "numpy.divmod"), (4, "divmod")]


BUDGET = "MATERIALIZE_BUDGET"


def budget_spellings(source: str) -> list:
    """(line, spelling) of each ``MATERIALIZE_BUDGET`` named: a name read or
    bound, an attribute, an import, or a string of it alone (as ``getattr``
    reads it)."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        named = (node.id if isinstance(node, ast.Name) else node.attr
                 if isinstance(node, ast.Attribute) else node.name
                 if isinstance(node, ast.alias) else node.value
                 if isinstance(node, ast.Constant) else None)
        if named == BUDGET:
            hits.append((node.lineno, type(node).__name__))
    return sorted(hits)


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "core.py"}), ids=lambda p: p.name)
def test_only_core_names_the_budget(path):
    assert budget_spellings(path.read_text()) == []


def test_budget_guard_finds_each_spelling():
    source = ("from .core import MATERIALIZE_BUDGET, check_budget\n"
              "if n > core.MATERIALIZE_BUDGET: pass\n"
              "limit = getattr(core, 'MATERIALIZE_BUDGET')\n"
              "MATERIALIZE_BUDGET = 10\n"
              "check_budget(n, 'rows')  # over `MATERIALIZE_BUDGET`\n"
              "doc = 'refused over the MATERIALIZE_BUDGET'\n")
    assert budget_spellings(source) == [
        (1, "alias"), (2, "Attribute"), (3, "Constant"), (4, "Name")]

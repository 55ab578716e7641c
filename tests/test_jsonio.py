import json
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from atlascover.annulus import cover_annulus
from atlascover.cli import _REGIONS, main
from atlascover.core import AtlasError, ChartList, MalformedFile, ambient_from_dict, family
from atlascover.jsonio import (
    covering_from_dict,
    covering_to_dict,
    dumps,
    recipe_to_dict,
)
from atlascover.levelset import LevelBranchCharts, cover_monomial_level_set
from atlascover.polydisc import cover_punctured_polydisc
from atlascover.suspension import chart_arrays
from atlascover.verify import check_coverage

from oracles import chart_to_dict

BUILDS = {
    "annulus-1e-2": lambda: cover_annulus(0.01, 2.0),
    "annulus-zeta4": lambda: cover_annulus(0.05, 4.0),
    "annulus-empty": lambda: cover_annulus(2.0, 2.0),
    "polydisc-n2": lambda: cover_punctured_polydisc(2, 0.75, 2.0)[0],
    "polydisc-n2-axis2": lambda: cover_punctured_polydisc(2, 0.5, 2.0, {2})[0],
    "polydisc-n2-axis1": lambda: cover_punctured_polydisc(2, 0.75, 2.0, {1})[0],
    "polydisc-n3-axes13": lambda: cover_punctured_polydisc(3, 0.9, 2.0, {1, 3})[0],
    "polydisc-n3-axis2": lambda: cover_punctured_polydisc(3, 0.5, 2.0, {2})[0],
    "polydisc-empty": lambda: cover_punctured_polydisc(2, 1.5, 2.0)[0],
    "level-21": lambda: cover_monomial_level_set((2, 1), 0.04),
    "level-211": lambda: cover_monomial_level_set((2, 1, 1), 0.9),
    "level-31-complex": lambda: cover_monomial_level_set((3, 1), 0.3 + 0.2j),
}


AMBIENT_FILES = {      # name: (ambient file form, region `verify coverage` samples, covered, total)
    "annulus-1e-2": ('{"kind":"punctured_plane"}', "AnnulusRegion(delta=0.01)", 319, 319),
    "annulus-zeta4": ('{"kind":"punctured_plane"}', "AnnulusRegion(delta=0.05)", 319, 319),
    "annulus-empty": ('{"kind":"punctured_plane"}', "AnnulusRegion(delta=2.0)", 0, 0),
    "polydisc-n2": ('{"kind":"polydisc_complement","n":2,"active_axes":[1,2]}',
                    "PolydiscRegion(eta=0.75, n=2, active_axes=frozenset({1, 2}))", 406, 406),
    "polydisc-n2-axis2": ('{"kind":"polydisc_complement","n":2,"active_axes":[2]}',
                          "PolydiscRegion(eta=0.5, n=2, active_axes=frozenset({2}))", 406, 406),
    "polydisc-n2-axis1": ('{"kind":"polydisc_complement","n":2,"active_axes":[1]}',
                          "PolydiscRegion(eta=0.75, n=2, active_axes=frozenset({1}))", 406, 406),
    "polydisc-n3-axes13": ('{"kind":"polydisc_complement","n":3,"active_axes":[1,3]}',
                           "PolydiscRegion(eta=0.9, n=3, active_axes=frozenset({1, 3}))", 879, 879),
    "polydisc-n3-axis2": ('{"kind":"polydisc_complement","n":3,"active_axes":[2]}',
                          "PolydiscRegion(eta=0.5, n=3, active_axes=frozenset({2}))", 879, 879),
    "polydisc-empty": ('{"kind":"polydisc_complement","n":2,"active_axes":[1,2]}',
                       "PolydiscRegion(eta=1.5, n=2, active_axes=frozenset({1, 2}))", 0, 0),
    "level-21": ('{"kind":"monomial_level_set","alpha":[2,1],"c":[0.04,0.0]}',
                 "LevelGraphRegion(alpha=(2, 1), c=(0.04+0j))", 312, 312),
    "level-211": ('{"kind":"monomial_level_set","alpha":[2,1,1],"c":[0.9,0.0]}',
                  "LevelGraphRegion(alpha=(2, 1, 1), c=(0.9+0j))", 312, 312),
    "level-31-complex": ('{"kind":"monomial_level_set","alpha":[3,1],"c":[0.3,0.2]}',
                         "LevelGraphRegion(alpha=(3, 1), c=(0.3+0.2j))", 342, 342),
}


@lru_cache(maxsize=None)
def build(name):
    return BUILDS[name]()


def file_dict(cov) -> dict:
    """The covering exactly as a file stores and a reader parses it."""
    return json.loads(dumps(covering_to_dict(cov)))


def same_json(a, b) -> bool:
    """Equal file text (so -0.0 and 0.0 differ); a bool keeps failures short."""
    return dumps(a) == dumps(b)


def bits(z) -> np.ndarray:
    return np.ascontiguousarray(z, dtype=complex).view(np.uint64)


@pytest.mark.parametrize("name", BUILDS)
def test_array_writer_matches_per_chart_writer(name):
    cov = build(name)
    got = covering_to_dict(cov)["charts"]
    ref = [chart_to_dict(c) for c in cov.charts]
    assert len(got) == len(ref)
    assert [i for i, (x, y) in enumerate(zip(got, ref)) if not same_json(x, y)][:5] == []


@pytest.mark.parametrize("name", BUILDS)
def test_chart_arrays_match_getitem_bit_for_bit(name):
    cov = build(name)
    if isinstance(cov.charts, LevelBranchCharts):
        charts = cov.charts.base_cov.charts
        per_chart = [cov.charts[i].base for i in range(0, cov.kappa, cov.charts.alpha1)]
    else:
        charts, per_chart = cov.charts, list(cov.charts)
    b, d = chart_arrays(charts)
    dim = b.shape[1]
    ref_b = np.array([c.b for c in per_chart], dtype=complex).reshape(-1, dim)
    ref_d = np.array([c.d for c in per_chart], dtype=complex).reshape(-1, dim)
    assert np.array_equal(bits(b), bits(ref_b))
    assert np.array_equal(bits(d), bits(ref_d))


@pytest.mark.parametrize("name", BUILDS)
def test_reload_keeps_structure(name):
    cov = build(name)
    d = file_dict(cov)
    back = covering_from_dict(d)
    assert type(back.charts) is type(cov.charts)
    if isinstance(cov.charts, LevelBranchCharts):
        assert type(back.charts.base_cov.charts) is type(cov.charts.base_cov.charts)
    assert back == cov
    assert back.meta == d["meta"]
    assert same_json(covering_to_dict(back), d)


@pytest.mark.parametrize("name", BUILDS)
def test_ambient_file_form_and_cli_region(name):
    """The ambient's file text (pinned) reads back equal, and the region `atlas
    verify coverage` samples for the covering has its pinned repr, fits the
    ambient and gives the pinned report (300 samples, seed 3)."""
    cov = build(name)
    form, region, covered, total = AMBIENT_FILES[name]
    assert dumps(cov.ambient.to_dict()) == form + "\n"
    assert ambient_from_dict(json.loads(form)) == cov.ambient
    got = _REGIONS[cov.ambient.kind](cov)
    assert repr(got) == region
    assert got.ambient == cov.ambient
    report = check_coverage(cov, got, 300, 3)
    assert (report.samples_covered, report.samples_total, report.uncovered) == (covered, total, ())


def _nudge(x: float) -> float:
    return float(np.nextafter(x, np.inf))


@pytest.mark.parametrize("name", ["annulus-1e-2", "polydisc-n2-axis2", "level-21"])
def test_one_ulp_off_loads_as_plain_list(name):
    d = file_dict(build(name))
    group = d["ambient"].get("alpha", [1])[0]
    for ch in d["charts"][6 * group:7 * group]:     # every branch of one base chart
        ch["d"][0][0] = _nudge(ch["d"][0][0])
    back = covering_from_dict(d)
    charts = back.charts
    if isinstance(charts, LevelBranchCharts):
        charts = charts.base_cov.charts
    assert isinstance(charts, ChartList)
    assert same_json(covering_to_dict(back), d)


def _two_chart_file(cov, all_axes=False, **meta) -> dict:
    """Two charts of ``cov`` under a meta whose recipe has about 1e12 charts."""
    d = file_dict(cov)
    d["charts"] = d["charts"][:2]
    d["kappa"] = 2
    d["meta"].update(meta)
    if all_axes:
        d["ambient"]["active_axes"] = list(range(1, d["ambient"]["n"] + 1))
    return d


@pytest.mark.parametrize("d", [
    _two_chart_file(cover_annulus(0.1, 2.0), n_angles=10 ** 6, n_rings=10 ** 6),
    _two_chart_file(cover_punctured_polydisc(3, 0.9, 2.0, {1, 3})[0],
                    eta=1e-6, gamma=2.0, all_axes=True),
], ids=["annulus", "polydisc"])
def test_huge_meta_promise_is_no_match(d):
    tracemalloc.start()
    try:
        back = covering_from_dict(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(back.charts, ChartList) and back.kappa == 2
    assert peak < 1 << 20
    assert same_json(covering_to_dict(back), d)


def _level_file() -> dict:
    return file_dict(build("level-21"))


def _swap_branches(d):
    d["charts"][0]["branch"], d["charts"][1]["branch"] = 1, 0


def _split_group(d):
    d["charts"][1]["b"][0][0] = _nudge(d["charts"][1]["b"][0][0])


def _other_c(d):
    d["charts"][3]["c"] = [0.05, 0.0]


def _other_alpha(d):
    d["charts"][3]["alpha"] = [2, 2]


def _odd_count(d):
    del d["charts"][-1]
    d["kappa"] -= 1


@pytest.mark.parametrize("edit", [_swap_branches, _split_group, _other_c,
                                  _other_alpha, _odd_count])
def test_misordered_level_file_is_rejected(tmp_path, capsys, edit):
    d = _level_file()
    edit(d)
    with pytest.raises(MalformedFile):
        covering_from_dict(d)
    path = tmp_path / "level.json"
    path.write_text(json.dumps(d))
    assert main(["verify", "coverage", "--covering", str(path),
                 "--samples", "10"]) == 2
    assert "error: MalformedFile" in capsys.readouterr().err


def _annulus_file() -> dict:
    return file_dict(cover_annulus(0.1, 2.0))


def _without(key):
    def edit(d):
        del d[key]
        return d
    return edit


def _zero_scale(d):
    d["charts"][4]["d"][0] = [0.0, 0.0]
    return d


def _wrong_kappa(d):
    d["kappa"] += 1
    return d


def _wrong_kind(d):
    d["charts"][0]["kind"] = "level_branch"
    return d


def _wrong_dim(d):
    d["charts"][0]["b"].append([0.5, 0.0])
    return d


def _nan_gamma(d):
    d["gamma"] = float("nan")
    return d


def _string_entry(d):
    d["charts"][2]["b"][0][0] = str(d["charts"][2]["b"][0][0])
    return d


def _bool_entry(d):
    d["charts"][2]["d"][0][1] = False
    return d


@pytest.mark.parametrize("edit", [
    lambda d: {}, lambda d: [d], _without("gamma"), _without("charts"),
    _without("ambient"), _zero_scale, _wrong_kappa, _wrong_kind, _wrong_dim,
    _nan_gamma, _string_entry, _bool_entry,
], ids=["empty", "list", "no_gamma", "no_charts", "no_ambient", "zero_scale",
        "wrong_kappa", "wrong_kind", "wrong_dim", "nan_gamma", "string_entry", "bool_entry"])
def test_malformed_covering_exits_two(tmp_path, capsys, edit):
    d = edit(_annulus_file())
    with pytest.raises(AtlasError):
        covering_from_dict(d)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    for argv in (["verify", "coverage", "--covering", str(path), "--samples", "10"],
                 ["verify", "doubling", "--covering", str(path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_achart_atlas_without_coefficient_exits_two(tmp_path, capsys):
    path = tmp_path / "graph.json"
    assert main(["cover", "graph", "--mu", "1", "--eps", "0.01",
                 "--out", str(path)]) == 0
    d = json.loads(path.read_text())
    del d["coefficient"]
    path.write_text(json.dumps(d))
    assert main(["verify", "achart", "--charts", str(path)]) == 2
    assert "error: MalformedFile" in capsys.readouterr().err


@pytest.mark.parametrize("key, row", [("z0", 0), ("y", 3)])
@pytest.mark.parametrize("spelled", [str, lambda v: True], ids=["string", "bool"])
def test_atlas_row_entry_of_another_type_exits_two(tmp_path, capsys, key, row, spelled):
    """A schema-1 atlas row holding a string or a bool is malformed, not read as a number."""
    path = tmp_path / "graph.json"
    assert main(["cover", "graph", "--mu", "1", "--eps", "0.01", "--materialize",
                 "--out", str(path)]) == 0
    d = json.loads(path.read_text())
    d["charts"][row][key][0] = spelled(d["charts"][row][key][0])
    path.write_text(json.dumps(d))
    assert main(["verify", "achart", "--charts", str(path)]) == 2
    assert "error: MalformedFile" in capsys.readouterr().err


def _string_eta(meta):
    meta["eta"] = str(meta["eta"])


def _other_plan(meta):
    meta["plan"]["levels"][0]["annulus_count"] = 999


def _cut_meta(meta):
    for key in set(meta) - {"construction", "eta", "n"}:
        del meta[key]


@pytest.mark.parametrize("edit", [_string_eta, _other_plan, _cut_meta])
def test_schema1_meta_is_checked_as_in_schema2(edit):
    """A schema-1 file whose rows are the construction's but whose meta is not
    the one it builds reads as its listed rows with the meta as stored, and
    writes back the same; the recipe file of that meta is malformed."""
    cov = build("polydisc-n2")
    d = file_dict(cov)
    edit(d["meta"])
    back = covering_from_dict(d)
    assert type(back.charts) is ChartList and back.meta == d["meta"]
    assert back.charts == family(list(cov.charts))
    assert same_json(covering_to_dict(back), d)
    recipe = json.loads(dumps(recipe_to_dict(cov)))
    edit(recipe["meta"])
    with pytest.raises(MalformedFile):
        covering_from_dict(recipe)

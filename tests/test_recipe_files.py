"""Schema-2 covering files: the recipe alone, rebuilt and checked on reading."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from atlascover.annulus import RingDisks, cover_annulus
from atlascover.cli import main
from atlascover.core import AtlasError, Covering, MalformedFile
from atlascover.jsonio import (
    covering_from_dict,
    covering_to_dict,
    dumps,
    read_covering,
    recipe_to_dict,
    write_covering,
)
from atlascover.levelset import LevelBranchCharts
from atlascover.polydisc import cover_punctured_polydisc
from atlascover.suspension import SuspendedCharts, chart_arrays
from test_jsonio import BUILDS, bits, build


def affine(charts):
    return charts.base_cov.charts if isinstance(charts, LevelBranchCharts) else charts


def reloaded(d: dict):
    return covering_from_dict(json.loads(dumps(d)))


@pytest.mark.parametrize("name", BUILDS)
def test_recipe_round_trip_keeps_structure_and_v1_bytes(name):
    cov = build(name)
    d = recipe_to_dict(cov)
    assert d["schema_version"] == "2" and "charts" not in d
    back = reloaded(d)
    assert type(back.charts) is type(cov.charts)
    assert type(affine(back.charts)) is type(affine(cov.charts))
    assert back.meta == json.loads(dumps(d))["meta"]
    for x, y in zip(chart_arrays(affine(back.charts)), chart_arrays(affine(cov.charts))):
        assert np.array_equal(bits(x), bits(y))
    assert dumps(covering_to_dict(back)) == dumps(covering_to_dict(cov))


PARENT_DIGESTS = {      # files written by the schema-1 writer before schema 2 existed
    "annulus": (["annulus", "--delta", "0.01", "--zeta", "2"], RingDisks,
                "8031f210ef493c03739109133005ffe401f1ed4df266f71537911e16771b3776"),
    "levelset": (["levelset", "--alpha", "2,1", "--c", "0.04,0", "--gamma", "2"],
                 LevelBranchCharts,
                 "761344928316da8c994a3ff43a451a4a9a88cd238d9aa8b6602b067ebf6066fc"),
    "polydisc": (["polydisc", "--dim", "2", "--eta", "0.75", "--gamma", "2"],
                 SuspendedCharts,
                 "62c4a1feba57c19e0cfa952d815527e7e6f4b6868ef45e9c266f2c1722c59528"),
}


@pytest.mark.parametrize("key", PARENT_DIGESTS)
def test_materialize_keeps_v1_bytes_and_v1_reads_lazily(tmp_path, key):
    argv, kind, digest = PARENT_DIGESTS[key]
    v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
    assert main(["cover", *argv, "--out", str(v1), "--materialize"]) == 0
    assert main(["cover", *argv, "--out", str(v2)]) == 0
    assert hashlib.sha256(v1.read_bytes()).hexdigest() == digest
    assert json.loads(v2.read_text())["schema_version"] == "2"
    assert v2.stat().st_size < 2000
    a, b = read_covering(v1), read_covering(v2)
    assert type(a.charts) is kind and a == b and a.meta == b.meta


def test_charts_without_a_recipe_go_out_as_v1(tmp_path):
    cov = cover_annulus(0.1, 2.0)
    pruned = Covering(cov.ambient, cov.gamma, list(cov.charts)[1:], cov.meta)
    poly = cover_punctured_polydisc(2, 0.75, 2.0)[0]
    edited = Covering(poly.ambient, poly.gamma, poly.charts, {**poly.meta, "note": 1})
    d = covering_to_dict(build("level-21"))
    d["charts"][0]["d"][0][0] = float(np.nextafter(d["charts"][0]["d"][0][0], 1.0))
    for c in (pruned, edited, covering_from_dict(d)):
        assert recipe_to_dict(c) is None
        path = tmp_path / "f.json"
        write_covering(c, path)
        assert json.loads(path.read_text())["schema_version"] == "1"
        assert read_covering(path).meta == c.meta


def _v2(name="polydisc-n2") -> dict:
    return json.loads(dumps(recipe_to_dict(build(name))))


def _set(key, value, meta=False):
    def edit(d):
        (d["meta"] if meta else d)[key] = value
        return d
    return edit


def _drop_meta(key):
    def edit(d):
        del d["meta"][key]
        return d
    return edit


def _with_charts(d):
    d["charts"] = covering_to_dict(build("polydisc-n2"))["charts"][:2]
    return d


def _negative_counts(d):
    d["meta"]["n_angles"], d["meta"]["n_rings"] = -d["meta"]["n_angles"], -d["meta"]["n_rings"]
    return d


def _three_angles(d):
    d["meta"]["n_angles"], d["kappa"] = 3, 3 * d["meta"]["n_rings"]
    return d


def _huge_rings(d):
    d["meta"]["n_rings"] = 10 ** 12
    d["kappa"] = d["meta"]["n_angles"] * 10 ** 12
    return d


@pytest.mark.parametrize("name, edit", [
    ("polydisc-n2", _set("construction", "spiral", meta=True)),
    ("polydisc-n2", _set("kappa", 25111)),
    ("annulus-1e-2", _set("kappa", 491)),
    ("polydisc-n2", _drop_meta("eta")),
    ("polydisc-n2", _drop_meta("plan")),
    ("level-21", _drop_meta("base_plan")),
    ("annulus-1e-2", _drop_meta("n_rings")),
    ("polydisc-n2", _set("eta", float("nan"), meta=True)),
    ("polydisc-n2", _set("schema_version", "3")),
    ("polydisc-n2", _with_charts),
    ("annulus-1e-2", _set("ring_ratio", 1.5, meta=True)),
    ("annulus-1e-2", _negative_counts),
    ("annulus-1e-2", _huge_rings),
    ("annulus-1e-2", _three_angles),
    ("annulus-1e-2", _set("delta", 0.5, meta=True)),
    ("polydisc-n2", _set("ambient", {"kind": "torus"})),
    ("annulus-1e-2", _set("ambient", {"kind": "polydisc_complement", "n": 1, "active_axes": [1]})),
    ("level-21", _set("ambient", {"kind": "punctured_plane"})),
], ids=["unknown_construction", "wrong_kappa", "wrong_ring_kappa", "no_eta", "no_plan",
        "no_base_plan", "no_n_rings", "nan_eta", "unknown_schema", "v2_with_charts",
        "ring_ratio_above_one", "negative_counts", "huge_ring_table", "three_angles",
        "other_delta", "unknown_ambient_kind", "rings_on_polydisc", "level_graph_on_plane"])
def test_malformed_recipe_exits_two(tmp_path, capsys, name, edit):
    d = edit(_v2(name))
    tracemalloc.start()
    try:
        with pytest.raises(AtlasError):
            covering_from_dict(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    for argv in (["verify", "coverage", "--covering", str(path), "--samples", "10"],
                 ["verify", "doubling", "--covering", str(path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


def _ambient_key(key, value):
    def edit(d):
        d["ambient"][key] = value
        return d
    return edit


@pytest.mark.parametrize("name, edit", [
    ("level-21", _ambient_key("alpha", "21")),
    ("level-21", _ambient_key("alpha", [2.0, 1])),
    ("level-21", _ambient_key("c", [True, 0.0])),
    ("polydisc-n2", _ambient_key("active_axes", "12")),
    ("polydisc-n2", _ambient_key("n", True)),
    ("polydisc-n2", _set("gamma", "2.0")),
    ("polydisc-n2", _set("gamma", True)),
    ("polydisc-n2", _set("kappa", 25110.0)),
], ids=["alpha_string", "alpha_float", "c_bool", "active_axes_string", "n_bool",
        "gamma_string", "gamma_bool", "kappa_float"])
@pytest.mark.parametrize("version", ["1", "2"])
def test_values_of_another_json_type_are_malformed(tmp_path, capsys, name, edit, version):
    """A file states each number as a JSON number of its kind: a string, a
    bool, or a float where an integer is due is `MalformedFile` (exit 2),
    never read as the number it spells."""
    cov = build(name)
    d = edit(json.loads(dumps(covering_to_dict(cov) if version == "1" else recipe_to_dict(cov))))
    with pytest.raises(MalformedFile):
        covering_from_dict(d)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    assert main(["verify", "doubling", "--covering", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: MalformedFile")


def test_recipe_keys_are_checked_as_malformed():
    d = _v2()
    d["meta"]["plan"]["levels"][0]["annulus_count"] += 1
    with pytest.raises(MalformedFile):
        covering_from_dict(d)


@pytest.mark.parametrize("dim, eta, kappa, max_peak", [
    (3, "0.3", 3_686_602_832, 1 << 20),
    (4, "1e-3", 168_773_782_806_090_000, 1 << 20),
], ids=["n3", "n4"])
def test_coverings_too_large_to_list(tmp_path, capsys, dim, eta, kappa, max_peak):
    path = tmp_path / "big.json"
    cover = ["cover", "polydisc", "--dim", str(dim), "--eta", eta, "--gamma", "2",
             "--out", str(path)]
    assert main(cover) == 0
    assert main(["verify", "doubling", "--covering", str(path)]) == 0
    assert f"doubling {kappa}/{kappa} pass=True" in capsys.readouterr().out
    assert main(["verify", "coverage", "--covering", str(path),
                 "--samples", "2000"]) == 0
    path.unlink()
    tracemalloc.start()
    try:
        assert main([*cover, "--materialize"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < max_peak
    assert not path.exists()
    assert f"listed charts = {kappa} entries are over the budget" in capsys.readouterr().err


def test_chain_on_a_covering_too_large_to_search(tmp_path, capsys):
    """The 554-byte n=3, eta=0.3 recipe: the first BFS layer is over the pair
    budget, so `atlas chain` ends in a domain error with exit 2."""
    path = tmp_path / "n3.json"
    assert main(["cover", "polydisc", "--dim", "3", "--eta", "0.3", "--gamma", "2",
                 "--out", str(path)]) == 0
    assert path.stat().st_size == 554
    capsys.readouterr()
    assert main(["chain", "--covering", str(path), "--from=0.5,0,0.5,0,0.5,0",
                 "--to=0,0.5,0.5,0,-0.5,0"]) == 2
    assert capsys.readouterr().err.startswith("error: AtlasError: a BFS layer of 1004 charts")


def test_a_refused_chain_builds_no_neighbour_list(tmp_path, capsys):
    """The same refusal comes from the layer's neighbour counts alone: no list
    of the 1004 start charts' ~8.4e9 neighbours is built, and the chain command
    stays under a 50 MB `tracemalloc` peak."""
    path = tmp_path / "n3.json"
    assert main(["cover", "polydisc", "--dim", "3", "--eta", "0.3", "--gamma", "2",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(["chain", "--covering", str(path), "--from=0.5,0,0.5,0,0.5,0",
                     "--to=0,0.5,0.5,0,-0.5,0"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err.startswith("error: AtlasError: a BFS layer of 1004 charts")
    assert peak < 50 << 20


def test_ring_table_over_the_budget_is_refused_before_it_exists():
    tracemalloc.start()
    try:
        with pytest.raises(AtlasError, match="over the budget"):
            RingDisks(2.0, 0.875, 12, 10 ** 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert len(RingDisks(2.0, 0.875, 10, 10 ** 7)) == 10 ** 8

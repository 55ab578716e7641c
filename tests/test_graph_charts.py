"""Lazy a-chart atlases: `GraphCharts` against the flat-list oracle, the
factored scan and lookup on it, and schema-2 atlas files."""

import hashlib
import json
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from atlascover.cli import main
from atlascover.core import AtlasError, MalformedFile
from atlascover.jsonio import (
    achart_atlas_from_dict,
    achart_atlas_to_dict,
    achart_recipe_to_dict,
    dumps,
    read_achart_atlas,
    write_achart_atlas,
)
from atlascover.real_acharts import (
    GraphCharts,
    MonomialData,
    _factors,
    RealAChart,
    choose_C3,
    cover_monomial_graph,
    graph_c3,
    graph_membership,
    verify_achart_batch,
)

from oracles import choose_C3_loop, cover_monomial_graph_list, graph_membership_loop
from test_real_acharts import _edge_points

CASES = {
    "m1": ((1.0,), 1.0, 1e-3),
    "m2": ((0.5, -0.25), 1.0, 0.01),
    "m1-negative": ((-0.5,), 0.7, 0.05),
    "m3": ((0.5, -0.75, 0.25), 1.3, 0.2),
    "empty": ((1.0,), 1e9, 0.3),
}


@lru_cache(maxsize=None)
def atlases(name):
    mu, coeff, eps = CASES[name]
    data = MonomialData(coeff, mu)
    return data, eps, cover_monomial_graph(data, eps), cover_monomial_graph_list(data, eps)


def bits(a, m):
    return np.asarray(a, dtype=float).reshape(-1, m).view(np.uint64)


@pytest.mark.parametrize("name", CASES)
def test_family_equals_the_list_chart_by_chart(name):
    data, _, fam, lst = atlases(name)
    assert isinstance(fam, GraphCharts) and len(fam) == len(lst)
    y, z0 = fam.chart_arrays()
    assert np.array_equal(bits(y, data.m), bits([c.y for c in lst], data.m))
    assert np.array_equal(bits(z0, data.m), bits([c.z0 for c in lst], data.m))
    assert all(c.c3 == fam.c3 for c in lst)
    stride = max(1, len(lst) // 3000)
    for i in range(0, len(lst), stride):
        assert fam[i] == lst[i]
    assert fam[-1:] == lst[-1:]
    if len(lst) <= 10_000:
        assert fam == lst and lst == fam


@pytest.mark.parametrize("name", CASES)
def test_batch_on_the_family_is_the_batch_on_the_list(name):
    _, _, fam, lst = atlases(name)
    a = verify_achart_batch(fam, grid=8, interior=100, seed=2)
    b = verify_achart_batch(lst, grid=8, interior=100, seed=2)
    assert a.shape == (len(lst),)
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("name", CASES)
def test_membership_on_the_family_is_the_loop(name):
    data, eps, fam, lst = atlases(name)
    rng = np.random.default_rng(6)
    xs = eps ** rng.random((400, data.m))
    if lst:
        xs = np.concatenate([xs, _edge_points(lst, 800, 7)])
    for tol in (None, 1e-6):
        got = graph_membership(fam, xs, tol)
        assert np.array_equal(got, graph_membership_loop(lst, xs, tol))
        assert np.array_equal(got, graph_membership(lst, xs, tol))


def test_a_plain_list_keeps_its_factors():
    """A plain-list atlas derives its factors once: later membership calls
    reuse them and answer as the family does, and a list holding other
    charts (a new list or one edited in place) derives them again."""
    data, _, fam, lst = atlases("m3")
    xs = 0.2 ** np.random.default_rng(8).random((10_000, 3))
    want = graph_membership(fam, xs)
    assert np.array_equal(graph_membership(lst, xs), want)
    kept = _factors(lst)
    assert _factors(lst) is kept and _factors(list(lst)) is kept
    assert np.array_equal(graph_membership(lst, xs), want)
    assert _factors(lst) is kept
    edited = list(lst)
    edited[0] = lst[1]
    f = _factors(edited)
    assert f is not kept and f.tuple_of[0] == f.tuple_of[1] == kept.tuple_of[1] != kept.tuple_of[0]


def test_family_paths_build_no_chart_and_unique_no_chart_rows(tmp_path, monkeypatch):
    """Building the m=3 family, writing and reading its schema-2 file, its
    scan and its membership build no `RealAChart`, and no `np.unique` runs
    over as many values as there are charts."""
    built, sizes = [], []
    post_init, unique = RealAChart.__post_init__, np.unique

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    def sized_unique(ar, *args, **kwargs):
        sizes.append(np.asarray(ar).size)
        return unique(ar, *args, **kwargs)

    monkeypatch.setattr(RealAChart, "__post_init__", counting_post_init)
    monkeypatch.setattr(np, "unique", sized_unique)
    data = MonomialData(1.3, (0.5, -0.75, 0.25))
    fam = cover_monomial_graph(data, 0.2)
    path = tmp_path / "atlas.json"
    write_achart_atlas(fam, data, 0.2, path)
    back, _, _ = read_achart_atlas(path)
    devs = verify_achart_batch(back, grid=4, interior=10)
    member = graph_membership(back, 0.2 ** np.random.default_rng(0).random((200, 3)))
    assert len(back) == len(devs) == 216_000 and member.any()
    assert built == []
    assert max(sizes) < len(fam) // 2
    assert fam[7] == cover_monomial_graph_list(data, 0.2)[7] and len(built) > 1


def test_adding_families_gives_lists():
    one = cover_monomial_graph(MonomialData(1.0, (1.0,)), 0.05)
    two = cover_monomial_graph(MonomialData(1.6, (1.0,)), 0.05)
    assert type(one + two) is list and len(one + two) == len(one) + len(two)
    assert (one[:1] + two)[1:] == list(two) and type([] + one) is list


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

PARENT_DIGESTS = {      # `cover graph` files written before atlas schema 2 existed
    "m2": (["--mu", "0.5,-0.25", "--eps", "0.01"],
           "5fe0026680caf1ea80e3acee52632bd9db524f7521533d879dbbe285125cb21e"),
    "m1": (["--mu", "1", "--eps", "1e-6"],
           "6fe06af511a8228b82b3a82b7a17b56fa17d91225b1178ba14704107ffd85b76"),
}


@pytest.mark.parametrize("key", PARENT_DIGESTS)
def test_materialize_keeps_v1_bytes_and_both_read_lazily(tmp_path, capsys, key):
    argv, digest = PARENT_DIGESTS[key]
    v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
    assert main(["cover", "graph", *argv, "--out", str(v1), "--materialize"]) == 0
    assert main(["cover", "graph", *argv, "--out", str(v2)]) == 0
    assert hashlib.sha256(v1.read_bytes()).hexdigest() == digest
    d = json.loads(v2.read_text())
    assert d["schema_version"] == "2" and "charts" not in d and v2.stat().st_size < 300
    (a, data, eps), (b, _, _) = read_achart_atlas(v1), read_achart_atlas(v2)
    assert type(a) is GraphCharts and type(b) is GraphCharts and a == b
    assert a == cover_monomial_graph(data, eps)
    capsys.readouterr()
    for path in (v1, v2):
        assert main(["verify", "achart", "--charts", str(path), "--grid", "8"]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second


@pytest.mark.parametrize("name", CASES)
def test_recipe_round_trip(name):
    data, eps, fam, lst = atlases(name)
    d = json.loads(dumps(achart_recipe_to_dict(fam, data, eps)))
    assert d == {"schema_version": "2", "kind": "real_achart_atlas",
                 "mu": list(data.exponents), "coefficient": data.coefficient,
                 "eps": eps, "c3": fam.c3, "count": len(lst)}
    back, back_data, back_eps = achart_atlas_from_dict(d)
    assert type(back) is GraphCharts and back == fam
    assert (back_data, back_eps) == (data, eps)
    assert achart_recipe_to_dict(lst, data, eps) is None
    other = MonomialData(2.0 * data.coefficient, data.exponents)
    assert achart_recipe_to_dict(fam, other, eps) is None


def _edited(key, value):
    def edit(d):
        d[key] = value
        return d
    return edit


def _with_charts(d):
    d["charts"] = [{"y": [2.0 / 3.0, 2.0 / 3.0], "z0": [1.0, 1.0]}]
    return d


@pytest.mark.parametrize("edit", [
    _edited("count", 4499), _edited("c3", 11.0), _edited("schema_version", "3"),
    _edited("kind", "covering"), _edited("eps", 0.7), _with_charts,
], ids=["wrong_count", "wrong_c3", "unknown_schema", "wrong_kind", "eps_out_of_range",
        "v2_with_charts"])
def test_malformed_recipe_exits_two(tmp_path, capsys, edit):
    data, eps, fam, _ = atlases("m2")
    d = edit(json.loads(dumps(achart_recipe_to_dict(fam, data, eps))))
    with pytest.raises(MalformedFile):
        achart_atlas_from_dict(d)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    assert main(["verify", "achart", "--charts", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: MalformedFile")


def test_v1_files_that_are_not_the_family_read_as_lists(tmp_path, capsys):
    """A v1 file with a chart deleted, or one value moved by an ulp, is not
    the rebuilt family: it reads as the list it stores, which still verifies."""
    data, eps, fam, lst = atlases("m2")
    d = achart_atlas_to_dict(fam, data, eps)
    assert d == achart_atlas_to_dict(lst, data, eps)
    pruned = json.loads(dumps(d))
    del pruned["charts"][17]
    pruned["count"] = 4499
    moved = json.loads(dumps(d))
    moved["charts"][3]["y"][0] = float(np.nextafter(moved["charts"][3]["y"][0], 1.0))
    for edited, count in ((pruned, 4499), (moved, 4500)):
        charts, _, _ = achart_atlas_from_dict(edited)
        assert type(charts) is list and len(charts) == count
    assert achart_atlas_from_dict(pruned)[0] == lst[:17] + lst[18:]
    path = tmp_path / "pruned.json"
    path.write_text(dumps(pruned))
    capsys.readouterr()
    assert main(["verify", "achart", "--charts", str(path), "--grid", "16"]) == 0
    assert capsys.readouterr().out == "acharts 4499 max_deviation=0.292178230811 pass=True\n"


def test_v1_count_must_match_the_rows(tmp_path, capsys):
    """A v1 file with a chart row deleted but ``count`` still 4500 is malformed."""
    data, eps, fam, _ = atlases("m2")
    d = json.loads(dumps(achart_atlas_to_dict(fam, data, eps)))
    del d["charts"][17]
    assert d["count"] == 4500
    with pytest.raises(MalformedFile, match="count=4500 but 4499 chart rows"):
        achart_atlas_from_dict(d)
    path = tmp_path / "short.json"
    path.write_text(dumps(d))
    capsys.readouterr()
    assert main(["verify", "achart", "--charts", str(path), "--grid", "16"]) == 2
    assert "MalformedFile" in capsys.readouterr().err


def test_choose_c3_is_the_stepping_search():
    rng = np.random.default_rng(5)
    for M in [0.0, 0.25, 0.75, 1.0, 1.5, 3.0, 5.0, *rng.uniform(0.0, 4.0, 200)]:
        for bound in (1.0, 2.0, 3.0 ** M, float(rng.uniform(1.0, 40.0))):
            assert choose_C3((M,), bound) == choose_C3_loop((M,), bound), (M, bound)


def _peak(fn):
    """``fn()`` and the peak traced memory while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_families_over_the_budget_are_refused_unbuilt(tmp_path, capsys):
    """C3 of x^16 is about 2e9; twelve axes at eps = 1e-6 give 21^12 boxes."""
    big = MonomialData(1.0, (16.0,))
    assert graph_c3(big) == 2_066_242_635.0
    for data, eps in ((big, 0.1), (MonomialData(1.0, (0.1,) * 12), 1e-6)):
        def refused():
            with pytest.raises(AtlasError, match="over the budget"):
                cover_monomial_graph(data, eps)
        assert _peak(refused)[1] < 1 << 20
    out = tmp_path / "big.json"
    code, peak = _peak(lambda: main(["cover", "graph", "--mu", "16", "--eps", "0.1",
                                     "--out", str(out)]))
    assert code == 2 and peak < 1 << 20 and not out.exists()
    assert "over the budget" in capsys.readouterr().err


@pytest.mark.parametrize("mu, eps, c3, count", [
    ((16.0,), 0.1, 2_066_242_635.0, 2 * 2_066_242_636),
    ((16.0,), 0.1, 5.0, 4),
    ((0.1,) * 12, 1e-6, 5.0, 4 ** 12),
    ((0.5, -0.75, 0.25), 1e-4, 29.0, 4),
], ids=["huge_c3", "huge_mu_wrong_c3", "huge_grid", "large_family_small_count"])
def test_oversized_recipe_files_are_malformed_unbuilt(tmp_path, capsys, mu, eps, c3, count):
    d = {"schema_version": "2", "kind": "real_achart_atlas", "mu": list(mu),
         "coefficient": 1.0, "eps": eps, "c3": c3, "count": count}

    def read():
        with pytest.raises(MalformedFile):
            achart_atlas_from_dict(d)
    assert _peak(read)[1] < 1 << 20
    path = tmp_path / "big.json"
    path.write_text(json.dumps(d))
    assert main(["verify", "achart", "--charts", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: MalformedFile")


def test_small_v1_files_naming_large_families_read_as_lists(tmp_path, capsys):
    """Four hand-made charts under x^16 (C3 about 2e9), and four charts of the
    m=3 atlas filed under eps = 1e-4 (2,197 boxes times 27,000 tuples), are
    read as the lists they store without building the family they name."""
    hand = MonomialData(1.0, (16.0,))
    bad = [RealAChart(y=(0.9,), z0=(z,), c3=3.5, data=hand) for z in (-3.0, -1.0, 1.0, 3.0)]
    data, _, _, lst = atlases("m3")
    for charts, atlas_data, eps in ((bad, hand, 0.1), (lst[:4], data, 1e-4)):
        d = json.loads(dumps(achart_atlas_to_dict(charts, atlas_data, eps)))
        (back, _, _), peak = _peak(lambda: achart_atlas_from_dict(d))
        assert type(back) is list and back == charts and peak < 1 << 20
    path = tmp_path / "bad.json"
    write_achart_atlas(bad, hand, 0.1, path)
    assert main(["verify", "achart", "--charts", str(path)]) == 1
    assert capsys.readouterr().out.endswith("pass=False\n")


def test_graph_scaling_csv_bytes(tmp_path):
    """κ = 900, 4,500 and 8,800, read off the lazy family, in the bytes
    written before it existed."""
    out = tmp_path / "scaling.csv"
    assert main(["scaling", "--experiment", "graph", "--grid", "0.1,0.01,0.001",
                 "--mu", "0.5,-0.25", "--out", str(out)]) == 0
    assert [r.split(",")[1] for r in out.read_text().splitlines()[1:]] == ["900", "4500", "8800"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "38e211f5aa78905b7107607795f11874a4242fcbe36f71cfa83a7cff4e8f852c")

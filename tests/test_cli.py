import argparse
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import atlascover
from atlascover import cli
from atlascover.cli import main
from atlascover.jsonio import (
    covering_from_dict,
    covering_to_dict,
    read_achart_atlas,
    read_covering,
    write_achart_atlas,
    write_covering,
)
from atlascover.annulus import cover_annulus
from atlascover.levelset import cover_monomial_level_set
from atlascover.polydisc import cover_punctured_polydisc, level_lower_bound
from atlascover.real_acharts import MonomialData, RealAChart, cover_monomial_graph
from atlascover.verify import named_bound


def test_cover_then_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "annulus.json"
    assert main(["cover", "annulus", "--delta", "0.01", "--zeta", "2",
                 "--out", str(out)]) == 0
    assert main(["verify", "coverage", "--covering", str(out),
                 "--samples", "10000", "--seed", "1"]) == 0
    assert main(["verify", "doubling", "--covering", str(out)]) == 0
    text = capsys.readouterr().out
    assert "pass=True" in text


def test_count_only_prints_plan(capsys):
    assert main(["cover", "polydisc", "--dim", "2", "--eta", "0.1",
                 "--gamma", "2", "--count-only"]) == 0
    plan = json.loads(capsys.readouterr().out.strip())
    assert plan["kappa"] == plan["levels"][-1]["kappa"]
    assert len(plan["levels"]) == 2


def test_missing_flag_usage_error(capsys):
    assert main(["cover", "annulus", "--delta", "0.01"]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_command_usage_error():
    assert main(["conquer"]) == 2


def test_eta_prints_value(capsys):
    assert main(["eta", "--delta", "0.1", "--c-lower", "0.5", "--c-unit", "2",
                 "--d", "2", "--alpha0", "2"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(0.05, rel=1e-15)


def test_byte_identical_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["cover", "annulus", "--delta", "0.02", "--zeta", "4",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_json_round_trip_field_for_field(tmp_path):
    for cov in (cover_annulus(0.05, 2.0),
                cover_monomial_level_set((2, 1), 0.04),
                cover_punctured_polydisc(2, 0.75, 2.0)[0]):
        d = covering_to_dict(cov)
        back = covering_from_dict(d)
        assert back == cov
        assert covering_to_dict(back) == d


def test_levelset_cli_flow(tmp_path):
    out = tmp_path / "level.json"
    assert main(["cover", "levelset", "--alpha", "2,1", "--c", "0.04,0",
                 "--gamma", "2", "--out", str(out)]) == 0
    cov = read_covering(out)
    assert cov.kappa == 700
    assert main(["verify", "coverage", "--covering", str(out),
                 "--samples", "2000", "--seed", "0"]) == 0
    assert main(["verify", "doubling", "--covering", str(out)]) == 0


def test_graph_cli_flow(tmp_path, capsys):
    out = tmp_path / "graph.json"
    assert main(["cover", "graph", "--mu", "1", "--coeff", "1",
                 "--eps", "0.01", "--out", str(out)]) == 0
    charts, data, eps = read_achart_atlas(out)
    assert charts == cover_monomial_graph(MonomialData(1.0, (1.0,)), 0.01)
    assert main(["verify", "achart", "--charts", str(out), "--grid", "12"]) == 0
    assert "pass=True" in capsys.readouterr().out


@pytest.mark.parametrize("cover,stdout", [
    (["--mu", "0.5,-0.25", "--eps", "0.01"],
     "acharts 4500 max_deviation=0.292178230811 pass=True\n"),
    (["--mu", "1", "--eps", "1e-6"],
     "acharts 280 max_deviation=0.0714285714286 pass=True\n"),
    (["--mu", "1", "--coeff", "1e9", "--eps", "0.3"],
     "acharts 0 max_deviation=0 pass=True\n"),
], ids=["m2", "m1", "empty"])
def test_verify_achart_output_bytes(tmp_path, capsys, cover, stdout):
    """Printed lines of the per-chart scan, frozen before the factored one."""
    out = tmp_path / "graph.json"
    assert main(["cover", "graph", *cover, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "achart", "--charts", str(out), "--grid", "16"]) == 0
    assert capsys.readouterr().out == stdout


def test_verify_achart_reports_failure(tmp_path, capsys):
    # C3 = 3.5 is too small for x^6: the scan deviation reaches about 17
    data = MonomialData(1.0, (6.0,))
    charts = [RealAChart(y=(0.9,), z0=(z,), c3=3.5, data=data)
              for z in (-3.0, -1.0, 1.0, 3.0)]
    out = tmp_path / "bad.json"
    write_achart_atlas(charts, data, 0.1, out)
    assert main(["verify", "achart", "--charts", str(out)]) == 1
    assert capsys.readouterr().out == "acharts 4 max_deviation=17.2863619901 pass=False\n"


def test_an_overflowing_achart_extension_is_one_error_line(tmp_path):
    """An atlas whose extension overflows (mu=(2000,), C3=4), checked in a new
    process that prints warnings: exit 2 and the one `NotHolomorphic` line,
    no numpy `RuntimeWarning` before it."""
    data = MonomialData(1.0, (2000.0,))
    path = tmp_path / "overflow.json"
    write_achart_atlas([RealAChart((0.5,), (1.0,), 4.0, data)], data, 0.1, path)
    src = str(Path(atlascover.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONWARNINGS="default",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "atlascover.cli", "verify", "achart",
                           "--charts", str(path)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        "error: NotHolomorphic: extension evaluation produced non-finite values"]


def test_verify_achart_grid_one_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "graph.json"
    assert main(["cover", "graph", "--mu", "1", "--eps", "0.1", "--out", str(out)]) == 0
    assert main(["verify", "achart", "--charts", str(out), "--grid", "1"]) == 2
    assert "grid must be at least 2" in capsys.readouterr().err


def test_verify_achart_grid_one_on_an_empty_atlas(tmp_path, capsys):
    out = tmp_path / "graph.json"
    assert main(["cover", "graph", "--mu", "1", "--coeff", "1e9", "--eps", "0.3",
                 "--out", str(out)]) == 0
    assert main(["verify", "achart", "--charts", str(out), "--grid", "1"]) == 2
    assert "grid must be at least 2" in capsys.readouterr().err


def test_chain_cli(tmp_path, capsys):
    out = tmp_path / "c.json"
    main(["cover", "annulus", "--delta", "0.1", "--zeta", "2", "--out", str(out)])
    assert main(["chain", "--covering", str(out),
                 "--from=0.1,0", "--to=-0.1,0"]) == 0
    assert "length=" in capsys.readouterr().out


def test_number_lists_with_a_leading_minus_take_the_space_form(tmp_path, capsys):
    """`--to -0.5,0` means `--to=-0.5,0`, and so for `--from`, `--c` and
    `--mu`: argparse alone reads such a value as an unknown option."""
    cov = str(tmp_path / "a.json")
    assert main(["cover", "annulus", "--delta", "0.1", "--zeta", "2", "--out", cov]) == 0
    capsys.readouterr()
    outs = []
    for ends in (["--from", "-0.5,0", "--to", "0.5,0"], ["--from=-0.5,0", "--to=0.5,0"],
                 ["--from", "0.5,0", "--to", "-0.5,0"], ["--from=0.5,0", "--to=-0.5,0"]):
        assert main(["chain", "--covering", cov, *ends]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[2] == outs[3] and outs[0].startswith("length=")
    for cover, flag, value in ((["levelset", "--alpha", "2,1"], "--c", "-0.04,0"),
                               (["graph", "--eps", "0.1"], "--mu", "-1,2")):
        space, joined = tmp_path / "space.json", tmp_path / "joined.json"
        assert main(["cover", *cover, flag, value, "--out", str(space)]) == 0
        assert main(["cover", *cover, f"{flag}={value}", "--out", str(joined)]) == 0
        assert space.read_bytes() == joined.read_bytes()


def test_an_oversized_sample_set_exits_two_before_it_is_drawn(tmp_path, capsys):
    """Two billion samples of the n=3 polydisc would be a 96 GB array; a
    negative count is a domain error too, not a traceback."""
    path = str(tmp_path / "p3.json")
    assert main(["cover", "polydisc", "--dim", "3", "--eta", "0.3", "--gamma", "2",
                 "--out", path]) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["verify", "coverage", "--covering", path, "--samples", "2000000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: AtlasError: ") and "samples x 3 dims" in err
    assert peak < 50 << 20
    assert main(["verify", "coverage", "--covering", path, "--samples", "-5"]) == 2
    assert capsys.readouterr().err == "error: ValueError: the sample count must be >= 0, got -5\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, cover", [
    (1, ["annulus", "--delta", "0.1", "--zeta", "2"]),
    (2, ["polydisc", "--dim", "2", "--eta", "0.75", "--gamma", "2"]),
    (2, ["levelset", "--alpha", "2,1", "--c", "0.04,0", "--gamma", "2"]),
], ids=["annulus", "polydisc", "levelset"])
def test_chain_with_malformed_endpoints_exits_two(tmp_path, capsys, n, cover):
    """Wrong lengths name the covering's dimension; nan and inf lie in no
    chart.  Each prints one error line and no numpy warning."""
    out = tmp_path / "cov.json"
    assert main(["cover", *cover, "--out", str(out)]) == 0
    capsys.readouterr()
    good, long = ",".join(["0.5,0"] * n), ",".join(["0.5,0"] * (n + 1))
    cases = [(long, good, "DimensionMismatch"), (good, long, "DimensionMismatch"),
             (long, long, "DimensionMismatch")]
    cases += [(good.replace("0.5,0", bad, 1), good, "NoContainingChart")
              for bad in ("nan,0", "inf,0", "0.5,-inf", "inf,nan")]
    for src, dst, error in cases:
        assert main(["chain", "--covering", str(out), f"--from={src}", f"--to={dst}"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and re.match(f"error: {error}: ", err), (src, dst, err)
        if error == "DimensionMismatch":
            assert err.endswith(f"for a covering of dim {n}\n")
    assert main(["chain", "--covering", str(out), "--from=", f"--to={good}"]) == 2
    assert "error: argument --from: invalid _point_arg value: ''" in capsys.readouterr().err


def test_scaling_csv_columns(tmp_path):
    """The annulus run, and the level-set run, whose kappa is the covering's
    and whose bound is `named_bound("level_set")` at eta = |c|^(1/min alpha)."""
    out = tmp_path / "rows.csv"
    eta = level_lower_bound(0.1, 1.0, 1)
    cases = [(["annulus", "--zeta", "2"], cover_annulus(0.1, 2.0).kappa,
              named_bound("whitney_disks", {"zeta": 2.0, "delta": 0.1})),
             (["levelset", "--alpha", "2,1"], cover_monomial_level_set((2, 1), 0.1, 2.0).kappa,
              named_bound("level_set", {"alpha1": 2, "n": 2, "gamma": 2.0, "eta": eta}))]
    for argv, kappa, bound in cases:
        assert main(["scaling", "--experiment", *argv,
                     "--grid", "0.1,0.01,0.001", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "param,kappa,paper_bound,ratio,log_inv_param"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.1
        assert int(first[1]) == kappa
        assert float(first[2]) == bound


def test_polydisc_cli_writes_and_verifies(tmp_path, capsys):
    out = tmp_path / "poly.json"
    assert main(["cover", "polydisc", "--dim", "2", "--eta", "0.75",
                 "--gamma", "2", "--out", str(out)]) == 0
    cov = read_covering(out)
    assert cov == cover_punctured_polydisc(2, 0.75, 2.0)[0]
    assert main(["verify", "doubling", "--covering", str(out)]) == 0
    assert main(["verify", "coverage", "--covering", str(out),
                 "--samples", "1000", "--seed", "3"]) == 0


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "schema" in capsys.readouterr().out


def test_coverage_failure_exits_one(tmp_path):
    cov = cover_annulus(0.1, 2.0)
    from atlascover.core import Covering
    pruned = Covering(ambient=cov.ambient, gamma=cov.gamma,
                      charts=list(cov.charts)[1:], meta=cov.meta)
    path = tmp_path / "pruned.json"
    write_covering(pruned, path)
    assert main(["verify", "coverage", "--covering", str(path),
                 "--samples", "8000", "--seed", "0"]) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta, message", [(math.nan, "delta must be finite, got nan"),
                                            (-0.5, "delta must be positive, got -0.5")])
def test_coverage_of_a_file_whose_delta_is_not_positive_exits_two(tmp_path, capsys, delta, message):
    """A schema-1 annulus file whose `meta.delta` is NaN or negative names
    the bad delta before any sample is drawn, where it once sampled an
    undefined region and reported a coverage failure."""
    d = covering_to_dict(cover_annulus(0.1, 2.0))
    assert d["schema_version"] == "1"
    d["meta"]["delta"] = delta
    path = tmp_path / "bad-delta.json"
    path.write_text(json.dumps(d))
    assert main(["verify", "coverage", "--covering", str(path), "--samples", "1000"]) == 2
    assert capsys.readouterr().err == f"error: ValueError: {message}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build, meta, message", [
    (lambda: cover_punctured_polydisc(2, 0.75, 2.0)[0], {},
     "the covering's meta has no 'eta' to sample by"),
    (lambda: cover_annulus(0.1, 2.0), {}, "the covering's meta has no 'delta' to sample by"),
    (lambda: cover_punctured_polydisc(2, 0.75, 2.0)[0], {"eta": [0.75]},
     "the covering's meta 'eta': expected a number, got [0.75]"),
    (lambda: cover_annulus(0.1, 2.0), {"delta": [0.1]},
     "the covering's meta 'delta': expected a number, got [0.1]"),
], ids=["polydisc-no-eta", "annulus-no-delta", "polydisc-eta-list", "annulus-delta-list"])
def test_coverage_of_a_hand_made_file_without_its_meta_number_exits_two(
        tmp_path, capsys, build, meta, message):
    """A schema-1 file of 50 charts whose meta lacks the number its region
    is sampled by, or holds a list there, names the key and exits 2, where
    it once ended in a `KeyError` or `TypeError` traceback."""
    from atlascover.core import Covering
    cov = build()
    path = tmp_path / "hand-made.json"
    write_covering(Covering(cov.ambient, cov.gamma, list(cov.charts)[:50], meta), path)
    assert json.loads(path.read_text())["schema_version"] == "1"
    assert main(["verify", "coverage", "--covering", str(path), "--samples", "100"]) == 2
    assert capsys.readouterr().err == f"error: MalformedFile: {message}\n"


def test_domain_error_exits_two(capsys):
    assert main(["cover", "levelset", "--alpha", "2,1", "--c", "0,0",
                 "--gamma", "2", "--out", "/tmp/never.json"]) == 2
    assert "NotARegularValue" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_malformed_tolerance_exits_two(tmp_path, capsys, monkeypatch, value):
    """`ATLAS_TOL` that is NaN, negative or infinite ends every check that
    reads the tolerance in one domain error line and exit code 2."""
    path = str(tmp_path / "annulus.json")
    assert main(["cover", "annulus", "--delta", "0.1", "--zeta", "2", "--out", path]) == 0
    capsys.readouterr()
    monkeypatch.setenv("ATLAS_TOL", value)
    for argv in (["verify", "coverage", "--covering", path],
                 ["verify", "doubling", "--covering", path],
                 ["chain", "--covering", path, "--from", "0.5,0", "--to=-0.5,0"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"error: InvalidTolerance: a tolerance must be a finite number >= 0; "
            f"ATLAS_TOL={value!r} is {float(value)}"]


def test_the_parser_is_built_once_per_process(monkeypatch, capsys):
    """The first `main` call builds the parser tree; later calls, whatever
    their outcome, build no parser at all."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._build_parser.cache_clear()
    counts = []
    for argv in (["--version"], ["conquer"], ["cover", "annulus", "--delta", "0.1"],
                 ["eta", "--delta", "0.1", "--c-lower", "0.5", "--c-unit", "2",
                  "--d", "2", "--alpha0", "2"], ["--version"]):
        main(argv)
        counts.append(len(built))
    assert counts[0] > 1 and counts == [counts[0]] * len(counts)


def _calls(argvs, tmp_path, capsys):
    """(exit code, stdout, stderr, bytes of every file written so far) per call."""
    out = []
    for argv in argvs:
        code = main(argv)
        files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
        out.append((code, *capsys.readouterr(), files))
    return out


def test_the_kept_parser_answers_as_a_fresh_one(tmp_path, capsys, monkeypatch):
    """Errors, `--version`, list defaults and good runs, mixed in one process,
    print and exit as a newly built parser does: parsing leaves the parser
    and its defaults as they were, and writes to the streams of the call."""
    cov, rows, graph = (str(tmp_path / n) for n in ("a.json", "levels.csv", "graph.csv"))
    argvs = [["cover", "annulus", "--delta", "0.1"], ["--version"],
             ["scaling", "--experiment", "levelset", "--grid", "0.1,0.05,0.01", "--out", rows],
             ["conquer"],
             ["scaling", "--experiment", "graph", "--grid", "0.2,0.1,0.05", "--out", graph],
             ["cover", "annulus", "--delta", "0.1", "--zeta", "2", "--out", cov],
             ["verify", "coverage", "--covering", cov, "--samples", "500"],
             ["verify", "doubling", "--covering", cov],
             ["scaling", "--experiment", "levelset", "--grid", "0.1,0.05,0.01", "--out", rows],
             ["--version"]]
    with monkeypatch.context() as m:
        m.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = _calls(argvs, tmp_path, capsys)
    for p in tmp_path.iterdir():
        p.unlink()
    kept = _calls(argvs, tmp_path, capsys)
    assert [c[0] for c in kept] == [2, 0, 0, 2, 0, 0, 0, 0, 0, 0]
    assert kept[1][1].startswith("atlas ") and kept[0][2].startswith("usage: atlas cover annulus")
    assert kept == fresh


def test_a_new_process_exits_as_main_does(capsys):
    """`python -m atlascover.cli` prints and exits as `main` does in process."""
    src = str(Path(atlascover.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv, code in ((["--version"], 0), (["conquer"], 2)):
        proc = subprocess.run([sys.executable, "-m", "atlascover.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert main(argv) == proc.returncode == code
        assert capsys.readouterr() == (proc.stdout, proc.stderr)


def test_import_and_version_leave_the_thread_pool_unimported():
    """`concurrent.futures` (about 5 ms to import) is loaded only by a pooled
    coverage check: a new process that imports the package and runs
    `atlas --version` has not imported it."""
    src = str(Path(atlascover.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, atlascover\n"
            "from atlascover.cli import main\n"
            "assert main(['--version']) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("cover", [
    ["annulus", "--delta", "0.1", "--zeta", "2"],
    ["polydisc", "--dim", "2", "--eta", "0.75", "--gamma", "2"],
    ["levelset", "--alpha", "2,1", "--c", "0.04,0"],
], ids=["annulus", "polydisc", "levelset"])
def test_zero_samples_draw_none(tmp_path, capsys, cover):
    """`--samples 0` checks no point: the empty region's vacuous pass."""
    path = str(tmp_path / "cov.json")
    assert main(["cover", *cover, "--out", path]) == 0
    capsys.readouterr()
    assert main(["verify", "coverage", "--covering", path, "--samples", "0"]) == 0
    assert capsys.readouterr().out == "coverage 0/0 rate=1.000000 pass=True\n"


@pytest.mark.parametrize("argv, message", [
    (["cover", "graph", "--mu", "inf", "--eps", "0.1"],
     "ValueError: the exponents mu must be finite, got (inf,)"),
    (["cover", "graph", "--mu", "0.5,nan", "--eps", "0.1"],
     "ValueError: the exponents mu must be finite, got (0.5, nan)"),
    (["cover", "graph", "--mu", "0.5", "--coeff", "inf", "--eps", "0.1"],
     "ValueError: the coefficient must be finite and positive, got inf"),
    (["cover", "graph", "--mu", "0.5", "--coeff", "nan", "--eps", "0.1"],
     "ValueError: the coefficient must be finite and positive, got nan"),
    (["cover", "levelset", "--alpha", "2,1", "--c", "0.04,nan"],
     "ValueError: c must be finite, got (0.04+nanj)"),
    (["cover", "levelset", "--alpha", "2,1", "--c", "inf,0"],
     "ValueError: c must be finite, got (inf+0j)"),
    (["cover", "annulus", "--delta", "inf", "--zeta", "2"],
     "ValueError: delta must be finite, got inf"),
    (["cover", "annulus", "--delta", "0.1", "--zeta", "inf"],
     "ValueError: zeta must be finite, got inf"),
    (["cover", "polydisc", "--dim", "2", "--eta", "inf", "--gamma", "2"],
     "ValueError: eta must be finite, got inf"),
    (["cover", "polydisc", "--dim", "2", "--eta", "nan", "--gamma", "2"],
     "ValueError: eta must be finite, got nan"),
    (["cover", "polydisc", "--dim", "2", "--eta", "0", "--gamma", "2"],
     "ValueError: eta must be positive, got 0.0"),
    (["cover", "polydisc", "--dim", "2", "--eta", "0.5", "--gamma", "inf"],
     "ValueError: gamma must be finite, got inf"),
    (["cover", "levelset", "--alpha", "2,1", "--c", "0.04,0", "--gamma", "inf"],
     "ValueError: gamma must be finite, got inf"),
    (["scaling", "--experiment", "annulus", "--grid", "0.1,nan,0.01"],
     "ValueError: the parameter grid must be finite, got [0.1, nan, 0.01]"),
    (["cover", "polydisc", "--dim", "1000", "--eta", "0.5", "--gamma", "2", "--count-only"],
     "ValueError: gamma^dim = 2.0^1000 is too large: the rings of level 1 cannot be sized, "
     "as the ring ratio 1 - 1/(4 zeta) of zeta = 1.0715086071862673e+301 rounds to 1"),
    (["cover", "polydisc", "--dim", "1000", "--eta", "0.5", "--gamma", "2", "--active-axes", "960",
      "--count-only"],
     "ValueError: gamma^dim = 2.0^1000 is too large: the rings of level 960 cannot be sized, "
     "as the ring ratio 0.9999999999999508 of zeta = 5078426674188.778 is too close to 1: "
     "the angle a disk spans rounds to 0"),
], ids=["mu-inf", "mu-nan", "coeff-inf", "coeff-nan", "c-nan", "c-inf", "delta-inf",
        "zeta-inf", "eta-inf", "eta-nan", "eta-0", "gamma-inf", "levelset-gamma-inf", "grid-nan",
        "ring-ratio-rounds-to-1", "ring-ratio-too-close-to-1"])
def test_non_finite_inputs_are_domain_errors(tmp_path, capsys, argv, message):
    """Each is one error line naming the input, exit 2, and no file."""
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["cover", "polydisc", "--dim", "2000", "--eta", "0.5", "--gamma", "2", "--count-only"],
    ["scaling", "--experiment", "polydisc", "--dim", "2000", "--grid", "0.5,0.4,0.3",
     "--out", "never.csv"],
], ids=["cover", "scaling"])
def test_an_overflowing_factor_is_a_domain_error(tmp_path, capsys, monkeypatch, argv):
    """gamma^dim past the largest float names both flags, exit 2, and no file."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: ValueError: gamma^dim = 2.0^2000 overflows a float\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("cover, key, value", [
    (["graph", "--mu", "0.5,-0.25", "--eps", "0.01"], ("coefficient",), float("inf")),
    (["graph", "--mu", "0.5,-0.25", "--eps", "0.01"], ("mu",), [0.5, float("nan")]),
    (["levelset", "--alpha", "2,1", "--c", "0.04,0"], ("ambient", "c"), [0.04, float("nan")]),
    (["levelset", "--alpha", "2,1", "--c", "0.04,0", "--materialize"], ("ambient", "c"),
     [float("inf"), 0.0]),
], ids=["coefficient", "mu", "c", "c-v1"])
def test_files_with_non_finite_inputs_are_malformed(tmp_path, capsys, cover, key, value):
    path = tmp_path / "f.json"
    assert main(["cover", *cover, "--out", str(path)]) == 0
    d = json.loads(path.read_text())
    leaf = d
    for k in key[:-1]:
        leaf = leaf[k]
    leaf[key[-1]] = value
    path.write_text(json.dumps(d))
    capsys.readouterr()
    argv = (["verify", "achart", "--charts", str(path)] if cover[0] == "graph"
            else ["verify", "doubling", "--covering", str(path)])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: MalformedFile: ")
    assert "must be finite" in err


def test_an_oversized_achart_scan_exits_two_before_it_is_built(tmp_path, capsys):
    """`--grid 400` on the 2,744,000-chart m=3 atlas asks for a (400, 400, 400)
    scan lattice and a 20 x 3 x 64,001,001 powers table; both are counted and
    refused before either exists."""
    path = str(tmp_path / "m3.json")
    assert main(["cover", "graph", "--mu=0.5,-0.25,0.5", "--eps", "0.01", "--out", path]) == 0
    assert capsys.readouterr().out == f"count=2744000 -> {path}\n"
    tracemalloc.start()
    try:
        code = main(["verify", "achart", "--charts", path, "--grid", "400"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2 and err == ("error: AtlasError: 20 offsets x 3 axes x 64001001 scan points "
                                 "= 3840060060 entries are over the budget of 100000000\n")
    assert peak < 50 << 20

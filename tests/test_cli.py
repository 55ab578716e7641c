import json
import re

import pytest

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
from atlascover.levelset import cover_monomial_level_set, level_base_plan
from atlascover.polydisc import cover_punctured_polydisc
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
    """The annulus run, and the level-set run, whose kappa is alpha_1 times
    the base plan's and whose bound is `named_bound("level_set")`."""
    out = tmp_path / "rows.csv"
    plan = level_base_plan((2, 1), 0.1, 2.0)
    cases = [(["annulus", "--zeta", "2"], cover_annulus(0.1, 2.0).kappa,
              named_bound("whitney_disks", {"zeta": 2.0, "delta": 0.1})),
             (["levelset", "--alpha", "2,1"], 2 * plan.kappa_final,
              named_bound("level_set", {"alpha1": 2, "n": 2, "gamma": 2.0, "eta": plan.eta}))]
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

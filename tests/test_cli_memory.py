"""An output that cannot be built in memory ends in exit 2 and leaves no file."""

import pytest

from atlascover import jsonio
from atlascover.cli import main


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 3.43 GiB")


@pytest.mark.parametrize("builder, argv", [
    ("covering_to_dict", ["cover", "annulus", "--delta", "0.1", "--zeta", "2",
                          "--materialize"]),
    ("achart_atlas_to_dict", ["cover", "graph", "--mu", "1", "--eps", "0.3",
                              "--materialize"]),
    ("recipe_to_dict", ["cover", "annulus", "--delta", "0.1", "--zeta", "2"]),
    ("achart_recipe_to_dict", ["cover", "graph", "--mu", "1", "--eps", "0.3"]),
])
def test_memory_error_exits_2_without_a_file(tmp_path, monkeypatch, capsys, builder, argv):
    monkeypatch.setattr(jsonio, builder, _out_of_memory)
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: MemoryError: Unable to allocate")

"""The timing scripts under tools/ refuse what they cannot summarise before timing anything."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("runs", ["1", "0", "-3"])
def test_verify_pairs_refuses_fewer_than_two_runs_before_timing(monkeypatch, capsys, tmp_path, runs):
    pairs = load_tool("verify_pairs")

    def refuse(*args):
        raise AssertionError("nothing may be timed")

    monkeypatch.setattr(pairs, "Server", refuse)
    monkeypatch.setattr(pairs, "cold", refuse)
    out = tmp_path / "pairs.json"
    monkeypatch.setattr(sys, "argv", ["verify_pairs.py", "--src", str(tmp_path), "--out", str(out), "--runs", runs])
    with pytest.raises(SystemExit) as stopped:
        pairs.main()
    # a usage error, as argparse gives one, and no section written
    assert stopped.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"verify_pairs.py: error: --runs must be at least 2, got {runs}"
    assert not out.exists()


@pytest.mark.parametrize("mode", ["--probes", "--tables"])
@pytest.mark.parametrize("reps", ["0", "-2"])
def test_route_grid_refuses_fewer_than_one_rep_before_timing(monkeypatch, capsys, tmp_path, mode, reps):
    grid = load_tool("route_grid")

    def refuse(*args):
        raise AssertionError("nothing may be timed")

    monkeypatch.setattr(grid, "best_call_s", refuse)
    out = tmp_path / "grid.json"
    monkeypatch.setattr(sys, "argv", ["route_grid.py", mode, "--out", str(out), "--reps", reps])
    with pytest.raises(SystemExit) as stopped:
        grid.main()
    assert stopped.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"route_grid.py: error: --reps must be at least 1, got {reps}"
    assert not out.exists()


@pytest.mark.parametrize("modes", [[], ["--probes", "--tables"]])
def test_route_grid_takes_exactly_one_of_probes_and_tables(monkeypatch, capsys, tmp_path, modes):
    grid = load_tool("route_grid")
    out = tmp_path / "grid.json"
    monkeypatch.setattr(sys, "argv", ["route_grid.py", *modes, "--out", str(out)])
    with pytest.raises(SystemExit) as stopped:
        grid.main()
    assert stopped.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert error.startswith("route_grid.py: error: ") and "--probes" in error and "--tables" in error
    assert not out.exists()

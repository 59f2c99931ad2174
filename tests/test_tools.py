"""The scripts under tools/: what route_grid refuses before timing anything and what it times, and what loc counts."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("reps", ["0", "-2"])
def test_route_grid_refuses_fewer_than_one_rep_before_timing(monkeypatch, capsys, tmp_path, reps):
    grid = load_tool("route_grid")

    def refuse(*args):
        raise AssertionError("nothing may be timed")

    monkeypatch.setattr(grid, "best_call_s", refuse)
    out = tmp_path / "grid.json"
    monkeypatch.setattr(sys, "argv", ["route_grid.py", "--out", str(out), "--reps", reps])
    with pytest.raises(SystemExit) as stopped:
        grid.main()
    assert stopped.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"route_grid.py: error: --reps must be at least 1, got {reps}"
    assert not out.exists()


@pytest.mark.parametrize("deleted", ["--probes", "--tables", "--seed 19"])
def test_route_grid_refuses_its_deleted_modes(monkeypatch, capsys, tmp_path, deleted):
    grid = load_tool("route_grid")
    out = tmp_path / "grid.json"
    monkeypatch.setattr(sys, "argv", ["route_grid.py", *deleted.split(), "--out", str(out)])
    with pytest.raises(SystemExit) as stopped:
        grid.main()
    assert stopped.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"route_grid.py: error: unrecognized arguments: {deleted}"
    assert not out.exists()


def test_route_grid_probes_time_the_passing_equivalence_half(monkeypatch, tmp_path):
    grid = load_tool("route_grid")
    # the sieve and triangle probes take seconds; the equivalence half alone is timed here
    monkeypatch.setattr(grid, "probe_cells", lambda: [])
    monkeypatch.setattr(grid, "TRIANGLE_PROBES", ())
    out = tmp_path / "grid.json"
    monkeypatch.setattr(sys, "argv", ["route_grid.py", "--reps", "1", "--out", str(out)])
    assert grid.main() == 0
    section = json.loads(out.read_text())["probes"]
    assert [probe["probe"] for probe in section["probes"]] == [
        "equivalence_exhaustive",
        "equivalence_random seed 42",
        "loworder_forms seed 42",
    ]
    assert all(probe["best_ms"] > 0 for probe in section["probes"])

    # a tree whose sweep fails is not timed
    from symex import esp

    factors = esp._binomial_factors
    monkeypatch.setattr(esp, "_binomial_factors", lambda *fill: (factor + 1 for factor in factors(*fill)))
    with pytest.raises(SystemExit, match="^equivalence_exhaustive failed: "):
        grid.main()


def test_route_grid_sieve_and_triangle_probes_run_the_real_partials(monkeypatch, tmp_path):
    grid = load_tool("route_grid")
    # one tiny sieve cell and one 3-row triangle, called as the real probes call them
    monkeypatch.setattr(grid, "probe_cells", lambda: [("3 roots, i=3", (2, 3, 4), 3)])
    monkeypatch.setattr(grid, "TRIANGLE_PROBES", (("pascal", 3),))
    monkeypatch.setattr(grid, "equivalence_runs", lambda: [])
    out = tmp_path / "grid.json"
    monkeypatch.setattr(sys, "argv", ["route_grid.py", "--reps", "1", "--out", str(out)])
    assert grid.main() == 0
    section = json.loads(out.read_text())["probes"]
    assert [probe["probe"] for probe in section["probes"]] == ["3 roots, i=3", "specialize pascal 3"]
    assert all(probe["best_ms"] > 0 for probe in section["probes"])


# A fixture src/: symex/__init__.py has 7 docstring lines (module, class,
# method and async function docstrings, the blank line inside one
# included), 2 comments, 5 code lines (a string after a docstring is code)
# and 5 blank ones; symex/parts.py a comment and a code line; helper.py
# lies outside symex/ and is not counted.
LOC_FIXTURE = {
    "symex/__init__.py": '''"""A fixture package.

Its blank line above is a docstring line."""
# a comment
__all__ = ["Widget", "count"]


class Widget:
    """A class docstring."""

    # an indented comment
    def size(self):
        """A method docstring
        over two lines."""
        "a later string is code"


async def count():
    """An async function docstring."""
''',
    "symex/parts.py": "# only a comment\nVALUE = 1\n",
    "helper.py": '"""Not symex."""\nVALUE = 2\n',
}


def test_loc_counts_each_kind_of_line_and_the_exports(tmp_path):
    src = tmp_path / "src"
    (src / "symex").mkdir(parents=True)
    for name, text in LOC_FIXTURE.items():
        (src / name).write_text(text)
    # symex is imported from the given src/, not from this checkout's
    out = subprocess.run([sys.executable, str(TOOLS / "loc.py"), str(src)], capture_output=True, text=True, check=True).stdout
    assert out == "code 6 docstring 7 comment 3 blank 5 total 21 __all__ 2\n"

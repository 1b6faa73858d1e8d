"""tools/ab.py loads two trees of the package side by side and times them
on the benchmark's ops: run with one tree twice, every category's answers
get equal digests.  Timings are printed, never checked here."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import bigraphpoly

TOOL = Path(__file__).parents[1] / "tools" / "ab.py"
SRC = Path(__file__).parents[1] / "src"


def load_tool():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_one_tree_twice_gives_equal_digests():
    pytest.importorskip("sympy")  # perfbench/gen.py factors with it
    out = subprocess.run(
        [sys.executable, str(TOOL), str(SRC), str(SRC), "--workload", "algebra", "--seed", "1",
         "--blocks", "1", "--reps", "1"],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out[0].startswith("# algebra: seed 1, 64 ops, 1 passes")
    rows = [line.split() for line in out[2:]]
    assert [row[0] for row in rows] == ["canon", "canon_guard", "cli", "decode", "encode",
                                         "iso", "iso_guard", "product", "sum", "all"]
    assert sum(int(row[1]) for row in rows[:-1]) == int(rows[-1][1]) == 64
    for row in rows:
        assert row[-1] == "equal" and row[-3] == row[-2], row


def test_a_tree_loads_under_its_own_name():
    """The copy is a second package: its classes are not the installed
    ones, yet its answers read the same as plain data."""
    tool = load_tool()
    copy = tool.load(SRC, "bigraphpoly_copy")
    try:
        assert copy.Poly1 is not bigraphpoly.Poly1
        assert copy.core.__name__ == "bigraphpoly_copy.core"
        g = [bp.decode(bp.parse_poly1("2*x^3 + x^2 + 1")) for bp in (bigraphpoly, copy)]
        assert tool.plain(g[0], bigraphpoly) == tool.plain(g[1], copy)
        assert tool.plain(bigraphpoly.parse_poly1("x + 1"), bigraphpoly) != tool.plain(
            copy.parse_poly1("x + 2"), copy)
    finally:
        for name in [name for name in sys.modules if name.startswith("bigraphpoly_copy")]:
            del sys.modules[name]

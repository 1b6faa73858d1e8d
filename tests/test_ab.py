"""tools/ab.py loads two trees of the package side by side and times them
on the benchmark's ops: run with one tree twice, every category's answers
and steps get equal digests, a copy that charges one more step gets
different ones, and a copy with an uncharged extra pass gets equal ones
and reads slower.  Only that planted pass's timing is checked here, far
past the noise of one machine."""

import importlib.util
import shutil
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


def test_the_pass_range_is_the_least_and_the_greatest_ratio_of_one_pass(capsys):
    """Per category the row shows the NEW/OLD ratio of the sums of the
    op medians and, after it, the lowest and the highest ratio of the two
    trees' sums over one pass: here 1.0 seconds against 1.0, 2.0 and 0.5
    in its three passes, and 1.0 against 1.0 in the op medians."""
    rows = [("cat", [[0.5, 0.5, 0.5], [0.5, 1.0, 0.25]], ["x", "x"]),
            ("cat", [[0.5, 0.5, 0.5], [0.5, 1.0, 0.25]], ["y", "y"])]
    load_tool().report(rows)
    out = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert out[0][7:9] == ["pass", "range"]
    assert [row[:6] for row in out[1:]] == [
        ["cat", "2", "1000.00", "1000.00", "1.000", "0.500-2.000"],
        ["all", "2", "1000.00", "1000.00", "1.000", "0.500-2.000"]]


def test_one_tree_twice_prints_a_pass_range_per_category():
    """An A/A run of 3 passes prints a pass range for every category.  The
    range is not asserted to hold 1: three passes of noise alone leave 1
    outside it for about one category in four, and 6 of 8 such runs had a
    category whose range missed 1."""
    pytest.importorskip("sympy")  # perfbench/gen.py factors with it
    rows = ab_rows(SRC, SRC, "algebra", reps=3)
    assert rows["all"][1] == "64"
    for row in rows.values():
        low, high = map(float, row[5].split("-"))
        assert 0.5 < low <= high < 2, row


def ab_rows(old, new, workload, reps=1):
    """Per category row of tools/ab.py on one block of the workload at
    seed 1, by name: its fields, the op count second, the ratio fifth and
    whether the two digests are equal last."""
    out = subprocess.run(
        [sys.executable, str(TOOL), str(old), str(new), "--workload", workload, "--seed", "1",
         "--blocks", "1", "--reps", str(reps)],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    return {row[0]: row for row in map(str.split, out[2:])}


def digests(old, new, workload):
    """Per category row of tools/ab.py on one block of the workload at
    seed 1: its name, op count and whether the two digests are equal."""
    return {cat: (int(row[1]), row[-1]) for cat, row in ab_rows(old, new, workload).items()}


def planted_copy(tmp_path, old, new):
    """A copy of the package in tmp_path with the one polyfactor.py line old
    replaced by new."""
    copy = tmp_path / "src"
    shutil.copytree(SRC / "bigraphpoly", copy / "bigraphpoly",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / "bigraphpoly" / "polyfactor.py"
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return copy


def test_a_copy_that_charges_one_more_step_gets_other_digests(tmp_path):
    """A copy of the package whose bit-disjoint emission charges one step
    more than the tree gives the same answers, yet every decompose category
    digests differently: each op passes the verification and charges its
    emission.  The tree against itself digests equal."""
    pytest.importorskip("sympy")  # perfbench/gen.py factors with it
    charge = 'meter.charge(len(cdivs) * size - skipped, "emitting the factors")'
    copy = planted_copy(tmp_path, charge, charge.replace("- skipped", "- skipped + 1"))
    same = digests(SRC, SRC, "decompose")
    planted = digests(SRC, copy, "decompose")
    assert same.keys() == planted.keys() and same["all"][0] == 114
    assert all(equal == "equal" for _, equal in same.values())
    assert all(equal == "differ" for _, equal in planted.values())


def test_a_copy_with_an_uncharged_extra_pass_reads_slower_with_equal_digests(tmp_path):
    """A copy whose bit-disjoint search sorts its terms 300 times before it
    starts, charging nothing for it, gives the same answers after the same
    steps, so every decompose category digests equal, while the timing
    reads decompose well above 1: only the time shows such a pass."""
    pytest.importorskip("sympy")  # perfbench/gen.py factors with it
    first = "    c = gcd(*terms.values())\n"
    extra = "    for _ in range(300):\n        sorted(terms)\n"
    copy = planted_copy(tmp_path, first, extra + first)
    rows = ab_rows(SRC, copy, "decompose", reps=3)
    assert rows["all"][1] == "114"
    assert all(row[-1] == "equal" for row in rows.values()), rows
    assert float(rows["all"][4]) > 1.2, rows["all"]


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

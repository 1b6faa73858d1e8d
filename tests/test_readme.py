"""The README's Layout block names every module of src/bigraphpoly other
than __init__.py, and every tool under tools/, and its library quickstart
prints what its comments show."""

import os
import re
import subprocess
import sys
from pathlib import Path

import bigraphpoly

ROOT = Path(__file__).parents[1]


def layout():
    """Directory -> the file names the Layout block lists under it."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Layout", 1)[1].split("```")[1]
    named, folder = {}, None
    for line in block.splitlines():
        if line.endswith("/") and not line.startswith(" "):
            folder = named.setdefault(line, set())
        elif line.startswith("  ") and not line.startswith("   "):
            folder.add(line.split()[0])
    return named


def test_layout_names_every_module_and_tool():
    named = layout()
    modules = {f.name for f in (ROOT / "src" / "bigraphpoly").glob("*.py")} - {"__init__.py"}
    tools = {f.name for f in (ROOT / "tools").glob("*.py")}
    assert modules - named["src/bigraphpoly/"] == set()
    assert tools - named["tools/"] == set()


def test_quickstart_prints_what_its_comments_show():
    """Each print of the quickstart shows its output in a trailing comment,
    or in a comment line below it.  The block runs in a fresh interpreter
    against the package the tests import."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    want = []
    for i, line in enumerate(lines):
        if line.startswith("print("):
            shown = re.search(r"\s#\s(.*)$", line)
            want.append((shown[1] if shown else lines[i + 1].lstrip("# ")).strip())
    here = str(Path(bigraphpoly.__file__).parents[1])
    path = os.pathsep.join(filter(None, [here, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == want
    assert len(want) == 3

"""The README's Layout block names every module of src/bigraphpoly other
than __init__.py, and every tool under tools/."""

from pathlib import Path

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

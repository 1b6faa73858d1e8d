"""tools/code_lines.py counts the same lines on every Python version the
package supports, although Python 3.12 splits f-strings into several
tokens."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "code_lines.py"

# Twelve code lines: the import, the class line, the four lines of the list,
# both def lines, the nested return and the three lines of the f-string.
# The docstrings, the comment line and the blank lines do not count.
SNIPPET = '''"""A module docstring
over two lines."""

import os  # a trailing comment


class Point:
    """A class docstring."""

    # a comment line
    names = [
        "x",
        "y",
    ]

    def show(self):
        def inner():
            """A nested function docstring
            over two lines."""
            return os.sep

        return f"""{self.names[0]}
plain text
{inner()}"""
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_a_fixed_snippet():
    tool = load_tool()
    assert tool.docstring_lines(SNIPPET) == {1, 2, 8, 18, 19}
    assert tool.code_lines(SNIPPET) == 12

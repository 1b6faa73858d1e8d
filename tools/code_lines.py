"""Count the code lines of each module of src/bigraphpoly.

A code line is a line that holds a token other than a comment, a newline or
indentation, leaving out the docstrings of modules, classes and functions;
a token that spans lines, such as a triple-quoted string, counts on each of
its lines.  Prints one module a line, largest first, then the total.

    python3 tools/code_lines.py [package directory]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parents[1] / "src" / "bigraphpoly"
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(root.glob("*.py"))}
    for name, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<12} {n:>6,}")
    print(f"{'total':<12} {sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

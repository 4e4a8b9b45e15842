"""Count the code lines of Python source files: the lines that are not
blank, not comment-only and not part of a docstring (the first statement
of a module, class or function when it is a string).

    python3 scripts/code_lines.py [FILE ...]

With no files it counts src/fracflux/*.py of the checkout it sits in.
Prints one line per file, `<count> <name>`, then `<total> total`.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that make no line a code line on their own.
_NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python source."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted((Path(__file__).parent.parent / "src" / "fracflux").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path.name}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Count the code lines of the package and the driver entry.

A code line holds at least one Python token that is not a comment, and
is not part of a docstring (the leading string of a module, class or
function). Blank and comment-only lines do not count; the lines of any
other multi-line string do. Files are `crawlray/**/*.py` and
`__ray_entry__.py`.

    python tools/code_lines.py [REPO]

prints one `count path` line per file and the total last.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one Python source."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(repo: pathlib.Path) -> int:
    files = [*sorted((repo / "crawlray").rglob("*.py")), repo / "__ray_entry__.py"]
    total = 0
    for path in files:
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d} {path.relative_to(repo)}")
    print(f"{total:6d} total")
    return total


if __name__ == "__main__":
    main(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(__file__).parents[1])

"""Code lines per module under ``src/ssetforge/``, with a total.

    python3 scripts/code_lines.py            # the package
    python3 scripts/code_lines.py DIR        # the .py files directly in DIR

A code line is a line that holds a token.  Blank lines, comment lines
and the docstrings of modules, classes and functions are left out; a
line that holds code and a trailing comment counts.  Every line of a
string that spans several lines holds a token, unless the string is a
docstring.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ssetforge"

_NO_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(text: str) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    out: set[int] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(text: str) -> int:
    """The number of lines of text that hold a token outside a docstring."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NO_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(text))


def count_dir(directory: Path) -> dict[str, int]:
    """Code lines of each .py file directly in directory, by file name."""
    return {
        path.name: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(directory.glob("*.py"))
    }


def main(argv: list[str]) -> int:
    counts = count_dir(Path(argv[0]) if argv else PACKAGE)
    width = max(map(len, counts), default=5)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>6,}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""``scripts/code_lines.py`` counts the lines that hold a token, leaving
out blank lines, comments and docstrings."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"

SAMPLE = '''"""A module docstring
over two lines."""

import os  # counted: code before a comment

# a comment line


class A:
    """A class docstring."""

    def f(self):
        """A function
        docstring."""
        x = """a string that is
no docstring"""
        return x


def g():
    y = 1
    "a string after the first statement is no docstring"
    return (y,
            os.sep)
'''


def _script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_the_lines_that_hold_a_token(tmp_path):
    script = _script()
    # import, class, def f, both lines of x's string, return x, def g,
    # y = 1, the late string, and both lines of the return
    assert script.docstring_lines(SAMPLE) == {1, 2, 10, 13, 14}
    assert script.code_lines(SAMPLE) == 11
    (tmp_path / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "b.py").write_text("", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert script.count_dir(tmp_path) == {"a.py": 11, "b.py": 0}

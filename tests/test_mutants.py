"""The mutation catalogue in ``scripts/mutants.py`` still applies.

Running a mutant takes a suite run, so no mutant runs here: each old
text must occur exactly once in its file, so that a run mutates the
check it names and a mutant whose text is gone is caught when the code
changes, not when the catalogue is next run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "mutants.py"


def _catalogue():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_applies_exactly_once():
    mutants = _catalogue()
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names)) >= 12
    for m in mutants.MUTANTS:
        assert m.old != m.new and m.reason
        assert mutants.check_applies(m) is None, m.name


def test_a_mutant_whose_text_is_gone_does_not_apply(tmp_path):
    mutants = _catalogue()
    m = mutants.MUTANTS[0]
    target = tmp_path / m.path
    target.parent.mkdir(parents=True)
    target.write_text("no such text\n", encoding="utf-8")
    assert mutants.check_applies(m, tmp_path) == f"old text occurs 0 times in {m.path}"
    target.write_text(m.old + m.old, encoding="utf-8")
    assert mutants.check_applies(m, tmp_path) == f"old text occurs 2 times in {m.path}"
    assert mutants.check_applies(m._replace(path="missing.py"), tmp_path) == "missing.py is missing"

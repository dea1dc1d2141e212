"""The mutation catalogue in ``scripts/mutants.py`` still applies.

Running a mutant takes a suite run, so no mutant runs here: each old
text must occur exactly once in its file, so that a run mutates the
check it names and a mutant whose text is gone is caught when the code
changes, not when the catalogue is next run.  The record of which test
file killed each mutant names catalogue mutants and test files, and a
run puts a mutant's recorded file first without dropping any other.
The killer is read off a suite's output, its summary or, when the
memory limit cut it short, the last test it named.
"""

from __future__ import annotations

import importlib.util
import json
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


def test_recorded_killers_run_first_and_drop_no_file():
    mutants = _catalogue()
    names = [m.name for m in mutants.MUTANTS]
    killers = json.loads(mutants.KILLERS.read_text(encoding="utf-8"))
    assert list(killers) == [n for n in names if n in killers]
    everything = mutants.suite_files()
    assert "tests/test_mutants.py" not in everything and everything == sorted(everything)
    for path in killers.values():
        order = mutants.suite_files(path)
        assert order[0] == path and sorted(order) == everything


def test_killing_file_reads_the_summary_or_the_last_test_named():
    mutants = _catalogue()
    # -v names each test as it starts; an outcome the test's own output
    # pushed off its line stands alone, as "FAILED   [ 2%]"
    verbose = ["tests/test_a.py::test_x PASSED   [  1%]", "tests/test_b.py::test_y ",
               "FAILED    [  2%]"]
    summary = ["FAILED tests/test_b.py::test_y - assert 0", "ERROR tests/test_c.py"]
    assert mutants.killing_file(verbose + summary) == "tests/test_b.py"
    assert mutants.killing_file(summary[1:]) == "tests/test_c.py"
    # a suite the memory limit cut short prints no summary
    assert mutants.killing_file(verbose) == "tests/test_b.py"
    assert mutants.killing_file(["collected 0 items"]) is None

"""The benchmark's own checks; run with ``python3 -m pytest perfbench``.

They take about ten minutes: two of them replay whole campaigns.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pin  # noqa: E402
import run  # noqa: E402

# ROADMAP aim 2: the behaviour pin of the whole verification report
VERIFY_ALL_SEED0_SHA256 = "a54ebb3b4d9a6cc21611043933067b374249419b7eb89f5c88f9a733581fc158"


def test_verify_all_report_matches_roadmap_pin(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    monkeypatch.delenv("FORGE_ORACLE_BOUND", raising=False)
    from ssetforge.cli import main

    report = tmp_path / "report.txt"
    main(["verify", "all", "--seed", "0", "--report", str(report)])
    assert hashlib.sha256(report.read_bytes()).hexdigest() == VERIFY_ALL_SEED0_SHA256


def test_pinned_verdicts_reproduce():
    assert pin.main([]) == 0


def test_traced_run_matches_plain_and_counts_repeat():
    for workload in run.WORKLOADS:
        plain = run.run_session(workload, 1, count=20)
        first = run.run_session(workload, 1, count=20, trace=True)
        second = run.run_session(workload, 1, count=20, trace=True)
        assert first["verdicts"] == plain["verdicts"] == second["verdicts"]
        counts = {k: v for k, v in first["layers"].items() if v[1] != "s"}
        again = {k: v for k, v in second["layers"].items() if v[1] != "s"}
        assert counts == again
        assert counts["operators.Operator.new"][0] > 0


def test_tail_has_ten_cases_beyond_it():
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "comparison",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert json.loads((tmp_path / "BENCHMARK.json").read_text())["paths"] == ["perfbench"]

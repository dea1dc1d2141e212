"""Compare two checkouts on one benchmark workload inside one process.

    python3 scripts/ab_inprocess.py ../parent-checkout . --workload cylinders
    python3 scripts/ab_inprocess.py A B --workload comparison

Loads the ``ssetforge`` package and ``perfbench/workloads.py`` of each
checkout, A then B, into this one process under distinct module names,
and builds the workload's cases for seed ``SEED`` on each side.  After
one untimed warm-up pass over every case of both sides, each of
``PASSES`` passes runs every case of A and the same case of B back to
back, alternating which of the two goes first from case to case and
from pass to pass, and clears ``verify._COMPARISONS`` on both sides
first, as a fresh session starts without it.  A case is timed as the benchmark times it: its ``run``
call, with its ``finish`` check off the clock.

Per pass and side it takes cases/s (cases over summed case time), the
median case time (p50) and the tail, the time with ten cases beyond it
(``perfbench/run.py``'s definition).  It prints the median of each over
the passes, the ratio B/A of the medians, and how many passes each side
won on each.  The speed of a shared host swings between runs far more
than most changes under test; running the two sides interleaved in one
process cancels those swings, so a gain of a few percent resolves here
that separate runs leave unresolved.  Both sides share one interpreter
and hash seed, and set-up, memory and fresh-process costs are not
measured: this complements a ``BENCH_<n>.json`` from
``scripts/bench_record.py``, and never replaces it.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

SEED = 7
PASSES = 10
TAIL_BEYOND = 10


def load(checkout: Path, tag: str):
    """(verify module, workloads module) of the checkout, loaded under the
    names ``<tag>_ssetforge...`` and ``<tag>_workloads``.

    The package's modules import their siblings relatively and at module
    level, so once loaded they hold each other and keep working after
    their ``sys.modules`` entries are renamed; the renaming frees the
    name ``ssetforge`` for the other checkout."""
    src = str((checkout / "src").resolve())
    sys.path.insert(0, src)
    try:
        verify = importlib.import_module("ssetforge.verify")
        spec = importlib.util.spec_from_file_location(
            f"{tag}_workloads", checkout / "perfbench" / "workloads.py"
        )
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(src)
    for name in [n for n in sys.modules if n == "ssetforge" or n.startswith("ssetforge.")]:
        sys.modules[f"{tag}_{name}"] = sys.modules.pop(name)
    return verify, workloads


def tail(latencies: list[float]) -> float:
    ordered = sorted(latencies)
    return ordered[max(0, len(ordered) - TAIL_BEYOND - 1)]


def summary(latencies: list[float]) -> dict[str, float]:
    return {
        "cases_per_s": len(latencies) / sum(latencies),
        "case_ms_p50": 1000 * statistics.median(latencies),
        "case_ms_tail": 1000 * tail(latencies),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="checkout A, the baseline")
    parser.add_argument("b", type=Path, help="checkout B, the change")
    parser.add_argument("--workload", default="cylinders")
    args = parser.parse_args(argv)

    sides = [load(args.a, "a"), load(args.b, "b")]
    with tempfile.TemporaryDirectory(prefix="ab-inprocess-") as tmp:
        cases = [
            workloads.build(args.workload, SEED, Path(tmp) / tag)
            for (_, workloads), tag in zip(sides, "ab")
        ]
        if [c.name for c in cases[0]] != [c.name for c in cases[1]]:
            print("the two checkouts build different case lists", file=sys.stderr)
            return 2
        for side in cases:  # warm-up
            for case in side:
                case.run()()
        passes: list[list[dict[str, float]]] = []
        for k in range(PASSES):
            for verify, _ in sides:
                verify._COMPARISONS.clear()
            took: list[list[float]] = [[], []]
            failed = 0
            for i, pair in enumerate(zip(*cases)):
                first = (i + k) % 2
                for s in (first, 1 - first):
                    started = time.perf_counter()
                    finish = pair[s].run()
                    took[s].append(time.perf_counter() - started)
                    failed += not finish()[0]
            if failed:
                print(f"pass {k}: {failed} cases failed", file=sys.stderr)
                return 1
            passes.append([summary(t) for t in took])

    n = len(cases[0])
    print(f"{args.workload}, seed {SEED}: {n} cases, {PASSES} passes")
    for key in ("cases_per_s", "case_ms_p50", "case_ms_tail"):
        a = statistics.median(p[0][key] for p in passes)
        b = statistics.median(p[1][key] for p in passes)
        sign = 1 if key == "cases_per_s" else -1  # which way is better
        b_won = sum(sign * (p[1][key] - p[0][key]) > 0 for p in passes)
        a_won = sum(sign * (p[0][key] - p[1][key]) > 0 for p in passes)
        print(f"{key:13} A {a:10.4g}  B {b:10.4g}  B/A {b / a:.3f}"
              f"  passes won: A {a_won}, B {b_won} of {len(passes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

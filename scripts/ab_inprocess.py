"""Compare two checkouts on one benchmark workload inside one process.

    python3 scripts/ab_inprocess.py ../parent-checkout . --workload cylinders
    python3 scripts/ab_inprocess.py A B --workload comparison

First it imports each checkout's ``ssetforge`` in a child process and
reads the collection policy that the import leaves: whether the cyclic
collector is enabled and its thresholds.  One interpreter has one
collector, so an in-process A/B of two checkouts whose policies differ
would time both sides under whichever policy was loaded last; the script
refuses such a pair with a one-line error and exit status 2.  Compare
those with ``scripts/bench_record.py``, which runs each side in its own
processes.

Then it runs the comparison twice, each time in a fresh child process:
once loading A first, once loading B first.  A side loaded first can run
faster for that alone (on ``cli-small``, the side loaded first won every
pass whichever checkout it was), so each ratio is read in both orders
and the two are combined by their geometric mean.

Within one child, the ``ssetforge`` package and
``perfbench/workloads.py`` of each checkout are loaded under distinct
module names, and the workload's cases are built for seed ``SEED`` on
each side.  After one untimed warm-up pass over every case of both
sides, each of ``PASSES`` passes runs every case of A and the same case
of B back to back, alternating which of the two goes first from case to
case and from pass to pass, and clears ``verify._COMPARISONS`` on both
sides first, as a fresh session starts without it.  A case is timed as
the benchmark times it: its ``run`` call, with its ``finish`` check off
the clock.

Per pass and side it takes cases/s (cases over summed case time), the
median case time (p50) and the tail, the time with ten cases beyond it
(``perfbench/run.py``'s definition).  For each load order it prints the
median of each over the passes, the ratio B/A of the medians, and how
many passes each side won; then the geometric mean of the two orders'
ratios.  The speed of a shared host swings between runs far more than
most changes under test; running the two sides interleaved in one
process cancels those swings, so a gain of a few percent resolves here
that separate runs leave unresolved.  Both sides share one interpreter,
collector and hash seed, and set-up, memory and fresh-process costs are
not measured: this complements a ``BENCH_<n>.json`` from
``scripts/bench_record.py``, and never replaces it.  Standard library
only.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEED = 7
PASSES = 10
TAIL_BEYOND = 10
KEYS = ("cases_per_s", "case_ms_p50", "case_ms_tail")

# reads the collection policy that importing a checkout's package leaves
POLICY = ("import gc, json, sys; sys.path.insert(0, sys.argv[1]); import ssetforge; "
          "print(json.dumps([gc.isenabled(), gc.get_threshold()]))")
# runs the passes with the first checkout named loaded first
PASSES_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import ab_inprocess; "
                "sys.exit(ab_inprocess.child(*sys.argv[2:]))")


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


def policy(checkout: Path) -> list:
    """[enabled, thresholds] of the collector once the checkout's package is imported."""
    argv = [sys.executable, "-c", POLICY, str((checkout / "src").resolve())]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def tail(latencies: list[float]) -> float:
    ordered = sorted(latencies)
    return ordered[max(0, len(ordered) - TAIL_BEYOND - 1)]


def summary(latencies: list[float]) -> dict[str, float]:
    return {
        "cases_per_s": len(latencies) / sum(latencies),
        "case_ms_p50": 1000 * statistics.median(latencies),
        "case_ms_tail": 1000 * tail(latencies),
    }


def child(first: str, second: str, workload: str) -> int:
    """Load the two checkouts, first then second, run the passes, and
    print one JSON object: the case count and each pass's two summaries,
    the first checkout's first."""
    sides = [load(Path(first), "first"), load(Path(second), "second")]
    with tempfile.TemporaryDirectory(prefix="ab-inprocess-") as tmp:
        cases = [
            workloads.build(workload, SEED, Path(tmp) / tag)
            for (_, workloads), tag in zip(sides, ("first", "second"))
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
                lead = (i + k) % 2
                for s in (lead, 1 - lead):
                    started = time.perf_counter()
                    finish = pair[s].run()
                    took[s].append(time.perf_counter() - started)
                    failed += not finish()[0]
            if failed:
                print(f"pass {k}: {failed} cases failed", file=sys.stderr)
                return 1
            passes.append([summary(t) for t in took])
    print(json.dumps({"cases": len(cases[0]), "passes": passes}))
    return 0


def print_order(passes: list[list[dict[str, float]]]) -> dict[str, float]:
    """Print the medians, B/A and passes won of one load order, with each
    pass's summaries as [A, B]; return B/A per metric."""
    ratios = {}
    for key in KEYS:
        a = statistics.median(p[0][key] for p in passes)
        b = statistics.median(p[1][key] for p in passes)
        sign = 1 if key == "cases_per_s" else -1  # which way is better
        b_won = sum(sign * (p[1][key] - p[0][key]) > 0 for p in passes)
        a_won = sum(sign * (p[0][key] - p[1][key]) > 0 for p in passes)
        ratios[key] = b / a
        print(f"  {key:13} A {a:10.4g}  B {b:10.4g}  B/A {b / a:.3f}"
              f"  passes won: A {a_won}, B {b_won} of {len(passes)}")
    return ratios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="checkout A, the baseline")
    parser.add_argument("b", type=Path, help="checkout B, the change")
    parser.add_argument("--workload", default="cylinders")
    args = parser.parse_args(argv)

    policy_a, policy_b = policy(args.a), policy(args.b)
    if policy_a != policy_b:
        print(f"the collection policies differ (A {policy_a}, B {policy_b}): one process"
              " cannot time both; compare them with scripts/bench_record.py", file=sys.stderr)
        return 2

    ratios = []
    for label, order in (("A", (args.a, args.b)), ("B", (args.b, args.a))):
        argv = [sys.executable, "-c", PASSES_CHILD, str(Path(__file__).resolve().parent),
                *map(str, order), args.workload]
        done = subprocess.run(argv, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        out = json.loads(done.stdout)
        if label == "A":
            print(f"{args.workload}, seed {SEED}: {out['cases']} cases, {PASSES} passes"
                  " in each load order")
        print(f"{label} loaded first:")
        passes = out["passes"] if label == "A" else [p[::-1] for p in out["passes"]]
        ratios.append(print_order(passes))
    print("B/A, geometric mean of the two orders: " + ", ".join(
        f"{key} {math.sqrt(ratios[0][key] * ratios[1][key]):.3f}" for key in KEYS))
    return 0


if __name__ == "__main__":
    sys.exit(main())

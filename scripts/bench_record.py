"""Record benchmark medians as a BENCH_<n>.json file.

    python3 scripts/bench_record.py --out BENCH_6.json --runs 10
    python3 scripts/bench_record.py --out BENCH_6.json --baseline ../parent-checkout

Runs ``perfbench/run.py --trace 0`` ``--runs`` times for every workload
``BENCHMARK.json`` lists, on the tree this script sits in, at seeds ``--first-seed``, ``--first-seed + 1``,
and so on, for the run length ``BENCHMARK.json`` sets.  With
``--baseline`` it runs the same command in that checkout too, one
baseline run per seed, alternating which of the two goes first, so each
seed gives one pair.

The file holds, per workload and per side, the median and quartiles of
each end-to-end metric, the failed and attempted case counts, and each
run's metrics; with a baseline, also how many pairs the tree won on each
metric (ties count for neither side).  It also holds the host line that
``run.py`` prints and, per side, the checked-out commit and the git tree
id of ``src/`` as it was measured, uncommitted edits included.  That id
equals ``git rev-parse <commit>:src`` for any commit holding the same
code, so a record made on an uncommitted tree can be matched to the
commit that later holds it.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_KEYS = ("nproc", "cpu_model", "python")


def git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=tree, capture_output=True,
                          text=True, check=True).stdout.strip()


def commit_of(tree: Path) -> str:
    """The checked-out commit, with ``-dirty`` when tracked files differ from it."""
    dirty = git(tree, "status", "--porcelain", "--untracked-files=no")
    return git(tree, "rev-parse", "HEAD") + ("-dirty" if dirty else "")


def src_tree_of(tree: Path) -> str:
    """The git tree id of ``src/`` as it stands in the working tree."""
    # ``stash create`` commits the working tree's tracked files without
    # touching the tree, the index or the stash list; it prints nothing
    # when there is nothing uncommitted.
    snapshot = git(tree, "stash", "create") or "HEAD"
    return git(tree, "rev-parse", f"{snapshot}:src")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py`` run in ``tree``: its context line and its result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    context = json.loads(lines[0].removeprefix("context:"))
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "context": context,
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def summarize(runs: list[dict]) -> dict:
    names = runs[0]["metrics"]
    out = {"median": {}, "quartiles": {}}
    for name in names:
        values = [r["metrics"][name] for r in runs]
        out["median"][name] = statistics.median(values)
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
            out["quartiles"][name] = [q1, q3]
    out["failed"] = sum(r["failed"] for r in runs)
    out["attempted"] = sum(r["attempted"] for r in runs)
    out["runs"] = [{k: r[k] for k in ("seed", "failed", "attempted", "metrics")}
                   for r in runs]
    return out


def wins(tree_runs: list[dict], base_runs: list[dict], better: dict) -> dict:
    """Pairs in which the tree's run read better than the baseline's."""
    out = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        out[name] = sum(
            1 for t, b in zip(tree_runs, base_runs)
            if sign * (t["metrics"][name] - b["metrics"][name]) > 0
        )
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--runs", type=int, default=10, help="runs (pairs) per workload")
    parser.add_argument("--first-seed", type=int, default=7,
                        help="seed of the first run; 0 and 1 are the pinned seeds "
                             "and 2 to 6 were used to size changes, so 7 on are held out")
    parser.add_argument("--baseline", type=Path, help="a checkout to pair runs with")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"tree": ROOT}
    if args.baseline:
        sides["baseline"] = args.baseline.resolve()

    record: dict = {"run_seconds": seconds, "runs": args.runs,
                    "seeds": [args.first_seed + i for i in range(args.runs)],
                    "commit": {side: commit_of(tree) for side, tree in sides.items()},
                    "src_tree": {side: src_tree_of(tree) for side, tree in sides.items()},
                    "host": None, "workloads": {}}
    for workload in workloads:
        done: dict[str, list[dict]] = {side: [] for side in sides}
        for i, seed in enumerate(record["seeds"]):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for side in order:
                run = run_once(sides[side], workload, seed, seconds)
                done[side].append(run)
                record["host"] = record["host"] or {k: run["context"][k] for k in HOST_KEYS}
                print(f"{workload} seed {seed} {side}: "
                      f"{run['metrics']['cases_per_s']:.4g} cases/s, "
                      f"{run['failed']} of {run['attempted']} failed", flush=True)
        entry = {side: summarize(runs) for side, runs in done.items()}
        if "baseline" in sides:
            entry["tree_wins"] = wins(done["tree"], done["baseline"], better)
        record["workloads"][workload] = entry
        # written after every workload, so an interrupted run keeps what it has
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""ssetforge benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload comparison --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
With ``--trace 0`` the run starts two fresh-interpreter sessions one
after the other.  Each sets the workload up and then runs the same cases
from the start of its list, in a closed loop with one client, for half
of ``--seconds`` of case time.  With ``--trace 1`` a plain and a traced
session each run the workload's first ``TRACE_CASES`` cases, and the
run prints the per-layer metrics of the traced one.

Times are scaled to a reference host speed (see session.py); the raw
figures are printed alongside.  Every verdict is checked against the one
known by theorem, and for the seeds in ``pins.json`` against the pinned
verdict digests too.  The last line of output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
WORKLOADS = ("comparison", "regularity", "cylinders", "cli-small")
SESSIONS = 2
SESSION_TIMEOUT_S = 80
# Cases in a traced run: enough for every layer the workload drives to
# show, about three seconds of them untraced.
TRACE_CASES = {"comparison": 60, "regularity": 60, "cylinders": 40, "cli-small": 150}
TAIL_BEYOND = 10


def machine_context() -> dict:
    """Read-only facts about the host that explain run-to-run spread."""
    ctx = {
        "nproc": os.cpu_count(),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "commit": _git_commit(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                ctx["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return ctx


def load_and_steal() -> dict:
    out = {}
    try:
        out["loadavg"] = Path("/proc/loadavg").read_text().split()[:3]
        cpu = Path("/proc/stat").read_text().splitlines()[0].split()
        out["steal_ticks"] = int(cpu[8]) if len(cpu) > 8 else None
    except OSError:
        pass
    return out


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_session(workload: str, seed: int, *, budget: float = 0.0, count: int = 0,
                trace: bool = False, timeout: float = SESSION_TIMEOUT_S) -> dict:
    """Start one session, wait for it, and return its result and set-up time."""
    workdir = ROOT / ".perfbench-work" / f"{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("FORGE_ORACLE_BOUND", None)
    argv = [sys.executable, str(HERE / "session.py"), "--workload", workload,
            "--seed", str(seed), "--budget", str(budget), "--count", str(count),
            "--workdir", str(workdir)]
    if trace:
        argv.append("--trace")
    try:
        spawned = time.monotonic()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another session's directory is still there
            pass
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"session exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned - result["setup_probe_s"]
    result["scaled_setup_s"] = result["setup_s"] * result["setup_scale"]
    return result


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND cases beyond it,
    that percentile, and the number of cases beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def pin_mismatches(workload: str, seed: int, sessions: list[dict]) -> int:
    """Verdicts that differ from the pinned digests; 0 for unpinned seeds."""
    pins = json.loads(PINS.read_text()).get(workload, {}).get(str(seed))
    if pins is None:
        return 0
    bad = 0
    for s in sessions:
        if s["cases"] != len(pins["cases"]):
            return sum(len(s["verdicts"]) for s in sessions)
        bad += sum(1 for i, _, d in s["verdicts"] if pins["cases"][i] != d)
    return bad


def rate(session: dict, key: str = "scaled_latencies_s") -> float:
    return len(session[key]) / sum(session[key])


def plain_run(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    """Medians over the sessions, each of which timed the same cases."""
    sessions = [run_session(workload, seed, budget=seconds / SESSIONS)
                for _ in range(SESSIONS)]
    tails = [tail(s["scaled_latencies_s"]) for s in sessions]
    metrics = {
        "cases_per_s": (statistics.median(rate(s) for s in sessions), "1/s"),
        "case_ms_p50": (1000 * statistics.median(
            statistics.median(s["scaled_latencies_s"]) for s in sessions), "ms"),
        "case_ms_tail": (1000 * statistics.median(t[0] for t in tails), "ms"),
        "setup_s": (statistics.median(s["scaled_setup_s"] for s in sessions), "s"),
        "peak_rss_mb": (max(s["peak_rss_mb"] for s in sessions), "MB"),
    }
    for s, (_, pct, beyond) in zip(sessions, tails):
        print(f"tail: p{pct:.2f} of {len(s['latencies_s'])} cases, {beyond} beyond it")
    return metrics, sessions


def traced_run(workload: str, seed: int) -> tuple[dict, list[dict]]:
    count = TRACE_CASES[workload]
    plain = run_session(workload, seed, count=count)
    traced = run_session(workload, seed, count=count, trace=True)
    same = [d for _, _, d in plain["verdicts"]] == [d for _, _, d in traced["verdicts"]]
    print(f"tracing: {rate(plain):.4g} cases/s plain, {rate(traced):.4g} traced"
          f" (overhead x{rate(plain) / rate(traced):.3f}), verdicts identical: {same}")
    if not same:
        traced["verdicts"] = [(i, False, d) for i, _, d in traced["verdicts"]]
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    return metrics, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ssetforge" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2

    print("context:", json.dumps({**machine_context(), "start": load_and_steal()}))
    if args.trace:
        metrics, sessions = traced_run(args.workload, args.seed)
    else:
        metrics, sessions = plain_run(args.workload, args.seed, args.seconds)
    print("context:", json.dumps({"end": load_and_steal()}))

    attempted = sum(len(s["verdicts"]) for s in sessions)
    failed = sum(1 for s in sessions for _, ok, _ in s["verdicts"] if not ok)
    mismatched = pin_mismatches(args.workload, args.seed, sessions)
    if mismatched:
        print(f"{mismatched} verdicts differ from pins.json; every case counts as failed")
        failed = attempted
    for s in sessions:
        print(f"session: setup {s['setup_s']:.3f} s raw, {s['scaled_setup_s']:.3f} s scaled;"
              f" {len(s['latencies_s'])} cases, {rate(s, 'latencies_s'):.4g} cases/s raw,"
              f" {rate(s):.4g} scaled; peak rss {s['peak_rss_mb']:.1f} MB")
    print(f"fail_ratio: {failed / attempted:.4g} ({failed} of {attempted})")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:45s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

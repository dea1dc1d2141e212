"""One benchmark session in a fresh interpreter.

The session sets a workload up (import, ``gen_corpus(seed)``, the
workload's own inputs), then runs its cases one at a time from the
start of the list until ``--budget`` seconds of case time have passed,
``--count`` cases are done, or the list ends.  Checking a verdict is off
the clock.  The last line of output is one JSON object; ``run.py``
starts sessions and reads it.

Host speed.  On a shared host the same work can run at half speed from
one tenth of a second to the next.  So a timer interrupts the session
every ``PROBE_EVERY_S`` and times a fixed pure-Python reference loop,
which allocates nothing, through set-up and cases alike.  Every time
the session reports leaves out the time spent in the probe, and is also
given scaled to a host on which that loop takes ``REFERENCE_S``: times
``REFERENCE_S`` over the mean loop time of the probes from just before it started to just after
it ended.  The budget is counted in scaled time, so a session runs the
same cases whatever the host's speed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import signal
import time
import traceback
from pathlib import Path

REFERENCE_S = 0.001
PROBE_EVERY_S = 0.05
# A session also stops once this many times its budget has passed on the
# wall clock, so that slow verdict checks cannot stretch a run.
WALL_FACTOR = 4

# Every value the reference loop handles is a small int, which CPython
# caches, so the loop allocates nothing.
_REFERENCE_TABLE = {k: (k * 7) & 255 for k in range(1543)}
_REFERENCE_KEYS = [(i * 7919) % 1543 for i in range(18000)]
_REFERENCE_MIX = [(v * 167 + 13) & 255 for v in range(256)]


def reference_loop() -> float:
    """Seconds taken by a fixed chain of dict lookups, list indexing and
    bit operations.  It allocates nothing, and the collector is paused
    while it runs, so the program's heap does not slow it.  The collector
    is left as the program had set it."""
    table, mix = _REFERENCE_TABLE, _REFERENCE_MIX
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        acc = 0
        for k in _REFERENCE_KEYS:
            acc = mix[acc ^ table[k]]
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    """Times the reference loop whenever a timer signal arrives."""

    def __init__(self) -> None:
        self.loops: list[float] = []
        self.spent = 0.0  # seconds spent inside the probe so far
        self._busy = False

    def sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        started = time.perf_counter()
        self.loops.append(reference_loop())
        self.spent += time.perf_counter() - started
        self._busy = False

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.sample()

    def mark(self) -> tuple[int, float]:
        return len(self.loops), self.spent

    def scale(self, begin: tuple[int, float], end: tuple[int, float]) -> float:
        """REFERENCE_S over the mean loop time from the last probe before
        ``begin`` to the first after ``end``; valid once that one ran."""
        loops = self.loops[begin[0] - 1:end[0] + 1]
        return REFERENCE_S * len(loops) / sum(loops)


def digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:16]


def main(argv=None) -> int:
    probe = SpeedProbe()
    probe.start()
    begin = probe.mark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, default=0.0,
                        help="seconds of scaled case time; 0 means no limit")
    parser.add_argument("--count", type=int, default=0,
                        help="cases to run; 0 means no limit")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    import workloads

    cases = workloads.build(args.workload, args.seed, Path(args.workdir))
    ready = time.monotonic()
    spans = [(begin, probe.mark())]  # set-up, then each case

    raw: list[float] = []
    verdicts: list[tuple[int, bool, str]] = []
    scaled_busy = 0.0
    for index, case in enumerate(cases):
        ok, line = False, f"{case.name}: error"
        start = probe.mark()
        started = time.perf_counter()
        try:
            finish = case.run()
            took = time.perf_counter() - started
            end = probe.mark()
            ok, line = finish()
        except Exception:  # a failing case is a reported outcome
            took = time.perf_counter() - started
            end = probe.mark()
            traceback.print_exc()
        raw.append(took - (end[1] - start[1]))
        spans.append((start, end))
        verdicts.append((index, ok, digest(line)))
        scaled_busy += raw[-1] * REFERENCE_S / probe.loops[-1]
        if args.count and len(raw) >= args.count:
            break
        if args.budget and (scaled_busy >= args.budget
                            or time.monotonic() - ready > WALL_FACTOR * args.budget):
            break
    probe.stop()

    scales = [probe.scale(b, e) for b, e in spans]
    result = {
        "ready": ready,
        "setup_probe_s": spans[0][1][1],
        "setup_scale": scales[0],
        "cases": len(cases),
        "latencies_s": raw,
        "scaled_latencies_s": [t * k for t, k in zip(raw, scales[1:])],
        "verdicts": verdicts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The report of the ``all`` suite over seeds 0 to 40, against a committed digest.

    python3 scripts/sweep.py            # check every seed against SWEEP.json
    python3 scripts/sweep.py --write    # record SWEEP.json afresh

For each seed it runs the ``all`` suite on that seed's generated corpus
and takes the report as ``forge verify all --seed N --report FILE``
writes it: its sha256 and its pass, fail and skip counts.  Only seed 0's
report is pinned by the test suite, so this digest is the evidence that
a change keeps every other seed's verdicts too.

Every seed runs in this one process.  ``verify._COMPARISONS`` is cleared
before each seed, as a fresh process starts without it; no other state
of the package changes a report.  With no option it prints one line per
seed whose digest differs from the file, and exits 1 when any does.
The full sweep takes about a minute on a 2-core host.  Standard library
only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = ROOT / "SWEEP.json"
SEEDS = range(41)


def digest(seed: int) -> dict:
    """The sha256 and the pass, fail and skip counts of seed's report."""
    from ssetforge import verify
    from ssetforge.corpus import gen_corpus

    verify._COMPARISONS.clear()
    report = verify.run_suite("all", gen_corpus(seed))
    text = verify.format_report(report)
    entry = {"seed": seed, "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    entry.update((outcome, report.count(outcome)) for outcome in ("pass", "fail", "skip"))
    return entry


def load() -> dict[int, dict]:
    """The recorded entries, by seed."""
    return {entry["seed"]: entry for entry in json.loads(DIGEST.read_text(encoding="utf-8"))}


def differences(recorded: dict[int, dict], seeds) -> list[str]:
    """One line per seed whose report differs from its recorded entry."""
    out = []
    for seed in seeds:
        got, want = digest(seed), recorded.get(seed)
        if got != want:
            out.append(f"seed {seed}: recorded {want}, got {got}")
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="record the digest afresh")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    if args.write:
        entries = [digest(seed) for seed in SEEDS]
        DIGEST.write_text(
            "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n", encoding="utf-8"
        )
        print(f"wrote {len(entries)} seeds to {DIGEST.name}"
              f" in {time.perf_counter() - started:.1f} s")
        return 0
    lines = differences(load(), SEEDS)
    for line in lines:
        print(line)
    print(f"{len(SEEDS) - len(lines)} of {len(SEEDS)} seeds match {DIGEST.name}"
          f" in {time.perf_counter() - started:.1f} s")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

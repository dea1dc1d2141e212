"""Record or check the verdict pins in pins.json.

    python3 perfbench/pin.py            # check every workload at seeds 0 and 1
    python3 perfbench/pin.py --write    # record them instead

For each workload and pinned seed, one session runs the whole case list.
Its verdict digests are pinned case by case, so that a time-limited run
can check whatever prefix it reaches, and ``sha256`` hashes them all in
order: the workload's verdict hash for that seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from run import PINS, WORKLOADS, run_session

PINNED_SEEDS = (0, 1)
FULL_PASS_TIMEOUT_S = 600


def full_pass(workload: str, seed: int) -> dict:
    s = run_session(workload, seed, timeout=FULL_PASS_TIMEOUT_S)
    if len(s["verdicts"]) != s["cases"] or not all(ok for _, ok, _ in s["verdicts"]):
        raise RuntimeError(f"{workload} seed {seed}: a case failed or did not run")
    digests = [d for _, _, d in s["verdicts"]]
    joined = "\n".join(digests).encode()
    return {"sha256": hashlib.sha256(joined).hexdigest(), "cases": digests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    pins = json.loads(PINS.read_text())
    differ = 0
    for workload in WORKLOADS:
        for seed in PINNED_SEEDS:
            got = full_pass(workload, seed)
            want = pins.get(workload, {}).get(str(seed))
            same = want == got
            differ += not same
            print(f"{workload} seed {seed}: {len(got['cases'])} cases,"
                  f" sha256 {got['sha256']}{'' if same else ' (differs from pin)'}")
            pins.setdefault(workload, {})[str(seed)] = got
    if args.write:
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        return 0
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

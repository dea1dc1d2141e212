"""Time and memory of the main comparison on inputs larger than the corpus's.

    python3 scripts/probe_wide.py
    python3 scripts/probe_wide.py --src ../other-checkout/src
    python3 scripts/probe_wide.py --case comparison --seed 7 --index 0

With no ``--case``, it prints three tables.  The first gives, for Δ[5],
∂Δ[5], Δ[2]×Δ[2], Δ[3]×Δ[1], ∂Δ[6] and Δ[6], the cells and dimension
of the input, the cells of its subdivision, the seconds of the main
comparison (best of three in this process), the seconds of that best run
spent in the cyclic collector (summed from ``gc.callbacks``, registered
only while the comparison runs) and the peak RSS of one comparison in a
fresh process.  The collector runs under the policy that importing the
package sets.  The main comparison is the one ``verify`` runs:
``is_regular``, ``sd``, ``b_nat``, ``desingularized_comparison`` and
``is_isomorphism``.  The second gives ``tracemalloc``'s live bytes per
cell of ``sd``, of the nerve of the cell poset and of ``b`` beyond that
nerve, on Δ[5] and Δ[6]; each is measured after one warm-up build, so
the module caches are not counted.  The third gives, for Δ[a]×Δ[b] with
1 <= a <= b and a + b <= 7, the seconds of ``product`` (best of three,
each on factors built afresh outside the clock, so no face row is
memoized on them), the cells it keeps, and the pairs of simplices of one
degree that its enumeration scans to find them.  The product's
projections are not read, so a checkout that builds them eagerly pays
for them and one that builds them on first read does not.

With ``--case``, it runs one case of a benchmark workload, built as
``perfbench/workloads.py`` builds it at ``--seed``, under ``tracemalloc``:
the traced peak during the case, the bytes it leaves live, and the
ten source lines holding most of them.

``--src`` imports ``ssetforge`` from another source tree, so two
checkouts can be compared with one script.  Standard library only; not
part of the test suite.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ("Δ[5]", "∂Δ[5]", "Δ[2]×Δ[2]", "Δ[3]×Δ[1]", "∂Δ[6]", "Δ[6]")
BYTES_INPUTS = ("Δ[5]", "Δ[6]")
PRODUCT_MAX_DIM = 7
TOP_LINES = 10


def build(name: str):
    from ssetforge.colimits import product
    from ssetforge.simplicial import boundary, standard_simplex

    if name.startswith("∂Δ["):
        return boundary(int(name[3:-1]))
    if "×" in name:
        a, b = (int(part[2:-1]) for part in name.split("×"))
        return product(standard_simplex(a), standard_simplex(b)).space
    return standard_simplex(int(name[2:-1]))


def compare(x) -> tuple[str, bool, int]:
    """The main comparison on x: its certificate, whether t is an
    isomorphism, and the cells of sd x."""
    from ssetforge.colimits import is_regular
    from ssetforge.desingularize import desingularized_comparison
    from ssetforge.subdivision import b_nat

    if not is_regular(x):
        raise SystemExit("the main comparison needs a regular input")
    b = b_nat(x)
    t, res = desingularized_comparison(b)
    return res.certificate.value, t.is_isomorphism(), len(b.source.cells)


def collected(run):
    """run()'s result, and the seconds the cyclic collector took while it ran."""
    spent, started = [0.0], [0.0]

    def clock(phase: str, info: dict) -> None:
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            spent[0] += time.perf_counter() - started[0]

    gc.callbacks.append(clock)
    try:
        return run(), spent[0]
    finally:
        gc.callbacks.remove(clock)


def peak_rss_mb(name: str, src: Path) -> float:
    """One comparison on the named input in a fresh process."""
    argv = [sys.executable, __file__, "--src", str(src), "--rss", name]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    return json.loads(out)["peak_rss_mb"]


def times(src: Path) -> None:
    # a child can report its parent's high-water mark as its own peak, so
    # every child runs before this process builds anything
    rss = {name: peak_rss_mb(name, src) for name in INPUTS}
    print("input       cells dim  sd cells  certificate      iso  best of 3     in gc  peak RSS")
    for name in INPUTS:
        x = build(name)
        best = None
        for _ in range(3):
            gc.collect()
            started = time.perf_counter()
            (cert, iso, sd_cells), in_gc = collected(lambda: compare(x))
            took = time.perf_counter() - started
            if best is None or took < best[0]:
                best = took, in_gc
        print(f"{name:10} {len(x.cells):6} {x.dim:3} {sd_cells:9}  {cert:16} {str(iso):5}"
              f" {best[0]:8.3f} s {best[1]:7.3f} s {rss[name]:6.1f} MB")


def live_bytes(make) -> tuple[object, int]:
    """What make() returns, and the traced bytes it holds once built."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    out = make()
    gc.collect()
    return out, tracemalloc.get_traced_memory()[0] - before


def bytes_per_cell() -> None:
    from ssetforge.posets import nerve, sharp
    from ssetforge.subdivision import b_nat, sd

    print("input      sd cells  sd B/cell  nerve B/cell  b beyond nerve B/cell")
    for name in BYTES_INPUTS:
        x = build(name)
        p = sharp(x)
        # warm-up: module caches filled here are not charged to a space
        b_nat(x)
        tracemalloc.start()
        s, sd_bytes = live_bytes(lambda: sd(x))
        n, nerve_bytes = live_bytes(lambda: nerve(p))
        del n
        b, b_bytes = live_bytes(lambda: b_nat(x, sd_space=s))
        tracemalloc.stop()
        cells = len(s.cells)
        print(f"{name:10} {cells:8} {sd_bytes / cells:10.0f} {nerve_bytes / cells:13.0f}"
              f" {(b_bytes - nerve_bytes) / cells:22.0f}")
        del b, s


def product_times() -> None:
    from ssetforge.colimits import product
    from ssetforge.simplicial import standard_simplex

    print("product        cells  pairs scanned  best of 3")
    for a in range(1, PRODUCT_MAX_DIM):
        for b in range(a, PRODUCT_MAX_DIM - a + 1):
            best = None
            for _ in range(3):
                x, y = standard_simplex(a), standard_simplex(b)
                gc.collect()
                started = time.perf_counter()
                pr = product(x, y)
                took = time.perf_counter() - started
                best = took if best is None else min(best, took)
            scanned = sum(
                sum(1 for _ in x.simplices(q)) * sum(1 for _ in y.simplices(q))
                for q in range(a + b + 1)
            )
            print(f"Δ[{a}]×Δ[{b}] {len(pr.space.cells):10} {scanned:14} {best:8.4f} s")


def one_case(workload: str, seed: int, index: int) -> None:
    spec = importlib.util.spec_from_file_location("_probe_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file runs
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    with tempfile.TemporaryDirectory() as workdir:
        case = workloads.build(workload, seed, Path(workdir))[index]
        gc.collect()
        tracemalloc.start(8)
        before = tracemalloc.take_snapshot()
        finish = case.run()
        gc.collect()
        after = tracemalloc.take_snapshot()
        live, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        ok, _ = finish()
    print(f"{workload} seed {seed} case {index}: {case.name} (verdict {'ok' if ok else 'WRONG'})")
    print(f"traced peak {peak / 1024:.1f} KiB, live after the case {live / 1024:.1f} KiB")
    stats = after.compare_to(before, "lineno")
    print(f"the {TOP_LINES} lines holding most of what the case left live:")
    for stat in stats[:TOP_LINES]:
        frame = stat.traceback[0]
        print(f"  {stat.size_diff / 1024:9.1f} KiB {stat.count_diff:7} blocks"
              f"  {frame.filename.split('/src/')[-1]}:{frame.lineno}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the source tree to import ssetforge from")
    parser.add_argument("--case", help="trace one case of this benchmark workload")
    parser.add_argument("--seed", type=int, default=7, help="the workload's seed")
    parser.add_argument("--index", type=int, default=0, help="the case's place in the list")
    parser.add_argument("--rss", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    if args.rss:
        compare(build(args.rss))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps({"peak_rss_mb": peak}))
    elif args.case:
        one_case(args.case, args.seed, args.index)
    else:
        times(args.src)
        bytes_per_cell()
        product_times()
    return 0


if __name__ == "__main__":
    sys.exit(main())

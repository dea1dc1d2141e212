"""A standing catalogue of mutants, each a check of the program that a test
must catch when it is broken.

    python3 scripts/mutants.py            # run every mutant

Each mutant is a file, an exact text that occurs once in it, the text
that replaces it, and the reason the replacement breaks a check.  A run
copies the repository (``.git`` and caches left out) to a temporary
directory once per mutant, applies the one replacement there, and runs
the Tier-1 suite with ``-x``, bar ``tests/test_mutants.py``, whose
check that each old text applies fails on every mutated copy.  It
prints one line per mutant: ``killed`` when a test fails, ``survived``
when the suite passes, and ``error`` when the suite could not run (a
collection error or a timeout) or the old text no longer occurs exactly
once, which is never a pass.  The exit status is 0 only when every
mutant run is killed, and the last line gives the run's wall time.
Each mutated suite runs under an address-space limit of
``MEMORY_BYTES``, which the unmutated suite stays well under: a mutant
that makes a loop build without end (a nerve whose rows keep their own
element extends its chains forever) then fails on a MemoryError within
seconds, instead of filling the host's memory.

The test file named on a killed mutant's first FAILED or ERROR line is
recorded in ``KILLERS`` (``scripts/mutant_killers.json``), rewritten
after each mutant, and the next run puts that file first.  A suite that
the memory limit cuts short prints no such line; the suite runs with
``-v``, which names each test as it starts, so the file of the last test
named is recorded instead.  Such a suite is killed whether pytest exits
1 or, when the MemoryError strikes its own reporting, 3.  The other
test files follow in the order pytest collects them, so no mutant runs
against fewer tests than the whole suite, and a mutant that only a late
file kills no longer waits for every file before it.

A mutant takes from a few seconds to a full suite run (about 1.5 min on
a 2-core host), so this is not part of the test suite;
``tests/test_mutants.py`` checks only that every old text still applies,
that the record names catalogue mutants and test files, and which file
a run's output names as the killer.
A change that adds a check adds its mutant here.  Standard library only.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
KILLERS = ROOT / "scripts" / "mutant_killers.json"
TIMEOUT_S = 1800
MEMORY_BYTES = 2 * 1024**3
_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-work"
)


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    reason: str


MUTANTS = [
    # vertex rows read off the cell table
    Mutant(
        "vertex-row-first-vertex",
        "src/ssetforge/simplicial.py",
        "rows[c] = (*below, rows[t0][-1])",
        "rows[c] = (*below, rows[t0][0])",
        "vertex d of a cell is the last vertex of face 0, not its first",
    ),
    Mutant(
        "vertex-row-ignores-degeneracy",
        "src/ssetforge/simplicial.py",
        "                    if not sigma.is_identity:\n"
        "                        below = map(below.__getitem__, sigma.values)\n",
        "",
        "a last face stored under a degeneracy lends its row through it",
    ),
    Mutant(
        "eval-face-path-on-degenerate",
        "src/ssetforge/simplicial.py",
        "if degen.is_identity and op.is_face:",
        "if op.is_face:",
        "only a face of a cell under the identity is read off the table",
    ),
    # checks of the presentation and of maps
    Mutant(
        "set-validation-face-identities",
        "src/ssetforge/simplicial.py",
        "if later(flat) != earlier(flat):",
        "if False:",
        "set validation must check d_i d_j = d_{j-1} d_i on every cell",
    ),
    Mutant(
        "map-validation-face-loop",
        "src/ssetforge/simplicial.py",
        "            if got == want:\n                continue\n",
        "            continue\n",
        "map validation must compare every cell's image faces with its faces' images",
    ),
    # the one walk over each table, and what it defers
    Mutant(
        "set-validation-walk-identities",
        "src/ssetforge/simplicial.py",
        "if d > 1 and (len(flat) != size or later(flat) != earlier(flat)):",
        "if False:",
        "a cell whose faces all lie under the identity has its identities checked in the walk",
    ),
    Mutant(
        "set-validation-deferred-order",
        "src/ssetforge/simplicial.py",
        "        for cid in deferred:\n            d, faces = cells[cid]\n",
        "        for cid in reversed(deferred):\n            d, faces = cells[cid]\n",
        "the deferred cells are named in table order, so the first failure is named",
    ),
    Mutant(
        "map-validation-walk-faces",
        "src/ssetforge/simplicial.py",
        "if sigma is not ident or image_of(t) != face:",
        "if sigma is not ident:",
        "a cell whose faces all lie under the identity has its faces' images compared in the walk",
    ),
    Mutant(
        "map-validation-deferred-order",
        "src/ssetforge/simplicial.py",
        "        for cid, got in deferred:\n",
        "        for cid, got in reversed(deferred):\n",
        "the deferred cells of a map are named in table order, so the first failure is named",
    ),
    # poset order decided on index tables
    Mutant(
        "monotone-index-check",
        "src/ssetforge/posets.py",
        "if not above.issuperset(map(image.__getitem__, row)):",
        "if False:",
        "a monotone map must send the elements above a into the up-set of a's image",
    ),
    Mutant(
        "dwyer-retraction-max",
        "src/ssetforge/posets.py",
        "        if not all(top in p_up[e] for e in below):\n",
        "        if False:\n",
        "each w of the cosieve needs a maximum below it, which also makes k full",
    ),
    Mutant(
        "dwyer-top-most-above",
        "src/ssetforge/posets.py",
        "top = min(below, key=lambda e: len(p_up[e]))",
        "top = max(below, key=lambda e: len(p_up[e]))",
        "the maximum of a set is its element with the fewest elements above it",
    ),
    Mutant(
        "dwyer-sieve",
        "src/ssetforge/posets.py",
        "if any(not q_up[y].isdisjoint(inside) for y in range(len(q)) if y not in inside):",
        "if False:",
        "a Dwyer map's image is a sieve: down-closed in the target",
    ),
    Mutant(
        "from-indices-unchecked",
        "src/ssetforge/posets.py",
        "        phi._check(source, target, image)\n",
        "        phi.source, phi.target, phi.indices = source, target, image\n",
        "a map built from its index table takes the element constructor's monotone check",
    ),
    Mutant(
        "cylinder-end-ignores-level",
        "src/ssetforge/posets.py",
        "{e: (e, level) for e in p.elements}",
        "{e: (e, 0) for e in p.elements}",
        "the end at level 1 sends each element e to (e, 1)",
    ),
    # one order table, and the rows derived from it
    Mutant(
        "poset-cycle-precheck",
        "src/ssetforge/posets.py",
        "            if a in row:\n",
        "            if False:\n",
        "a relation whose closure has a cycle is no partial order",
    ),
    Mutant(
        "nerve-rows-keep-self",
        "src/ssetforge/posets.py",
        "up = [sorted(row - {i}) for i, row in enumerate(p._upset)]",
        "up = [sorted(row) for i, row in enumerate(p._upset)]",
        "a chain of the nerve is strict: no element follows itself",
    ),
    Mutant(
        "isomorphism-cell-count",
        "src/ssetforge/simplicial.py",
        "return len(self.assignment) == len(self.target.cells) and self.is_degreewise_injective()",
        "return self.is_degreewise_injective()",
        "an injective map onto a larger target is no isomorphism",
    ),
    # regularity, pushouts, the comparison
    Mutant(
        "regularity-count-half",
        "src/ssetforge/colimits.py",
        "if (thr.bit_count() != 1 << len(rest) or thr & z) and (",
        "if (thr & z) and (",
        "the cells y.mu must be 2^d distinct non-degenerate cells",
    ),
    Mutant(
        "regularity-closure-half",
        "src/ssetforge/colimits.py",
        "if (thr.bit_count() != 1 << len(rest) or thr & z) and (",
        "if (thr.bit_count() != 1 << len(rest)) and (",
        "the cells y.mu must miss the subcomplex the last face generates",
    ),
    Mutant(
        "pushout-injectivity-guard",
        "src/ssetforge/colimits.py",
        "        if not f.is_degreewise_injective():\n",
        "        if False:\n",
        "attaching is the pushout only along a degreewise injective first leg",
    ),
    Mutant(
        "compare-reads-b-verdict-for-t",
        "src/ssetforge/verify.py",
        "b_iso if t is b else t.is_isomorphism(), b_iso,",
        "b_iso, b_iso,",
        "t's verdict is b's only when t is b",
    ),
    # one chain table per nerve
    Mutant(
        "nerve-chain-ids-copy-chains",
        "src/ssetforge/posets.py",
        "self.chain_ids = {chain: cid for cid, chain in rows.items()}",
        "self.chain_ids = {tuple(list(chain)): cid for cid, chain in rows.items()}",
        "chain_ids shares each chain tuple of the one table, and makes none",
    ),
    Mutant(
        "quotient-numbers-every-member",
        "src/ssetforge/colimits.py",
        "        if c not in killed:\n            new_id[c] = len(new_id)\n",
        "        if c not in killed or killed[c].degen.is_identity:\n"
        "            new_id[c] = len(new_id)\n",
        "a quotient's cells are the first cells of their classes, one per class",
    ),
    # a congruence is read through its killed forms, and built from cells
    Mutant(
        "kernel-skips-degenerate-images",
        "src/ssetforge/colimits.py",
        "if rho.is_identity and first.setdefault(w, x) == x:",
        "if not rho.is_identity or first.setdefault(w, x) == x:",
        "a cell with a degenerate image (w, rho) is related to (z_w, rho)",
    ),
    Mutant(
        "oracle-key-drops-forms",
        "src/ssetforge/desingularize.py",
        "key = frozenset(child_killed.items())",
        "key = frozenset(child_killed)",
        "two congruences that kill the same cells onto different forms are different nodes",
    ),
    Mutant(
        "collapse-keeps-a-cell",
        "src/ssetforge/colimits.py",
        "for s in map(space.simplex, sorted(keep))",
        "for s in map(space.simplex, sorted(keep)[:-1])",
        "every cell of the collapsed subcomplex goes to the base vertex",
    ),
    # a cell's id is its only name: sd's numbering, Sd f's ids, and a corpus's sd images
    Mutant(
        "sd-cells-reverse-carriers",
        "src/ssetforge/subdivision.py",
        "        for x in order:\n            if q <= cells_of[x].dim:\n",
        "        for x in reversed(order):\n            if q <= cells_of[x].dim:\n",
        "sd numbers its cells by carrier in id order within a chain length",
    ),
    Mutant(
        "sd-map-target-block",
        "src/ssetforge/subdivision.py",
        "asg[cid] = Simplex(offset[fx.cell][q] + pos, run)",
        "asg[cid] = Simplex(offset[fx.cell][q - 1] + pos, run)",
        "Sd f sends a chain of q+1 entries into the image cell's block of that length",
    ),
    Mutant(
        "load-corpus-trusts-sd-images",
        "src/ssetforge/corpus.py",
        "if base is not image and not image.space.same_presentation(sd(base.space)):",
        "if False:",
        "a loaded member sd-X is taken for sd(X), so it must be sd(X)",
    ),
    # maps into nerves read monotone maps' index tables
    Mutant(
        "pushout-into-nerve-ignores-disagreement",
        "src/ssetforge/cylinders.py",
        "if image.setdefault(t, got) != got:",
        "if image.setdefault(t, got) != got and False:",
        "two legs that send one vertex of the pushout apart fix no mediator",
    ),
    Mutant(
        "compose-monotone-tables-swapped",
        "src/ssetforge/posets.py",
        "[table[x] for x in first.indices]",
        "[first.indices[x] for x in table]",
        "second . first reads the first map's table, then the second's",
    ),
    Mutant(
        "b-nat-identity-reversed",
        "src/ssetforge/subdivision.py",
        "map_into_nerve(sds, barratt(space), list(range(len(space.cells))))",
        "map_into_nerve(sds, barratt(space), list(range(len(space.cells)))[::-1])",
        "vertex v of Sd X is the barycentre of element v of X#",
    ),
    # sd's size, against a closed form that shares no code with it
    Mutant(
        "chain-table-drops-a-chain",
        "src/ssetforge/subdivision.py",
        "    chains = chains_to_top(n)\n",
        "    chains = chains_to_top(n)[: -1 if n > 2 else None]\n",
        "Sd of an n-cell has one cell per strict chain of faces of [n] ending at the top",
    ),
    # a file is read to its end, and a simplex token names its cell
    Mutant(
        "read-keeps-first-chunk",
        "src/ssetforge/textio.py",
        "            while chunk := os.read(fd, _CHUNK):\n"
        "                chunks.append(chunk)\n",
        "            chunks.append(os.read(fd, _CHUNK))\n",
        "a file longer than one read is read to its end",
    ),
    Mutant(
        "token-accepts-empty-cell-id",
        "src/ssetforge/textio.py",
        "    if not (brace and cell.isascii() and cell.isdigit()):\n"
        "        raise ParseError(f\"bad simplex token {tok!r}\", line)\n"
        "    try:\n"
        "        return int(cell), _read_braces(braces, degree)\n",
        "    if not (brace and cell.isascii() and (cell.isdigit() or not cell)):\n"
        "        raise ParseError(f\"bad simplex token {tok!r}\", line)\n"
        "    try:\n"
        "        return int(cell or 0), _read_braces(braces, degree)\n",
        "a simplex token's cell id is one or more digits before its braces",
    ),
    # the collection policy in __init__.py holds only while nothing makes a cycle
    Mutant(
        "space-keeps-its-bound-method",
        "src/ssetforge/simplicial.py",
        "        self._ids: tuple[int, ...] | None = None\n        self._validate()\n",
        "        self._ids: tuple[int, ...] | None = None\n"
        "        self._check = self._validate\n        self._check()\n",
        "a space that refers to itself through a bound method is freed only by the collector",
    ),
]


def check_applies(mutant: Mutant, root: Path = ROOT) -> str | None:
    """None when the old text occurs exactly once in its file, else why not."""
    path = root / mutant.path
    if not path.is_file():
        return f"{mutant.path} is missing"
    found = path.read_text(encoding="utf-8").count(mutant.old)
    if found != 1:
        return f"old text occurs {found} times in {mutant.path}"
    return None


def suite_files(first: str | None = None, root: Path = ROOT) -> list[str]:
    """The Tier-1 test files bar ``tests/test_mutants.py``, in the order
    pytest collects them, with ``first`` moved to the front when it is
    one of them."""
    files = sorted(p.relative_to(root).as_posix() for p in (root / "tests").glob("test_*.py"))
    files.remove("tests/test_mutants.py")
    if first in files:
        files.remove(first)
        files.insert(0, first)
    return files


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


_SUMMARY = ("FAILED tests/", "ERROR tests/")


def killing_file(lines: list[str]) -> str | None:
    """The test file of a killed suite's first summary line ("FAILED
    tests/test_x.py::test_y - ..." or "ERROR tests/test_x.py"); with no
    summary, which a suite the memory limit cut short does not print, the
    file of the last test -v named ("tests/test_x.py::test_y ..."), the
    one that was running."""
    failed = next((ln for ln in lines if ln.startswith(_SUMMARY)), None)
    if failed is not None:
        return failed.split()[1].split("::")[0]
    named = [ln for ln in lines if ln.startswith("tests/") and "::" in ln]
    return named[-1].split("::")[0] if named else None


def run_mutant(mutant: Mutant, first: str | None = None) -> tuple[str, str, str | None]:
    """(outcome, detail, killing test file or None) of Tier-1 with -x on a
    mutated copy, the file ``first`` run first."""
    problem = check_applies(mutant)
    if problem is not None:
        return "error", problem, None
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        path = copy / mutant.path
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-v", "-x", "-p", "no:cacheprovider",
               *suite_files(first)]
        try:
            done = subprocess.run(
                cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
                preexec_fn=_limit_memory,
            )
        except subprocess.TimeoutExpired:
            return "error", f"timeout after {TIMEOUT_S} s", None
    lines = done.stdout.strip().splitlines()
    last = lines[-1] if lines else done.stderr.strip()[-200:]
    if done.returncode == 0:
        return "survived", last, None
    # the memory limit cuts a suite short with no summary: pytest exits 1,
    # or 3 when the MemoryError strikes its own reporting
    cut = "MemoryError" in done.stderr or "Cannot allocate memory" in done.stderr
    if done.returncode == 1 or done.returncode == 3 and cut:
        failed = next((ln for ln in lines if ln.startswith(_SUMMARY)), "")
        if not failed and done.stderr.strip():
            failed = done.stderr.strip().splitlines()[-1]
        return "killed", f"{failed} | {last}" if failed else last, killing_file(lines)
    return "error", f"pytest exit {done.returncode}: {last}", None


def main() -> int:
    killers = json.loads(KILLERS.read_text(encoding="utf-8")) if KILLERS.is_file() else {}
    ok, started = True, time.perf_counter()
    for m in MUTANTS:
        outcome, detail, killer = run_mutant(m, killers.get(m.name))
        ok = ok and outcome == "killed"
        if killer is not None:
            killers[m.name] = killer
            kept = {n.name: killers[n.name] for n in MUTANTS if n.name in killers}
            KILLERS.write_text(json.dumps(kept, indent=2) + "\n", encoding="utf-8")
        print(f"{outcome:8}  {m.name}  {detail}", flush=True)
    print(f"{len(MUTANTS)} mutants in {time.perf_counter() - started:.0f} s", flush=True)
    return 0 if ok else 1

if __name__ == "__main__":
    sys.exit(main())

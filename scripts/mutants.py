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
mutant run is killed.

A mutant takes from a few seconds to a full suite run (about 1.5 min on
a 2-core host), so this is not part of the test suite;
``tests/test_mutants.py`` checks only that every old text still applies.
A change that adds a check adds its mutant here.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 1800
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
        "if row and not upset[image[a]].issuperset(map(image.__getitem__, row)):",
        "if False:",
        "a monotone map must send the elements above a into the up-set of a's image",
    ),
    Mutant(
        "dwyer-retraction-max",
        "src/ssetforge/posets.py",
        "        if len(p_down[top]) + 1 != len(below):\n",
        "        if False:\n",
        "each w of the cosieve needs a maximum below it, which also makes k full",
    ),
    Mutant(
        "dwyer-sieve",
        "src/ssetforge/posets.py",
        "or not is_sieve(q, map(q.elements.__getitem__, image)):",
        "or not is_sieve(q, ()):",
        "a Dwyer map's image is a sieve: down-closed in the target",
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
    # one chain table per nerve, no labels where none is read
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
        "        if f.cell == c:\n            new_id[c] = len(new_id)\n",
        "        if f.degen.is_identity:\n            new_id[c] = len(new_id)\n",
        "a quotient's cells are the first cells of their classes, one per class",
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


def run_mutant(mutant: Mutant) -> tuple[str, str]:
    """(outcome, detail) of Tier-1 with -x on a mutated copy."""
    problem = check_applies(mutant)
    if problem is not None:
        return "error", problem
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        path = copy / mutant.path
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--ignore=tests/test_mutants.py"]
        try:
            done = subprocess.run(
                cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return "error", f"timeout after {TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    last = lines[-1] if lines else done.stderr.strip()[-200:]
    if done.returncode == 0:
        return "survived", last
    if done.returncode == 1:
        failed = next((ln for ln in lines if ln.startswith(("FAILED", "ERROR"))), "")
        return "killed", f"{failed} | {last}" if failed else last
    return "error", f"pytest exit {done.returncode}: {last}"


def main() -> int:
    ok = True
    for m in MUTANTS:
        outcome, detail = run_mutant(m)
        ok = ok and outcome == "killed"
        print(f"{outcome:8}  {m.name}  {detail}", flush=True)
    return 0 if ok else 1

if __name__ == "__main__":
    sys.exit(main())

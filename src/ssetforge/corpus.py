"""Deterministic corpus of small simplicial sets for verification runs.

Builtins cover the standard simplices, their boundaries, the quotient
spheres, the face-collapse quotients, and the nerves behind the two
counterexamples.  Random members are quotients of disjoint unions of
standard simplices along same-degree cell identifications; the Kan
subdivisions of everything small enough supply the guaranteed-regular
population.  A saved corpus is a ``textio`` manifest and one `.sset`
file per member; loading refuses a flag that its member's regularity
contradicts, and a member sd-X that is not sd of the member X.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from .colimits import (
    collapse_subcomplex,
    congruence_from_pairs,
    disjoint_union,
    is_regular,
    product,
    pushout,
    quotient,
)
from .operators import identity
from .posets import FinPoset, nerve
from .simplicial import (
    Simplex,
    SimplicialSet,
    boundary,
    simplex_map,
    standard_simplex,
)
from .subdivision import chains_to_top, sd
from .textio import (
    ParseError,
    format_manifest,
    format_sset,
    parse_file,
    parse_manifest,
    parse_sset,
    write_file,
)

SD_CAP = 200  # members with larger subdivisions get no sd image, here or in verify
_RANDOM_COUNT = 12  # random-quotient members per seed


@dataclass
class CorpusEntry:
    name: str
    space: SimplicialSet
    provenance: str  # builtin | random-quotient | sd-image
    regular: bool


@dataclass
class Corpus:
    seed: int
    entries: list[CorpusEntry]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def sphere(n: int) -> SimplicialSet:
    """The standard simplex with its whole boundary collapsed."""
    d = standard_simplex(n)
    rim = [c for c in d.cells if d.cells[c].dim == n - 1]
    return collapse_subcomplex(d, rim).space


def sd_size(space: SimplicialSet) -> int:
    """Cell count of sd(space), without building it."""
    return sum(len(chains_to_top(cell.dim)) for cell in space.cells.values())


def _builtins() -> list[tuple[str, SimplicialSet]]:
    d2 = standard_simplex(2)
    glued = pushout(
        simplex_map(d2, d2.simplex(5)),
        simplex_map(d2, d2.simplex(3)),
    ).space
    square = product(standard_simplex(1), standard_simplex(1)).space
    wedge = FinPoset("abc", [("a", "b"), ("a", "c")])
    chain3 = FinPoset(["a2", "b2", "c2"], [("a2", "b2"), ("b2", "c2")])
    out = [(f"delta-{n}", standard_simplex(n)) for n in range(4)]
    out += [(f"boundary-{n}", boundary(n)) for n in (1, 2, 3)]
    out += [(f"sphere-{n}", sphere(n)) for n in (1, 2, 3)]
    out += [
        ("triangle-last-edge-collapse", collapse_subcomplex(d2, [3]).space),
        ("triangle-middle-edge-collapse", collapse_subcomplex(d2, [4]).space),
        ("tetra-last-face-collapse", collapse_subcomplex(standard_simplex(3), [10]).space),
        ("two-triangles", glued),
        ("square", square),
        ("wedge-nerve", nerve(wedge)),
        ("three-chain-nerve", nerve(chain3)),
    ]
    return out


def _random_quotient(rng: random.Random) -> SimplicialSet:
    parts = [standard_simplex(rng.randint(1, 3)) for _ in range(rng.randint(2, 4))]
    space = parts[0]
    for nxt in parts[1:]:
        space, _, _ = disjoint_union(space, nxt)
    pairs = []
    for _ in range(rng.randint(1, 3)):
        degs = sorted({c.dim for c in space.cells.values()} - {space.dim})
        q = rng.choice(degs)
        a, b = rng.sample(space.cell_ids(q), 2)
        pairs.append((Simplex(a, identity(q)), Simplex(b, identity(q))))
    return quotient(space, congruence_from_pairs(space, pairs)).space


def save_corpus(corpus: Corpus, directory) -> None:
    """One .sset file per member plus a manifest naming them all."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    members = []
    for entry in corpus:
        fname = f"{entry.name}.sset"
        write_file(root / fname, format_sset(entry.space))
        flag = "regular" if entry.regular else "singular"
        members.append((entry.name, entry.provenance, flag, fname))
    write_file(root / "manifest.txt", format_manifest(corpus.seed, members))


def load_corpus(directory) -> Corpus:
    """The corpus a manifest names.  Each member's regularity is decided
    again, and a flag that disagrees is a ParseError naming its line; so
    is a member sd-X that is not sd(X), which ``verify`` takes it for."""
    root = Path(directory)
    manifest = root / "manifest.txt"
    seed, members = parse_file(manifest, parse_manifest)
    entries = []

    def refuse(message: str, number: int) -> ParseError:
        err = ParseError(message, number)
        err.path = str(manifest)
        return err

    for number, (name, provenance, flag, fname) in members:
        space = parse_file(root / fname, parse_sset)
        regular = is_regular(space)
        if regular != (flag == "regular"):
            actual = "regular" if regular else "singular"
            raise refuse(f"member {name} is flagged {flag}, but it is {actual}", number)
        entries.append(CorpusEntry(name, space, provenance, regular))
    by_name = {e.name: e for e in entries}
    for (number, _), image in zip(members, entries):
        # a member with no base present is its own base, and is not checked
        base = by_name.get(image.name.removeprefix("sd-"), image)
        if base is not image and not image.space.same_presentation(sd(base.space)):
            raise refuse(f"member {image.name} is not the subdivision of {base.name}", number)
    return Corpus(seed, entries)


def gen_corpus(seed: int) -> Corpus:
    entries = [
        CorpusEntry(name, space, "builtin", is_regular(space))
        for name, space in _builtins()
    ]
    for i in range(_RANDOM_COUNT):
        rng = random.Random(seed * 1000003 + i)
        space = _random_quotient(rng)
        entries.append(
            CorpusEntry(f"random-{i}", space, "random-quotient", is_regular(space))
        )
    for entry in list(entries):
        if sd_size(entry.space) > SD_CAP:
            continue
        image = sd(entry.space)
        if not is_regular(image):
            raise RuntimeError(f"subdivision of {entry.name} is not regular")
        entries.append(CorpusEntry(f"sd-{entry.name}", image, "sd-image", True))
    return Corpus(seed, entries)

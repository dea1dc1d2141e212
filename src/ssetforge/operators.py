"""Operators of the simplex category: weakly monotone maps [m] -> [n].

An operator is stored as its destination rank together with the tuple of
its values, so the source rank is ``len(values) - 1``.  Injective
operators are called faces, surjective ones degeneracies; every operator
factors uniquely as a face after a degeneracy (``ez_factor``).

The operator is a tuple subclass holding exactly ``(dst, values)``, read
back through the ``dst`` and ``values`` properties.  Hashing and equality
are therefore tuple hashing and tuple equality, which run in C on every
cache lookup; ``hash(op)`` is ``hash((dst, values))``, the value the
earlier frozen-dataclass form computed, so set and dict iteration order,
and with it the report bytes, are unchanged.  An operator compares equal
to the plain pair ``(dst, values)``, as a Simplex does to
``(cell, degen)``.  Operators are immutable: ``__post_init__`` validates
each new one and stores its source rank and whether it is a face, a
degeneracy or an identity, and assigning an attribute afterwards raises.

Every function of the calculus below (the constructors, ``compose``,
``ez_factor``, ``face_split``, ``section``, ``separating_section``,
``face_restriction``, the degeneracies, ``all_faces``) is memoized with
``lru_cache``: every verdict evaluates the same few operators millions of
times.  The tables hold only operators between ranks that some space has
reached, so they are bounded by the dimensions seen.  ``run_collapse``
keeps one plan per pattern of equal neighbours in a row, a table bounded
the same way.

Each operator these functions return is interned: it passes through the
one table ``_CANON``, so equal results are the same object.  A cache
lookup keyed by an interned operator then matches by identity and never
compares values.  Interning changes which object is returned, never its
value or its hash.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import itemgetter, ne
from typing import Callable, Iterable, Sequence


class Operator(tuple):
    """A weakly monotone map [src] -> [dst] with src = len(values) - 1."""

    dst = property(itemgetter(0))
    values = property(itemgetter(1))
    # stored once by __post_init__
    src: int
    is_face: bool
    is_degeneracy: bool
    is_identity: bool

    def __new__(cls, dst: int, values: tuple[int, ...]) -> "Operator":
        self = tuple.__new__(cls, (dst, values))
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        dst, values = self
        if dst < 0:
            raise ValueError(f"negative destination rank {dst}")
        if not values:
            raise ValueError("operator needs at least one value (source rank >= 0)")
        steps = tuple(zip(values, values[1:]))
        if any(a > b for a, b in steps):
            raise ValueError(f"values not weakly increasing: {values}")
        if values[0] < 0 or values[-1] > dst:
            raise ValueError(f"values {values} out of range for [{dst}]")
        src = len(values) - 1
        # injective == strictly increasing
        is_face = all(a < b for a, b in steps)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "is_face", is_face)
        # surjective onto [dst]
        object.__setattr__(self, "is_degeneracy", len(set(values)) == dst + 1)
        object.__setattr__(self, "is_identity", is_face and src == dst)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: operators are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: operators are immutable")

    def __repr__(self) -> str:
        return f"Operator(dst={self[0]}, values={self[1]!r})"

    def __getnewargs__(self) -> tuple:
        # copy and pickle rebuild an operator through __new__(dst, values)
        return tuple(self)

    def __call__(self, i: int) -> int:
        return self.values[i]

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.values)))

    def repeats(self) -> tuple[int, ...]:
        """Positions i with values[i] == values[i+1]; determines a degeneracy."""
        return tuple(i for i in range(self.src) if self.values[i] == self.values[i + 1])


_CANON: dict[Operator, Operator] = {}


def _canon(op: Operator) -> Operator:
    """The interned operator equal to ``op``."""
    return _CANON.setdefault(op, op)


@lru_cache(maxsize=None)
def identity(n: int) -> Operator:
    return _canon(Operator(n, tuple(range(n + 1))))


@lru_cache(maxsize=None)
def make_face(i: int, n: int) -> Operator:
    """The face [n-1] -> [n] whose image omits i.  Requires n >= 1."""
    if n < 1 or not 0 <= i <= n:
        raise ValueError(f"no face operator omitting {i} into [{n}]")
    return _canon(Operator(n, tuple(j for j in range(n + 1) if j != i)))


@lru_cache(maxsize=None)
def make_vertex(j: int, n: int) -> Operator:
    """The vertex inclusion [0] -> [n] with value j."""
    if not 0 <= j <= n:
        raise ValueError(f"no vertex {j} in [{n}]")
    return _canon(Operator(n, (j,)))


@lru_cache(maxsize=None)
def compose(first: Operator, second: Operator) -> Operator:
    """The composite applying ``first`` and then ``second`` (second o first)."""
    if first.dst != second.src:
        raise ValueError(f"ranks do not match: {first} then {second}")
    return _canon(Operator(second.dst, tuple(second.values[v] for v in first.values)))


@lru_cache(maxsize=None)
def ez_factor(op: Operator) -> tuple[Operator, Operator]:
    """Unique (face, degeneracy) pair with op == face o degeneracy."""
    img = op.image()
    index = {v: k for k, v in enumerate(img)}
    face_part = Operator(op.dst, img)
    degen_part = Operator(len(img) - 1, tuple(index[v] for v in op.values))
    return _canon(face_part), _canon(degen_part)


@lru_cache(maxsize=None)
def face_split(mu: Operator) -> tuple[int, Operator]:
    """For a face mu that is not an identity: the largest i outside its
    image, and the face rest with mu == compose(rest, make_face(i, mu.dst))."""
    i = max(set(range(mu.dst + 1)) - set(mu.values))
    return i, _canon(Operator(mu.dst - 1, tuple(v if v < i else v - 1 for v in mu.values)))


def degeneracy_from_repeats(repeats: Iterable[int], src: int) -> Operator:
    """Surjection out of [src] collapsing i and i+1 for each listed position i."""
    return _degeneracy(frozenset(repeats), src)


@lru_cache(maxsize=None)
def _degeneracy(reps: frozenset[int], src: int) -> Operator:
    if not all(0 <= i < src for i in reps):
        raise ValueError(f"repeat positions {sorted(reps)} out of range for [{src}]")
    vals = [0]
    for j in range(src):
        vals.append(vals[-1] if j in reps else vals[-1] + 1)
    return _canon(Operator(vals[-1], tuple(vals)))


@lru_cache(maxsize=None)
def section(op: Operator) -> Operator:
    """First-preimage section s of a surjection: compose(s, op) is the identity."""
    firsts: dict[int, int] = {}
    for j, v in enumerate(op.values):
        firsts.setdefault(v, j)
    if len(firsts) != op.dst + 1:
        raise ValueError(f"{op} is not surjective")
    return _canon(Operator(op.src, tuple(firsts[v] for v in range(op.dst + 1))))


@lru_cache(maxsize=None)
def separating_section(alpha: Operator, beta: Operator) -> Operator:
    """A section delta of the surjection alpha with compose(delta, beta)
    not a bijection, for a distinct surjection beta out of the same rank
    with beta.dst <= alpha.dst.

    delta takes first preimages, except that the value alpha(j) at the
    first j with alpha(j) != beta(j) is taken at j.  Below j the two agree
    on some w = alpha(j-1).  If alpha(j) = w+1 and beta(j) = w, beta sends
    both delta(w) and delta(w+1) = j to w.  If alpha(j) = w and
    beta(j) = w+1, then beta(delta(w)) = w+1, so the monotone
    compose(delta, beta) is not the identity.  When the ranks differ, no
    map [alpha.dst] -> [beta.dst] is a bijection anyway.
    """
    j = next(i for i, (a, b) in enumerate(zip(alpha.values, beta.values)) if a != b)
    firsts: dict[int, int] = {}
    for i, v in enumerate(alpha.values):
        firsts.setdefault(v, i)
    firsts[alpha.values[j]] = j
    return _canon(Operator(alpha.src, tuple(firsts[v] for v in range(alpha.dst + 1))))


@lru_cache(maxsize=None)
def face_restriction(mu: Operator, nu: Operator) -> Operator:
    """The face rho with compose(rho, mu) == nu, for faces with im(nu) in im(mu)."""
    index = {v: k for k, v in enumerate(mu.values)}
    try:
        return _canon(Operator(mu.src, tuple(index[v] for v in nu.values)))
    except KeyError:
        raise ValueError(f"image of {nu} not contained in image of {mu}") from None


def run_collapse(seq: Sequence) -> tuple[tuple, Operator]:
    """Collapse equal adjacent entries; return (distinct runs, run degeneracy).

    The degeneracy sends position j to the index of the run containing j,
    so the original sequence is the run sequence precomposed with it.
    A nonempty sequence without repeats is its own run sequence, under
    the identity.

    Which adjacent entries differ, the pattern ``map(ne, seq, seq[1:])``,
    fixes both results up to the entries themselves, so the pattern picks
    a plan, built once by ``_collapse_plan``: a getter of the run starts
    and the interned run degeneracy.  A row then costs its pattern, one
    cache lookup and one getter call.  An empty row has the pattern of a
    one-entry row and gives ((), identity(0)), as the definition does.
    """
    starts, degen = _collapse_plan(tuple(map(ne, seq, seq[1:])))
    return starts(seq), degen


def _first(seq: Sequence) -> tuple:
    return (seq[0],)


@lru_cache(maxsize=None)
def _collapse_plan(steps: tuple[bool, ...]) -> tuple[Callable[[Sequence], tuple], Operator]:
    """For a row of len(steps) + 1 entries whose adjacent entries i, i+1
    differ exactly where steps[i]: a getter of the entries that start a
    run, as a tuple, and the degeneracy collapsing the other positions.
    The patterns are those of the row lengths reached, so the table is
    bounded by the dimensions seen."""
    if all(steps):
        return tuple, identity(len(steps))
    starts = [0] + [i + 1 for i, step in enumerate(steps) if step]
    reps = [i for i, step in enumerate(steps) if not step]
    # a getter of one index returns the entry, not a 1-tuple
    get = itemgetter(*starts) if len(starts) > 1 else _first
    return get, degeneracy_from_repeats(reps, len(steps))


@lru_cache(maxsize=None)
def all_faces(n: int) -> tuple[Operator, ...]:
    """All face operators into [n] (nonempty subsets of [n]), by size then
    image, built once per n and interned."""
    return tuple(
        _canon(Operator(n, img))
        for size in range(1, n + 2)
        for img in combinations(range(n + 1), size)
    )


@lru_cache(maxsize=None)
def all_degeneracies(src: int, dst: int) -> tuple[Operator, ...]:
    """All surjections [src] ->> [dst], ordered by their repeat positions."""
    if src < dst:
        return ()
    return tuple(
        degeneracy_from_repeats(reps, src) for reps in combinations(range(src), src - dst)
    )

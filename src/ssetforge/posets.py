"""Finite posets, their nerves, and the cell poset of a simplicial set.

A poset numbers its elements in the order given and keeps one order
table: for each element, its up-set as a set of indices, itself
included.  It is the only place the program reads order.  Every
relation it is given is closed, so a constructor passes only generating
pairs; a cycle is named by the first pair of equivalent elements in
element order.  The set of strict pairs of elements is built only when
``strict_pairs()`` is first read (by ``textio`` when a poset is
written): products, full subposets and pushouts read their relations
off the factors' up-sets, a monotone map is checked an element at a
time against the target's up-sets, and ``is_dwyer`` decides its
conditions on the same table.  Only the chains need the elements above
each element in ascending order, so ``index_chains`` and ``nerve``
derive those rows from the table once per call.  A
monotone map keeps one table, ``indices``, the target index of each
source element's image; it is the form in which posets and nerves pass
elements to each other, and the maps whose tables are known by
construction (composites, pushout legs and Dwyer retractions) are built
from them by ``MonotoneMap.from_indices``.  A cylinder end is built from
its elements, (e, level), so the numbering of P x [1] is stated only by
``product_poset``.

The nerve of a poset has one cell per nonempty strict chain.  It is
built on chains of element indices.  Vertex i is the chain (i,) with
cell id i, element i of the poset, so a chain is its own cell's vertex
row: a ``Nerve`` keeps one table of chains, id to chain, as its
``vertex_rows`` table from the start, and ``chain_ids``, its inverse,
shares each chain tuple.  A cell's chain of elements is its row read
through ``poset.elements``.  The chains are
built by extension, a level at a time: the faces of c + (j,) are the
extensions by j of the faces of c, then c, so each face id is one
lookup of (face id, j) in a table of the extensions built, and no chain
is sliced.

A map into a nerve is fixed by where it sends vertices, and
``map_into_nerve`` takes that as a table: the target element index of
each vertex cell.  It sends each cell to the chain of its vertices'
images, read off the source's vertex rows and looked up in the target's
table; only a row that is not a strict chain has its repeats collapsed
by ``run_collapse`` and is looked up again.  A vertex row that does not
go to a chain is a ValueError naming the cell.  ``nerve_map`` builds
N(phi) through it from phi's table, so it takes only nerves of the map's
own source and target posets (or of posets equal to them) and raises
ValueError on any other simplicial set.

The cell poset (``sharp``) of a simplicial set orders cells by the face
relation: y <= x when y is the non-degenerate part of some face of x.
Pushouts of posets along Dwyer maps are computed as the transitive
closure of the images of both legs; antisymmetry of the result is
asserted, never repaired.  The Dwyer check of the embedding leg is read
through ``MonotoneMap.dwyer``, which decides it once per map object.

``all_posets`` enumerates posets up to isomorphism.  It keys each
candidate relation by the signatures (|down-set|, |up-set|) of its
elements, sorted, and by the least relation over the labellings that
number the elements in signature order and permute them only within a
class of equal signatures (the class refinement of B. D. McKay,
"Practical graph isomorphism", 1981).  The key is complete.  An
isomorphism preserves signatures, so it maps each class onto the class
of the same signature, and the admissible labellings of two isomorphic
posets give the same relations: they share their key.  The key holds
the relation of one labelling of the poset, so two posets that share a
key are isomorphic.
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import count, groupby, permutations
from typing import Hashable, Iterable, Mapping, Sequence

from .operators import Operator, all_faces, identity, run_collapse
from .simplicial import Cell, Simplex, SimplicialMap, SimplicialSet, _simplex


class FinPoset:
    """A finite poset on the elements given, in their order.

    It keeps one order table, filled by the closure it computes anyway:
    ``_upset[i]`` is the set of indices above element i, i included.
    Every reader of order reads it: the membership tests of
    ``MonotoneMap``, ``is_dwyer`` and ``is_cosieve``, the relations of
    products, full subposets and pushouts, and ``strict_pairs``.  Only
    the chains need the elements above i in ascending order, so
    ``index_chains`` and ``nerve`` derive ``sorted(_upset[i] - {i})``
    once per call; the first failing pair of a cycle or of a monotone
    check is named by the least index that fails.  Besides it, the poset
    keeps only the memo of ``strict_pairs()``.
    """

    def __init__(
        self, elements: Iterable[Hashable], relations: Iterable[tuple[Hashable, Hashable]] = ()
    ):
        self.elements = elements = tuple(dict.fromkeys(elements))
        self._index = index = {e: i for i, e in enumerate(elements)}
        succ: list[set[int]] = [set() for _ in elements]
        for a, b in relations:
            if a not in index or b not in index:
                raise ValueError(f"relation {(a, b)} mentions unknown elements")
            if a != b:
                succ[index[a]].add(index[b])
        # reach[i]: every index reachable from i along succ, itself too when
        # it lies on a cycle; a reach already known is taken whole
        reach: list[set[int] | None] = [None] * len(elements)
        for i in reversed(range(len(elements))):
            seen: set[int] = set()
            stack = list(succ[i])
            while stack:
                k = stack.pop()
                if k not in seen:
                    seen.add(k)
                    if reach[k] is None:
                        stack.extend(succ[k])
                    else:
                        seen |= reach[k]
            reach[i] = seen
        # an element that reaches itself lies on a cycle, and the first
        # such, with the least element it is equivalent to, is the first
        # offending pair in element order, not set order
        for a, row in enumerate(reach):
            if a in row:
                b = min(b for b in row if b != a and a in reach[b])
                a, b = elements[a], elements[b]
                raise ValueError(f"not antisymmetric: {a!r} and {b!r} are equivalent")
        # no element reaches itself, so reach[i] with i added is the up-set
        # of element i: the order table
        for a, row in enumerate(reach):
            row.add(a)
        self._upset: list[set[int]] = reach
        self._lt: frozenset | None = None

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, e: Hashable) -> bool:
        return e in self._index

    def strict_pairs(self) -> frozenset:
        """The pairs (a, b) with a < b, built on the first call and kept."""
        if self._lt is None:
            elements = self.elements
            self._lt = frozenset(
                (elements[a], elements[b]) for a, row in enumerate(self._upset) for b in row - {a}
            )
        return self._lt

    def index_chains(self) -> list[tuple[int, ...]]:
        """All nonempty strict chains as tuples of element indices, shortest
        first, lexicographic within length."""
        up = [sorted(row - {i}) for i, row in enumerate(self._upset)]
        out: list[tuple[int, ...]] = []
        level: list[tuple[int, ...]] = [(i,) for i in range(len(self.elements))]
        while level:
            out.extend(level)
            level = [c + (j,) for c in level for j in up[c[-1]]]
        return out

    def chains(self) -> list[tuple]:
        """All nonempty strict chains, shortest first, lexicographic within length."""
        elements = self.elements
        return [tuple(elements[i] for i in c) for c in self.index_chains()]

    def same_as(self, other: "FinPoset") -> bool:
        return self.elements == other.elements and self._upset == other._upset


class MonotoneMap:
    """A map of posets, checked monotone on index tables.

    ``indices`` holds the target index of the image of each source index:
    the one table of the map, which the nerve maps, pushouts and
    ``is_dwyer`` read and through which ``__call__`` sends an element, so
    an element outside the source is a KeyError.  The constructor takes
    a dict of elements and translates it; ``from_indices`` takes the
    table itself.  Both run one check: monotonicity is decided an element
    at a time, the images of a's up-set all in the up-set of a's image.
    For the first element a that fails, in element order, the pair named
    is a < b for the least b above a whose image is not in that up-set.
    """

    def __init__(self, source: FinPoset, target: FinPoset, mapping: dict):
        index = target._index
        image = []
        for e in source.elements:
            if e not in mapping:
                raise ValueError(f"no value for {e!r}")
            x = index.get(mapping[e])
            if x is None:
                raise ValueError(f"{e!r} sent outside the target poset")
            image.append(x)
        self._check(source, target, image)

    @classmethod
    def from_indices(
        cls, source: FinPoset, target: FinPoset, indices: Iterable[int]
    ) -> MonotoneMap:
        """The map sending source element i to target element indices[i],
        checked for length, range and monotonicity."""
        image, size = list(indices), len(target.elements)
        if len(image) != len(source.elements):
            raise ValueError(f"{len(image)} indices for {len(source.elements)} elements")
        for e, x in zip(source.elements, image):
            if not 0 <= x < size:
                raise ValueError(f"{e!r} sent to index {x!r}, outside the target poset")
        phi = cls.__new__(cls)
        phi._check(source, target, image)
        return phi

    def _check(self, source: FinPoset, target: FinPoset, image: list[int]) -> None:
        """Keep image as the table of a map source -> target, once it is
        checked monotone; else a ValueError naming the first failing pair."""
        upset = target._upset
        for a, row in enumerate(source._upset):
            above = upset[image[a]]
            if not above.issuperset(map(image.__getitem__, row)):
                b = min(b for b in row if image[b] not in above)
                a, b = source.elements[a], source.elements[b]
                raise ValueError(f"not monotone on {a!r} < {b!r}")
        self.source, self.target, self.indices = source, target, image

    def __call__(self, e: Hashable) -> Hashable:
        return self.target.elements[self.indices[self.source._index[e]]]

    @cached_property
    def dwyer(self) -> MonotoneMap | None:
        """``is_dwyer(self)``, decided once per map: a map shared by many
        pushouts, such as a cylinder's level-0 end, is checked once."""
        return is_dwyer(self)


def compose_monotone(first: MonotoneMap, second: MonotoneMap) -> MonotoneMap:
    """second . first, its table the first's read through the second's."""
    table = second.indices
    return MonotoneMap.from_indices(first.source, second.target, [table[x] for x in first.indices])


def chain_poset(n: int) -> FinPoset:
    return FinPoset(range(n + 1), [(i, i + 1) for i in range(n)])


def singleton_poset(label: Hashable) -> FinPoset:
    return FinPoset([label])


def product_poset(p: FinPoset, q: FinPoset) -> FinPoset:
    """Pairs ordered componentwise, generated by a step up in one
    coordinate, read off both factors' up-sets.  The pair of the i-th
    element of p and the j-th of q is element i * len(q) + j; so in the
    cylinder P x [1] = ``product_poset(p, chain_poset(1))``, (e, level)
    is element 2 * i + level for e the i-th element of p.  This is the
    one statement of that numbering: the program reads the cylinder's
    elements through its ends, ``cylinder_end``."""
    pairs = [[(a, b) for b in q.elements] for a in p.elements]
    rel = [
        (row[j], pairs[c][j])
        for i, row in enumerate(pairs)
        for c in p._upset[i]
        for j in range(len(row))
    ]
    rel += [(row[j], row[d]) for row in pairs for j, ups in enumerate(q._upset) for d in ups]
    return FinPoset([x for row in pairs for x in row], rel)


def full_subposet(p: FinPoset, kept: Sequence[int]) -> FinPoset:
    """The elements of p at the ascending indices kept, with p's order
    among them."""
    elements, inside = p.elements, set(kept)
    rel = [(elements[i], elements[j]) for i in kept for j in p._upset[i] if j in inside]
    return FinPoset([elements[i] for i in kept], rel)


def is_cosieve(p: FinPoset, kept: Iterable[int]) -> bool:
    """Whether the element indices kept are up-closed in p."""
    sub = set(kept)
    return all(p._upset[i] <= sub for i in sub)


# -- nerves -----------------------------------------------------------------


class Nerve(SimplicialSet):
    """The nerve of ``poset``: a simplicial set that also keeps its poset
    and ``chain_ids``, the cell id of each chain of element indices.  The
    vertex cells are the chains (i,), with cell id i, so each chain is its
    cell's vertex row: ``rows``, the chain of each cell id, is the
    ``vertex_rows`` table itself, ``chain_ids`` is its inverse, and each
    key of ``chain_ids`` is the tuple ``rows`` holds."""

    def __init__(
        self, poset: FinPoset, rows: dict[int, tuple[int, ...]], cells: dict[int, Cell]
    ):
        super().__init__(cells)
        self.poset = poset
        self._vertex_cache = rows
        self.chain_ids = {chain: cid for cid, chain in rows.items()}


# Cell from a (dim, faces) pair in C, skipping the NamedTuple's
# Python-level __new__ as ``_simplex`` does; the nerve builds one per chain
_cell = partial(tuple.__new__, Cell)


def nerve(p: FinPoset) -> Nerve:
    """One cell per nonempty strict chain, numbered in ``chains()`` order;
    faces drop chain entries.

    The chains are built a level at a time, each chain c + (j,) from c,
    in ``index_chains()`` order, into ``rows``, the one table of chains,
    id to chain; each chain tuple is made once.  The faces of c + (j,)
    are (d_i c) + (j,) for i <= dim c, then c itself, and those of an
    edge (i, j) are the vertices (j,) and (i,).  ``ext`` holds the id of
    each extension (id, j) built, so each face id is read off c's stored
    faces: no chain is sliced or looked up."""
    up = [sorted(row - {i}) for i, row in enumerate(p._upset)]
    rows = {i: (i,) for i in range(len(p.elements))}
    cells = dict.fromkeys(rows, _cell((0, ())))
    ext: dict[tuple[int, int], int] = {}
    level, dim = range(len(rows)), 0
    while level:
        ident, nxt = identity(dim), []
        for cid in level:
            c, below, last = rows[cid], cells[cid][1], (cid, ident)
            for j in up[c[-1]]:
                nid = ext[cid, j] = len(rows)
                if dim:
                    faces = (*[(ext[f, j], ident) for f, _ in below], last)
                else:
                    faces = ((j, ident), last)
                rows[nid] = c + (j,)
                cells[nid] = _cell((dim + 1, faces))
                nxt.append(nid)
        level, dim = nxt, dim + 1
    return Nerve(p, rows, cells)


def map_into_nerve(
    source: SimplicialSet, target: SimplicialSet, image: Sequence[int] | Mapping[int, int]
) -> SimplicialMap:
    """The map into the nerve ``target`` sending each vertex cell v of
    ``source`` to element ``image[v]`` of ``target.poset``, given by its
    index: each cell goes to the chain of its vertices' images,
    degenerated along the repeats.  A vertex row whose images do not form
    a chain is a ValueError naming the cell.

    The rows are read off ``source.vertex_rows()``, in one walk of the
    source's cells.  An image row is looked up in ``chain_ids`` as it is
    first: a strict chain is its own run sequence under the identity,
    which is what ``run_collapse`` gives it.  Only a row that misses is
    collapsed and looked up again, and only a failing row is read as
    elements, to name it."""
    if not isinstance(target, Nerve):
        raise ValueError("map_into_nerve: the target is not a poset nerve")
    chain_ids, rows, send = target.chain_ids, source.vertex_rows(), image.__getitem__
    asg: dict[int, Simplex] = {}
    for cid in source.cells:
        row = tuple(map(send, rows[cid]))
        tid = chain_ids.get(row)
        if tid is not None:
            asg[cid] = _simplex((tid, identity(len(row) - 1)))
            continue
        collapsed, degen = run_collapse(row)
        tid = chain_ids.get(collapsed)
        if tid is None:
            row = tuple(map(target.poset.elements.__getitem__, collapsed))
            raise ValueError(f"cell {cid} sent to {row}, which is not a chain")
        asg[cid] = _simplex((tid, degen))
    return SimplicialMap(source, target, asg)


def nerve_of(space: SimplicialSet, p: FinPoset, side: str) -> Nerve:
    """space itself, when it is the nerve of p or of a poset equal to it,
    the map's ``side``; else a ValueError."""
    if not isinstance(space, Nerve) or (space.poset is not p and not space.poset.same_as(p)):
        raise ValueError(f"the {side} nerve given is not the nerve of the map's {side}")
    return space


def nerve_map(
    phi: MonotoneMap,
    source_nerve: SimplicialSet | None = None,
    target_nerve: SimplicialSet | None = None,
) -> SimplicialMap:
    """N(phi), for nerves of phi's own source and target posets (built
    when not given): vertex i, the chain (i,), goes to the image of
    element i."""
    if source_nerve is None:
        np_ = nerve(phi.source)
    else:
        np_ = nerve_of(source_nerve, phi.source, "source")
    if target_nerve is None:
        nq = nerve(phi.target)
    else:
        nq = nerve_of(target_nerve, phi.target, "target")
    return map_into_nerve(np_, nq, phi.indices)


# -- the cell poset ----------------------------------------------------------


def sharp(space: SimplicialSet) -> FinPoset:
    """Cells ordered by the face relation."""
    rel = [
        (target, cid)
        for cid, cell in space.cells.items()
        for target, _ in cell.faces
        if target != cid
    ]
    return FinPoset(sorted(space.cells), rel)


def sharp_map(f: SimplicialMap) -> MonotoneMap:
    mapping = {cid: s.cell for cid, s in f.assignment.items()}
    return MonotoneMap(sharp(f.source), sharp(f.target), mapping)


def barratt(space: SimplicialSet) -> SimplicialSet:
    return nerve(sharp(space))


def barratt_map(
    f: SimplicialMap,
    source_barratt: SimplicialSet | None = None,
    target_barratt: SimplicialSet | None = None,
) -> SimplicialMap:
    return nerve_map(sharp_map(f), source_barratt, target_barratt)


# -- Dwyer embeddings and pushouts -------------------------------------------


def is_dwyer(k: MonotoneMap) -> MonotoneMap | None:
    """The retraction r : W -> P witnessing that k : P -> Q is an
    injective sieve embedding admitting a cosieve W containing the image
    on which the image is a reflective sieve: each w in W has a maximum
    r(w) of {p : k(p) <= w}.  W is ``r.source``, the full subposet of Q
    on its elements; None when k is no Dwyer map.

    Only W = up-closure of k(P) can pass, so no other is tried.  A
    cosieve containing the image contains that up-closure, and any
    element it adds lies above no k(p), so has no maximum below it.  On
    that W the maxima are the witness: r is monotone, since the sets
    below w grow with w, and k(e) <= w iff e <= r(w), one way by
    maximality, the other since k(r(w)) <= w.

    Fullness needs no test of its own.  For a and b with k(a) <= k(b),
    the check at w = k(b) finds a maximum m of {e : k(e) <= k(b)}; b <= m
    gives k(b) <= k(m) <= k(b), so m = b as k is injective, and a <= b.

    Every condition is decided on the up-set tables ``_upset`` of P and
    Q and on k's image indices, with no pairwise scan of either poset.
    An element below the maximum of a set has a strictly larger up-set,
    so the maximum, if there is one, is the element with the fewest
    elements above it, and it is one exactly when it lies above them all.
    """
    p, q = k.source, k.target
    image = k.indices
    q_up, p_up = q._upset, p._upset
    inside = set(image)
    if len(inside) != len(image):
        return None
    # the image is a sieve: no element outside it lies below one in it
    if any(not q_up[y].isdisjoint(inside) for y in range(len(q)) if y not in inside):
        return None
    # W = up-closure of k(P); below holds the e with k(e) <= w
    base = sorted(set().union(*map(q_up.__getitem__, image)))
    tops = []
    for w in base:
        below = [e for e, x in enumerate(image) if w in q_up[x]]
        top = min(below, key=lambda e: len(p_up[e]))
        if not all(top in p_up[e] for e in below):
            return None
        tops.append(top)
    return MonotoneMap.from_indices(full_subposet(q, base), p, tops)


class PosetPushout:
    """Pushout of a Dwyer map k: P -> Q along phi: P -> R.  Its elements
    are ("r", y) for y in R, then ("q", x) for x in Q outside k(P)."""

    def __init__(self, k: MonotoneMap, phi: MonotoneMap):
        if k.source is not phi.source and not k.source.same_as(phi.source):
            raise ValueError("pushout legs must share their source")
        q, r = k.target, phi.target
        # the index in R where each index of k(P) in Q goes: the legs share
        # their source's elements, so their index tables line up
        glued = dict(zip(k.indices, phi.indices))
        if len(glued) != len(k.indices):
            raise ValueError("pushout requires an injective embedding leg")
        if k.dwyer is None:
            raise ValueError("embedding leg admits no cosieve retraction witness")

        # each index of Q goes to its glued index in R, or past R's to its
        # position among the new elements; the relations are read off both
        # targets' up-sets
        fresh = count(len(r))
        table = [glued[i] if i in glued else next(fresh) for i in range(len(q))]
        elements = [("r", y) for y in r.elements]
        elements += [("q", x) for i, x in enumerate(q.elements) if i not in glued]
        sent = [elements[x] for x in table]
        rel = [(sent[a], sent[b]) for a, row in enumerate(q._upset) for b in row]
        rel += [(elements[a], elements[b]) for a, row in enumerate(r._upset) for b in row]
        self.poset = FinPoset(elements, rel)
        self.leg_ambient = MonotoneMap.from_indices(q, self.poset, table)
        self.leg_other = MonotoneMap.from_indices(r, self.poset, range(len(r)))


def poset_pushout(k: MonotoneMap, phi: MonotoneMap) -> PosetPushout:
    return PosetPushout(k, phi)


# -- comparison maps into the face poset of the standard simplex -------------


def face_poset(n: int) -> FinPoset:
    """All face operators into [n], ordered by image containment, generated
    by dropping one vertex."""
    elems = all_faces(n)
    rel = [
        (Operator(n, b.values[:i] + b.values[i + 1 :]), b)
        for b in elems
        if b.src
        for i in range(b.src + 1)
    ]
    return FinPoset(elems, rel)


def cylinder_end(p: FinPoset, cyl: FinPoset, level: int) -> MonotoneMap:
    """The end of cyl = ``product_poset(p, chain_poset(1))`` at level:
    each element e of p goes to (e, level), looked up among cyl's own
    elements, so a cyl without those elements is a ValueError."""
    return MonotoneMap(p, cyl, {e: (e, level) for e in p.elements})


def psi(n: int) -> MonotoneMap:
    """The comparison embedding of the cylinder on the face poset of [n-1]
    into the face poset of [n]: level 0 pastes onto the last face, level 1
    adds the last vertex."""
    if n < 1:
        raise ValueError("psi needs n >= 1")
    src = product_poset(face_poset(n - 1), chain_poset(1))
    dst = face_poset(n)
    mapping = {(mu, level): Operator(n, mu.values + (n,) * level) for mu, level in src.elements}
    return MonotoneMap(src, dst, mapping)


# -- enumeration -------------------------------------------------------------


def _class_orders(classes: list[tuple]):
    """Each concatenation of one ordering of every class, made lazily: a
    product over all orderings of each class would hold them at once."""
    if not classes:
        yield ()
        return
    for head in permutations(classes[0]):
        for rest in _class_orders(classes[1:]):
            yield head + rest


def _canonical_key(n: int, rel: frozenset) -> tuple:
    """The key of the poset on range(n) whose strict order is rel: the
    elements' (|down-set|, |up-set|) signatures, sorted, and the least
    sorted relation over the labellings that number the elements in
    signature order, in any order within a class of equal signatures."""
    down, up = [0] * n, [0] * n
    for a, b in rel:
        up[a] += 1
        down[b] += 1
    # |up-set| < n, so this int orders as the pair does and makes no tuple
    sig = [d * n + u for d, u in zip(down, up)]
    ranked = sorted(range(n), key=sig.__getitem__)
    classes = [tuple(group) for _, group in groupby(ranked, key=sig.__getitem__)]
    best = None
    label = [0] * n
    for order in _class_orders(classes):
        for pos, e in enumerate(order):
            label[e] = pos
        cand = sorted((label[a], label[b]) for a, b in rel)
        if best is None or cand < best:
            best = cand
    return tuple(map(sig.__getitem__, ranked)), tuple(best)


def all_posets(max_size: int) -> list[FinPoset]:
    """All posets with at most max_size elements, one per isomorphism class.

    Each poset on n elements is generated from one on n - 1 by a new
    maximal element above a down-closed set, and only the first relation
    of each class is kept.  A candidate is keyed by ``_canonical_key``, at
    a cost of at most the product of the factorials of its signature
    classes' sizes: an antichain still takes all n! labellings, each
    giving the empty relation, but a chain takes one."""
    out: list[FinPoset] = [FinPoset([])]
    layer: list[frozenset] = [frozenset()]
    for n in range(1, max_size + 1):
        seen = set()
        nxt = []
        for rel in layer:
            down_of = {i: {a for a, b in rel if b == i} for i in range(n - 1)}
            for bits in range(2 ** (n - 1)):
                s = {i for i in range(n - 1) if bits >> i & 1}
                if any(not down_of[i] <= s for i in s):
                    continue
                new = frozenset(rel | {(i, n - 1) for i in s})
                key = _canonical_key(n, new)
                if key in seen:
                    continue
                seen.add(key)
                nxt.append(new)
        layer = nxt
        out.extend(FinPoset(range(n), rel) for rel in layer)
    return out

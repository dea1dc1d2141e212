"""Desingularization.

``desingularize`` reaches the universal non-singular quotient by forced
moves.  A map to a non-singular target sends a cell to a degeneracy of a
simplex with pairwise distinct vertices, so it identifies the cell's
vertices in consecutive runs only.  So a cell whose vertices p and p+1
agree must go to a simplex degenerate at p: the zipper merges it with
the degeneracy of its p-th face.  And v_i = v_j with j > i+1 forces every
v_k between them onto v_i: the interval move merges those vertex cells.
A cell is embedded exactly when its vertices are pairwise distinct, so
where the zipper alone stops singular some cell repeats a vertex, never
adjacently, and an interval round lowers the vertex count before the
zipper runs again.  The loop ends with no repeated vertex.  Every merge
was forced, so every map to a non-singular target factors through the
non-singular result: it is the universal quotient, certified.  An input
on which the first scan finds no move is its own quotient: the result
holds no projection, eta is the identity, built only when it is read,
and ``desingularized_comparison`` returns the map it is given.

Every move runs on one congruence over the input, and D is its one
quotient.  Each round snapshots the forms of the killed cells, and the
snapshot is what the scan reads: it walks the first cells in (dimension,
id) order, and a first cell's vertex row is the first cells of its
vertices' classes.  The scan makes no call per cell.  It reads the
input's ``vertex_rows()`` table, filled once: the first round takes each
row as it is, and a later one sends each row's killed vertices to their
forms' cells.  The round's merges take their rows from that scan,
not from the congruence they change: a round makes exactly the moves its
one scan found, and a later move may name a cell an earlier one killed,
as a zipper move at another position of the same cell does.  The scan
that finds no move decides the certificate, and its first singular cell,
if any, is the result's witness.

The oracle is the independent check.  The congruences whose quotient is
non-singular are closed under meets, since the quotient by the meet of R
and S embeds in the product of the quotients by R and by S, so exactly
one of them is minimal: the kernel of the universal quotient.  The
oracle finds it by witness-directed search, keeps the solutions that
contain no other, and raises unless exactly one is left.  The search
builds no quotient per node and walks no simplices: it reads each
congruence's normal forms off its table of cell forms (see
``colimits``).  The forms of the cells determine the congruence, since
two simplices (c, sigma) and (d, tau) are related exactly when the form
of c degenerated by sigma is the form of d degenerated by tau.  So the
tuple of forms is the key that removes duplicate nodes, the first
singular cell is the first cell class whose vertex forms are not
pairwise distinct, and a congruence contains another exactly when it
relates every cell to that one's form of it.  A node branches once per
class of the degenerate simplices it could merge its first singular cell
with: merging with any member of a class gives the same child, which the
key would only drop again.  Of a node's children only the minimal ones
are queued: a child that strictly contains a sibling leads to no
minimal solution that the sibling does not, so every minimal solution
is still recorded and the exactly-one check keeps its strength.  Only
the minimal congruence is quotiented, and that quotient, its projection
and its non-singularity are validated.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache

from .colimits import Congruence, quotient
from .operators import Operator
from .simplicial import Simplex, SimplicialMap, SimplicialSet, identity_map


class Certificate(str, Enum):
    ZIPPER = "ZipperCertified"
    ORACLE = "OracleExact"
    UNCERTIFIED = "Uncertified"


@dataclass(frozen=True)
class MoveRecord:
    cell: int  # a first cell of the input at the move's round
    degree: int
    position: int


@dataclass(frozen=True)
class IntervalMove:
    cell: int  # a first cell of the input whose row has v_i = v_j
    i: int
    j: int


@dataclass
class DesingResult:
    """A quotient with its projection, or with None when no move was made
    and the input is its own quotient.  ``eta`` is the projection, or the
    identity of the quotient, built and validated on its first read.
    ``witness`` is the first cell of the input, in (dimension, id) order,
    that the last scan found singular, or None: an uncertified zipper
    names the cell that stalled it."""

    quotient: SimplicialSet
    projection: SimplicialMap | None
    certificate: Certificate
    witness: int | None
    moves: list[list[MoveRecord | IntervalMove]] = field(default_factory=list)

    @cached_property
    def eta(self) -> SimplicialMap:
        if self.projection is None:
            return identity_map(self.quotient)
        return self.projection


@lru_cache(maxsize=None)
def _dup_operator(q: int, p: int) -> Operator:
    """The zipper's move on [q]: p goes to p+1, the rest stay; built once per (q, p)."""
    return Operator(q, tuple(p + 1 if j == p else j for j in range(q + 1)))


def _intervals(vs: tuple[int, ...]) -> list[tuple[int, int]]:
    """The first and last position of each vertex repeated with others between."""
    last = {v: k for k, v in enumerate(vs)}
    return [(i, last[v]) for i, v in enumerate(vs) if vs.index(v) == i and last[v] > i + 1]


def _singular_rows(
    space: SimplicialSet, snap: dict[int, Simplex]
) -> list[tuple[int, tuple[int, ...]]]:
    """The scan: each first cell, in (dimension, id) order, whose vertex
    row in the snapshot repeats a vertex, with that row.  A first cell's
    row is the first cells of its vertices' classes, its row in
    ``vertex_rows()`` with each killed vertex replaced by its form's
    cell; with nothing killed it is that row as it is."""
    rows, order = space.vertex_rows(), space.cell_order()
    if snap:
        rep = {c: f.cell for c, f in snap.items()}
        scan = ((c, tuple(map(rep.get, rows[c], rows[c]))) for c in order if c not in snap)
    else:
        scan = ((c, rows[c]) for c in order)
    return [(c, vs) for c, vs in scan if len(set(vs)) < len(vs)]


def _forced_moves(space: SimplicialSet, intervals: bool) -> DesingResult:
    """Rounds of forced moves on one congruence over ``space``, then one
    quotient.  A round takes every zipper move its scan finds or, at a
    singular zipper fixpoint and with ``intervals``, every interval move,
    and merges from the rows the scan built before any of its merges.
    The last scan certifies."""
    cong, rounds, simplex = Congruence(space), [], space.simplex
    while True:
        singular = _singular_rows(space, cong.killed_forms())
        batch = []
        for cid, vs in singular:
            q = len(vs) - 1
            for p in range(q):
                if vs[p] == vs[p + 1]:
                    u = simplex(cid)
                    cong.merge(u, space.eval(u, _dup_operator(q, p)))
                    batch.append(MoveRecord(cid, q, p))
        if not batch and intervals:
            for cid, vs in singular:
                for i, j in _intervals(vs):
                    for k in range(i + 1, j):
                        cong.merge(simplex(vs[k]), simplex(vs[i]))
                    batch.append(IntervalMove(cid, i, j))
        if not batch:
            break
        rounds.append(batch)
    cert = Certificate.UNCERTIFIED if singular else Certificate.ZIPPER
    witness = singular[0][0] if singular else None
    if not rounds:
        return DesingResult(space, None, cert, witness, rounds)
    res = quotient(space, cong)
    return DesingResult(res.space, res.projection, cert, witness, rounds)


def zipper_desingularize(space: SimplicialSet) -> DesingResult:
    """Zipper rounds until no cell has equal adjacent vertices, then one quotient."""
    return _forced_moves(space, intervals=False)


def _contains(cong: Congruence, pairs: list[tuple[Simplex, Simplex]]) -> bool:
    """Does cong identify at least everything another congruence does?
    The pairs are that congruence's ``_generators``."""
    find = cong.find
    return all(find(c) == find(f) for c, f in pairs)


def _first_singular(space: SimplicialSet, forms: dict[int, Simplex]) -> Simplex | None:
    """The first simplex of the first singular cell of the quotient with
    these normal forms, or None when that quotient is non-singular.

    The quotient numbers its cells by their first cells in (dimension, id)
    order, the order of ``forms``; a first cell is its own form.  The
    congruence is closed under operators, so vertex j of a quotient cell is
    the class of vertex j of its first cell, and a vertex's form names its
    class; degree-0 classes are all cells and are never singular.
    """
    rows = space.vertex_rows()
    for c, f in forms.items():
        if f.cell != c or not f.degree:
            continue
        row = {forms[v].cell for v in rows[c]}
        if len(row) <= f.degree:
            return f
    return None


def _generators(
    space: SimplicialSet, forms: dict[int, Simplex]
) -> list[tuple[Simplex, Simplex]]:
    """The cells with their normal forms, where they differ: pairs that
    generate the congruence with these forms as a closed relation."""
    return [(space.simplex(c), f) for c, f in forms.items() if f.cell != c]


def _minimal_congruence(space: SimplicialSet) -> Congruence:
    """The minimal congruence whose quotient is non-singular, by
    breadth-first search.  A singular quotient branches once per class of
    degenerate simplices, merging its first singular cell with the first
    member of each.  Each child carries its normal forms, computed once.
    A child whose key is already seen, or equals an earlier sibling's, is
    dropped; of the rest, one that strictly contains a sibling is not
    queued, and only queued children are seen.  The search records every
    solution that contains no earlier one, and the filter keeps those
    that contain no other; the family is closed under meets, so one must
    be left.  The degenerate simplices of each degree are listed once per
    search.

    The pruning loses no minimal solution.  A child strictly contains its
    node N: the first singular cell is a cell of N's quotient, and the
    simplex merged with it is degenerate there.  Let S be a non-singular
    congruence containing N.  The first singular cell still repeats a
    vertex in S's quotient, so it is degenerate there: S merges it with
    some degenerate d, and the child for d's class lies in S.  That child
    is queued now or was queued before, or it strictly contains a distinct
    sibling, and then a sibling minimal under it is queued, lies in S and
    strictly contains N.  Inducting down on the size of S over N, the
    queued nodes in S climb from the start until one is recorded as a
    solution or is skipped for containing one, and that solution lies in
    S.  So every minimal S is recorded, and the filter leaves exactly the
    minimal congruences the unpruned search leaves."""
    start = Congruence(space)
    start_forms = start.normal_forms()
    seen = {tuple(start_forms.values())}
    queue = deque([(start, start_forms)])
    solutions: list[tuple[tuple, list, Congruence]] = []
    degenerate: dict[int, list[Simplex]] = {}
    while queue:
        cong, forms = queue.popleft()
        if any(_contains(cong, pairs) for _, pairs, _ in solutions):
            continue
        rep = _first_singular(space, forms)
        if rep is None:
            solutions.append((tuple(forms.values()), _generators(space, forms), cong))
            continue
        q = rep.degree
        if q not in degenerate:
            degenerate[q] = [s for s in space.simplices(q) if s.is_degenerate]
        tried, children = set(), {}
        for d in degenerate[q]:
            cls = cong.find(d)
            if cls in tried:
                continue
            tried.add(cls)
            child = cong.copy()
            child.merge(rep, d)
            child_forms = child.normal_forms()
            key = tuple(child_forms.values())
            if key not in seen and key not in children:
                children[key] = (child, child_forms)
        if len(children) > 1:
            pairs = {key: _generators(space, f) for key, (_, f) in children.items()}
            children = {
                key: node for key, node in children.items()
                if not any(other != key and _contains(node[0], p) for other, p in pairs.items())
            }
        seen.update(children)
        queue.extend(children.values())
    minimal = [
        c for key, _, c in solutions
        if not any(other != key and _contains(c, pairs) for other, pairs, _ in solutions)
    ]
    if len(minimal) != 1:
        raise RuntimeError(
            f"search left {len(minimal)} minimal non-singular congruences, not one"
        )
    return minimal[0]


def oracle_desingularize(space: SimplicialSet, bound: int = 10) -> DesingResult:
    if len(space.cells) > bound:
        raise ValueError(f"oracle bound exceeded: {len(space.cells)} cells > {bound}")
    res = quotient(space, _minimal_congruence(space))
    if not res.space.is_nonsingular():
        raise RuntimeError("the minimal non-singular congruence has a singular quotient")
    return DesingResult(res.space, res.projection, Certificate.ORACLE, None)


def desingularize(space: SimplicialSet) -> DesingResult:
    """Zipper rounds, and an interval round at each singular zipper fixpoint,
    until certified, then one quotient."""
    return _forced_moves(space, intervals=True)


def factor_through_quotient(eta: SimplicialMap, g: SimplicialMap) -> SimplicialMap:
    """The unique h with h . eta = g, when g respects eta's identifications.

    A cell of eta's target goes where its first preimage goes: the first
    cell, in (dimension, id) order, that eta sends onto it.  Every other
    cell is checked before h is built, so a g that does not factor raises
    a ValueError naming its first bad cell; h is validated, whatever eta
    is.  A desingularization that makes no move has no projection to
    factor through, and ``desingularized_comparison`` does not call this.
    """
    if eta.source is not g.source and not eta.source.same_presentation(g.source):
        raise ValueError("maps must share their source")
    asg, want, target = eta.assignment, g.assignment, g.target
    first: dict[int, int] = {}
    for x in eta.source.cell_order():
        if asg[x].degen.is_identity:
            first.setdefault(asg[x].cell, x)
    space = eta.target
    if len(first) != len(space.cells):
        raise ValueError("the map to factor through does not hit every cell")
    out = {u: want[first[u]] for u in space.cells}
    for x, s in asg.items():
        if s.degen.is_identity and first[s.cell] == x:
            continue
        if target.eval(out[s.cell], s.degen) != want[x]:
            raise ValueError(f"map does not factor at cell {x}")
    return SimplicialMap(space, target, out)


def desingularized_comparison(comp: SimplicialMap) -> tuple[SimplicialMap, DesingResult]:
    """Factor a map to a non-singular target through D of its source.
    When D makes no move, the map is returned as it is."""
    res = desingularize(comp.source)
    if res.projection is None:
        return comp, res
    return factor_through_quotient(res.projection, comp), res

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
congruence's killed forms, as the forced moves do (see ``colimits``).
They determine the congruence, since every other cell is its own form
and two simplices (c, sigma) and (d, tau) are related exactly when the
form of c degenerated by sigma is the form of d degenerated by tau; and
they are canonical for it.  So the set of killed forms is the key that
removes duplicate nodes, the first singular cell is the first entry of
the forced moves' scan of those forms, and a congruence contains another
exactly when it relates every cell that one kills to its form.  A node
branches once per class of the degenerate simplices it could merge its
first singular cell with: merging with any member of a class gives the
same child, which the key would only drop again.  Of a node's children
only the minimal ones are queued: a child that strictly contains a
sibling leads to no minimal solution that the sibling does not, so every
minimal solution is still recorded and the exactly-one check keeps its
strength.  Only the minimal congruence is quotiented, and that quotient,
its projection and its non-singularity are validated.
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


def _contains(cong: Congruence, killed: dict[int, Simplex]) -> bool:
    """Does cong identify at least everything the congruence with these
    killed forms does?  Each killed cell with its form is a pair that
    generates that congruence as a closed relation."""
    find, simplex = cong.find, cong.space.simplex
    return all(find(simplex(c)) == find(f) for c, f in killed.items())


def _minimal_congruence(space: SimplicialSet) -> Congruence:
    """The minimal congruence whose quotient is non-singular, by
    breadth-first search.  A singular quotient branches once per class of
    degenerate simplices, merging its first singular cell, the first entry
    of the forced moves' scan, with the first member of each.  Each child
    carries its killed forms, read once, and their set is its key.
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
    seen = {frozenset()}
    queue = deque([(Congruence(space), {})])
    solutions: list[tuple[dict, Congruence]] = []
    degenerate: dict[int, list[Simplex]] = {}
    while queue:
        cong, killed = queue.popleft()
        if any(_contains(cong, k) for k, _ in solutions):
            continue
        singular = _singular_rows(space, killed)
        if not singular:
            solutions.append((killed, cong))
            continue
        rep = space.simplex(singular[0][0])
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
            child_killed = child.killed_forms()
            key = frozenset(child_killed.items())
            if key not in seen and key not in children:
                children[key] = (child, child_killed)
        if len(children) > 1:
            children = {
                key: node for key, node in children.items()
                if not any(o != key and _contains(node[0], k) for o, (_, k) in children.items())
            }
        seen.update(children)
        queue.extend(children.values())
    minimal = [
        c for _, c in solutions if not any(o is not c and _contains(c, k) for k, o in solutions)
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

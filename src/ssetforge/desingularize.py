"""Desingularization.

The zipper pass repeatedly collapses forced degeneracies: whenever a
cell has two equal adjacent vertices p and p+1, any map to a
non-singular target must send it to a simplex degenerate at p, so it is
merged with the degeneracy of its own p-th face.  If the fixpoint is
non-singular it is the universal non-singular quotient and the run is
certified; otherwise the result is honest but uncertified and tiny
inputs can fall back to the exhaustive oracle.

The oracle enumerates minimal operator-closed congruences whose
quotient is non-singular by witness-directed search and takes their
meet; the family is closed under meets, so the meet itself has a
non-singular quotient, which is checked, not assumed.  The search builds
no quotient per node: it reads the first singular cell off the
congruence itself, as the first cell class whose vertex classes are not
pairwise distinct.  Only the meet is quotiented, and that quotient, its
projection and its non-singularity are validated.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .colimits import Congruence, quotient
from .operators import Operator, all_degeneracies, make_vertex
from .simplicial import Simplex, SimplicialMap, SimplicialSet, compose_maps, identity_map


class Certificate(str, Enum):
    ZIPPER = "ZipperCertified"
    ORACLE = "OracleExact"
    UNCERTIFIED = "Uncertified"


@dataclass(frozen=True)
class MoveRecord:
    cell: int  # cell of the input space mapping onto the collapsed cell
    degree: int
    position: int


@dataclass
class DesingResult:
    quotient: SimplicialSet
    eta: SimplicialMap
    certificate: Certificate
    moves: list[list[MoveRecord]] = field(default_factory=list)


def _dup_operator(q: int, p: int) -> Operator:
    return Operator(q, tuple(p + 1 if j == p else j for j in range(q + 1)))


def _first_preimages(eta: SimplicialMap) -> dict[int, int]:
    """The first source cell, in id order, that eta sends onto each cell it hits."""
    reps: dict[int, int] = {}
    for x in sorted(eta.source.cells):
        s = eta.assignment[x]
        if s.degen.is_identity and s.cell not in reps:
            reps[s.cell] = x
    return reps


def _adjacent_repeats(space: SimplicialSet, cid: int) -> list[int]:
    vs = space.vertices(space.simplex(cid))
    return [p for p in range(len(vs) - 1) if vs[p] == vs[p + 1]]


def zipper_desingularize(space: SimplicialSet) -> DesingResult:
    cur = space
    eta = identity_map(space)
    rounds: list[list[MoveRecord]] = []
    while True:
        moves = []
        for cid in sorted(cur.cells, key=lambda c: (cur.cells[c].dim, c)):
            moves.extend((cid, p) for p in _adjacent_repeats(cur, cid))
        if not moves:
            break
        reps = _first_preimages(eta)
        cong = Congruence(cur)
        batch = []
        for cid, p in moves:
            u = cur.simplex(cid)
            cong.merge(u, cur.eval(u, _dup_operator(u.degree, p)))
            batch.append(MoveRecord(reps[cid], u.degree, p))
        res = quotient(cur, cong)
        rounds.append(batch)
        eta = compose_maps(eta, res.projection)
        cur = res.space
    cert = Certificate.ZIPPER if cur.is_nonsingular() else Certificate.UNCERTIFIED
    return DesingResult(cur, eta, cert, rounds)


def replay_zipper(space: SimplicialSet, rounds: list[list[MoveRecord]]) -> DesingResult:
    """Re-run a recorded move list, re-checking every premise at its
    merge time.  Raises if any recorded collapse was not forced."""
    cur = space
    eta = identity_map(space)
    for batch in rounds:
        cong = Congruence(cur)
        for mv in batch:
            u = eta.apply(space.simplex(mv.cell))
            if not u.degen.is_identity:
                raise ValueError(f"recorded cell {mv.cell} no longer maps onto a cell")
            vs = cur.vertices(u)
            if mv.degree != u.degree or vs[mv.position] != vs[mv.position + 1]:
                raise ValueError(f"premise fails for {mv}")
            cong.merge(u, cur.eval(u, _dup_operator(u.degree, mv.position)))
        res = quotient(cur, cong)
        eta = compose_maps(eta, res.projection)
        cur = res.space
    cert = Certificate.ZIPPER if cur.is_nonsingular() else Certificate.UNCERTIFIED
    return DesingResult(cur, eta, cert, list(rounds))


def _contains(cong: Congruence, canon: frozenset) -> bool:
    """Does cong identify at least everything the canonical form does?"""
    for cls in canon:
        roots = {cong.find(key) for key in cls}
        if len(roots) > 1:
            return False
    return True


def _degenerate_simplices(space: SimplicialSet, degree: int) -> list[Simplex]:
    out = []
    for cid in sorted(space.cells):
        d = space.cells[cid].dim
        if d < degree:
            out.extend(
                Simplex(cid, op) for op in all_degeneracies(degree, d)
            )
    return out


def _meet(space: SimplicialSet, congs: list[Congruence]) -> Congruence:
    out = Congruence(space)
    for q in range(space.dim + 1):
        groups: dict[tuple, list[Simplex]] = {}
        for s in space.simplices(q):
            groups.setdefault(tuple(c.find(s) for c in congs), []).append(s)
        for members in groups.values():
            for other in members[1:]:
                out.merge(members[0], other)
    return out


def _first_singular(space: SimplicialSet, cong: Congruence) -> Simplex | None:
    """The first simplex of the first singular cell of the quotient by
    cong, or None when that quotient is non-singular.

    The quotient numbers its cells in classes() order, which runs degree
    by degree, and a cell class (one with no degenerate member) has
    (cell, identity) as its first member.  The congruence is closed under
    operators, so vertex j of a quotient cell is the class of vertex j of
    that member; degree-0 classes are all cells and are never singular.
    """
    for members in cong.classes().values():
        rep = members[0]
        q = rep.degree
        if q == 0 or any(m.is_degenerate for m in members):
            continue
        roots = {cong.find(space.eval(rep, make_vertex(j, q))) for j in range(q + 1)}
        if len(roots) <= q:
            return rep
    return None


def _minimal_congruence_meet(space: SimplicialSet) -> Congruence:
    """Breadth-first search for the minimal congruences whose quotient is
    non-singular, then their meet.  A singular quotient branches on every
    merge of its first singular cell with a degenerate simplex."""
    start = Congruence(space)
    seen = {start.canonical()}
    queue = deque([start])
    solutions: list[tuple[frozenset, Congruence]] = []
    while queue:
        cong = queue.popleft()
        if any(_contains(cong, canon) for canon, _ in solutions):
            continue
        rep = _first_singular(space, cong)
        if rep is None:
            solutions.append((cong.canonical(), cong))
            continue
        for d in _degenerate_simplices(space, rep.degree):
            child = cong.copy()
            child.merge(rep, d)
            canon = child.canonical()
            if canon not in seen:
                seen.add(canon)
                queue.append(child)
    minimal = []
    for canon, c in solutions:
        if not any(
            other != canon and _contains(c, other) for other, _ in solutions
        ):
            minimal.append(c)
    if not minimal:
        raise RuntimeError("search found no admissible congruence")
    return _meet(space, minimal)


def oracle_desingularize(space: SimplicialSet, bound: int = 10) -> DesingResult:
    if len(space.cells) > bound:
        raise ValueError(f"oracle bound exceeded: {len(space.cells)} cells > {bound}")
    meet = _minimal_congruence_meet(space)
    res = quotient(space, meet)
    if not res.space.is_nonsingular():
        raise RuntimeError("meet of minimal non-singular congruences is singular")
    return DesingResult(res.space, res.projection, Certificate.ORACLE)


def desingularize(space: SimplicialSet, oracle_bound: int = 10) -> DesingResult:
    res = zipper_desingularize(space)
    if res.certificate == Certificate.UNCERTIFIED and len(space.cells) <= oracle_bound:
        return oracle_desingularize(space, oracle_bound)
    return res


def factor_through_quotient(eta: SimplicialMap, g: SimplicialMap) -> SimplicialMap:
    """The unique h with h . eta = g, when g respects eta's identifications."""
    if eta.source is not g.source and not eta.source.same_presentation(g.source):
        raise ValueError("maps must share their source")
    reps = _first_preimages(eta)
    if len(reps) != len(eta.target.cells):
        raise ValueError("projection does not hit every cell")
    asg = {u: g.assignment[reps[u]] for u in eta.target.cells}
    h = SimplicialMap(eta.target, g.target, asg)
    for x in eta.source.cells:
        if h.apply(eta.assignment[x]) != g.assignment[x]:
            raise ValueError(f"map does not factor through the quotient at cell {x}")
    return h

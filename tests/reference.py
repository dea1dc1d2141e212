"""Reference constructions that the fast paths replaced, kept as their
definitions for differential tests.

``SimplexCongruence`` is the congruence as a union-find over the
simplices of degree up to dim X, with one degenerate witness per class;
its ``merge_pushing_everything`` closes by the definition, pushing every
elementary face and degeneracy of every joined pair.  ``Congruence``
keeps normal forms of cells instead.
``injective_by_simplices`` decides degreewise injectivity by comparing
the images of every simplex of degree up to the source's dimension;
``SimplicialMap.is_degreewise_injective`` reads it off the cells.
``injective_in_degree_by_simplices`` and ``surjective_in_degree_by_simplices``
decide one degree q by evaluating the map on every q-simplex, degenerate
ones included; ``injective_in_degree`` and ``surjective_in_degree`` compare
the image cells of the cells of dimension up to q.
``quotient_by_classes`` is the quotient read off ``Congruence.classes()``,
the walk over every simplex of degree up to the bound, returned beside
the members of each class.
``UnionPushout`` is the pushout as the quotient of the disjoint union by
the congruence its span generates, defined for any span, and its
mediator checks agreement on A and walks the members of each class;
``pushout`` attaches along an injective first leg instead.
``factor_through`` is the map out of the common target of many legs,
checked on every cell, and ``mediator`` is the map out of a pushout as
its case of two legs; the program builds every map out of a pushout
into a nerve from its vertices (``pushout_into_nerve``), and factors
through one quotient map at a time (``factor_through_quotient``).
``product_cylinder_reduction`` builds the topological cylinder from the
generic simplicial product NP x Delta[1] instead of the nerve of P x [1].
``fresh_representing_sharp`` and ``fresh_cylinder_reduction`` build a
new Delta[q]#, its nerve, P x [1], the prism nerve and both ends with
their nerve maps on every call; ``representing_sharp`` and
``cylinder_reduction`` share one source side per simplex dimension.
``simplex_map_from`` is ``simplex_map`` out of a given Delta[q], for
tests that need two maps out of one; the program builds each
representing map out of a Delta[q] of its own.
``label_nerve`` and ``label_nerve_map`` build nerves and nerve maps on
chains of elements, found by walking the strict pairs, each nerve
returned beside its chain of each cell; ``nerve`` and ``nerve_map``
work on chains of element indices.  ``slicing_nerve``
finds each face of an index chain by slicing out one entry and looking
the result up; ``nerve`` reads it off the ids of one-element extensions.
``recursive_vertex_rows`` finds each cell's vertex row by recursion on
its stored faces; ``SimplicialSet.vertex_rows`` fills every row in one
pass in dimension order.  ``snapshot_row`` is a first cell's vertex row
in a snapshot of killed forms, each vertex looked up in it; the
desingularizer's scan maps the table's rows through the killed
vertices' cells.  ``two_pass_run_collapse``
is ``run_collapse`` by its definition, and ``pair_scan_closure`` closes a
relation by composing every two pairs until nothing is added, where
``FinPoset`` walks successor sets.
``reference_sd`` numbers the subdivided cells through a dict keyed by
(carrier cell, chain of operators), as ``sd_pairs`` lists them, rebases
every last face afresh, and returns that list beside the space; ``sd``
works on chain indices and offsets.  ``carrier_b_nat`` finds the
carriers of a subdivided cell by evaluating each chain entry on the
carrier cell; ``b_nat`` reads them off the cell's vertex row.
``reference_sd_map`` pushes each chain along its carrier's image and
looks the result up in an inverse of the target's ``sd_pairs``;
``sd_map`` adds the pushed chain's position to its block's first id.
``reference_regularity_witness`` decides each cell's attachment by
walking the closure of its last face and evaluating it on every face of
[d] containing the vertex d; ``regularity_witness`` keeps bitmasks of
closures and of those faces' cells in one pass over the cell table.
``reference_is_dwyer`` searches every cosieve containing the image,
largest first, for one carrying a retraction, with order read off the
strict pairs through ``leq``; ``is_dwyer`` builds the only one that can
pass, on the up-set tables.  ``pairwise_monotone_error`` checks a map pair
by pair against the posets' strict pairs; ``MonotoneMap`` decides each
element on index tables and names a failing pair only then.
``sd_skeletal`` builds the subdivision from the skeleton filtration,
one pushout per dimension attaching a subdivided standard simplex along
its subdivided boundary for every cell, the boundary inclusion its
first leg; ``sd`` numbers the cells directly.
``find_isomorphism`` searches for a cell bijection preserving dimensions
and face tables, by backtracking over cells grouped by refined
signatures; no verdict of the program runs a search, and the tests use
it to compare constructions that build no map between them.
``reference_zipper``, ``reference_desingularize`` and ``reference_replay``
run each round on a new congruence over the round before's quotient,
quotient every round, compose eta, and map move cells back to the input
through ``_first_preimages``; the desingularizer runs every move on one
congruence over the input and quotients once.
``reference_minimal_congruence`` is the oracle's search by its
definition and without sibling pruning: it finds each node's first
singular cell by ``_quotient_step`` on the classes-walk quotient, keys
nodes by ``canonical()``, decides containment on classes
(``contains_classes``) and queues every child whose key is new;
``_minimal_congruence`` reads each node's killed forms, branches on the
forced moves' scan and queues only the children that strictly contain
no sibling.
``kernel_by_simplices`` is the kernel of a map by merging every two
simplices of one degree with one image; ``kernel_congruence`` merges
each cell once, with the first cell sent onto its image cell.
``fstring_simplex_token`` writes a simplex token by joining the repeat
positions of its degeneracy afresh, and ``regex_parse_simplex`` reads one
through a regular expression and ``degeneracy_from_repeats``, every
token anew; ``textio`` keeps the braces text of each degeneracy and the
degeneracy of each (braces text, degree) pair instead.
``all_posets_by_relabelling`` enumerates posets keyed by the least
relation over all n! relabellings; ``all_posets`` permutes elements only
within classes of equal (|down-set|, |up-set|) signatures.

The program labels no cell: a cell's id is its only name, so the tests
read every fact where it lives.  A cell of Delta[n] is the face
operator ``all_faces(n)[cid]``, and a cell of Sd X is the pair at its
id in ``sd_pairs``.
``chain_labels`` is each nerve cell's chain of elements, its vertex row
read through ``poset.elements``; ``fibres`` lists the cells a map sends
onto each target cell, which for a quotient's projection are the
members of each class, and ``pushout_classes`` does the same for the
two pushout legs, with the cells of X u Y numbered as ``disjoint_union``
numbers them; ``pair_ids``
numbers a product's pairs, read off its two projections.
``all_operators`` enumerates every operator [src] -> [dst], and
``make_degen(i, n)`` is the elementary degeneracy [n+1] -> [n] hitting
i twice; no program path needs either.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from itertools import combinations_with_replacement, permutations
from typing import Iterator

from ssetforge.colimits import (
    Congruence,
    ProductResult,
    PushoutResult,
    QuotientResult,
    _strip_common,
    disjoint_union,
    product,
    pushout,
    quotient,
)
from ssetforge.cylinders import CylinderBundle, _check_bundle
from ssetforge.desingularize import (
    Certificate,
    DesingResult,
    IntervalMove,
    MoveRecord,
    _dup_operator,
    _intervals,
)
from ssetforge.operators import (
    Operator,
    all_faces,
    compose,
    degeneracy_from_repeats,
    ez_factor,
    face_restriction,
    identity,
    make_face,
    make_vertex,
    run_collapse,
)
from ssetforge.posets import (
    FinPoset,
    MonotoneMap,
    Nerve,
    barratt,
    barratt_map,
    chain_poset,
    compose_monotone,
    cylinder_end,
    nerve,
    nerve_map,
    poset_pushout,
    product_poset,
    sharp_map,
)
from ssetforge.simplicial import (
    Cell,
    Simplex,
    SimplicialMap,
    SimplicialSet,
    _simplex,
    compose_maps,
    generate,
    generated_cells,
    identity_map,
    simplex_map,
    standard_simplex,
)
from ssetforge.subdivision import chains_to_top
from ssetforge.textio import ParseError


def all_operators(src: int, dst: int) -> Iterator[Operator]:
    """Every weakly monotone map [src] -> [dst]."""
    for vals in combinations_with_replacement(range(dst + 1), src + 1):
        yield Operator(dst, vals)


def make_degen(i: int, n: int) -> Operator:
    """The degeneracy [n+1] -> [n] hitting i twice."""
    return degeneracy_from_repeats({i}, n + 1)


class SimplexCongruence:
    """Union-find over simplices of degree <= dim, closed under operators.

    ``merge`` pushes the elementary faces and degeneracies of every pair it
    joins, except that a pair (s_i a, s_i b), queued as a degeneracy of a
    joined pair (a, b), pushes only its degeneracies.  Every face of s_i a
    is a itself or a degeneracy of a face of a, and the face pairs of
    (a, b) are already queued, so by induction on the degree the faces of
    (s_i a, s_i b) are related anyway.  Every joined pair pushes all its
    degeneracies, so the relation is closed under degeneracies, and with
    that under faces too.

    Each root keeps one degenerate member of its class as a witness, set
    when ``find`` first meets a degenerate simplex and carried over when
    two classes join.  ``normal_forms`` visits the cells in (dimension, id)
    order: a class with a witness (c, sigma) is the class of the lower
    cell c degenerated by sigma, and a class without one is a cell class,
    named by its first cell.
    """

    def __init__(self, space: SimplicialSet):
        self.space = space
        self.degree_bound = max(space.dim, 0)
        self._parent: dict[Simplex, Simplex] = {}
        self._size: dict[Simplex, int] = {}
        # root -> a degenerate member of its class, for classes that have one
        self._degen: dict[Simplex, Simplex] = {}

    def find(self, s: Simplex) -> Simplex:
        if s not in self._parent:
            self._parent[s] = s
            self._size[s] = 1
            if not s.degen.is_identity:
                self._degen[s] = s
            return s
        while self._parent[s] != s:
            self._parent[s] = self._parent[self._parent[s]]
            s = self._parent[s]
        return s

    def together(self, s: Simplex, t: Simplex) -> bool:
        return self.find(s) == self.find(t)

    def _join(self, a: Simplex, b: Simplex) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        if rb in self._degen:
            self._degen.setdefault(ra, self._degen.pop(rb))
        return True

    def merge(self, s: Simplex, t: Simplex) -> None:
        if s.degree != t.degree:
            raise ValueError("cannot merge simplices of different degrees")
        ev, bound = self.space.eval, self.degree_bound
        # (a, b, whether the pair still owes its face pairs)
        work = [(s, t, True)]
        while work:
            a, b, with_faces = work.pop()
            if not self._join(a, b):
                continue
            q = a.degree
            if with_faces and q >= 1:
                for i in range(q + 1):
                    op = make_face(i, q)
                    work.append((ev(a, op), ev(b, op), True))
            if q < bound:
                (ca, da), (cb, db) = a, b
                for i in range(q + 1):
                    op = make_degen(i, q)
                    work.append(
                        (_simplex((ca, compose(op, da))), _simplex((cb, compose(op, db))), False)
                    )

    def merge_pushing_everything(self, s: Simplex, t: Simplex) -> None:
        """The closure by definition: every joined pair pushes all its
        elementary faces and degeneracies, each through eval."""
        space = self.space
        work = [(s, t)]
        while work:
            a, b = work.pop()
            if not self._join(a, b):
                continue
            q = a.degree
            ops = [make_face(i, q) for i in range(q + 1)] if q >= 1 else []
            if q < self.degree_bound:
                ops += [make_degen(i, q) for i in range(q + 1)]
            work.extend((space.eval(a, op), space.eval(b, op)) for op in ops)

    def normal_forms(self) -> dict[int, Simplex]:
        space, find, witness = self.space, self.find, self._degen
        cells = space.cells
        forms: dict[int, Simplex] = {}
        by_root: dict[Simplex, Simplex] = {}
        for c in sorted(cells, key=lambda c: (cells[c].dim, c)):
            top = space.simplex(c)
            root = find(top)
            got = by_root.get(root)
            if got is None:
                w = witness.get(root)
                if w is None:
                    got = top
                else:
                    base = forms[w.cell]
                    got = _simplex((base.cell, compose(w.degen, base.degen)))
                by_root[root] = got
            forms[c] = got
        return forms

    def classes(self) -> dict[Simplex, list[Simplex]]:
        out: dict[Simplex, list[Simplex]] = {}
        for q in range(self.degree_bound + 1):
            for s in self.space.simplices(q):
                out.setdefault(self.find(s), []).append(s)
        return out

    def canonical(self) -> frozenset[frozenset[Simplex]]:
        return frozenset(
            frozenset(members) for members in self.classes().values() if len(members) > 1
        )

    def copy(self) -> "SimplexCongruence":
        other = SimplexCongruence(self.space)
        other._parent = dict(self._parent)
        other._size = dict(self._size)
        other._degen = dict(self._degen)
        return other


def injective_by_simplices(f: SimplicialMap) -> bool:
    """Degreewise injectivity by its definition, degree by degree up to
    the source's dimension."""
    for q in range(f.source.dim + 1):
        simplices = list(f.source.simplices(q))
        if len({f.apply(s) for s in simplices}) != len(simplices):
            return False
    return True


def injective_in_degree_by_simplices(f: SimplicialMap, q: int) -> bool:
    """Injectivity in degree q by its definition, on every q-simplex."""
    seen: set[Simplex] = set()
    for s in f.source.simplices(q):
        t = f.apply(s)
        if t in seen:
            return False
        seen.add(t)
    return True


def surjective_in_degree_by_simplices(f: SimplicialMap, q: int) -> bool:
    """Surjectivity in degree q by its definition, on every q-simplex."""
    hit = {f.apply(s) for s in f.source.simplices(q)}
    return all(t in hit for t in f.target.simplices(q))


def chain_labels(space: Nerve) -> dict[int, tuple]:
    """Each nerve cell's chain of elements, by cell id: its vertex row
    read through ``poset.elements``, since vertex i is element i."""
    element = space.poset.elements.__getitem__
    return {cid: tuple(map(element, row)) for cid, row in space.vertex_rows().items()}


def fibres(f: SimplicialMap) -> dict[int, tuple[int, ...]]:
    """The cells f sends onto each target cell under the identity, in
    (dimension, id) order, by target cell id: for a quotient's
    projection, the members of each cell class."""
    out: dict[int, list[int]] = {}
    for c in f.source.cell_order():
        s = f.assignment[c]
        if s.degen.is_identity:
            out.setdefault(s.cell, []).append(c)
    return {n: tuple(out[n]) for n in sorted(out)}


def pushout_classes(po: PushoutResult) -> dict[int, tuple[int, ...]]:
    """Each pushout cell's members among the cells of X u Y, numbered as
    ``disjoint_union`` numbers them (X's cells first, then Y's offset by
    ``len(X.cells)``), in (dimension, union id) order: the cells each leg
    sends onto a pushout cell under the identity."""
    rows = []
    off = 0
    for leg in (po.left, po.right):
        cells = leg.source.cells
        for i, c in enumerate(sorted(cells)):
            rows.append((cells[c].dim, off + i, leg.assignment[c]))
        off += len(cells)
    out: dict[int, list[int]] = {}
    for _, uid, s in sorted(rows, key=lambda r: r[:2]):
        if s.degen.is_identity:
            out.setdefault(s.cell, []).append(uid)
    return {n: tuple(out[n]) for n in sorted(out)}


def pair_ids(pr: ProductResult) -> dict[tuple[Simplex, Simplex], int]:
    """The id of each product cell by its pair, read off the projections."""
    first, second = pr.first.assignment, pr.second.assignment
    return {(first[cid], second[cid]): cid for cid in pr.space.cells}


def simplex_map_from(target: SimplicialSet, s: Simplex, delta: SimplicialSet) -> SimplicialMap:
    """``simplex_map`` out of the given standard simplex ``delta`` of the
    degree of s, for a test that needs two maps out of one Delta[q]."""
    faces = all_faces(s.degree)
    return SimplicialMap(delta, target, {cid: target.eval(s, faces[cid]) for cid in delta.cells})


def quotient_by_classes(
    space: SimplicialSet, cong: Congruence
) -> tuple[QuotientResult, dict[int, tuple[int, ...]]]:
    """The quotient by its definition: the classes with no degenerate member
    are the cells, in ``classes()`` order, and every other class is the
    degeneration of a lower class through its least degenerate member.
    Beside it, the member cells of each cell's class."""
    classes = cong.classes()
    is_cell = {
        root: all(not m.is_degenerate for m in members)
        for root, members in classes.items()
    }
    new_id: dict[Simplex, int] = {}
    for root in classes:
        if is_cell[root]:
            new_id[root] = len(new_id)

    memo: dict[Simplex, Simplex] = {}

    def normal_form(root: Simplex) -> Simplex:
        got = memo.get(root)
        if got is not None:
            return got
        if is_cell[root]:
            out = Simplex(new_id[root], identity(root.degree))
        else:
            rep = min(
                (m for m in classes[root] if m.is_degenerate),
                key=lambda s: (s.degree, s.cell, s.degen.values),
            )
            base = normal_form(cong.find(Simplex(rep.cell, identity(rep.degen.dst))))
            out = Simplex(base.cell, compose(rep.degen, base.degen))
        memo[root] = out
        return out

    cells: dict[int, Cell] = {}
    members_of: dict[int, tuple[int, ...]] = {}
    for root, members in classes.items():
        if not is_cell[root]:
            continue
        q = root.degree
        rep = members[0]
        faces = []
        for i in range(q + 1 if q else 0):
            fs = normal_form(cong.find(space.eval(rep, make_face(i, q))))
            faces.append((fs.cell, fs.degen))
        cells[new_id[root]] = Cell(q, tuple(faces))
        members_of[new_id[root]] = tuple(m.cell for m in members)
    qspace = SimplicialSet(cells)
    projection = SimplicialMap(
        space,
        qspace,
        {cid: normal_form(cong.find(space.simplex(cid))) for cid in space.cells},
    )
    return QuotientResult(qspace, projection), members_of


def kernel_by_simplices(f: SimplicialMap) -> Congruence:
    """The relation f(s) = f(t) by its definition: in each degree, every
    simplex is merged with the first one of its image."""
    cong = Congruence(f.source)
    for q in range(f.source.dim + 1):
        fibers: dict[Simplex, Simplex] = {}
        for s in f.source.simplices(q):
            img = f.apply(s)
            if img in fibers:
                cong.merge(fibers[img], s)
            else:
                fibers[img] = s
    return cong


class UnionPushout(PushoutResult):
    """The pushout by its definition, for any span: the quotient of the
    disjoint union X u Y by the congruence generated by f(a) ~ g(a) over
    the cells a of A, with the legs through the projection.  ``_inv``
    sends a union id back to its side and cell, ``classes`` holds the
    members of each class, the fibres of the projection, and the
    mediator walks them."""

    def __init__(self, f: SimplicialMap, g: SimplicialMap):
        if f.source is not g.source and not f.source.same_presentation(g.source):
            raise ValueError("pushout legs must share their source")
        self._f, self._g = f, g
        z, inl, inr = disjoint_union(f.target, g.target)
        self._inv: dict[int, tuple[str, int]] = {}
        for cid, s in inl.assignment.items():
            self._inv[s.cell] = ("x", cid)
        for cid, s in inr.assignment.items():
            self._inv[s.cell] = ("y", cid)
        cong = Congruence(z)
        for aid in sorted(f.source.cells):
            a = f.source.simplex(aid)
            cong.merge(inl.apply(f.apply(a)), inr.apply(g.apply(a)))
        q = quotient(z, cong)
        self.space = q.space
        self.classes = fibres(q.projection)
        self.left = compose_maps(inl, q.projection)
        self.right = compose_maps(inr, q.projection)

    def mediator(self, u: SimplicialMap, v: SimplicialMap) -> SimplicialMap:
        """Agreement on A, then the one value of each class over its members."""
        if u.target is not v.target:
            raise ValueError("mediator targets differ")
        for aid in self._f.source.cells:
            a = self._f.source.simplex(aid)
            if u.apply(self._f.apply(a)) != v.apply(self._g.apply(a)):
                raise ValueError(f"maps do not agree on cell {aid} of the gluing source")
        asg: dict[int, Simplex] = {}
        for pid, members in self.classes.items():
            values = set()
            for zc in members:
                side, orig = self._inv[zc]
                values.add(u.assignment[orig] if side == "x" else v.assignment[orig])
            if len(values) != 1:
                raise RuntimeError(f"mediator ill-defined on quotient cell {pid}")
            asg[pid] = values.pop()
        return SimplicialMap(self.space, u.target, asg)


def factor_through(legs: list[SimplicialMap], maps: list[SimplicialMap]) -> SimplicialMap:
    """The unique h with h . leg = map for every leg and its map, out of
    the legs' common target, each of whose cells a leg hits.

    A target cell goes where its first preimage goes: the first cell,
    legs in order and each in (dimension, id) order, sent onto it.  Every
    other cell is checked before h is built, so a pair that does not
    factor raises a ValueError naming its first bad cell; h is validated.
    """
    target = maps[0].target
    if any(m.target is not target for m in maps):
        raise ValueError("maps to factor have different targets")
    first: dict[int, tuple[int, int]] = {}
    for k, leg in enumerate(legs):
        for x in leg.source.cell_order():
            s = leg.assignment[x]
            if s.degen.is_identity and s.cell not in first:
                first[s.cell] = (k, x)
    space = legs[0].target
    if len(first) != len(space.cells):
        raise ValueError("the legs do not hit every cell")
    out = {u: maps[first[u][0]].assignment[first[u][1]] for u in space.cells}
    for k, (leg, m) in enumerate(zip(legs, maps)):
        for x, s in leg.assignment.items():
            if s.degen.is_identity and first[s.cell] == (k, x):
                continue
            if target.eval(out[s.cell], s.degen) != m.assignment[x]:
                raise ValueError(f"map does not factor at cell {x} of leg {k}")
    return SimplicialMap(space, target, out)


def mediator(po: PushoutResult, u: SimplicialMap, v: SimplicialMap) -> SimplicialMap:
    """The unique map out of the pushout restricting to u on X and v on Y.
    With Y's leg first, the cells checked are those of X that A hits."""
    return factor_through([po.right, po.left], [v, u])


def _end_inclusion(pr: ProductResult, level: int) -> SimplicialMap:
    base, interval = pr.first.target, pr.second.target
    vcell = all_faces(1).index(make_vertex(level, 1))
    ids, asg = pair_ids(pr), {}
    for cid, cell in base.cells.items():
        constant = Operator(0, (0,) * (cell.dim + 1))
        a, b, rho = _strip_common(identity(cell.dim), constant)
        asg[cid] = Simplex(ids[(Simplex(cid, a), Simplex(vcell, b))], rho)
    return SimplicialMap(base, pr.space, asg)


def prism_row(pr: ProductResult, cid: int) -> tuple:
    """Vertex row of a prism cell, as (base element, interval level) pairs."""
    base, interval = pr.first.target, pr.second.target
    row = []
    for v in pr.space.vertex_rows()[cid]:
        sx, sy = pr.first.assignment[v], pr.second.assignment[v]
        row.append((base.poset.elements[sx.cell], all_faces(1)[sy.cell].values[0]))
    return tuple(row)


def product_cylinder_reduction(
    phi: MonotoneMap,
) -> tuple[CylinderBundle, ProductResult, PushoutResult]:
    """The cylinder bundle with T glued from the product prism, with the
    prism and the pushout that glues it."""
    p, r = phi.source, phi.target
    np_, nr = nerve(p), nerve(r)
    pr = product(np_, standard_simplex(1))
    po = pushout(_end_inclusion(pr, 0), nerve_map(phi, np_, nr))
    cyl = product_poset(p, chain_poset(1))
    v = poset_pushout(cylinder_end(p, cyl, 0), phi)
    m = nerve(v.poset)
    mids = {lab: cid for cid, lab in chain_labels(m).items()}
    asg = {}
    for cid in pr.space.cells:
        row = tuple(v.leg_ambient(pe) for pe in prism_row(pr, cid))
        collapsed, degen = run_collapse(row)
        asg[cid] = Simplex(mids[collapsed], degen)
    prism_to_m = SimplicialMap(pr.space, m, asg)
    reduced_front = nerve_map(v.leg_other, nr, m)
    bundle = CylinderBundle(
        phi=phi,
        space=po.space,
        reduced=m,
        reduction=mediator(po, prism_to_m, reduced_front),
        front=po.right,
        back=compose_maps(_end_inclusion(pr, 1), po.left),
        prism=po.left,
        reduced_front=reduced_front,
        reduced_back=nerve_map(
            compose_monotone(cylinder_end(p, cyl, 1), v.leg_ambient), np_, m
        ),
        poset=v,
    )
    _check_bundle(bundle)
    return bundle, pr, po


def fresh_representing_sharp(space: SimplicialSet, s: Simplex) -> MonotoneMap:
    """The sharp of the corestricted representing map of s, out of a
    Delta[q]# built for this call."""
    sub, inc = generate(space, [s.cell])
    back = {t.cell: c for c, t in inc.assignment.items()}
    return sharp_map(simplex_map(sub, Simplex(back[s.cell], s.degen)))


def fresh_cylinder_reduction(phi: MonotoneMap) -> CylinderBundle:
    """The cylinder bundle with its whole source side built for this call:
    NP, P x [1], its nerve, both ends and their nerve maps."""
    p = phi.source
    np_ = nerve(p)
    cyl = product_poset(p, chain_poset(1))
    k, back_end = cylinder_end(p, cyl, 0), cylinder_end(p, cyl, 1)
    nq, nr = nerve(cyl), nerve(phi.target)
    po = pushout(nerve_map(k, np_, nq), nerve_map(phi, np_, nr))
    v = poset_pushout(k, phi)
    m = nerve(v.poset)
    reduced_front = nerve_map(v.leg_other, nr, m)
    bundle = CylinderBundle(
        phi=phi,
        space=po.space,
        reduced=m,
        reduction=mediator(po, nerve_map(v.leg_ambient, nq, m), reduced_front),
        front=po.right,
        back=compose_maps(nerve_map(back_end, np_, nq), po.left),
        prism=po.left,
        reduced_front=reduced_front,
        reduced_back=nerve_map(compose_monotone(back_end, v.leg_ambient), np_, m),
        poset=v,
    )
    _check_bundle(bundle)
    return bundle


def two_pass_run_collapse(seq) -> tuple[tuple, Operator]:
    """The runs of equal adjacent entries, one pass for the repeat positions
    and one for the runs, with the degeneracy collapsing the repeats."""
    reps = tuple(i for i in range(len(seq) - 1) if seq[i] == seq[i + 1])
    out = tuple(v for i, v in enumerate(seq) if i == 0 or seq[i - 1] != v)
    return out, degeneracy_from_repeats(reps, len(seq) - 1)


def pair_scan_closure(elements, relations) -> frozenset | str:
    """The strict pairs of ``FinPoset(elements, relations)``, or the message
    it raises: the pairs composed two at a time until nothing is added,
    then the first pair related both ways, in element order."""
    elements = tuple(dict.fromkeys(elements))
    index = {e: i for i, e in enumerate(elements)}
    pairs = set()
    for a, b in relations:
        if a not in index or b not in index:
            return f"relation {(a, b)} mentions unknown elements"
        if a != b:
            pairs.add((a, b))
    while True:
        composed = {(a, d) for a, b in pairs for c, d in pairs if b == c and a != d}
        if composed <= pairs:
            break
        pairs |= composed
    both = [p for p in pairs if p[::-1] in pairs]
    if both:
        a, b = min(both, key=lambda p: (index[p[0]], index[p[1]]))
        return f"not antisymmetric: {a!r} and {b!r} are equivalent"
    return frozenset(pairs)


def leq(p: FinPoset, a, b) -> bool:
    """a <= b in p, read off its strict pairs."""
    return a == b or (a, b) in p.strict_pairs()


def label_chains(p: FinPoset) -> list[tuple]:
    """The nonempty strict chains of p, shortest first, lexicographic in
    element order within a length, each extended along the strict order."""
    out: list[tuple] = []
    level = [(e,) for e in p.elements]
    while level:
        out.extend(level)
        level = [c + (e,) for c in level for e in p.elements if c[-1] != e and leq(p, c[-1], e)]
    return out


# a nerve built on chains of elements, with each cell's chain
LabelNerve = tuple[SimplicialSet, dict[int, tuple]]


def label_nerve(p: FinPoset) -> LabelNerve:
    """One cell per chain of elements, in ``label_chains`` order; a face
    drops an entry and is found by its chain.  Beside it, each cell's
    chain."""
    ids = {c: i for i, c in enumerate(label_chains(p))}
    cells: dict[int, Cell] = {}
    for c, cid in ids.items():
        d = len(c) - 1
        faces = tuple(
            (ids[c[:i] + c[i + 1 :]], identity(d - 1)) for i in range(d + 1)
        ) if d else ()
        cells[cid] = Cell(d, faces)
    return SimplicialSet(cells), {cid: c for c, cid in ids.items()}


def slicing_nerve(p: FinPoset) -> Nerve:
    """One cell per index chain, in ``index_chains()`` order; each face
    drops an entry by slicing and is looked up by its chain."""
    ids: dict[tuple[int, ...], int] = {}
    cells: dict[int, Cell] = {}
    for c in p.index_chains():
        cid = ids[c] = len(ids)
        d = len(c) - 1
        faces = tuple(
            (ids[c[:i] + c[i + 1 :]], identity(d - 1)) for i in range(d + 1)
        ) if d else ()
        cells[cid] = Cell(d, faces)
    return Nerve(p, {cid: c for c, cid in ids.items()}, cells)


def recursive_vertex_rows(space: SimplicialSet) -> dict[int, tuple[int, ...]]:
    """The vertex row of every cell, in ``cells`` order, each found by
    recursion on its last and first stored faces with a memo: vertices
    0..d-1 are those of the last face, read through its degeneracy, and
    vertex d is the last vertex of face 0."""
    memo: dict[int, tuple[int, ...]] = {}

    def row(cid: int) -> tuple[int, ...]:
        got = memo.get(cid)
        if got is None:
            faces = space.cells[cid].faces
            if not faces:
                got = (cid,)
            else:
                (t, sigma), (t0, sigma0) = faces[-1], faces[0]
                below = row(t)
                got = (*(below[v] for v in sigma.values), row(t0)[sigma0.values[-1]])
            memo[cid] = got
        return got

    return {cid: row(cid) for cid in space.cells}


def snapshot_row(space: SimplicialSet, snap: dict[int, Simplex], cid: int) -> tuple[int, ...]:
    """A cell's vertex row in the snapshot: the first cells of its vertices' classes."""
    return tuple(snap[v].cell if v in snap else v for v in recursive_vertex_rows(space)[cid])


def label_nerve_map(phi: MonotoneMap, source: LabelNerve, target: LabelNerve) -> SimplicialMap:
    """Each chain of the source nerve sent through phi, collapsed, and
    looked up among the target nerve's chains; each nerve comes with its
    chains, as ``label_nerve`` returns it."""
    (source_nerve, source_chains), (target_nerve, target_chains) = source, target
    target_ids = {chain: cid for cid, chain in target_chains.items()}
    asg: dict[int, Simplex] = {}
    for cid, chain in source_chains.items():
        collapsed, degen = two_pass_run_collapse(tuple(phi(x) for x in chain))
        asg[cid] = Simplex(target_ids[collapsed], degen)
    return SimplicialMap(source_nerve, target_nerve, asg)


def sd_pairs(space: SimplicialSet) -> list[tuple[int, tuple[Operator, ...]]]:
    """The (carrier cell, strict chain) pairs of the subdivision, by chain
    length, then carrier, then chain in ``chains_to_top`` order: the pair
    at position cid is that cell's."""
    pairs: list[tuple[int, tuple[Operator, ...]]] = []
    for q in range(space.dim + 1):
        for x in sorted(space.cells):
            n = space.cells[x].dim
            pairs.extend((x, c) for c in chains_to_top(n) if len(c) == q + 1)
    return pairs


def reference_sd(
    space: SimplicialSet,
) -> tuple[SimplicialSet, list[tuple[int, tuple[Operator, ...]]]]:
    """Subdivision with cells keyed by (carrier cell, strict chain), beside
    its ``sd_pairs``."""
    pairs = sd_pairs(space)
    ids = {pair: i for i, pair in enumerate(pairs)}
    cells: dict[int, Cell] = {}
    for (x, c), cid in ids.items():
        q = len(c) - 1
        faces = []
        if q:
            for i in range(q):
                faces.append((ids[(x, c[:i] + c[i + 1 :])], identity(q - 1)))
            nu = c[-2]
            zs = space.eval(space.simplex(x), nu)
            pushed = tuple(
                ez_factor(compose(face_restriction(nu, mu), zs.degen))[0] for mu in c[:-1]
            )
            strict, degen = run_collapse(pushed)
            faces.append((ids[(zs.cell, strict)], degen))
        cells[cid] = Cell(q, tuple(faces))
    return SimplicialSet(cells), pairs


def reference_sd_map(f: SimplicialMap, sds: SimplicialSet, sdt: SimplicialSet) -> SimplicialMap:
    """Sd f, from sd of f's source to sd of its target: each entry of a
    cell's chain composed with the degeneracy of its carrier's image and
    EZ-reduced, runs collapsed, and the pair on the image's cell looked up
    by (carrier cell, strict chain)."""
    target_ids = {pair: cid for cid, pair in enumerate(sd_pairs(f.target))}
    asg: dict[int, Simplex] = {}
    for cid, (x, c) in enumerate(sd_pairs(f.source)):
        fx = f.assignment[x]
        pushed = tuple(ez_factor(compose(mu, fx.degen))[0] for mu in c)
        strict, degen = run_collapse(pushed)
        asg[cid] = Simplex(target_ids[(fx.cell, strict)], degen)
    return SimplicialMap(sds, sdt, asg)


def carrier_b_nat(space: SimplicialSet, sd_space: SimplicialSet | None = None) -> SimplicialMap:
    """b with each chain entry evaluated on the carrier cell for its carrier,
    the cells of sd_space taken as ``sd_pairs`` numbers them."""
    sds = reference_sd(space)[0] if sd_space is None else sd_space
    bx = barratt(space)
    target_ids = {label: cid for cid, label in chain_labels(bx).items()}
    asg: dict[int, Simplex] = {}
    for cid, (x, c) in enumerate(sd_pairs(space)):
        gen = space.simplex(x)
        carriers = tuple(space.eval(gen, mu).cell for mu in c)
        strict, degen = run_collapse(carriers)
        asg[cid] = Simplex(target_ids[strict], degen)
    return SimplicialMap(sds, bx, asg)


def reference_regularity_witness(space: SimplicialSet) -> int | None:
    """The first cell, in id order, whose last-face attachment is not
    injective: for each cell y of dimension d, every y.mu with mu a face
    of [d] containing d is evaluated and checked to be non-degenerate,
    outside the closure of the last face, and new."""
    through_last: dict[int, list[Operator]] = {}
    for cid in sorted(space.cells):
        d = space.cells[cid].dim
        if d == 0:
            continue
        top = space.simplex(cid)
        # the cells of Z, then each y.mu found so far
        hit = generated_cells(space, [space.eval(top, make_face(d, d)).cell])
        if d not in through_last:
            through_last[d] = [mu for mu in all_faces(d) if mu.values[-1] == d]
        for mu in through_last[d]:
            s = space.eval(top, mu)
            if s.is_degenerate or s.cell in hit:
                return cid
            hit.add(s.cell)
    return None


def pairwise_monotone_error(source: FinPoset, target: FinPoset, mapping: dict) -> str | None:
    """The message of the ValueError ``MonotoneMap(source, target, mapping)``
    raises, or None, by the pairwise definition on the posets' strict
    pairs: every element has a value in the target, and for the first
    pair a < b, in element order, with f(a) != f(b), (f(a), f(b)) is a
    strict pair of the target."""
    for e in source.elements:
        if e not in mapping:
            return f"no value for {e!r}"
        if mapping[e] not in target:
            return f"{e!r} sent outside the target poset"
    below, above = source.strict_pairs(), target.strict_pairs()
    for a in source.elements:
        for b in source.elements:
            x, y = mapping[a], mapping[b]
            if (a, b) in below and x != y and (x, y) not in above:
                return f"not monotone on {a!r} < {b!r}"
    return None

def reference_is_dwyer(k: MonotoneMap) -> MonotoneMap | None:
    """The retraction r : W -> P witnessing that k is an injective sieve
    embedding admitting a cosieve W containing the image on which the
    image is a reflective sieve: each w in W has a maximum element of
    {p : k(p) <= w}.  Order is read off the posets' strict pairs."""
    p, q = k.source, k.target
    image = [k(e) for e in p.elements]
    down = {e: {a for a in q.elements if leq(q, a, e)} for e in q.elements}
    if len(set(image)) != len(image) or not all(down[e] <= set(image) for e in image):
        return None
    if not all(leq(p, a, b) == leq(q, k(a), k(b)) for a in p.elements for b in p.elements):
        return None
    base = {e for e in q.elements if any(leq(q, x, e) for x in image)}
    rest = [e for e in q.elements if e not in base]
    candidates = []
    for bits in range(2 ** len(rest)):
        s = {rest[i] for i in range(len(rest)) if bits >> i & 1}
        if all(down[e] <= s for e in s):
            candidates.append(s)
    candidates.sort(key=len, reverse=True)
    for s in candidates:
        w_elems = [e for e in q.elements if e not in s]
        mapping = {}
        ok = True
        for w in w_elems:
            below = [e for e in p.elements if leq(q, k(e), w)]
            tops = [m for m in below if all(leq(p, b, m) for b in below)]
            if not tops:
                ok = False
                break
            mapping[w] = tops[0]
        if not ok:
            continue
        inside = set(w_elems)
        w_poset = FinPoset(w_elems, [(a, b) for a, b in q.strict_pairs() if {a, b} <= inside])
        try:
            retraction = MonotoneMap(w_poset, p, mapping)
        except ValueError:
            continue
        if all(
            leq(q, k(e), w) == leq(p, e, retraction(w))
            for e in p.elements
            for w in w_elems
        ):
            return retraction
    return None


def _merge_interval(cong: Congruence, vs: tuple[int, ...], i: int, j: int) -> None:
    """Merge the vertices strictly between positions i and j onto vertex i."""
    simplex = cong.space.simplex
    for k in range(i + 1, j):
        cong.merge(simplex(vs[k]), simplex(vs[i]))


def _first_preimages(eta: SimplicialMap) -> dict[int, int]:
    """The first source cell, in id order, that eta sends onto each cell it hits."""
    reps: dict[int, int] = {}
    for x in sorted(eta.source.cells):
        s = eta.assignment[x]
        if s.degen.is_identity and s.cell not in reps:
            reps[s.cell] = x
    return reps


def reference_zipper(space: SimplicialSet) -> DesingResult:
    """Zipper rounds until no cell has equal adjacent vertices.

    One scan of the vertex rows per round, found by recursion, finds the
    round's moves and the singular cells; the last scan, which finds no
    move, decides the certificate, and its first singular cell, named by
    its first preimage in the input, is the witness.  eta starts as the
    first round's projection."""
    cur = space
    eta: SimplicialMap | None = None
    rounds: list[list[MoveRecord]] = []
    while True:
        moves = []
        singular = []
        rows, simplex = recursive_vertex_rows(cur), cur.simplex
        for cid in cur.cell_order():
            vs = rows[cid]
            if len(set(vs)) < len(vs):
                singular.append(cid)
                moves.extend((cid, p) for p in range(len(vs) - 1) if vs[p] == vs[p + 1])
        if not moves:
            break
        reps = _first_preimages(eta) if eta is not None else None
        cong = Congruence(cur)
        batch = []
        for cid, p in moves:
            u = simplex(cid)
            cong.merge(u, cur.eval(u, _dup_operator(u.degree, p)))
            batch.append(MoveRecord(cid if reps is None else reps[cid], u.degree, p))
        res = quotient(cur, cong)
        rounds.append(batch)
        eta = res.projection if eta is None else compose_maps(eta, res.projection)
        cur = res.space
    cert = Certificate.UNCERTIFIED if singular else Certificate.ZIPPER
    eta = identity_map(space) if eta is None else eta
    witness = _first_preimages(eta)[singular[0]] if singular else None
    return DesingResult(cur, eta, cert, witness, rounds)


def reference_replay(
    space: SimplicialSet, rounds: list[list[MoveRecord | IntervalMove]]
) -> DesingResult:
    """Re-run a recorded move list, re-checking every premise at its
    merge time.  Raises if any recorded merge was not forced, or names no
    cell of ``space``."""
    cur = space
    eta = identity_map(space)
    for batch in rounds:
        cong, rows = Congruence(cur), recursive_vertex_rows(cur)
        for mv in batch:
            if mv.cell not in space.cells:
                raise ValueError(f"{mv} names no cell of the input")
            u = eta.apply(space.simplex(mv.cell))
            if not u.degen.is_identity:
                raise ValueError(f"recorded cell {mv.cell} no longer maps onto a cell")
            vs = rows[u.cell]
            if isinstance(mv, IntervalMove):
                if not (0 <= mv.i < mv.j < len(vs) and vs[mv.i] == vs[mv.j]):
                    raise ValueError(f"premise fails for {mv}")
                _merge_interval(cong, vs, mv.i, mv.j)
                continue
            p = mv.position
            if mv.degree != u.degree or not 0 <= p < u.degree or vs[p] != vs[p + 1]:
                raise ValueError(f"premise fails for {mv}")
            cong.merge(u, cur.eval(u, _dup_operator(u.degree, mv.position)))
        res = quotient(cur, cong)
        eta = compose_maps(eta, res.projection)
        cur = res.space
    rows = recursive_vertex_rows(cur)
    singular = [cid for cid in cur.cell_order() if len(set(rows[cid])) < len(rows[cid])]
    cert = Certificate.UNCERTIFIED if singular else Certificate.ZIPPER
    witness = _first_preimages(eta)[singular[0]] if singular else None
    return DesingResult(cur, eta, cert, witness, list(rounds))


def reference_desingularize(space: SimplicialSet) -> DesingResult:
    """Zipper fixpoints and interval rounds until certified; moves name cells of ``space``."""
    res = reference_zipper(space)
    eta, rounds = res.eta, list(res.moves)
    while res.certificate is not Certificate.ZIPPER:
        cur, reps = res.quotient, _first_preimages(eta)
        cong, batch = Congruence(cur), []
        rows = recursive_vertex_rows(cur)
        for cid in cur.cell_order():
            vs = rows[cid]
            for i, j in _intervals(vs):
                _merge_interval(cong, vs, i, j)
                batch.append(IntervalMove(reps[cid], i, j))
        if not batch:
            raise RuntimeError("a singular zipper fixpoint repeats no vertex")
        eta = compose_maps(eta, quotient(cur, cong).projection)
        res = reference_zipper(eta.target)
        reps = _first_preimages(eta)
        rounds.append(batch)
        rounds += ([MoveRecord(reps[m.cell], m.degree, m.position) for m in b] for b in res.moves)
        eta = compose_maps(eta, res.eta)
    # the loop ends certified, so no cell is left to name
    return DesingResult(res.quotient, eta, res.certificate, None, rounds)



def _quotient_step(space: SimplicialSet, cong: Congruence) -> Simplex | None:
    """The oracle's search step by its definition: quotient by cong (the
    classes walk), take the first non-embedded cell in (dimension, id)
    order, and return its first member as a simplex of space."""
    res, classes = quotient_by_classes(space, cong)
    z = res.space
    order = sorted(z.cells, key=lambda c: (z.cells[c].dim, c))
    rows = recursive_vertex_rows(z)
    bad = next((c for c in order if len(set(rows[c])) != len(rows[c])), None)
    if bad is None:
        return None
    return Simplex(classes[bad][0], identity(z.cells[bad].dim))


def contains_classes(cong: Congruence, canon: frozenset[frozenset[Simplex]]) -> bool:
    """Does cong relate the members of each class of another congruence's
    ``canonical()`` partition?"""
    find = cong.find
    return all(len({find(s) for s in cls}) == 1 for cls in canon)


def reference_minimal_congruence(space: SimplicialSet) -> Congruence:
    """The minimal congruence whose quotient is non-singular, by
    breadth-first search.  A singular quotient branches once per class of
    degenerate simplices, merging its first singular cell, found by
    ``_quotient_step``, with the first member of each.  Each queued
    congruence is keyed by its full partition, ``canonical()``, and
    containment is decided on classes.  The search records every solution
    that contains no earlier one, and the filter keeps those that contain
    no other; the family is closed under meets, so one must be left.  The
    degenerate simplices of each degree are listed once per search."""
    start = Congruence(space)
    seen = {start.canonical()}
    queue = deque([start])
    solutions: list[tuple[frozenset, Congruence]] = []
    degenerate: dict[int, list[Simplex]] = {}
    while queue:
        cong = queue.popleft()
        if any(contains_classes(cong, canon) for canon, _ in solutions):
            continue
        rep = _quotient_step(space, cong)
        if rep is None:
            solutions.append((cong.canonical(), cong))
            continue
        q = rep.degree
        if q not in degenerate:
            degenerate[q] = [s for s in space.simplices(q) if s.is_degenerate]
        tried = set()
        for d in degenerate[q]:
            cls = cong.find(d)
            if cls in tried:
                continue
            tried.add(cls)
            child = cong.copy()
            child.merge(rep, d)
            key = child.canonical()
            if key not in seen:
                seen.add(key)
                queue.append(child)
    minimal = [
        c for canon, c in solutions
        if not any(other != canon and contains_classes(c, other) for other, _ in solutions)
    ]
    if len(minimal) != 1:
        raise RuntimeError(
            f"search left {len(minimal)} minimal non-singular congruences, not one"
        )
    return minimal[0]

# -- skeletal subdivision --------------------------------------------------


def _copies(base: SimplicialSet, count: int) -> SimplicialSet:
    off = len(base.cells)
    cells: dict[int, Cell] = {}
    for j in range(count):
        for cid, c in base.cells.items():
            cells[j * off + cid] = Cell(
                c.dim, tuple((j * off + t, op) for t, op in c.faces)
            )
    return SimplicialSet(cells)


def sd_skeletal(space: SimplicialSet) -> SimplicialSet:
    """Independent construction of the subdivision along the skeleton
    filtration: pushout of the subdivided standard simplex against the
    subdivided boundary, one attachment per cell.  Standard simplices
    and their boundaries are subdivided as nerves of their cell posets."""
    verts = sorted(space.cell_ids(0))
    cur = SimplicialSet({i: Cell(0, ()) for i in range(len(verts))})
    phi: dict[tuple[int, tuple[Operator, ...]], Simplex] = {
        (v, (identity(0),)): Simplex(i, identity(0)) for i, v in enumerate(verts)
    }
    for n in range(1, space.dim + 1):
        ncells = sorted(space.cell_ids(n))
        if not ncells:
            continue
        delta = standard_simplex(n)
        top, faces_n = max(delta.cells), all_faces(n)
        bnd, incl = generate(delta, [c for c in delta.cells if c != top])
        bdelta = barratt(delta)
        bbnd = barratt(bnd)
        bincl = barratt_map(incl, bbnd, bdelta)
        bnd_chains, delta_chains = chain_labels(bbnd), chain_labels(bdelta)

        amalgam = _copies(bbnd, len(ncells))
        offb, offd = len(bbnd.cells), len(bdelta.cells)
        attach_asg: dict[int, Simplex] = {}
        incl_asg: dict[int, Simplex] = {}
        for j, x in enumerate(ncells):
            gen = space.simplex(x)
            for cid, chain in bnd_chains.items():
                mus = [faces_n[c] for c in chain]
                nu = mus[-1]
                zs = space.eval(gen, nu)
                pushed = tuple(
                    ez_factor(compose(face_restriction(nu, mu), zs.degen))[0]
                    for mu in mus
                )
                strict, s = run_collapse(pushed)
                base = phi[(zs.cell, strict)]
                attach_asg[j * offb + cid] = Simplex(base.cell, compose(s, base.degen))
                img = bincl.assignment[cid]
                incl_asg[j * offb + cid] = Simplex(j * offd + img.cell, img.degen)
        flat = _copies(bdelta, len(ncells))
        po = pushout(
            SimplicialMap(amalgam, flat, incl_asg),
            SimplicialMap(amalgam, cur, attach_asg),
        )
        phi = {key: po.right.apply(s) for key, s in phi.items()}
        for j, x in enumerate(ncells):
            for cid, chain in delta_chains.items():
                key = (x, tuple(faces_n[c] for c in chain))
                phi[key] = po.left.apply(flat.simplex(j * offd + cid))
        cur = po.space
    return cur


# -- structural isomorphism ------------------------------------------------


def _refine_signatures(space: SimplicialSet) -> dict[int, int]:
    """Cell signatures, refined until the partition they induce is stable.

    Each round hashes a cell's signature with its faces' signatures and
    operators, and with the sorted (signature, face index, operator)
    triples of its cofaces.  Without the cofaces all vertices would keep
    one signature, and the search would branch over every assignment of
    them.
    """
    cofaces: dict[int, list[tuple[int, int, Operator]]] = {cid: [] for cid in space.cells}
    for cid, c in space.cells.items():
        for i, (t, op) in enumerate(c.faces):
            cofaces[t].append((cid, i, op))
    sig = {cid: hash((c.dim,)) for cid, c in space.cells.items()}
    while True:
        nxt = {
            cid: hash((
                sig[cid],
                tuple((sig[t], op) for t, op in c.faces),
                tuple(sorted((sig[u], i, op) for u, i, op in cofaces[cid])),
            ))
            for cid, c in space.cells.items()
        }
        if len(set(nxt.values())) == len(set(sig.values())):
            return nxt
        sig = nxt


def find_isomorphism(x: SimplicialSet, y: SimplicialSet) -> dict[int, int] | None:
    """A dimension- and face-table-preserving cell bijection, if one exists."""
    if len(x.cells) != len(y.cells):
        return None
    sx, sy = _refine_signatures(x), _refine_signatures(y)
    if Counter(sx.values()) != Counter(sy.values()):
        return None
    by_sig: dict[int, list[int]] = {}
    for cid, s in sy.items():
        by_sig.setdefault(s, []).append(cid)
    order = sorted(x.cells, key=lambda c: (x.cells[c].dim, len(by_sig[sx[c]]), c))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def fits(cid: int, tid: int) -> bool:
        if x.cells[cid].dim != y.cells[tid].dim:
            return False
        xf, yf = x.cells[cid].faces, y.cells[tid].faces
        for (xt, xop), (yt, yop) in zip(xf, yf):
            if xop != yop:
                return False
            if xt in mapping and mapping[xt] != yt:
                return False
        return True

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        cid = order[k]
        for tid in by_sig[sx[cid]]:
            if tid in used or not fits(cid, tid):
                continue
            mapping[cid] = tid
            used.add(tid)
            if extend(k + 1):
                return True
            del mapping[cid]
            used.discard(tid)
        return False

    return mapping if extend(0) else None


def is_isomorphic(x: SimplicialSet, y: SimplicialSet) -> bool:
    return find_isomorphism(x, y) is not None


# -- poset enumeration ------------------------------------------------------


def all_posets_by_relabelling(max_size: int) -> list[FinPoset]:
    """All posets with at most max_size elements, one per isomorphism class,
    generated as ``all_posets`` generates them, each candidate keyed by the
    least sorted relation over all n! relabellings."""

    def canonical(n, rel):
        return min(
            tuple(sorted((perm[a], perm[b]) for a, b in rel)) for perm in permutations(range(n))
        )

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
                new = rel | {(i, n - 1) for i in s}
                canon = canonical(n, new)
                if canon in seen:
                    continue
                seen.add(canon)
                nxt.append(frozenset(new))
        layer = nxt
        out.extend(FinPoset(range(n), rel) for rel in layer)
    return out


# -- simplex tokens -----------------------------------------------------------

_FACE_TOKEN = re.compile(r"(\d+)\{((?:\d+(?:,\d+)*)?)\}$", re.ASCII)


def fstring_simplex_token(cell: int, degen: Operator) -> str:
    return f"{cell}{{{','.join(str(j) for j in degen.repeats())}}}"


def regex_parse_simplex(tok: str, degree: int, line: int) -> tuple[int, Operator]:
    """The (cell, degeneracy) pair a `<cell>{repeats}` token names, given its
    degree; the repeat positions must be listed in ascending order."""
    m = _FACE_TOKEN.match(tok)
    if not m:
        raise ParseError(f"bad simplex token {tok!r}", line)
    reps = tuple(int(x) for x in m.group(2).split(",")) if m.group(2) else ()
    if len(set(reps)) != len(reps):
        raise ParseError(f"simplex token {tok!r} lists a repeat position twice", line)
    if list(reps) != sorted(reps):
        raise ParseError(f"simplex token {tok!r} lists its repeat positions out of order", line)
    try:
        return int(m.group(1)), degeneracy_from_repeats(reps, degree)
    except ValueError as err:
        raise ParseError(str(err), line) from None

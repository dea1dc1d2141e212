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
``quotient_by_classes`` is the quotient read off ``Congruence.classes()``,
the walk over every simplex of degree up to the bound.
``UnionPushout`` is the pushout as the quotient of the disjoint union by
the congruence its span generates, defined for any span; ``pushout``
attaches along an injective leg instead.
``product_cylinder_reduction`` builds the topological cylinder from the
generic simplicial product NP x Delta[1] instead of the nerve of P x [1].
``fresh_representing_sharp`` and ``fresh_cylinder_reduction`` build a
new Delta[q]#, its nerve, P x [1], the prism nerve and both ends with
their nerve maps on every call; ``representing_sharp`` and
``cylinder_reduction`` share one source side per simplex dimension.
``label_nerve`` and ``label_nerve_map`` build nerves and nerve maps on
chains of elements, found by walking the strict pairs; ``nerve`` and
``nerve_map`` work on chains of element indices.  ``two_pass_run_collapse``
is ``run_collapse`` by its definition, and ``pair_scan_error`` is the
error ``FinPoset(close=False)`` raises, found by scanning every two pairs.
``reference_sd`` numbers the subdivided cells through a dict keyed by
(carrier cell, chain of operators) and rebases every last face afresh;
``sd`` works on chain indices and offsets.  ``carrier_b_nat`` finds the
carriers of a subdivided cell by evaluating each chain entry on the
carrier cell; ``b_nat`` reads them off the cell's vertex row.
``reference_regularity_witness`` decides each cell's attachment by
walking the closure of its last face and evaluating it on every face of
[d] containing the vertex d; ``regularity_witness`` keeps bitmasks of
closures and of those faces' cells in one pass over the cell table.
``reference_is_dwyer`` searches every cosieve containing the image,
largest first, for one carrying a retraction; ``is_dwyer`` builds the
only one that can pass.
"""

from __future__ import annotations

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
from ssetforge.operators import (
    Operator,
    all_faces,
    compose,
    degeneracy_from_repeats,
    ez_factor,
    face_restriction,
    identity,
    make_degen,
    make_face,
    make_vertex,
    run_collapse,
)
from ssetforge.posets import (
    DwyerWitness,
    FinPoset,
    MonotoneMap,
    barratt,
    chain_poset,
    compose_monotone,
    cylinder_end,
    full_subposet,
    is_sieve,
    nerve,
    nerve_map,
    poset_pushout,
    product_poset,
    sharp_map,
    up_closure,
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
    simplex_map,
    standard_simplex,
)
from ssetforge.subdivision import chains_to_top


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


def quotient_by_classes(space: SimplicialSet, cong: Congruence) -> QuotientResult:
    """The quotient by its definition: the classes with no degenerate member
    are the cells, in ``classes()`` order, and every other class is the
    degeneration of a lower class through its least degenerate member."""
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
    labels: dict[int, object] = {}
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
        labels[new_id[root]] = tuple(m.cell for m in members)
    qspace = SimplicialSet(cells, labels)
    projection = SimplicialMap(
        space,
        qspace,
        {cid: normal_form(cong.find(space.simplex(cid))) for cid in space.cells},
    )
    return QuotientResult(qspace, projection, dict(labels))


class UnionPushout(PushoutResult):
    """The pushout by its definition, for any span: the quotient of the
    disjoint union X u Y by the congruence generated by f(a) ~ g(a) over
    the cells a of A, with the legs through the projection."""

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
        self.cell_members = q.cell_members
        self.left = compose_maps(inl, q.projection)
        self.right = compose_maps(inr, q.projection)


def _end_inclusion(pr: ProductResult, level: int) -> SimplicialMap:
    base, interval = pr.first.target, pr.second.target
    vcell = next(c for c, lab in interval.labels.items() if lab == make_vertex(level, 1))
    asg = {}
    for cid, cell in base.cells.items():
        constant = Operator(0, (0,) * (cell.dim + 1))
        a, b, rho = _strip_common(identity(cell.dim), constant)
        asg[cid] = Simplex(pr.index[(Simplex(cid, a), Simplex(vcell, b))], rho)
    return SimplicialMap(base, pr.space, asg)


def prism_row(pr: ProductResult, cid: int) -> tuple:
    """Vertex row of a prism cell, as (base element, interval level) pairs."""
    base, interval = pr.first.target, pr.second.target
    row = []
    for v in pr.space.vertices(pr.space.simplex(cid)):
        sx, sy = pr.space.labels[v]
        row.append((base.labels[sx.cell][0], interval.labels[sy.cell].values[0]))
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
    mids = {lab: cid for cid, lab in m.labels.items()}
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
        reduction=po.mediator(prism_to_m, reduced_front),
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
        reduction=po.mediator(nerve_map(v.leg_ambient, nq, m), reduced_front),
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


def pair_scan_error(elements, relations) -> str | None:
    """The message ``FinPoset(elements, relations, close=False)`` raises, or
    None: the first gap (a, b, d), a < b < d without a < d, in element
    order over every two related pairs, then the first pair related both
    ways."""
    elements = tuple(dict.fromkeys(elements))
    index = {e: i for i, e in enumerate(elements)}
    pairs = set()
    for a, b in relations:
        if a not in index or b not in index:
            return f"relation {(a, b)} mentions unknown elements"
        if a != b:
            pairs.add((a, b))
    gaps = [
        (a, b, d)
        for a, b in pairs
        for c, d in pairs
        if b == c and (a, d) not in pairs and a != d
    ]
    if gaps:
        gap = min(gaps, key=lambda t: tuple(index[e] for e in t))
        return f"relation not transitive at {gap}"
    both = [p for p in pairs if p[::-1] in pairs]
    if both:
        a, b = min(both, key=lambda p: (index[p[0]], index[p[1]]))
        return f"not antisymmetric: {a!r} and {b!r} are equivalent"
    return None


def label_chains(p: FinPoset) -> list[tuple]:
    """The nonempty strict chains of p, shortest first, lexicographic in
    element order within a length, each extended along ``lt``."""
    out: list[tuple] = []
    level = [(e,) for e in p.elements]
    while level:
        out.extend(level)
        level = [c + (e,) for c in level for e in p.elements if p.lt(c[-1], e)]
    return out


def label_nerve(p: FinPoset) -> SimplicialSet:
    """One cell per chain of elements, in ``label_chains`` order; a face
    drops an entry and is found by its chain."""
    ids = {c: i for i, c in enumerate(label_chains(p))}
    cells: dict[int, Cell] = {}
    labels: dict[int, object] = {}
    for c, cid in ids.items():
        d = len(c) - 1
        faces = tuple(
            (ids[c[:i] + c[i + 1 :]], identity(d - 1)) for i in range(d + 1)
        ) if d else ()
        cells[cid] = Cell(d, faces)
        labels[cid] = c
    return SimplicialSet(cells, labels)


def label_nerve_map(
    phi: MonotoneMap, source_nerve: SimplicialSet, target_nerve: SimplicialSet
) -> SimplicialMap:
    """Each chain label of the source nerve sent through phi, collapsed,
    and looked up among the target nerve's labels."""
    target_ids = {label: cid for cid, label in target_nerve.labels.items()}
    asg: dict[int, Simplex] = {}
    for cid, chain in source_nerve.labels.items():
        collapsed, degen = two_pass_run_collapse(tuple(phi(x) for x in chain))
        asg[cid] = Simplex(target_ids[collapsed], degen)
    return SimplicialMap(source_nerve, target_nerve, asg)


def reference_sd(space: SimplicialSet) -> SimplicialSet:
    """Subdivision with cells keyed by (carrier cell, strict chain)."""
    pairs: list[tuple[int, tuple[Operator, ...]]] = []
    for q in range(space.dim + 1):
        for x in sorted(space.cells):
            n = space.cells[x].dim
            pairs.extend((x, c) for c in chains_to_top(n) if len(c) == q + 1)
    ids = {pair: i for i, pair in enumerate(pairs)}
    cells: dict[int, Cell] = {}
    labels: dict[int, object] = {}
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
        labels[cid] = (x, c)
    return SimplicialSet(cells, labels)


def carrier_b_nat(
    space: SimplicialSet,
    barratt_space: SimplicialSet | None = None,
    sd_space: SimplicialSet | None = None,
) -> SimplicialMap:
    """b with each chain entry evaluated on the carrier cell for its carrier."""
    sds = reference_sd(space) if sd_space is None else sd_space
    bx = barratt(space) if barratt_space is None else barratt_space
    target_ids = {label: cid for cid, label in bx.labels.items()}
    asg: dict[int, Simplex] = {}
    for cid, (x, c) in sds.labels.items():
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
        hit = generated_cells(space, [space.face(top, d).cell])
        if d not in through_last:
            through_last[d] = [mu for mu in all_faces(d) if mu.values[-1] == d]
        for mu in through_last[d]:
            s = space.eval(top, mu)
            if s.is_degenerate or s.cell in hit:
                return cid
            hit.add(s.cell)
    return None


def reference_is_dwyer(k: MonotoneMap) -> DwyerWitness | None:
    """A witness that k is an injective sieve embedding admitting a
    cosieve W containing the image on which the image is a reflective
    sieve: each w in W has a maximum element of {p : k(p) <= w}."""
    p, q = k.source, k.target
    image = [k(e) for e in p.elements]
    if len(set(image)) != len(image) or not is_sieve(q, image):
        return None
    if not all(p.leq(a, b) == q.leq(k(a), k(b)) for a in p.elements for b in p.elements):
        return None
    base = up_closure(q, image)
    rest = [e for e in q.elements if e not in base]
    candidates = []
    for bits in range(2 ** len(rest)):
        s = {rest[i] for i in range(len(rest)) if bits >> i & 1}
        if all(set(q.down(e)) <= s for e in s):
            candidates.append(s)
    candidates.sort(key=len, reverse=True)
    for s in candidates:
        w_elems = [e for e in q.elements if e not in s]
        mapping = {}
        ok = True
        for w in w_elems:
            below = [e for e in p.elements if q.leq(k(e), w)]
            tops = [m for m in below if all(p.leq(b, m) for b in below)]
            if not tops:
                ok = False
                break
            mapping[w] = tops[0]
        if not ok:
            continue
        w_poset = full_subposet(q, w_elems)
        try:
            retraction = MonotoneMap(w_poset, p, mapping)
        except ValueError:
            continue
        if all(
            q.leq(k(e), w) == p.leq(e, retraction(w))
            for e in p.elements
            for w in w_elems
        ):
            return DwyerWitness(tuple(w_elems), retraction)
    return None

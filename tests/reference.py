"""Reference constructions that the fast paths replaced, kept as their
definitions for differential tests.

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
from ssetforge.operators import Operator, compose, identity, make_face, make_vertex, run_collapse
from ssetforge.posets import (
    MonotoneMap,
    chain_poset,
    compose_monotone,
    cylinder_end,
    nerve,
    nerve_map,
    poset_pushout,
    product_poset,
)
from ssetforge.simplicial import (
    Cell,
    Simplex,
    SimplicialMap,
    SimplicialSet,
    compose_maps,
    standard_simplex,
)


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
        constant = Simplex(vcell, Operator(0, (0,) * (cell.dim + 1)))
        bx, by, rho = _strip_common(base, interval, base.simplex(cid), constant)
        asg[cid] = Simplex(pr.index[(bx, by)], rho)
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

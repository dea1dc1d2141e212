"""Backwards mapping cylinders of monotone maps, and their reduction.

The topological cylinder T glues the prism NP x Delta[1] onto NR along
the end at level 0; the reduced cylinder M is the nerve of the poset
pushout (P x [1]) u_P R.  A reduction map cr : T -> M compares the two,
and factoring cr through the desingularization of T gives the canonical
map dcr : DT -> M out of the universal non-singular quotient.
``cylinder_reduction`` builds T, M and cr together and checks them
against each other; it is the one route to either cylinder.

The nerve preserves products, N(P x [1]) = NP x N[1] = NP x Delta[1],
so the prism is built as the nerve of the product poset, and T is the
pushout of nerves NR <- NP -> N(P x [1]) along the level-0 end: the
case k : P -> P x [1] of ``pushout_comparison``, whose comparison map
onto M is cr.  The level-0 end is injective, so T is NR with the prism
attached along it: no quotient is taken.  The ends, the prism's map to
M and the reduced legs are all nerves of monotone maps.  The lemma
suite's ``prism-nerve/*`` cases check the isomorphism between the prism
as a nerve and as a product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .colimits import PushoutResult, pushout
from .desingularize import DesingResult, desingularized_comparison
from .operators import identity
from .posets import (
    FinPoset,
    MonotoneMap,
    PosetPushout,
    chain_poset,
    compose_monotone,
    cylinder_end,
    nerve,
    nerve_map,
    poset_pushout,
    product_poset,
    sharp_map,
    singleton_poset,
)
from .simplicial import (
    Simplex,
    SimplicialMap,
    SimplicialSet,
    compose_maps,
    generate,
    simplex_map,
)


# -- degreewise diagnostics ---------------------------------------------------


def injective_in_degree(f: SimplicialMap, q: int) -> bool:
    seen: set[Simplex] = set()
    for s in f.source.simplices(q):
        t = f.apply(s)
        if t in seen:
            return False
        seen.add(t)
    return True


def surjective_in_degree(f: SimplicialMap, q: int) -> bool:
    hit = {f.apply(s) for s in f.source.simplices(q)}
    return all(t in hit for t in f.target.simplices(q))


def embedded_sibling_pairs(space: SimplicialSet, q: int) -> list[tuple[int, int]]:
    """Pairs (a, b), a < b, of distinct embedded q-cells that share their
    whole vertex row, in sorted order."""
    by_row: dict[tuple[int, ...], list[int]] = {}
    for c in space.cell_ids(q):
        row = space.cell_vertices(c)
        if len(set(row)) == len(row):
            by_row.setdefault(row, []).append(c)
    return sorted(pair for cells in by_row.values() for pair in combinations(cells, 2))


def identifies_embedded_siblings(f: SimplicialMap, q: int) -> bool:
    return all(
        f.apply(f.source.simplex(a)) == f.apply(f.source.simplex(b))
        for a, b in embedded_sibling_pairs(f.source, q)
    )


# -- the two cylinders --------------------------------------------------------


@dataclass
class CylinderBundle:
    phi: MonotoneMap
    space: SimplicialSet  # T, the glued prism
    reduced: SimplicialSet  # M, a poset nerve
    reduction: SimplicialMap  # cr : T -> M
    front: SimplicialMap  # NR -> T, the glued-in target
    back: SimplicialMap  # NP -> T, the free end at level 1
    prism: SimplicialMap  # N(P x [1]) -> T, the prism glued in
    reduced_front: SimplicialMap
    reduced_back: SimplicialMap
    poset: PosetPushout


def cylinder_reduction(phi: MonotoneMap) -> CylinderBundle:
    p = phi.source
    np_ = nerve(p)
    cyl = product_poset(p, chain_poset(1))
    po, v, reduction, reduced_front = pushout_comparison(
        cylinder_end(p, cyl, 0), phi, source_nerve=np_
    )
    prism, m = po.left.source, reduction.target
    back_end = cylinder_end(p, cyl, 1)
    bundle = CylinderBundle(
        phi=phi,
        space=po.space,
        reduced=m,
        reduction=reduction,
        front=po.right,
        back=compose_maps(nerve_map(back_end, np_, prism), po.left),
        prism=po.left,
        reduced_front=reduced_front,
        reduced_back=nerve_map(compose_monotone(back_end, v.leg_ambient), np_, m),
        poset=v,
    )
    _check_bundle(bundle)
    return bundle


def _check_bundle(b: CylinderBundle) -> None:
    if compose_maps(b.front, b.reduction) != b.reduced_front:
        raise RuntimeError("reduction disagrees with the target-side leg")
    if compose_maps(b.back, b.reduction) != b.reduced_back:
        raise RuntimeError("reduction disagrees with the free-end leg")
    if not (injective_in_degree(b.reduction, 0) and surjective_in_degree(b.reduction, 0)):
        raise RuntimeError("reduction is not bijective on vertices")
    if not b.reduced.is_nonsingular():
        raise RuntimeError("reduced cylinder is not non-singular")


# -- comparison out of the desingularized cylinder ----------------------------


def dcr(
    phi: MonotoneMap, *, bundle: CylinderBundle | None = None
) -> tuple[SimplicialMap, DesingResult]:
    """The unique map DT -> M composing with eta to the reduction map."""
    b = cylinder_reduction(phi) if bundle is None else bundle
    return desingularized_comparison(b.reduction)


def representing_sharp(space: SimplicialSet, s: Simplex) -> MonotoneMap:
    """Sharp of the representing map of s, corestricted to what s generates."""
    sub, inc = generate(space, [s.cell])
    back = {t.cell: c for c, t in inc.assignment.items()}
    f = simplex_map(sub, Simplex(back[s.cell], s.degen))
    return sharp_map(f)


def pushout_comparison(
    k: MonotoneMap,
    phi: MonotoneMap,
    *,
    source_nerve: SimplicialSet | None = None,
) -> tuple[PushoutResult, PosetPushout, SimplicialMap, SimplicialMap]:
    """Nerve-level pushout along an embedding, against the poset pushout.

    Returns the simplicial pushout of NQ <- NP -> NR, the poset pushout
    Q u_P R, the comparison map from the former onto the nerve of the
    latter, and the nerve of the poset pushout's leg out of R, which the
    comparison map restricts to.  NP is ``source_nerve`` when given.  The
    cylinder is the case k : P -> P x [1].
    """
    np_ = nerve(k.source) if source_nerve is None else source_nerve
    nq = nerve(k.target)
    nr = nerve(phi.target)
    po = pushout(nerve_map(k, np_, nq), nerve_map(phi, np_, nr))
    v = poset_pushout(k, phi)
    nv = nerve(v.poset)
    other = nerve_map(v.leg_other, nr, nv)
    comp = po.mediator(nerve_map(v.leg_ambient, nq, nv), other)
    return po, v, comp, other


# -- cones --------------------------------------------------------------------


def as_poset_nerve(space: SimplicialSet) -> tuple[FinPoset, SimplicialMap]:
    """Recover P with N(P) isomorphic to the input, or raise ValueError.

    Vertices become elements, edges the order relation; the input is a
    poset nerve exactly when cells correspond bijectively to nonempty
    chains through their vertex rows.
    """
    if not space.is_nonsingular():
        raise ValueError("a cell with repeated vertices is no nerve cell")
    edges = [space.cell_vertices(c) for c in space.cell_ids(1)]
    try:
        p = FinPoset(space.cell_ids(0), edges, close=True)
    except ValueError as exc:
        raise ValueError("edge relation is not antisymmetric") from exc
    rows: dict[tuple, int] = {}
    for cid in space.cells:
        row = space.cell_vertices(cid)
        if row in rows:
            raise ValueError("two cells share a vertex row")
        rows[row] = cid
    n = nerve(p)
    if len(rows) != len(n.cells):
        raise ValueError("cells and chains do not match up")
    asg = {}
    for cid, chain in n.labels.items():
        if chain not in rows:
            raise ValueError(f"no cell realizes the chain {chain}")
        asg[cid] = Simplex(rows[chain], identity(len(chain) - 1))
    iso = SimplicialMap(n, space, asg)
    if not iso.is_isomorphism():
        raise ValueError("chain correspondence is not an isomorphism")
    return p, iso


def cone(space: SimplicialSet) -> SimplicialSet:
    """Glue an apex above a poset nerve: the cylinder of the terminal map."""
    p, _ = as_poset_nerve(space)
    apex = singleton_poset("apex")
    terminal = MonotoneMap(p, apex, {e: "apex" for e in p.elements})
    return cylinder_reduction(terminal).space

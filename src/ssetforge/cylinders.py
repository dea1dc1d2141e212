"""Backwards mapping cylinders of monotone maps, and their reduction.

The topological cylinder T glues the prism NP x Delta[1] onto NR along
the end at level 0; the reduced cylinder M is the nerve of the poset
pushout (P x [1]) u_P R.  A reduction map cr : T -> M compares the two,
and factoring cr through the desingularization of T gives the canonical
map dcr : DT -> M out of the universal non-singular quotient.
``cylinder_reduction`` builds T, M and cr together, validated as each
is built, and checks that cr is bijective on vertices and M
non-singular; it is the one route to either cylinder.  It builds only
what a verdict or an output reads: the squares that cr closes with NR
and with the free end of the prism hold by construction
(``_check_bundle`` says why), and the tests rebuild them and compare
them cell by cell.

The nerve preserves products, N(P x [1]) = NP x N[1] = NP x Delta[1],
so the prism is built as the nerve of the product poset, and T is the
pushout of nerves NR <- NP -> N(P x [1]) along the level-0 end: the
case k : P -> P x [1] of ``pushout_comparison``, whose comparison map
onto M is cr.  The level-0 end is injective, so T is NR with the prism
attached along it: no quotient is taken.  cr restricts on the prism
and on NR to the nerves of the poset pushout's two legs.  cr is built
by ``pushout_into_nerve``, the one way the program builds a map out of
a pushout: it lands in a nerve, so it is fixed by where it sends
vertices, and every vertex of a pushout is the image of a vertex of one
of the two spaces glued.  Where the images of glued vertices agree, the
map they fix restricts on each leg to the nerve map given for it, so it
is the mediator.  The lemma suite builds its cosieve square the same
way, and its ``prism-nerve/*`` cases build the comparison NP x Delta[1]
-> N(P x [1]) from its vertex map, ((e,), level) to (e, level), and
check that it is an isomorphism.

Everything on the source side depends on P alone: NP, P x [1], the
prism nerve, the level-0 end k with its nerve map, and the Dwyer check
of k.  ``cylinder_source`` builds and validates these together.
The maps the ``dcr`` suite takes the cylinders of come out of the cell
poset of a standard simplex, so ``representing_sharp`` returns its map
out of one shared Delta[q]#, and a memo keyed by q keeps the source
side over it: one entry per simplex dimension reached, built once.
``cylinder_reduction`` reads the memo when its map comes out of a
shared Delta[q]#, and builds the source side afresh, keeping nothing,
for any other poset: the cones and the lemma suite reach many posets
once each, and holding their prisms would only grow memory.  Every
per-map object (T, M, cr, the legs and the poset pushout) is still
built and validated for each map.

Degreewise diagnostics are read off the cell tables.  By the
Eilenberg-Zilber lemma a q-simplex of X is (x, sigma) for one cell x of
dimension at most q and one degeneracy sigma : [q] -> [dim x], and a map
f sends it to (w, rho sigma) when f(x) = (w, rho); that is again in
normal form, so w is its cell.  Both criteria rest on one face lemma: if
f(x) = (w, rho) with rho not the identity, some cell maps onto w
non-degenerately.  Proof: take a repeat i of rho, rho(i) = rho(i+1).
Then rho d_i is still a degeneracy, so f(d_i x) = (w, rho d_i) with one
repeat fewer.  The stored face d_i x is (t, tau) for a cell t, and
f(d_i x) = f(t) tau has the cell of f(t), so f(t) = (w, rho') where rho'
has at most that many repeats; induct on the number of repeats.  Hence:

- f is injective in degree q exactly when the cells of dimension <= q
  have pairwise distinct image cells.  If they do, the lemma leaves no
  such cell with a degenerate image (the cell it finds is another one of
  dimension <= q with the same image cell), so f(x, sigma) = (w_x, sigma)
  is injective.  If x != y share the image cell w, either both map onto
  w and (x, sigma), (y, sigma) collide, or f(x) = (w, rho) with rho not
  the identity, and (x, sigma) collides with (z, rho sigma) for the cell
  z != x that the lemma finds.
- f is surjective in degree q exactly when every target cell of
  dimension <= q is some cell's image cell.  A q-simplex (w, rho) can
  only be hit if w is an image cell; if it is, the lemma's cell z with
  f(z) = (w, id) sends (z, rho) onto it.

So each check costs one pass over the cells, not over the simplices of
degree q.  A cell's image is its assignment, which is what
``identifies_embedded_siblings`` compares.  ``_check_bundle`` reads
cr's bijectivity on vertices off the same lemma, in degree 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .colimits import PushoutResult, pushout
from .desingularize import DesingResult, desingularized_comparison
from .operators import all_faces
from .posets import (
    FinPoset,
    MonotoneMap,
    Nerve,
    PosetPushout,
    chain_poset,
    cylinder_end,
    map_into_nerve,
    nerve,
    nerve_map,
    nerve_of,
    poset_pushout,
    product_poset,
    sharp,
)
from .simplicial import (
    Simplex,
    SimplicialMap,
    SimplicialSet,
    generated_cells,
    standard_simplex,
)


# -- degreewise diagnostics ---------------------------------------------------


def injective_in_degree(f: SimplicialMap, q: int) -> bool:
    """Injective in degree q: the cells of dimension <= q have pairwise
    distinct image cells."""
    cells = f.source.cells
    images = [s.cell for cid, s in f.assignment.items() if cells[cid].dim <= q]
    return len(set(images)) == len(images)


def surjective_in_degree(f: SimplicialMap, q: int) -> bool:
    """Surjective in degree q: every target cell of dimension <= q is some
    cell's image cell."""
    hit = {s.cell for s in f.assignment.values()}
    return all(w in hit for w, cell in f.target.cells.items() if cell.dim <= q)


def embedded_sibling_pairs(space: SimplicialSet, q: int) -> list[tuple[int, int]]:
    """Pairs (a, b), a < b, of distinct embedded q-cells that share their
    whole vertex row, in sorted order."""
    by_row: dict[tuple[int, ...], list[int]] = {}
    rows = space.vertex_rows()
    for c in space.cell_ids(q):
        row = rows[c]
        if len(set(row)) == len(row):
            by_row.setdefault(row, []).append(c)
    return sorted(pair for cells in by_row.values() for pair in combinations(cells, 2))


def identifies_embedded_siblings(f: SimplicialMap, q: int) -> bool:
    asg = f.assignment
    return all(asg[a] == asg[b] for a, b in embedded_sibling_pairs(f.source, q))


# -- the two cylinders --------------------------------------------------------


@dataclass
class CylinderBundle:
    phi: MonotoneMap
    space: SimplicialSet  # T, the glued prism
    reduced: SimplicialSet  # M, a poset nerve
    reduction: SimplicialMap  # cr : T -> M
    front: SimplicialMap  # NR -> T, the glued-in target
    prism: SimplicialMap  # N(P x [1]) -> T, the prism glued in
    poset: PosetPushout


@dataclass(frozen=True)
class CylinderSource:
    """The part of the cylinder of a map out of P that depends on P alone."""

    nerve: Nerve  # NP
    front_end: MonotoneMap  # k : P -> P x [1], the level-0 end
    front_nerve: SimplicialMap  # N(k) : NP -> N(P x [1]), the prism nerve


def cylinder_source(p: FinPoset) -> CylinderSource:
    """The source side over p, each piece validated as it is built, and k
    checked to be a Dwyer map once: its pushouts read that check."""
    np_ = nerve(p)
    cyl = product_poset(p, chain_poset(1))
    k = cylinder_end(p, cyl, 0)
    if k.dwyer is None:
        raise RuntimeError("the level-0 end is not a Dwyer map")
    return CylinderSource(np_, k, nerve_map(k, np_, nerve(cyl)))


# q -> the source side over Delta[q]#: one entry per simplex dimension
# reached, so no size limit is needed
_SIMPLEX_SOURCES: dict[int, CylinderSource] = {}


def _simplex_source(q: int) -> CylinderSource:
    """The source side over the cell poset of Delta[q], built once per q."""
    got = _SIMPLEX_SOURCES.get(q)
    if got is None:
        got = _SIMPLEX_SOURCES[q] = cylinder_source(sharp(standard_simplex(q)))
    return got


def _source_of(p: FinPoset) -> CylinderSource:
    """The memo's source side when p is a shared Delta[q]#, else a fresh one."""
    for side in _SIMPLEX_SOURCES.values():
        if side.nerve.poset is p:
            return side
    return cylinder_source(p)


def cylinder_reduction(phi: MonotoneMap) -> CylinderBundle:
    side = _source_of(phi.source)
    po, v, reduction = pushout_comparison(side.front_end, phi, k_nerve=side.front_nerve)
    bundle = CylinderBundle(
        phi=phi,
        space=po.space,
        reduced=reduction.target,
        reduction=reduction,
        front=po.right,
        prism=po.left,
        poset=v,
    )
    _check_bundle(bundle)
    return bundle


def _check_bundle(b: CylinderBundle) -> None:
    """Check a bundle's reduced cylinder: the reduction bijective on
    vertices, and M non-singular.  Each failure is a RuntimeError naming
    what failed.

    The two squares of the cylinder, reduction . front = N(leg_other)
    and reduction . prism . N(k1) = N(leg_ambient . k1) for the level-1
    end k1, hold by construction and are not built here.  The reduction
    is ``map_into_nerve(T, M, image)``, and the loop of
    ``pushout_into_nerve`` sets ``image`` at every vertex of both legs'
    sources: image[front(y)] = leg_other[y] for every y of R, and
    image[prism(x)] = leg_ambient[x] for every x of P x [1], the level-1
    end's elements k1(e) among them.  Each square compares two validated
    simplicial maps into the nerve M, and two such maps are equal when
    they agree on vertices, as these do.  The tests rebuild both squares
    and compare them cell by cell.
    """
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
    """Sharp of the representing map of s, corestricted to what s generates,
    out of the one Delta[q]# shared by every simplex of its degree.

    Only the image cells of the representing map are read, so no
    simplicial map is built: cell cid of Delta[q], the face
    ``all_faces(q)[cid]``, goes to the cell of s.mu, and the monotone map
    checks the result."""
    keep = sorted(generated_cells(space, [s.cell]))
    sub = SimplicialSet({cid: space.cells[cid] for cid in keep})
    side = _simplex_source(s.degree)
    mapping = {cid: sub.eval(s, mu).cell for cid, mu in enumerate(all_faces(s.degree))}
    return MonotoneMap(side.nerve.poset, sharp(sub), mapping)


def pushout_comparison(
    k: MonotoneMap,
    phi: MonotoneMap,
    *,
    k_nerve: SimplicialMap | None = None,
) -> tuple[PushoutResult, PosetPushout, SimplicialMap]:
    """Nerve-level pushout along an embedding, against the poset pushout.

    Returns the simplicial pushout of NQ <- NP -> NR, the poset pushout
    Q u_P R, and the comparison map from the former onto the nerve of the
    latter.  The leg NP -> NQ is ``k_nerve`` when given, which must be
    N(k): NP and NQ are read off it.  The cylinder is the case
    k : P -> P x [1].

    The comparison is the mediator of N(leg_ambient) and N(leg_other),
    built by ``pushout_into_nerve`` from the legs' tables; no map
    out of NQ is built.
    """
    nk = nerve_map(k) if k_nerve is None else k_nerve
    np_ = nk.source
    nr = nerve(phi.target)
    po = pushout(nk, nerve_map(phi, np_, nr))
    v = poset_pushout(k, phi)
    return po, v, pushout_into_nerve(po, nerve(v.poset), v.leg_ambient, v.leg_other)


def pushout_into_nerve(
    po: PushoutResult, target: Nerve, left: MonotoneMap, right: MonotoneMap
) -> SimplicialMap:
    """The map out of a pushout of nerves into the nerve ``target`` that
    restricts on each leg to the nerve of its monotone map, ``left`` or
    ``right``, out of the poset whose nerve is that leg's source and into
    the poset of ``target``.

    Each vertex goes where the maps' tables send the vertices glued to
    it, and ``map_into_nerve`` builds and validates the rest: a map into
    a nerve is fixed by its vertices, so this is the mediator.  The right
    leg is read first, so two images that differ are caught on a vertex
    of the left leg's source, a ValueError naming the pushout's vertex.
    """
    # vertex x of a nerve is the cell x, the chain of element x
    image: dict[int, int] = {}
    for leg, phi in ((po.right, right), (po.left, left)):
        nerve_of(leg.source, phi.source, "source")
        nerve_of(target, phi.target, "target")
        asg = leg.assignment
        for x, got in enumerate(phi.indices):
            t = asg[x].cell
            if image.setdefault(t, got) != got:
                elements = target.poset.elements
                raise ValueError(
                    f"vertex {t} of the pushout is sent to both "
                    f"{elements[image[t]]!r} and {elements[got]!r}"
                )
    return map_into_nerve(po.space, target, image)

"""Subdivision of finite simplicial sets.

A subdivided q-simplex is a pair: a non-degenerate carrier cell of
dimension n together with a weakly increasing chain of q+1 face
operators into [n] whose top entry is the identity.  Non-degenerate
pairs carry a strict chain.  Face maps drop a chain entry; dropping the
top entry rebases the pair onto the carrier of the new top (EZ-reduce
the carrier simplex, pull the chain back through the dropped face, push
it through the degeneracy part).

This direct cell structure is not taken on faith: sd_skeletal builds
the subdivision a second time from the skeleton filtration, attaching a
subdivided standard simplex along its subdivided boundary for every
cell, and the two constructions are compared up to isomorphism.
"""

from __future__ import annotations

from functools import lru_cache

from .colimits import pushout
from .operators import (
    Operator,
    compose,
    ez_factor,
    face_restriction,
    identity,
    run_collapse,
)
from .posets import barratt, barratt_map, face_poset
from .simplicial import (
    Cell,
    Simplex,
    SimplicialMap,
    SimplicialSet,
    generate,
    standard_simplex,
)


@lru_cache(maxsize=None)
def chains_to_top(n: int) -> tuple[tuple[Operator, ...], ...]:
    """Strict chains of faces of [n] ending at the identity, shortest first."""
    fp = face_poset(n)
    top = identity(n)
    return tuple(c for c in fp.chains() if c[-1] == top)


def sd(space: SimplicialSet) -> SimplicialSet:
    """Subdivision; cells are labeled (carrier cell, strict chain)."""
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


def sd_map(
    f: SimplicialMap,
    sd_source: SimplicialSet | None = None,
    sd_target: SimplicialSet | None = None,
) -> SimplicialMap:
    sds = sd(f.source) if sd_source is None else sd_source
    sdt = sd(f.target) if sd_target is None else sd_target
    target_ids = {label: cid for cid, label in sdt.labels.items()}
    asg: dict[int, Simplex] = {}
    for cid, (x, c) in sds.labels.items():
        fx = f.assignment[x]
        pushed = tuple(ez_factor(compose(mu, fx.degen))[0] for mu in c)
        strict, degen = run_collapse(pushed)
        asg[cid] = Simplex(target_ids[(fx.cell, strict)], degen)
    return SimplicialMap(sds, sdt, asg)


def b_nat(
    space: SimplicialSet,
    barratt_space: SimplicialSet | None = None,
    sd_space: SimplicialSet | None = None,
) -> SimplicialMap:
    """The natural comparison from the subdivision to the nerve of the
    cell poset: a chain of faces goes to the chain of their carriers."""
    sds = sd(space) if sd_space is None else sd_space
    bx = barratt(space) if barratt_space is None else barratt_space
    target_ids = {label: cid for cid, label in bx.labels.items()}
    asg: dict[int, Simplex] = {}
    for cid, (x, c) in sds.labels.items():
        gen = space.simplex(x)
        carriers = tuple(space.eval(gen, mu).cell for mu in c)
        strict, degen = run_collapse(carriers)
        asg[cid] = Simplex(target_ids[strict], degen)
    return SimplicialMap(sds, bx, asg)


def last_vertex(space: SimplicialSet, sd_space: SimplicialSet | None = None) -> SimplicialMap:
    """The map sending a chain of faces to the simplex of their last vertices."""
    sds = sd(space) if sd_space is None else sd_space
    asg: dict[int, Simplex] = {}
    for cid, (x, c) in sds.labels.items():
        n = space.cells[x].dim
        alpha = Operator(n, tuple(max(mu.values) for mu in c))
        asg[cid] = space.eval(space.simplex(x), alpha)
    return SimplicialMap(sds, space, asg)


def t_nat(space: SimplicialSet) -> SimplicialMap:
    """The comparison map from the desingularized subdivision to the nerve
    of the cell poset, i.e. b factored through the desingularization."""
    from .desingularize import desingularize, factor_through_quotient

    sds = sd(space)
    return factor_through_quotient(desingularize(sds).eta, b_nat(space, sd_space=sds))


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
        top = max(delta.cells)
        bnd, incl = generate(delta, [c for c in delta.cells if c != top])
        bdelta = barratt(delta)
        bbnd = barratt(bnd)
        bincl = barratt_map(incl, bbnd, bdelta)

        amalgam = _copies(bbnd, len(ncells))
        offb, offd = len(bbnd.cells), len(bdelta.cells)
        f_asg: dict[int, Simplex] = {}
        g_asg: dict[int, Simplex] = {}
        for j, x in enumerate(ncells):
            gen = space.simplex(x)
            for cid, chain in bbnd.labels.items():
                mus = [bnd.labels[c] for c in chain]
                nu = mus[-1]
                zs = space.eval(gen, nu)
                pushed = tuple(
                    ez_factor(compose(face_restriction(nu, mu), zs.degen))[0]
                    for mu in mus
                )
                strict, s = run_collapse(pushed)
                base = phi[(zs.cell, strict)]
                f_asg[j * offb + cid] = Simplex(base.cell, compose(s, base.degen))
                img = bincl.assignment[cid]
                g_asg[j * offb + cid] = Simplex(j * offd + img.cell, img.degen)
        flat = _copies(bdelta, len(ncells))
        po = pushout(
            SimplicialMap(amalgam, cur, f_asg),
            SimplicialMap(amalgam, flat, g_asg),
        )
        phi = {key: po.left.apply(s) for key, s in phi.items()}
        for j, x in enumerate(ncells):
            for cid, chain in bdelta.labels.items():
                key = (x, tuple(delta.labels[c] for c in chain))
                phi[key] = po.right.apply(flat.simplex(j * offd + cid))
        cur = po.space
    return cur

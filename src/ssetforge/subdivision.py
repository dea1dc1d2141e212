"""Subdivision of finite simplicial sets.

A subdivided q-simplex is a pair: a non-degenerate carrier cell of
dimension n together with a weakly increasing chain of q+1 face
operators into [n] whose top entry is the identity.  Non-degenerate
pairs carry a strict chain.  Face maps drop a chain entry; dropping the
top entry rebases the pair onto the carrier of the new top (EZ-reduce
the carrier simplex, pull the chain back through the dropped face, push
it through the degeneracy part).

``sd`` works on chain indices.  The strict chains to the top of [n] are
numbered once per n (``chains_to_top``, shortest first), with the
indices of the faces that keep the top entry and where each length
starts.  The cells of Sd X are numbered by chain length, then carrier
cell in id order, then chain, so a cell's id is its carrier's offset for
that length plus the chain's position within it, and a face's id is
found the same way.  The id is a cell's only name: ``last_vertex`` and
``sd_map`` read each cell's (carrier, chain) off ``_sd_cells``, which
lists them in id order.  The rebasing of a last face depends only on n,
the chain and the degeneracy of the carrier's face at the chain's
second-to-last entry, so it is computed once per such triple.

A map into the nerve BX is fixed by where it sends vertices, and vertex
v of Sd X, the chain of the identity alone on the v-th cell of X in id
order, is the barycentre of that cell.  So ``b_nat`` is built by
``map_into_nerve`` from the sorted cell ids: each vertex goes to its
carrier cell, and a subdivided cell to the carriers of its chain, in
order.

This direct cell structure is not taken on faith: ``sd_skeletal`` in
``tests/reference.py`` builds the subdivision a second time from the
skeleton filtration, attaching a subdivided standard simplex along its
subdivided boundary for every cell, and the tests compare the two
constructions up to isomorphism.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from .desingularize import desingularized_comparison
from .operators import (
    Operator,
    compose,
    ez_factor,
    face_restriction,
    identity,
    run_collapse,
)
from .posets import barratt, face_poset, map_into_nerve
from .simplicial import Cell, Simplex, SimplicialMap, SimplicialSet


@lru_cache(maxsize=None)
def chains_to_top(n: int) -> tuple[tuple[Operator, ...], ...]:
    """Strict chains of faces of [n] ending at the identity, shortest first."""
    fp = face_poset(n)
    top = identity(n)
    return tuple(c for c in fp.chains() if c[-1] == top)


class _ChainTable(NamedTuple):
    """``chains_to_top(n)`` by index.  ``starts[q]`` is the index of the first
    chain of q+1 entries (``starts[n+1]`` is the count); ``inner[k]`` holds,
    for i below the top, the position among the chains of its length of
    chain k with entry i dropped; ``index`` is the inverse of ``chains``.
    ``proper`` lists the proper faces of [n], and ``penult[k]`` is the
    position there of chain k's second-to-last entry (-1 for the chain
    of the identity alone)."""

    chains: tuple[tuple[Operator, ...], ...]
    index: dict[tuple[Operator, ...], int]
    starts: tuple[int, ...]
    inner: tuple[tuple[int, ...], ...]
    proper: tuple[Operator, ...]
    penult: tuple[int, ...]


@lru_cache(maxsize=None)
def _chain_table(n: int) -> _ChainTable:
    chains = chains_to_top(n)
    index = {c: k for k, c in enumerate(chains)}
    starts = [len(chains)] * (n + 2)
    for k in reversed(range(len(chains))):
        starts[len(chains[k]) - 1] = k
    inner = tuple(
        tuple(index[c[:i] + c[i + 1 :]] - starts[len(c) - 2] for i in range(len(c) - 1))
        for c in chains
    )
    proper = tuple(c[0] for c in chains if len(c) == 2)
    where = {mu: i for i, mu in enumerate(proper)}
    penult = tuple(where[c[-2]] if len(c) > 1 else -1 for c in chains)
    return _ChainTable(chains, index, tuple(starts), inner, proper, penult)


@lru_cache(maxsize=None)
def _rebase(n: int, k: int, degen: Operator) -> tuple[int, int, Operator]:
    """The last face of chain k of [n] on a carrier whose face at the chain's
    second-to-last entry is a cell under ``degen``: the face's length q
    (as a simplex degree), its chain's position among the chains of q+1
    entries into [degen.dst], and its degeneracy."""
    c = chains_to_top(n)[k]
    nu = c[-2]
    pushed = tuple(ez_factor(compose(face_restriction(nu, mu), degen))[0] for mu in c[:-1])
    strict, run = run_collapse(pushed)
    table = _chain_table(degen.dst)
    q = len(strict) - 1
    return q, table.index[strict] - table.starts[q], run


def _sd_cells(space: SimplicialSet) -> Iterator[tuple[int, tuple[Operator, ...]]]:
    """The (carrier cell, strict chain) of each cell of sd(space), in id order."""
    cells_of = space.cells
    order = sorted(cells_of)
    for q in range(space.dim + 1):
        for x in order:
            n = cells_of[x].dim
            if q <= n:
                chains, _, starts, *_ = _chain_table(n)
                for c in chains[starts[q] : starts[q + 1]]:
                    yield x, c


def sd(space: SimplicialSet) -> SimplicialSet:
    """Subdivision; cell ids are numbered as ``_sd_cells`` lists them."""
    cells_of = space.cells
    order = sorted(cells_of)
    top = space.dim
    tables = {x: _chain_table(cells_of[x].dim) for x in order}
    # offset[x][q]: the id of the first cell carried by x with q+1 entries
    offset: dict[int, list[int]] = {x: [] for x in order}
    count = 0
    for q in range(top + 1):
        for x in order:
            if q <= cells_of[x].dim:
                starts = tables[x].starts
                offset[x].append(count)
                count += starts[q + 1] - starts[q]
    # x's face at each proper face of [dim x], the second-to-last entries
    faces_at = {
        x: [space.eval(space.simplex(x), mu) for mu in tables[x].proper] for x in order
    }
    cells: dict[int, Cell] = {}
    point = Cell(0, ())
    for x in order:  # the barycentres, chains of the identity alone
        cells[offset[x][0]] = point
    for q in range(1, top + 1):
        ident = identity(q - 1)
        for x in order:
            n = cells_of[x].dim
            if q > n:
                continue
            _, _, starts, inner, _, penult = tables[x]
            cid, below, x_faces = offset[x][q], offset[x][q - 1], faces_at[x]
            for k in range(starts[q], starts[q + 1]):
                z, degen = x_faces[penult[k]]
                fq, pos, run = _rebase(n, k, degen)
                faces = [(below + j, ident) for j in inner[k]]
                faces.append((offset[z][fq] + pos, run))
                cells[cid] = Cell(q, tuple(faces))
                cid += 1
    return SimplicialSet(cells)


def sd_map(
    f: SimplicialMap,
    sd_source: SimplicialSet | None = None,
    sd_target: SimplicialSet | None = None,
) -> SimplicialMap:
    sds = sd(f.source) if sd_source is None else sd_source
    sdt = sd(f.target) if sd_target is None else sd_target
    target_ids = {pair: cid for cid, pair in enumerate(_sd_cells(f.target))}
    asg: dict[int, Simplex] = {}
    for cid, (x, c) in enumerate(_sd_cells(f.source)):
        fx = f.assignment[x]
        pushed = tuple(ez_factor(compose(mu, fx.degen))[0] for mu in c)
        strict, degen = run_collapse(pushed)
        asg[cid] = Simplex(target_ids[(fx.cell, strict)], degen)
    return SimplicialMap(sds, sdt, asg)


def b_nat(space: SimplicialSet, sd_space: SimplicialSet | None = None) -> SimplicialMap:
    """The natural comparison from the subdivision to the nerve of the
    cell poset: a chain of faces goes to the chain of their carriers.

    Vertex v of Sd X is the barycentre of ``sorted(space.cells)[v]``, and
    a cell's carriers are its vertex row read through that order.  No
    chain entry is evaluated on X.  The target is ``barratt(space)``."""
    sds = sd(space) if sd_space is None else sd_space
    return map_into_nerve(sds, barratt(space), sorted(space.cells).__getitem__)


def last_vertex(space: SimplicialSet) -> SimplicialMap:
    """The map sending a chain of faces to the simplex of their last vertices."""
    sds = sd(space)
    asg: dict[int, Simplex] = {}
    for cid, (x, c) in enumerate(_sd_cells(space)):
        n = space.cells[x].dim
        alpha = Operator(n, tuple(max(mu.values) for mu in c))
        asg[cid] = space.eval(space.simplex(x), alpha)
    return SimplicialMap(sds, space, asg)


def t_nat(space: SimplicialSet) -> SimplicialMap:
    """The comparison map from the desingularized subdivision to the nerve
    of the cell poset, i.e. b factored through the desingularization."""
    return desingularized_comparison(b_nat(space))[0]


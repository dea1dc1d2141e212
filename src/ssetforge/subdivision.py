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
starts.  One layout, ``_sd_layout``, numbers the cells of Sd X: by chain
length, then carrier cell in id order, then chain, in one block per
length and carrier, so a cell's id is its block's first id (its
carrier's offset for that length) plus the chain's position within it.
``sd`` builds its cells and ``_sd_cells`` lists each cell's (carrier,
chain) by walking these blocks; the id is a cell's only name.

One pushforward, ``_push``, moves a chain of faces along a degeneracy:
each entry's face part after it, runs collapsed, and the strict chain's
position in its table.  ``sd_map`` applies it to each cell's chain along
the degeneracy of its carrier's image, and adds the position to the
image cell's offset in the target's layout.  A last face is the same
operation: the chain below the top, restricted to its second-to-last
entry, pushed along the degeneracy of the carrier's face there.  It
depends only on n, the chain and that degeneracy, so ``_rebase`` computes
it once per such triple.

A map into the nerve BX is fixed by where it sends vertices, and vertex
v of Sd X, the chain of the identity alone on the v-th cell of X in id
order, is the barycentre of that cell, element v of the cell poset X#,
which numbers the cells in id order too.  So ``b_nat`` is built by
``map_into_nerve`` from the identity table: each vertex goes to its
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


def _push(chain: tuple[Operator, ...], degen: Operator) -> tuple[int, int, Operator]:
    """Push a chain of faces forward along ``degen``: each entry's face part
    after it, runs collapsed.  Returns the strict chain's length q (as a
    simplex degree), its position among the chains of q+1 entries into
    [degen.dst], and the run degeneracy."""
    strict, run = run_collapse(tuple(ez_factor(compose(mu, degen))[0] for mu in chain))
    table = _chain_table(degen.dst)
    q = len(strict) - 1
    return q, table.index[strict] - table.starts[q], run


@lru_cache(maxsize=None)
def _rebase(n: int, k: int, degen: Operator) -> tuple[int, int, Operator]:
    """The last face of chain k of [n] on a carrier whose face at the chain's
    second-to-last entry is a cell under ``degen``: the chain below the top
    restricted to that entry, then pushed along ``degen``."""
    c = chains_to_top(n)[k]
    return _push(tuple(face_restriction(c[-2], mu) for mu in c[:-1]), degen)


_Block = tuple[int, int, _ChainTable, int]  # (q, carrier, its chain table, first id)


def _sd_layout(space: SimplicialSet) -> tuple[list[_Block], dict[int, list[int]]]:
    """The blocks of sd(space)'s cells in id order, one per chain length q
    and then carrier x in id order: (q, x, x's chain table, the block's
    first id).  Also ``offset[x][q]``, the first id of x's block for q."""
    cells_of = space.cells
    order = sorted(cells_of)
    blocks: list[_Block] = []
    offset: dict[int, list[int]] = {x: [] for x in order}
    count = 0
    for q in range(space.dim + 1):
        for x in order:
            if q <= cells_of[x].dim:
                table = _chain_table(cells_of[x].dim)
                blocks.append((q, x, table, count))
                offset[x].append(count)
                count += table.starts[q + 1] - table.starts[q]
    return blocks, offset


def _sd_cells(space: SimplicialSet) -> Iterator[tuple[int, tuple[Operator, ...]]]:
    """The (carrier cell, strict chain) of each cell of sd(space), in id order."""
    for q, x, (chains, _, starts, *_), _ in _sd_layout(space)[0]:
        for c in chains[starts[q] : starts[q + 1]]:
            yield x, c


def sd(space: SimplicialSet) -> SimplicialSet:
    """Subdivision; cell ids are numbered as ``_sd_layout`` lays them out."""
    blocks, offset = _sd_layout(space)
    faces_at: dict[int, list[Simplex]] = {}
    cells: dict[int, Cell] = {}
    point = Cell(0, ())
    for q, x, (_, _, starts, inner, proper, penult), cid in blocks:
        if not q:  # x's barycentre, and x's faces at the proper faces of [dim x]
            cells[cid] = point
            faces_at[x] = [space.eval(space.simplex(x), mu) for mu in proper]
            continue
        n, ident = space.cells[x].dim, identity(q - 1)
        below, x_faces = offset[x][q - 1], faces_at[x]
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
    """Sd f: a cell (x, c) goes to c pushed along the degeneracy of f(x), on
    the image's cell, its id read off the target's layout."""
    sds = sd(f.source) if sd_source is None else sd_source
    sdt = sd(f.target) if sd_target is None else sd_target
    offset = _sd_layout(f.target)[1]
    asg: dict[int, Simplex] = {}
    for cid, (x, c) in enumerate(_sd_cells(f.source)):
        fx = f.assignment[x]
        q, pos, run = _push(c, fx.degen)
        asg[cid] = Simplex(offset[fx.cell][q] + pos, run)
    return SimplicialMap(sds, sdt, asg)


def b_nat(space: SimplicialSet, sd_space: SimplicialSet | None = None) -> SimplicialMap:
    """The natural comparison from the subdivision to the nerve of the
    cell poset: a chain of faces goes to the chain of their carriers.

    Vertex v of Sd X is the barycentre of the v-th cell of X in id
    order, element v of X#: the vertex map is the identity table, and a
    cell's vertex row is the chain of its carriers' indices.  No chain
    entry is evaluated on X.  The target is ``barratt(space)``."""
    sds = sd(space) if sd_space is None else sd_space
    return map_into_nerve(sds, barratt(space), list(range(len(space.cells))))


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


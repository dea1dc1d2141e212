import hashlib
from functools import lru_cache
from math import factorial

import pytest

from ssetforge.colimits import (
    congruence_from_pairs,
    is_regular,
    product,
    pushout,
    quotient,
)
from ssetforge.corpus import SD_CAP, gen_corpus, sd_size
from ssetforge.cylinders import surjective_in_degree
from ssetforge.operators import Operator, all_degeneracies, all_faces, identity, make_face
from ssetforge.posets import barratt, barratt_map
from ssetforge.simplicial import (
    Cell,
    Simplex,
    SimplicialMap,
    SimplicialSet,
    boundary,
    representing_map,
    simplex_map,
    standard_simplex,
)
from ssetforge.subdivision import _sd_cells, b_nat, chains_to_top, last_vertex, sd, sd_map
from ssetforge.textio import format_smap, format_sset
from ssetforge.verify import _small_quotients

from reference import (
    carrier_b_nat,
    compose_maps,
    is_isomorphic,
    reference_sd,
    reference_sd_map,
    sd_pairs,
    sd_skeletal,
    simplex_map_from,
)

# sha256 of format_sset(sd(x)) then format_smap(b_nat(x)), over the seed-0
# members x with sd_size(x) <= SD_CAP in corpus order, recorded on the
# construction that keyed cells by (carrier cell, chain) and found b's
# carriers by evaluating every chain entry
SD_BNAT_SEED0_SHA256 = "f3798f219646654428467869946ebcaf326bef98ee4d00d1ac6e8ca30f041428"


def counts(space):
    return tuple(len(space.cell_ids(d)) for d in range(space.dim + 1))


def circle():
    delta1 = standard_simplex(1)
    cong = congruence_from_pairs(delta1, [(delta1.simplex(0), delta1.simplex(1))])
    return quotient(delta1, cong)


def sphere2():
    collapse = Operator(0, (0, 0))
    return SimplicialSet({0: Cell(0, ()), 1: Cell(2, ((0, collapse),) * 3)})


def test_chain_counts():
    assert [len(chains_to_top(n)) for n in range(4)] == [1, 3, 13, 75]


@lru_cache(maxsize=None)
def _stirling2(m: int, j: int) -> int:
    """S(m, j), the partitions of m things into j blocks."""
    if m == 0 or j == 0:
        return int(m == j)
    return j * _stirling2(m - 1, j) + _stirling2(m - 1, j - 1)


def _sd_counts(f: tuple[int, ...]) -> tuple[int, ...]:
    """f(Sd X) from f(X): a k-cell of Sd X is an n-cell of X with a strict
    chain of k+1 faces of [n] ending at the top, an ordered partition of
    its n+1 vertices into k+1 blocks; shares no code with ``sd``."""
    return tuple(
        sum(fn * factorial(k + 1) * _stirling2(n + 1, k + 1) for n, fn in enumerate(f))
        for k in range(len(f))
    )


def _euler(f: tuple[int, ...]) -> int:
    return sum((-1) ** n * fn for n, fn in enumerate(f))


def test_sd_counts_match_the_closed_form(corpus):
    # column sums are the ordered Bell numbers, each alternating sum (-1)^n
    columns = [_sd_counts((0,) * n + (1,)) for n in range(6)]
    assert [sum(c) for c in columns] == [1, 3, 13, 75, 541, 4683]
    assert [_euler(c) for c in columns] == [1, -1, 1, -1, 1, -1]
    checked = regular = 0
    for members in (corpus, gen_corpus(1), gen_corpus(2)):
        for entry in members:
            if len(entry.space.cells) > 200:
                continue
            f, sd_f = counts(entry.space), counts(sd(entry.space))
            assert sd_f == _sd_counts(f), entry.name
            assert _euler(sd_f) == _euler(f)
            if entry.regular:
                # BX is homeomorphic to X on a regular X
                assert _euler(counts(barratt(entry.space))) == _euler(f), entry.name
                regular += 1
            checked += 1
    assert (checked, regular) == (163, 128)


def test_sd_standard_simplex_is_barratt():
    for n in range(4):
        sdn = sd(standard_simplex(n))
        assert is_isomorphic(sdn, barratt(standard_simplex(n)))
    assert counts(sd(standard_simplex(2))) == (7, 12, 6)
    assert len(sd(standard_simplex(3)).cells) == 149


def test_sd_vertices_are_cells():
    for space in (standard_simplex(2), boundary(3), circle().space, sphere2()):
        sds = sd(space)
        assert len(sds.cell_ids(0)) == len(space.cells)


def test_sd_circle():
    sds = sd(circle().space)
    assert counts(sds) == (2, 2)
    assert sds.is_nonsingular()
    edges = sds.cell_ids(1)
    assert sds.vertex_rows()[edges[0]] == sds.vertex_rows()[edges[1]]


def test_sd_empty():
    assert sd(SimplicialSet({})).cells == {}


def test_sd_collapsed_sphere():
    sds = sd(sphere2())
    assert counts(sds) == (2, 6, 6)
    assert not sds.is_nonsingular()
    assert is_regular(sds)


def test_sd_is_regular():
    cases = [circle().space, sphere2(), standard_simplex(2)]
    for space in cases:
        assert is_regular(sd(space))


def test_sd_map_of_representing_map():
    circ = circle().space
    delta1 = standard_simplex(1)
    f = representing_map(circ, 1)
    lifted = sd_map(f)
    assert surjective_in_degree(lifted, lifted.target.dim)
    assert not lifted.is_degreewise_injective()
    assert sd_map(SimplicialMap(delta1, delta1, {c: delta1.simplex(c) for c in delta1.cells})).is_isomorphism()


def test_sd_map_embeds_face():
    delta3 = standard_simplex(3)
    last = simplex_map(delta3, delta3.simplex(10))
    assert all_faces(3)[10] == make_face(3, 3)
    lifted = sd_map(last)
    assert lifted.is_degreewise_injective()


def test_sd_map_functorial():
    delta2 = standard_simplex(2)
    circ = circle().space
    to_circle = representing_map(circ, 1)
    squash = simplex_map_from(standard_simplex(1), Simplex(2, Operator(1, (0, 0, 1))), delta2)
    sd2, sd1, sdc = sd(delta2), sd(standard_simplex(1)), sd(circ)
    one = sd_map(compose_maps(squash, to_circle), sd2, sdc)
    two = compose_maps(sd_map(squash, sd2, sd1), sd_map(to_circle, sd1, sdc))
    assert one == two


def _simplices(space, n):
    """Every simplex of degree n of space, the degenerate ones included."""
    for x, cell in space.cells.items():
        for degen in all_degeneracies(n, cell.dim):
            yield Simplex(x, degen)


def _small_members(corpus):
    small = [e.space for e in corpus if len(e.space.cells) <= 15]
    assert len(small) == 31
    return small


def test_sd_map_matches_reference_on_corpus(corpus):
    """sd_map gives the reference's assignment on the representing map of
    every simplex through the dimension of each small seed-0 member."""
    for space in _small_members(corpus):
        sdx = sd(space)
        for n in range(space.dim + 1):
            sdn = sd(standard_simplex(n))
            for s in _simplices(space, n):
                f = simplex_map(space, s)
                fast, ref = sd_map(f, sdn, sdx), reference_sd_map(f, sdn, sdx)
                assert list(fast.assignment.items()) == list(ref.assignment.items())


def test_sd_map_functorial_on_corpus(corpus):
    """Sd(g f) = Sd g Sd f for f: Delta[m] -> Delta[n] every simplex of
    degree m <= n and g: Delta[n] -> X every cell of each small
    seed-0 member."""
    sds = [sd(standard_simplex(n)) for n in range(4)]
    for space in _small_members(corpus):
        sdx = sd(space)
        for x in space.cells:
            g = representing_map(space, x)
            n = g.source.dim
            for m in range(n + 1):
                for s in _simplices(g.source, m):
                    f = simplex_map(g.source, s)
                    one = sd_map(compose_maps(f, g), sds[m], sdx)
                    assert one == compose_maps(sd_map(f, sds[m], sds[n]), sd_map(g, sds[n], sdx))


def test_b_nat_iso_for_nonsingular():
    for n in range(3):
        assert b_nat(standard_simplex(n)).is_isomorphism()
    assert b_nat(boundary(2)).is_isomorphism()


def test_b_nat_circle():
    circ = circle().space
    b = b_nat(circ)
    assert surjective_in_degree(b, b.target.dim)
    assert not b.is_isomorphism()
    zero = [b.assignment[c] for c in b.source.cell_ids(0)]
    assert len(set(zero)) == 2
    ones = {b.assignment[c].cell for c in b.source.cell_ids(1)}
    assert len(ones) == 1


def test_b_nat_surjective_for_singular():
    b = b_nat(sphere2())
    assert surjective_in_degree(b, b.target.dim)


def test_b_naturality_square():
    circ = circle().space
    f = representing_map(circ, 1)
    delta1 = standard_simplex(1)
    b1, bc = b_nat(delta1), b_nat(circ)
    left = compose_maps(sd_map(f, b1.source, bc.source), bc)
    right = compose_maps(b1, barratt_map(f, b1.target, bc.target))
    assert left == right


def test_last_vertex_edge_patterns():
    delta1 = standard_simplex(1)
    d = last_vertex(delta1)
    sd1 = d.source
    pairs = sd_pairs(delta1)
    by_label = {pairs[c]: d.assignment[c] for c in sd1.cell_ids(1)}
    e0 = Operator(1, (0,))
    e1 = Operator(1, (1,))
    assert by_label[(2, (e0, identity(1)))] == Simplex(2, identity(1))
    assert by_label[(2, (e1, identity(1)))] == Simplex(1, Operator(0, (0, 0)))


def test_last_vertex_point_and_naturality():
    point = standard_simplex(0)
    assert last_vertex(point).is_isomorphism()
    circ = circle().space
    f = representing_map(circ, 1)
    delta1 = standard_simplex(1)
    l1, lc = last_vertex(delta1), last_vertex(circ)
    left = compose_maps(sd_map(f, l1.source, lc.source), lc)
    right = compose_maps(l1, f)
    assert left == right


def test_skeletal_oracle(corpus):
    delta2 = standard_simplex(2)
    glued = pushout(
        simplex_map(delta2, delta2.simplex(5)),
        simplex_map(delta2, delta2.simplex(3)),
    ).space
    square = product(standard_simplex(1), standard_simplex(1)).space
    cases = [
        standard_simplex(2),
        boundary(2),
        circle().space,
        sphere2(),
        glued,
        square,
    ]
    # and the seed-0 members with at most 12 cells
    small = [e.space for e in corpus if len(e.space.cells) <= 12]
    assert len(small) == 25
    for space in cases + small:
        assert is_isomorphic(sd(space), sd_skeletal(space))


def test_sd_and_b_nat_bytes_are_pinned(corpus):
    digest = hashlib.sha256()
    members = [e.space for e in corpus if sd_size(e.space) <= SD_CAP]
    for space in members:
        digest.update(format_sset(sd(space)).encode())
        digest.update(format_smap(b_nat(space)).encode())
    assert len(members) == 39
    assert digest.hexdigest() == SD_BNAT_SEED0_SHA256


def _assert_matches_reference(space):
    """sd on chain indices and b read off vertex rows give the reference's
    cells and assignments, in the reference's insertion order, and
    ``_sd_cells`` lists the reference's (carrier, chain) pairs."""
    fast, (ref, pairs) = sd(space), reference_sd(space)
    assert list(fast.cells.items()) == list(ref.cells.items())
    assert list(_sd_cells(space)) == pairs
    b = b_nat(space, sd_space=fast)
    assert list(b.assignment.items()) == list(carrier_b_nat(space, sd_space=ref).assignment.items())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sd_and_b_nat_match_reference_on_corpus(seed):
    # every member, the corpus's sd images included
    for entry in gen_corpus(seed):
        _assert_matches_reference(entry.space)


def test_sd_and_b_nat_match_reference_on_small_spaces():
    spaces = _small_quotients() + [standard_simplex(n) for n in range(5)] + [boundary(4)]
    for space in spaces:
        _assert_matches_reference(space)

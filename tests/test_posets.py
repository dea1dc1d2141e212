import itertools
import os
import random
import subprocess
import sys

import pytest

import ssetforge
import ssetforge.posets as posets_module
from ssetforge import verify
from ssetforge.colimits import congruence_from_pairs, disjoint_union, product, pushout, quotient
from ssetforge.corpus import gen_corpus
from ssetforge.cylinders import cylinder_reduction, representing_sharp, surjective_in_degree
from ssetforge.operators import (
    Operator,
    all_faces,
    compose,
    identity,
    make_face,
    make_vertex,
    run_collapse,
)
from ssetforge.posets import (
    FinPoset,
    MonotoneMap,
    Nerve,
    _canonical_key,
    all_posets,
    barratt,
    chain_poset,
    compose_monotone,
    cylinder_end,
    face_poset,
    full_subposet,
    is_cosieve,
    is_dwyer,
    map_into_nerve,
    nerve,
    nerve_map,
    poset_pushout,
    product_poset,
    psi,
    sharp,
    sharp_map,
    singleton_poset,
)
from ssetforge.simplicial import (
    SimplicialSet,
    generate,
    simplex_map,
    standard_simplex,
)
from ssetforge.subdivision import b_nat, sd

from reference import (
    all_posets_by_relabelling,
    carrier_b_nat,
    chain_labels,
    find_isomorphism,
    fresh_cylinder_reduction,
    is_isomorphic,
    label_nerve,
    label_nerve_map,
    leq,
    pair_ids,
    pair_scan_closure,
    pairwise_monotone_error,
    reference_is_dwyer,
    simplex_map_from,
    slicing_nerve,
    two_pass_run_collapse,
)


def counts(space):
    out = []
    for d in range(space.dim + 1):
        out.append(len(space.cell_ids(d)))
    return tuple(out)


def poset_isomorphic(p, q):
    # the nerve functor is fully faithful, so posets are isomorphic exactly
    # when their nerves are
    return is_isomorphic(nerve(p), nerve(q))


def wedge_poset():
    # a < b, a < c
    return FinPoset("abc", [("a", "b"), ("a", "c")])


def test_poset_basics():
    # the order table, each element's up-set with itself
    p = chain_poset(2)
    assert p._upset == [{0, 1, 2}, {1, 2}, {2}]
    w = wedge_poset()
    assert w._upset == [{0, 1, 2}, {1}, {2}]
    # cosieves and full subposets take element indices
    assert is_cosieve(w, [1, 2]) and is_cosieve(w, []) and not is_cosieve(w, [0, 1])
    with pytest.raises(ValueError):
        FinPoset("ab", [("a", "b"), ("b", "a")])
    sub = full_subposet(w, [0, 1])
    assert sub.same_as(FinPoset("ab", [("a", "b")]))


def test_poset_chains_order():
    w = wedge_poset()
    assert w.chains() == [
        ("a",),
        ("b",),
        ("c",),
        ("a", "b"),
        ("a", "c"),
    ]


def test_nerve_of_chain_is_simplex():
    for n in range(4):
        nv = nerve(chain_poset(n))
        assert is_isomorphic(nv, standard_simplex(n))
        assert nv.is_nonsingular()


def test_nerve_of_wedge():
    nv = nerve(wedge_poset())
    assert counts(nv) == (3, 2)
    assert chain_labels(nv)[3] == ("a", "b")


def test_nerve_of_product_is_product_of_nerves():
    p = chain_poset(1)
    square = nerve(product_poset(p, p))
    assert counts(square) == (4, 5, 2)
    assert is_isomorphic(square, product(nerve(p), nerve(p)).space)
    w = wedge_poset()
    assert is_isomorphic(
        nerve(product_poset(w, p)),
        product(nerve(w), nerve(p)).space,
    )


def test_nerve_map_collapse():
    phi = MonotoneMap(chain_poset(2), chain_poset(1), {0: 0, 1: 0, 2: 1})
    f = nerve_map(phi)
    top = max(f.source.cells)
    assert f.assignment[top].degen == Operator(1, (0, 0, 1))
    assert surjective_in_degree(f, f.target.dim)


def test_nerve_map_needs_nerves_of_its_posets():
    phi = MonotoneMap(chain_poset(2), chain_poset(1), {0: 0, 1: 0, 2: 1})
    np_, nq = nerve(chain_poset(2)), nerve(chain_poset(1))
    # nerves of posets equal to phi's own are accepted
    assert nerve_map(phi, np_, nq).assignment == nerve_map(phi).assignment
    foreign = [
        (nerve(chain_poset(1)), nq, "source"),  # its chains are a subset of phi's, the poset is not its source
        (np_, nerve(chain_poset(2)), "target"),  # phi's image fits, the poset is not its target
        (np_, SimplicialSet(nq.cells), "target"),  # the same cells, no poset
        (np_, nerve(wedge_poset()), "target"),
    ]
    for source, target, side in foreign:
        with pytest.raises(ValueError) as err:
            nerve_map(phi, source, target)
        message = str(err.value)
        assert "\n" not in message and f"{side} nerve" in message


def test_nerve_vertex_rows_are_its_chains(corpus):
    # a nerve holds its vertex rows from its chains; the same cells in a
    # plain simplicial set read each row through the stored faces
    nerves = [nerve(p) for p in all_posets(5)]
    nerves += [barratt(e.space) for e in corpus if len(e.space.cells) <= 60]
    for n in nerves:
        plain = SimplicialSet(n.cells)
        for cid in n.cells:
            assert n.vertex_rows()[cid] == plain.vertex_rows()[cid]
    assert len(nerves) >= 100


def test_one_chain_table_and_only_read_labels(corpus):
    # a nerve keeps one table of chains: chain_ids and vertex_rows() are
    # inverse, each chain_ids key is the tuple its row holds, and no cell
    # is labelled; over the nerve of every seed-0 sharp and all_posets(4)
    nerves = [nerve(sharp(e.space)) for e in corpus] + [nerve(p) for p in all_posets(4)]
    cells = 0
    for n in nerves:
        rows = n.vertex_rows()
        assert len(n.chain_ids) == len(rows) == len(n.cells)
        for chain, cid in n.chain_ids.items():
            assert rows[cid] is chain
        for cid, row in rows.items():
            assert n.chain_ids[row] == cid
        assert not hasattr(n, "labels")
        cells += len(n.cells)
    assert len(nerves) == 55 + 25 and cells >= 20_000
    # a cell's id is its only name: cell cid of Delta[n] is the face
    # all_faces(n)[cid], its faces the faces of that operator, and a cell
    # of sd is the pair at its id in sd_pairs (test_subdivision)
    for n in range(5):
        faces_of = all_faces(n)
        cells_of = standard_simplex(n).cells
        assert len(cells_of) == len(faces_of)
        for cid, mu in enumerate(faces_of):
            d = mu.src
            faces = tuple(
                (faces_of.index(compose(make_face(i, d), mu)), identity(d - 1))
                for i in range(d + 1)
            ) if d else ()
            assert cells_of[cid] == (d, faces)
    # no constructor keeps a table of labels, a product's pairs being its
    # projections'
    delta, interval = standard_simplex(2), standard_simplex(1)
    pr = product(delta, interval)
    assert sorted(pair_ids(pr).values()) == sorted(pr.space.cells)
    edge = all_faces(2).index(make_face(2, 2))
    glue = simplex_map_from(delta, delta.simplex(edge), interval)
    cong = congruence_from_pairs(delta, [(delta.simplex(0), delta.simplex(1))])
    built = [
        delta,
        sd(delta),
        pr.space,
        quotient(delta, cong).space,
        pushout(glue, glue).space,
        nerve(chain_poset(2)),
        generate(delta, [edge])[0],
        disjoint_union(delta, interval)[0],
    ]
    for space in built:
        assert space.cells and not hasattr(space, "labels")


def test_map_into_nerve_names_a_cell_off_the_chains():
    n = nerve(chain_poset(1))
    # reversing N([1]) sends the edge, cell 2, to the vertices (1, 0)
    with pytest.raises(ValueError, match=r"^cell 2 sent to \(1, 0\), which is not a chain$"):
        map_into_nerve(n, n, [1, 0])
    with pytest.raises(ValueError, match="not a poset nerve"):
        map_into_nerve(n, SimplicialSet(n.cells), [0, 1])


def test_map_into_nerve_collapses_only_rows_that_are_not_chains():
    # the not-a-chain message names the collapsed row when a cell of
    # positive dimension misses first: N([2]) with its top cell stored
    # first, its vertices sent to 1, 0, 0 of [1]
    n = nerve(chain_poset(2))
    top = next(cid for cid, cell in n.cells.items() if cell.dim == 2)
    cells = {top: n.cells[top], **{cid: c for cid, c in n.cells.items() if cid != top}}
    with pytest.raises(ValueError, match=rf"^cell {top} sent to \(1, 0\), which is not a chain$"):
        map_into_nerve(SimplicialSet(cells), nerve(chain_poset(1)), (1, 0, 0))


def _tally_rows(f, calls: int) -> tuple[int, int]:
    """The rows of a map into a nerve found as chains and those collapsed:
    a row is a strict chain exactly when its cell goes to a cell under the
    identity.  Each collapsed row costs one ``run_collapse`` call, and no
    other row does."""
    chains = sum(s.degen.is_identity for s in f.assignment.values())
    assert calls == len(f.assignment) - chains
    return chains, calls


def test_map_into_nerve_matches_references(corpus, monkeypatch):
    # b on the seeds 0-2 members against carrier_b_nat, the nerve maps of
    # the cylinder campaigns' phis on seeds 0-2 against label_nerve_map,
    # and the seed-0 cylinders' reduction cr against the mediator of the
    # fresh route.  Rows that are chains take the lookup alone, the rest
    # are collapsed, and both paths carry many rows
    calls = 0

    def counted(seq):
        nonlocal calls
        calls += 1
        return run_collapse(seq)

    monkeypatch.setattr(posets_module, "run_collapse", counted)
    chains = collapsed = cr_chains = cr_collapsed = 0
    for seed in range(3):
        members = corpus if seed == 0 else gen_corpus(seed)
        for entry in members:
            sds = sd(entry.space)
            want = carrier_b_nat(entry.space, sd_space=sds)
            calls = 0
            b = b_nat(entry.space, sd_space=sds)
            assert list(b.assignment.items()) == list(want.assignment.items())
            a, c = _tally_rows(b, calls)
            chains, collapsed = chains + a, collapsed + c
        for phi in _cylinder_phis(members):
            want = label_nerve_map(phi, label_nerve(phi.source), label_nerve(phi.target))
            calls = 0
            got = nerve_map(phi)
            assert list(got.assignment.items()) == list(want.assignment.items())
            a, c = _tally_rows(got, calls)
            chains, collapsed = chains + a, collapsed + c
            if seed == 0:
                cr, ref = cylinder_reduction(phi).reduction, fresh_cylinder_reduction(phi).reduction
                assert list(cr.assignment.items()) == list(ref.assignment.items())
                a = sum(s.degen.is_identity for s in cr.assignment.values())
                cr_chains, cr_collapsed = cr_chains + a, cr_collapsed + len(cr.assignment) - a
    assert chains >= 65_000 and collapsed >= 5_000
    assert cr_chains >= 10_000 and cr_collapsed >= 1_500


def _cylinder_phis(corpus):
    """The monotone maps the cylinder campaigns reduce: the cones over
    every poset with at most five elements, then the dcr suite of the
    corpus given."""
    for p in all_posets(5):
        yield MonotoneMap(p, singleton_poset("apex"), {e: "apex" for e in p.elements})
    for entry in corpus:
        x = entry.space
        if not entry.regular or len(x.cells) > verify._DCR_MAX_CELLS:
            continue
        for q in range(x.dim + 1):
            for y in x.simplices(q):
                if not y.is_degenerate or len(x.cells) <= verify._DCR_ALL_SIMPLEX_CELLS:
                    yield representing_sharp(x, y)


def _same_nerve(n, p):
    ref, chains = label_nerve(p)
    assert list(n.cells.items()) == list(ref.cells.items())
    labels = chain_labels(n)
    assert list(labels.items()) == list(chains.items())
    assert n.poset is p and len(n.chain_ids) == len(n.cells)
    for chain, cid in n.chain_ids.items():
        assert tuple(p.elements[i] for i in chain) == labels[cid]


def test_index_nerve_matches_label_nerve(corpus):
    # every poset with at most five elements, the sharps of the seed-0
    # members with at most 60 cells, and each cylinder's P x [1] and
    # pushout poset; every nerve map a cylinder builds, on both
    posets = list(all_posets(5))
    posets += [sharp(e.space) for e in corpus if len(e.space.cells) <= 60]
    for p in posets:
        _same_nerve(nerve(p), p)
    maps = 0
    for phi in _cylinder_phis(corpus):
        p, r = phi.source, phi.target
        cyl = product_poset(p, chain_poset(1))
        k, back = cylinder_end(p, cyl, 0), cylinder_end(p, cyl, 1)
        v = poset_pushout(k, phi)
        nerves = {id(q): (nerve(q), label_nerve(q)) for q in (p, r, cyl, v.poset)}
        _same_nerve(nerves[id(cyl)][0], cyl)
        _same_nerve(nerves[id(v.poset)][0], v.poset)
        for f in (k, back, phi, v.leg_ambient, v.leg_other,
                  compose_monotone(back, v.leg_ambient)):
            (ns, rs), (nt, rt) = nerves[id(f.source)], nerves[id(f.target)]
            got, want = nerve_map(f, ns, nt), label_nerve_map(f, rs, rt)
            assert list(got.assignment.items()) == list(want.assignment.items())
            maps += 1
    assert len(posets) >= 100 and maps >= 6 * 250


def test_nerve_matches_slicing_reference(corpus):
    # every poset with at most five elements, the sharp of every seed-0
    # member, and each cylinder's posets P, R, P x [1] and the pushout:
    # the same cells, labels and chain ids, in the same order
    posets = list(all_posets(5)) + [sharp(e.space) for e in corpus]
    for phi in _cylinder_phis(corpus):
        cyl = product_poset(phi.source, chain_poset(1))
        v = poset_pushout(cylinder_end(phi.source, cyl, 0), phi)
        posets += [phi.source, phi.target, cyl, v.poset]
    cells = 0
    for p in posets:
        got, want = nerve(p), slicing_nerve(p)
        assert type(got) is Nerve and got.poset is p
        assert list(got.cells.items()) == list(want.cells.items())
        assert list(chain_labels(got).items()) == list(chain_labels(want).items())
        assert list(got.chain_ids.items()) == list(want.chain_ids.items())
        cells += len(got.cells)
    assert len(posets) >= 1000 and cells >= 50_000


def test_run_collapse_matches_two_passes():
    # every sequence of length at most 6 over three symbols, for int,
    # string and nested-tuple symbols
    alphabets = [(0, 1, 2), ("a", "b", "c"), (((0, 1), 0), ((0, 1), 1), ((2,), 0))]
    seen = 0
    for symbols in alphabets:
        for n in range(7):
            for seq in itertools.product(symbols, repeat=n):
                want = two_pass_run_collapse(seq)
                assert run_collapse(seq) == want
                assert run_collapse(list(seq)) == want
                seen += 1
    assert seen == 3 * sum(3 ** n for n in range(7))
    # operator symbols, as sd collapses them, and the plans' results: a
    # tuple for tuple and list rows alike, under the interned degeneracy
    symbols = (identity(0), make_vertex(0, 1), make_vertex(1, 1))
    for n in range(1, 7):
        for seq in itertools.product(symbols, repeat=n):
            want = two_pass_run_collapse(seq)
            for form in (seq, list(seq)):
                got = run_collapse(form)
                assert got == want and type(got[0]) is tuple and got[1] is want[1]
    # length-1 rows, each its own run under the identity on [0]
    for symbols in alphabets:
        for x in symbols:
            for form in ((x,), [x]):
                assert run_collapse(form) == two_pass_run_collapse(form) == ((x,), identity(0))


def test_closure_matches_pair_scan():
    # seeded relations, most of them not transitive; closing along successor
    # sets gives the pairs that composing every two pairs to a fixpoint
    # gives, or names the same first pair of a cycle
    rng = random.Random(15)
    labels = [0, 1, 2, 3, 4, 5, 6, "x", (0, 1), ((0, 1), 1)]
    open_ = passed = 0
    for _ in range(600):
        n = rng.randint(1, 8)
        elements = rng.sample(labels, n)
        relations = [
            (rng.choice(elements), rng.choice(elements))
            for _ in range(rng.randint(0, 2 * n))
        ]
        want = pair_scan_closure(elements, relations)
        try:
            got = FinPoset(elements, relations).strict_pairs()
        except ValueError as err:
            got = str(err)
        assert got == want
        given = {(a, b) for a, b in relations if a != b}
        open_ += any(
            (a, d) not in given for a, b in given for c, d in given if b == c and a != d
        )
        passed += not isinstance(want, str)
    assert open_ >= 200 and passed >= 50



def test_monotone_check_matches_pairwise_definition():
    # seeded maps between members of all_posets(4), most of them not
    # monotone, a few with a value missing or outside the target: the
    # check on index tables gives the pairwise definition's verdict, and
    # the same message, naming the same first pair
    rng = random.Random(45)
    posets = all_posets(4)
    found = {"not monotone": 0, "no value": 0, "outside": 0, "monotone": 0}
    tables = 0
    for _ in range(4000):
        p, q = rng.choice(posets), rng.choice(posets)
        mapping = {e: rng.choice(q.elements) if q.elements else "x" for e in p.elements}
        if p.elements and rng.random() < 0.03:
            del mapping[rng.choice(p.elements)]
        elif p.elements and rng.random() < 0.03:
            mapping[rng.choice(p.elements)] = "x"
        want = pairwise_monotone_error(p, q, mapping)
        try:
            MonotoneMap(p, q, mapping)
            got = None
        except ValueError as err:
            got = str(err)
        assert got == want
        if want is None:
            found["monotone"] += 1
        else:
            found[next(k for k in ("not monotone", "no value", "outside") if k in want)] += 1
        # a table with every value in the target takes the same one check
        if want is None or "not monotone" in want:
            table = [q.elements.index(mapping[e]) for e in p.elements]
            try:
                MonotoneMap.from_indices(p, q, table)
                got = None
            except ValueError as err:
                got = str(err)
            assert got == want
            tables += 1
    assert found["monotone"] >= 800 and found["not monotone"] >= 1500, found
    assert found["no value"] >= 40 and found["outside"] >= 40, found
    assert tables == found["monotone"] + found["not monotone"]


def _posets_of_every_constructor() -> list[FinPoset]:
    # the enumeration, products with [1], cones' pushouts, full subposets,
    # face posets, cell posets and psi's source
    small = all_posets(4)
    out = small + [product_poset(p, chain_poset(1)) for p in small]
    for p in small[1:]:
        k = cylinder_end(p, out[small.index(p) + len(small)], 0)
        out.append(poset_pushout(k, MonotoneMap(p, singleton_poset("apex"),
                                                {e: "apex" for e in p.elements})).poset)
        out.append(full_subposet(p, range(1, len(p))))
    out += [face_poset(2), sharp(standard_simplex(3)), psi(2).source, wedge_poset()]
    return out


def test_upset_table_matches_strict_pairs():
    # the up-set table, the one table every reader of order reads, is a
    # partial order on every constructor's poset: each up-set holds its
    # element, holds the up-set of each element in it, and no two elements
    # lie in each other's.  The strict pairs are read off it with each
    # element's own entry left out, so they must give it back
    posets = _posets_of_every_constructor()
    assert len(posets) >= 90
    for p in posets:
        up = p._upset
        for i, row in enumerate(up):
            assert i in row and all(up[j] <= row and (j == i or i not in up[j]) for j in row)
        above = [{i} for i in range(len(p))]
        for a, b in p.strict_pairs():
            above[p.elements.index(a)].add(p.elements.index(b))
        assert up == above


def test_no_pair_set_is_built_until_strict_pairs_is_read(monkeypatch):
    # every constructor, monotone check, nerve, Dwyer witness and cylinder
    # works on index tables: no poset builds its set of strict pairs until
    # strict_pairs() is read, and then it builds it once
    built = []
    init = FinPoset.__init__

    def recorded(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(FinPoset, "__init__", recorded)
    posets = _posets_of_every_constructor()
    for p in all_posets(4):
        phi = MonotoneMap(p, singleton_poset("apex"), {e: "apex" for e in p.elements})
        cylinder_reduction(phi)
    for _, i0, k, phi in verify._dwyer_triples():
        assert k.dwyer is not None
        poset_pushout(k, phi)
        poset_pushout(i0, phi)
    delta = standard_simplex(2)
    representing_sharp(delta, delta.simplex(6))
    assert len(built) >= 350 and len(posets) >= 90
    assert all(p._lt is None for p in built)
    for p in built[::7]:
        pairs = p.strict_pairs()
        assert isinstance(pairs, frozenset) and p.strict_pairs() is pairs

def test_sharp_of_standard_simplex():
    for n in range(4):
        assert poset_isomorphic(sharp(standard_simplex(n)), face_poset(n))
    assert len(sharp(standard_simplex(2))) == 7


def test_barratt_counts():
    b2 = barratt(standard_simplex(2))
    assert counts(b2) == (7, 12, 6)
    assert len(b2.cells) == 25
    b3 = barratt(standard_simplex(3))
    assert counts(b3) == (15, 50, 60, 24)
    assert len(b3.cells) == 149


def test_barratt_collapses_presentation():
    # both cells of the circle become embedded simplices of its nerve
    from ssetforge.colimits import quotient, congruence_from_pairs

    delta1 = standard_simplex(1)
    ends = congruence_from_pairs(delta1, [(delta1.simplex(0), delta1.simplex(1))])
    circle = quotient(delta1, ends).space
    b = barratt(circle)
    assert counts(b) == (2, 1)
    assert b.is_nonsingular()
    assert is_isomorphic(b, standard_simplex(1))


def test_sharp_map_of_nondegenerate_image():
    d2 = standard_simplex(2)
    f = simplex_map(d2, d2.simplex(6))
    m = sharp_map(f)
    assert len(set(m.indices)) == len(m.indices)
    assert m(6) == 6


def test_psi_image_nerve():
    k = psi(2)
    assert len(set(k.indices)) == len(k.indices)
    img = [k(e) for e in k.source.elements]
    missing = [e for e in k.target.elements if e not in img]
    assert missing == [make_vertex(2, 2)]
    # up-closed, and not down-closed: the last vertex lies below the top
    assert is_cosieve(k.target, k.indices) and leq(k.target, missing[0], identity(2))
    w = full_subposet(k.target, sorted(k.indices))
    assert counts(nerve(w)) == (6, 9, 4)


def test_psi_levels():
    for n in (1, 2, 3):
        p = psi(n)
        for mu, level in p.source.elements:
            if level == 1:
                assert p((mu, level)) == Operator(n, mu.values + (n,))
            else:
                assert set(p((mu, level)).values) == set(mu.values)


def test_dwyer_witness_cylinder_end():
    p = chain_poset(2)
    cyl = product_poset(p, chain_poset(1))
    bottom = cylinder_end(p, cyl, 0)
    r = is_dwyer(bottom)
    assert r is not None and r.target is p
    assert r.source.elements == cyl.elements
    assert all(r((e, lv)) == e for e, lv in cyl.elements)
    assert is_dwyer(cylinder_end(p, cyl, 1)) is None


def test_dwyer_witness_last_face():
    for n in (1, 2, 3):
        k = MonotoneMap(
            face_poset(n - 1),
            face_poset(n),
            {mu: Operator(n, mu.values) for mu in face_poset(n - 1).elements},
        )
        r = is_dwyer(k)
        assert r is not None
        assert len(r.source) == len(face_poset(n)) - 1
        top = identity(n)
        assert r(top) == identity(n - 1)


def test_is_dwyer_matches_cosieve_search():
    # every injective monotone map from a poset of at most 3 elements into
    # one of at most 5: the retraction built on the up-closure of the image
    # is the one the search over all cosieves finds first, or both are None
    maps = dwyer = 0
    for p in all_posets(3):
        for q in all_posets(5):
            for values in itertools.permutations(q.elements, len(p)):
                mapping = dict(zip(p.elements, values))
                if not all(leq(q, mapping[a], mapping[b]) for a, b in p.strict_pairs()):
                    continue
                k = MonotoneMap(p, q, mapping)
                got, want = is_dwyer(k), reference_is_dwyer(k)
                maps += 1
                if want is None:
                    assert got is None
                    continue
                dwyer += 1
                # the cosieve W is the retraction's source
                assert got.source.elements == want.source.elements
                assert got.source.same_as(want.source) and got.target is p
                assert got.indices == want.indices
    # 88 of these maps leave the empty poset, one into each target
    assert (maps, dwyer) == (8946, 822)


def test_pushout_along_identity_is_cylinder():
    p = wedge_poset()
    cyl = product_poset(p, chain_poset(1))
    bottom = cylinder_end(p, cyl, 0)
    po = poset_pushout(bottom, MonotoneMap(p, p, {e: e for e in p.elements}))
    assert poset_isomorphic(po.poset, cyl)


def test_pushout_wedge_onto_chain():
    p = wedge_poset()
    r = FinPoset(["a'", "b'", "c'"], [("a'", "b'"), ("b'", "c'")])
    phi = MonotoneMap(p, r, {"a": "a'", "b": "b'", "c": "c'"})
    cyl = product_poset(p, chain_poset(1))
    po = poset_pushout(cylinder_end(p, cyl, 0), phi)
    assert len(po.poset) == 6
    longest = max(len(c) for c in po.poset.chains())
    assert longest == 4
    tops = [c for c in po.poset.chains() if len(c) == 4]
    assert tops == [(("r", "a'"), ("r", "b'"), ("r", "c'"), ("q", ("c", 1)))]


def test_pushout_cosieve_cone():
    p = wedge_poset()
    cyl = product_poset(p, chain_poset(1))
    top = cylinder_end(p, cyl, 1)
    with pytest.raises(ValueError):
        poset_pushout(top, MonotoneMap(p, singleton_poset(0), {e: 0 for e in p.elements}))


def test_poset_isomorphism_search():
    # posets compared through their nerves: the cell bijection that
    # find_isomorphism returns restricts on vertices to an order isomorphism
    assert poset_isomorphic(chain_poset(2), FinPoset("xyz", [("z", "y"), ("y", "x")]))
    assert not poset_isomorphic(chain_poset(2), FinPoset("xyz", [("x", "y")]))
    w = wedge_poset()
    p = chain_poset(1)
    a, b = product_poset(w, p), product_poset(p, w)
    na, nb = nerve(a), nerve(b)
    iso = find_isomorphism(na, nb)
    assert iso is not None
    la, lb = chain_labels(na), chain_labels(nb)
    vertex = {la[c][0]: lb[iso[c]][0] for c in na.cells if na.cells[c].dim == 0}
    assert len(vertex) == 6 and set(vertex.values()) == set(b.elements)
    assert all(
        (leq(a, x, y) and x != y) == (leq(b, vertex[x], vertex[y]) and vertex[x] != vertex[y])
        for x in a.elements
        for y in a.elements
    )


def test_poset_enumeration_counts():
    # the numbers of unlabelled posets on 0..7 elements (OEIS A000112)
    by_size = {}
    for p in all_posets(7):
        by_size.setdefault(len(p), []).append(p)
    assert [len(by_size.get(n, [])) for n in range(8)] == [1, 1, 2, 5, 16, 63, 318, 2045]
    for n in range(6):
        nerves = [nerve(p) for p in by_size[n]]
        for i, a in enumerate(nerves):
            for b in nerves[i + 1 :]:
                assert not is_isomorphic(a, b)


def _pairs(posets):
    return [(p.elements, p.strict_pairs()) for p in posets]


def test_enumeration_matches_the_search_over_every_relabelling():
    # the same posets in the same order as keying each candidate by its
    # least relation over all n! relabellings; the list for 6 holds the
    # list for every smaller size as its prefix
    ours = all_posets(6)
    assert len(ours) == 406
    assert _pairs(ours) == _pairs(all_posets_by_relabelling(6))
    for n in range(6):
        assert _pairs(all_posets(n)) == _pairs(ours[: len(all_posets(n))])


def test_canonical_key_is_invariant_and_separates_classes():
    # three seeded relabellings of each poset give its key, and the 406
    # classes with at most six elements have 406 keys
    rng = random.Random(31)
    keys = set()
    for p in all_posets(6):
        n, rel = len(p), p.strict_pairs()
        key = _canonical_key(n, rel)
        for _ in range(3):
            perm = rng.sample(range(n), n)
            moved = frozenset((perm[a], perm[b]) for a, b in rel)
            assert _canonical_key(n, moved) == key
        keys.add(key)
    assert len(keys) == 406


def test_compose_monotone():
    f = MonotoneMap(chain_poset(1), chain_poset(2), {0: 0, 1: 2})
    g = MonotoneMap(chain_poset(2), chain_poset(1), {0: 0, 1: 0, 2: 1})
    h = compose_monotone(f, g)
    assert (h.source, h.target, h.indices) == (f.source, g.target, [0, 1])
    # 1 goes to 2, then to 2: the tables compose in order
    h = compose_monotone(f, MonotoneMap(chain_poset(2), chain_poset(2), {0: 0, 1: 2, 2: 2}))
    assert [h(e) for e in h.source.elements] == [0, 2]


def _same_map(got, want):
    assert got.source is want.source and got.target is want.target
    assert got.indices == want.indices


def test_maps_built_from_tables_match_the_element_route():
    # pushout legs, composites and Dwyer retractions, built from their
    # index tables, against the maps built from element dicts: the same
    # source, target and table; and cylinder ends at both levels, built
    # from their elements, against the numbering product_poset states.
    # Over the posets of every constructor, with the cone of each, and the
    # lemma suite's last-face embeddings; each span (k, phi) comes with a
    # map into k's target to compose with the pushout's leg out of it
    spans, ends, composites = [], [], []
    for p in _posets_of_every_constructor():
        cyl = product_poset(p, chain_poset(1))
        k, back = cylinder_end(p, cyl, 0), cylinder_end(p, cyl, 1)
        for level, end in enumerate((k, back)):
            assert end.source is p and end.target is cyl
            assert end.indices == [2 * i + level for i in range(len(p))]
        cone = MonotoneMap(p, singleton_poset("apex"), {e: "apex" for e in p.elements})
        spans.append((k, cone, back))
        ends += [k, back]
    for _, i0, k, phi in verify._dwyer_triples():
        spans += [(i0, phi, i0), (k, phi, k)]
        ends += [i0, k]
    for n in (1, 2, 3):
        p = face_poset(n - 1)
        composites.append((cylinder_end(p, product_poset(p, chain_poset(1)), 0), psi(n)))
    for k, phi, back in spans:
        q, r = k.target, phi.target
        v = poset_pushout(k, phi)
        glued = {k(e): phi(e) for e in k.source.elements}
        new = [("q", x) for x in q.elements if x not in glued]
        assert v.poset.elements == tuple(("r", y) for y in r.elements) + tuple(new)
        ambient = {x: ("r", glued[x]) if x in glued else ("q", x) for x in q.elements}
        _same_map(v.leg_ambient, MonotoneMap(q, v.poset, ambient))
        _same_map(v.leg_other, MonotoneMap(r, v.poset, {y: ("r", y) for y in r.elements}))
        composites.append((back, v.leg_ambient))
    for f, g in composites:
        want = MonotoneMap(f.source, g.target, {e: g(f(e)) for e in f.source.elements})
        _same_map(compose_monotone(f, g), want)
    retractions = 0
    for k in ends:
        got, want = is_dwyer(k), reference_is_dwyer(k)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.source.elements == want.source.elements
            assert got.source.same_as(want.source) and got.target is want.target
            assert got.indices == want.indices
            retractions += 1
    assert len(spans) >= 100 and len(composites) >= 100 and retractions >= 100


def test_from_indices_refuses_a_table_that_is_no_monotone_map():
    p, q = chain_poset(2), FinPoset("xy", [("x", "y")])
    with pytest.raises(ValueError, match=r"^2 indices for 3 elements$"):
        MonotoneMap.from_indices(p, q, [0, 1])
    with pytest.raises(ValueError, match=r"^2 sent to index 2, outside the target poset$"):
        MonotoneMap.from_indices(p, q, [0, 1, 2])
    with pytest.raises(ValueError, match=r"^1 sent to index -1, outside the target poset$"):
        MonotoneMap.from_indices(p, q, [0, -1, 1])
    # the element constructor's message for the same map
    with pytest.raises(ValueError) as want:
        MonotoneMap(p, q, {0: "y", 1: "x", 2: "y"})
    with pytest.raises(ValueError) as got:
        MonotoneMap.from_indices(p, q, [1, 0, 1])
    assert str(got.value) == str(want.value) == "not monotone on 0 < 1"


def test_monotone_map_keeps_one_table_and_sends_only_its_source():
    p, q = chain_poset(1), FinPoset("uv", [("u", "v")])
    # the value for 5, outside the source, is not kept
    phi = MonotoneMap(p, q, {0: "u", 1: "v", 5: "u"})
    assert phi.indices == [0, 1] and not hasattr(phi, "mapping")
    assert [phi(e) for e in p.elements] == ["u", "v"]
    with pytest.raises(KeyError):
        phi(5)


def test_chain_poset_is_the_order_on_integers():
    for n in range(6):
        p = chain_poset(n)
        assert p.elements == tuple(range(n + 1))
        assert p.strict_pairs() == {(i, j) for i in p.elements for j in p.elements if i < j}


def test_face_poset_is_image_containment():
    for n in range(5):
        p = face_poset(n)
        assert len(p) == 2 ** (n + 1) - 1
        want = {
            (a, b)
            for a in p.elements
            for b in p.elements
            if a != b and set(a.values) <= set(b.values)
        }
        assert p.strict_pairs() == want


def test_product_poset_is_componentwise():
    small = all_posets(3)
    for p in small:
        for q in small:
            pq = product_poset(p, q)
            assert pq.elements == tuple((a, b) for a in p.elements for b in q.elements)
            want = {
                (x, y)
                for x in pq.elements
                for y in pq.elements
                if x != y and leq(p, x[0], y[0]) and leq(q, x[1], y[1])
            }
            assert pq.strict_pairs() == want


def _warshall(n, rel):
    reach = [[(a, b) in rel for b in range(n)] for a in range(n)]
    for k in range(n):
        for a in range(n):
            if reach[a][k]:
                for b in range(n):
                    reach[a][b] = reach[a][b] or reach[k][b]
    return reach


def _brute_force_chains(n, rel):
    """The strict chains of the order that rel generates on range(n),
    shortest first, lexicographic within a length: each sequence of
    distinct indices whose neighbours are related in rel's closure."""
    reach = _warshall(n, rel)
    return [
        c
        for length in range(1, n + 1)
        for c in itertools.permutations(range(n), length)
        if all(reach[a][b] for a, b in zip(c, c[1:]))
    ]


def test_chains_match_brute_force_over_random_acyclic_relations():
    # seeded relations, acyclic by a hidden ranking that element order does
    # not follow, on assorted labels: the nerve's rows, in cell id order,
    # and the chains are the sequences that increase along the relations'
    # closure, found without reading the poset's order table
    rng = random.Random(51)
    labels = ["x", 0, (1, 0), "y", 3, 2, (0,)]
    deep = 0
    for _ in range(150):
        n = rng.randint(0, 7)
        rank = rng.sample(range(n), n)
        rel = {
            (a, b)
            for a in range(n)
            for b in range(n)
            if rank[a] < rank[b] and rng.random() < 0.5
        }
        elements = rng.sample(labels, n)
        p = FinPoset(elements, [(elements[a], elements[b]) for a, b in rel])
        want = _brute_force_chains(n, rel)
        rows = nerve(p).vertex_rows()
        assert list(rows) == list(range(len(want))) and list(rows.values()) == want
        assert p.index_chains() == want
        assert p.chains() == [tuple(elements[i] for i in c) for c in want]
        deep += any(len(c) >= 4 for c in want)
    assert deep >= 30


def test_cylinder_end_reads_its_cylinders_elements():
    # an end sends e to (e, level) among cyl's own elements, so a cyl that
    # is not p x [1] raises, though [0, 2] is a monotone table into the
    # chain 0 < 1 < 2 < 3
    p = chain_poset(1)
    with pytest.raises(ValueError, match=r"^0 sent outside the target poset$"):
        cylinder_end(p, chain_poset(3), 0)
    cyl = product_poset(p, chain_poset(1))
    for level in (0, 1):
        end = cylinder_end(p, cyl, level)
        assert [cyl.elements[x] for x in end.indices] == [(e, level) for e in p.elements]


def test_closure_matches_warshall():
    rng = random.Random(7)
    cyclic = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        rel = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))}
        reach = _warshall(n, rel)
        if any(reach[a][b] and reach[b][a] for a in range(n) for b in range(n) if a != b):
            cyclic += 1
            with pytest.raises(ValueError, match="not antisymmetric"):
                FinPoset(range(n), rel)
            continue
        p = FinPoset(range(n), rel)
        want = {(a, b) for a in range(n) for b in range(n) if a != b and reach[a][b]}
        assert p.strict_pairs() == want
    assert cyclic >= 30


def test_import_needs_no_networkx():
    src = os.path.dirname(os.path.dirname(ssetforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, ssetforge; sys.exit('networkx' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _errors_under_hash_seeds(builds: str) -> list[list[str]]:
    """The ValueError message of each build, in a fresh interpreter per
    PYTHONHASHSEED 1 to 5."""
    src = os.path.dirname(os.path.dirname(ssetforge.__file__))
    code = f"""
from ssetforge.posets import FinPoset, MonotoneMap
from ssetforge.textio import parse_pmap, parse_poset
for build in ({builds}):
    try:
        build()
    except ValueError as err:
        print(err)
"""
    out = []
    for seed in range(1, 6):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        out.append(run.stdout.splitlines())
    return out


def test_cycle_message_ignores_hash_seed():
    cycle = "el a\nel b\nel c\nlt a b\nlt b c\nlt c a\n"
    builds = f"""lambda: FinPoset("abc", [("a", "b"), ("b", "c"), ("c", "a")]),
              lambda: parse_poset({cycle!r})"""
    want = "not antisymmetric: 'a' and 'b' are equivalent"
    for seed, lines in enumerate(_errors_under_hash_seeds(builds), start=1):
        assert lines == [want, want], seed


def test_monotone_message_ignores_hash_seed():
    # the chain a < b < c < d onto x < y by y, x, y, x fails on a < b and
    # on c < d; the message names the first pair in element order
    pmap = ("begin source\nel a\nel b\nel c\nel d\nlt a b\nlt b c\nlt c d\nend\n"
            "begin target\nel x\nel y\nlt x y\nend\n"
            "send a y\nsend b x\nsend c y\nsend d x\n")
    builds = f"""lambda: MonotoneMap(
                  FinPoset("abcd", [("a", "b"), ("b", "c"), ("c", "d")]),
                  FinPoset("xy", [("x", "y")]),
                  dict(zip("abcd", "yxyx"))),
              lambda: parse_pmap({pmap!r})"""
    want = "not monotone on 'a' < 'b'"
    for seed, lines in enumerate(_errors_under_hash_seeds(builds), start=1):
        assert lines == [want, want], seed

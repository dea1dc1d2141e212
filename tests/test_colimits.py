from __future__ import annotations

import random

import pytest

from ssetforge.colimits import (
    Congruence,
    collapse_subcomplex,
    congruence_from_pairs,
    disjoint_union,
    is_regular,
    kernel_congruence,
    product,
    pushout,
    quotient,
    regularity_witness,
)
from ssetforge.cylinders import surjective_in_degree
from ssetforge.operators import Operator, all_faces, compose, identity, make_face
from ssetforge.simplicial import (
    Cell,
    Simplex,
    SimplicialSet,
    boundary,
    generate,
    identity_map,
    representing_map,
    simplex_map,
    standard_simplex,
)
from ssetforge.textio import format_smap, format_sset

from reference import (
    SimplexCongruence,
    UnionPushout,
    all_operators,
    fibres,
    is_isomorphic,
    kernel_by_simplices,
    mediator,
    pair_ids,
    quotient_by_classes,
    reference_regularity_witness,
    simplex_map_from,
)
from test_pushout import _same_map, _same_pushout


# the cell of the standard 2-simplex that is its {0,1} face
EDGE = all_faces(2).index(make_face(2, 2))


def counts(space):
    return tuple(len(space.cell_ids(d)) for d in range(space.dim + 1))


def test_congruence_closure_exhaustive():
    x = standard_simplex(2)
    cong = Congruence(x)
    cong.merge(x.simplex(0), x.simplex(2))
    for q in range(x.dim + 1):
        for s in x.simplices(q):
            for t in x.simplices(q):
                if cong.find(s) != cong.find(t):
                    continue
                for p in range(x.dim + 1):
                    for op in all_operators(p, q):
                        assert cong.find(x.eval(s, op)) == cong.find(x.eval(t, op))


def test_vertex_merge():
    x = standard_simplex(1)
    cong = Congruence(x)
    cong.merge(x.simplex(0), x.simplex(1))
    assert cong.find(x.simplex(0)) == cong.find(x.simplex(1))


def test_quotient_interval_ends():
    x = standard_simplex(1)
    cong = Congruence(x)
    cong.merge(x.simplex(0), x.simplex(1))
    q = quotient(x, cong)
    assert counts(q.space) == (1, 1)
    e = q.space.simplex(q.space.cell_ids(1)[0])
    assert q.space.vertex_rows()[e.cell] == (0, 0)
    assert surjective_in_degree(q.projection, q.projection.target.dim)


def test_collapse_boundary_of_triangle():
    x = standard_simplex(2)
    q = collapse_subcomplex(x, sorted(boundary(2).cells))
    assert counts(q.space) == (1, 0, 1)
    top = q.space.simplex(q.space.cell_ids(2)[0])
    assert q.space.vertex_rows()[top.cell] == (0, 0, 0)
    # the boundary edge classes all project to the degenerate edge
    for eid in x.cell_ids(1):
        img = q.projection.apply(x.simplex(eid))
        assert img.is_degenerate


def test_collapsed_edge_is_regular_but_singular():
    x = standard_simplex(2)
    q = collapse_subcomplex(x, [EDGE])
    assert counts(q.space) == (2, 2, 1)
    assert not q.space.is_nonsingular()
    assert is_regular(q.space)
    top = q.space.simplex(q.space.cell_ids(2)[0])
    vs = q.space.vertex_rows()[top.cell]
    assert vs[0] == vs[1] != vs[2]


def test_pushout_two_triangles_along_edge():
    delta2 = standard_simplex(2)
    delta1 = standard_simplex(1)
    glue = simplex_map_from(delta2, delta2.simplex(EDGE), delta1)
    po = pushout(glue, glue)
    assert counts(po.space) == (4, 5, 2)
    assert po.left.is_degreewise_injective()
    assert po.right.is_degreewise_injective()
    # both legs injective: attached along f, as the reference quotient numbers it
    ref = UnionPushout(glue, glue)
    _same_pushout(po, ref)
    fold = mediator(po, identity_map(delta2), identity_map(delta2))
    _same_map(fold, ref.mediator(identity_map(delta2), identity_map(delta2)))
    assert surjective_in_degree(fold, fold.target.dim)
    assert not fold.is_degreewise_injective()
    with pytest.raises(ValueError, match="does not factor at cell"):
        v0 = delta2.cell_ids(0)[0]
        constant = simplex_map(delta2, Simplex(v0, Operator(0, (0, 0, 0))))
        mediator(po, identity_map(delta2), constant)


def test_pushout_of_identities_is_fold_target():
    x = boundary(2)
    po = pushout(identity_map(x), identity_map(x))
    assert is_isomorphic(po.space, x)
    ref = UnionPushout(identity_map(x), identity_map(x))
    _same_pushout(po, ref)
    med = mediator(po, identity_map(x), identity_map(x))
    assert med.is_isomorphism()
    _same_map(med, ref.mediator(identity_map(x), identity_map(x)))


def test_product_square():
    d1 = standard_simplex(1)
    pr = product(d1, d1)
    assert counts(pr.space) == (4, 5, 2)
    assert pr.space.is_nonsingular()
    assert is_regular(pr.space)
    assert surjective_in_degree(pr.first, pr.first.target.dim)
    assert surjective_in_degree(pr.second, pr.second.target.dim)
    # pairing separates cells
    seen = {(pr.first.assignment[c], pr.second.assignment[c]) for c in pr.space.cells}
    assert len(seen) == len(pr.space.cells)


def test_product_unit():
    for x in [standard_simplex(2), boundary(2)]:
        pr = product(x, standard_simplex(0))
        assert is_isomorphic(pr.space, x)
        assert pr.first.is_isomorphism()


def test_product_point_square():
    pt = standard_simplex(0)
    pr = product(pt, pt)
    assert counts(pr.space) == (1,)


def test_kernel_quotient_is_image():
    sphere = collapse_subcomplex(standard_simplex(2), sorted(boundary(2).cells)).space
    cover = representing_map(sphere, sphere.cell_ids(2)[0])
    assert surjective_in_degree(cover, cover.target.dim)
    ker = kernel_congruence(cover)
    q = quotient(cover.source, ker)
    assert is_isomorphic(q.space, sphere)
    # the cover identifies simplices, so its kernel is not the trivial congruence
    assert ker.canonical()


def test_kernel_from_cells_matches_simplex_walk(corpus, monkeypatch):
    # one merge per cell fixes the relation that merging every two
    # simplices with one image fixes: on the projections that build the
    # verify suite's small quotients, every desingularize and oracle eta on
    # those quotients and on the seed-0 members (the oracle's within its
    # bound), and b_nat, last_vertex and both product projections of
    # X x Delta[1] for the members with at most 12 cells
    from ssetforge import verify
    from ssetforge.desingularize import desingularize, oracle_desingularize
    from ssetforge.subdivision import b_nat, last_vertex

    projections = []

    def recorded(space, cong):
        res = quotient(space, cong)
        projections.append(res.projection)
        return res

    with monkeypatch.context() as m:
        m.setattr(verify, "quotient", recorded)
        small = verify._small_quotients()
    members = [e.space for e in corpus if len(e.space.cells) <= 60]
    maps = projections + [desingularize(x).eta for x in small + members]
    maps += [oracle_desingularize(x).eta for x in small + members if len(x.cells) <= 10]
    for x in members:
        if len(x.cells) <= 12:
            pr = product(x, standard_simplex(1))
            maps += [b_nat(x), last_vertex(x), pr.first, pr.second]
    degenerate = identified = 0
    for f in maps:
        got, want = kernel_congruence(f), kernel_by_simplices(f)
        assert got.killed_forms() == want.killed_forms()
        assert got.canonical() == want.canonical()
        degenerate += any(s.is_degenerate for s in f.assignment.values())
        identified += bool(want.killed_forms())
    assert len(projections) == len(small) == 102
    assert (len(maps), degenerate, identified) == (475, 256, 364)


def test_disjoint_union():
    x, inl, inr = disjoint_union(standard_simplex(1), standard_simplex(0))
    assert counts(x) == (3, 1)
    assert inl.is_degreewise_injective() and inr.is_degreewise_injective()


def test_regularity_basics():
    for n in range(4):
        assert is_regular(standard_simplex(n))
    assert is_regular(boundary(2))
    assert is_regular(boundary(3))
    # the circle has its lone edge attached to a single vertex at both ends
    circle = collapse_subcomplex(standard_simplex(1), sorted(boundary(1).cells)).space
    assert regularity_witness(circle) is not None
    sphere = collapse_subcomplex(standard_simplex(2), sorted(boundary(2).cells)).space
    assert not is_regular(sphere)


def _pushout_witness(space):
    """Regularity by definition: glue each cell's simplex along its last face.

    The first cell, in id order, for which the canonical map out of the
    pushout of the d-simplex and the subcomplex generated by the last face
    is not degreewise injective.
    """
    deltas = {}
    for cid in sorted(space.cells):
        d = space.cells[cid].dim
        if d == 0:
            continue
        dn = deltas.setdefault(d, standard_simplex(d))
        dn1 = deltas.setdefault(d - 1, standard_simplex(d - 1))
        top = space.simplex(cid)
        last = space.eval(top, make_face(d, d))
        sub, incl = generate(space, [last.cell])
        top_dn = dn.simplex(dn.cell_ids(d)[0])
        to_delta = simplex_map_from(dn, dn.eval(top_dn, make_face(d, d)), dn1)
        to_sub = simplex_map_from(sub, last, dn1)
        po = pushout(to_delta, to_sub)
        canonical = mediator(po, simplex_map_from(space, top, dn), incl)
        if not canonical.is_degreewise_injective():
            return cid
    return None


def _seeded_quotients(rng, count):
    """Quotients of small complexes under vertex, edge and triangle identifications."""
    bases = [
        standard_simplex(2),
        standard_simplex(3),
        boundary(3),
        disjoint_union(standard_simplex(2), standard_simplex(2))[0],
    ]
    out = []
    for k in range(count):
        x = bases[k % len(bases)]
        q = k // len(bases) % 3
        simplices = list(x.simplices(q))
        cells = [s for s in simplices if not s.is_degenerate]
        pairs = []
        for _ in range(rng.randint(1, 2)):
            # a cell against another cell, or against a degenerate simplex
            a = rng.choice(cells)
            b = rng.choice([s for s in simplices if s != a])
            pairs.append((a, b))
        out.append(quotient(x, congruence_from_pairs(x, pairs)).space)
    return out


def test_regularity_witness_matches_pushout_form(corpus):
    rng = random.Random(20200113)
    members = [e.space for e in corpus if len(e.space.cells) <= 200]
    small = [x for x in members if len(x.cells) <= 8]
    spaces = list(members)
    for x in members:
        keep = rng.sample(sorted(x.cells), min(len(x.cells), rng.randint(1, 6)))
        spaces.append(generate(x, keep)[0])
    for _ in range(10):
        spaces.append(product(rng.choice(small), rng.choice(small)).space)
    quotients = _seeded_quotients(rng, 160)
    spaces += quotients
    witnesses = [regularity_witness(x) for x in spaces]
    assert witnesses == [_pushout_witness(x) for x in spaces]
    assert len(quotients) >= 150
    assert sum(w is not None for w in witnesses) >= 50


def _renumbered(space, rng):
    """The space with its cells renumbered at random into a sparse range
    that holds negative ids, so that id order is not (dimension, id) order."""
    n = len(space.cells)
    new = dict(zip(space.cells, rng.sample(range(-3 * n, 4 * n), n)))
    return SimplicialSet({
        new[c]: Cell(cell.dim, tuple((new[t], sigma) for t, sigma in cell.faces))
        for c, cell in space.cells.items()
    })


def test_regularity_witness_matches_closure_walk(corpus):
    # the one-pass witness against the walk over each last face's closure:
    # members of four seeded corpora with seeded subcomplexes and products,
    # the oracle campaign's small quotients and their sd images, renumbered
    # copies of those, and the empty space
    from ssetforge.corpus import gen_corpus
    from ssetforge.subdivision import sd
    from ssetforge.verify import _small_quotients

    rng = random.Random(20201019)
    spaces = [SimplicialSet({})]
    for seed in range(4):
        members = [e.space for e in (gen_corpus(seed) if seed else corpus)]
        small = [x for x in members if len(x.cells) <= 8]
        spaces += members
        for x in members:
            keep = rng.sample(sorted(x.cells), min(len(x.cells), rng.randint(1, 6)))
            spaces.append(generate(x, keep)[0])
        for _ in range(5):
            spaces.append(product(rng.choice(small), rng.choice(small)).space)
    quotients = _small_quotients()
    spaces += quotients + [sd(q) for q in quotients]
    renumbered = [_renumbered(x, rng) for x in quotients]
    spaces += renumbered
    witnesses = [regularity_witness(x) for x in spaces]
    assert witnesses == [reference_regularity_witness(x) for x in spaces]
    assert sum(w is not None for w in witnesses) >= 100
    assert any(
        regularity_witness(x) is not None and x.cell_order() != tuple(sorted(x.cells))
        for x in renumbered
    )


def test_merge_matches_full_closure(corpus):
    # seeded merges, one to three at a time, on the small quotients of the
    # oracle campaign and the seed-0 members with <= 60 cells: the table of
    # cell forms gives the classes of the union-find closed by definition
    from ssetforge.verify import _small_quotients

    rng = random.Random(20200903)
    spaces = _small_quotients() + [e.space for e in corpus if len(e.space.cells) <= 60]
    merges = identified = 0
    for x in spaces:
        simplices = [list(x.simplices(q)) for q in range(max(x.dim, 0) + 1)]
        for _ in range(4):
            fast, full = Congruence(x), SimplexCongruence(x)
            for _ in range(rng.randint(1, 3)):
                pool = rng.choice([p for p in simplices if len(p) > 1] or simplices)
                a, b = rng.choice(pool), rng.choice(pool)
                fast.merge(a, b)
                full.merge_pushing_everything(a, b)
                merges += 1
                assert fast.canonical() == full.canonical()
            identified += bool(fast.canonical())
    assert merges >= 1000 and identified >= 400


def _forms(cong):
    # each cell's normal form, rebuilt from the killed forms: a cell that
    # is not killed is a first cell, its own form
    space, killed = cong.space, cong.killed_forms()
    return {c: killed[c] if c in killed else space.simplex(c) for c in space.cell_order()}


def _normal_forms_by_closure(cong):
    # each cell's class read off the full partition: a class with a
    # degenerate member (d, sigma), the least one, is the form of d
    # degenerated by sigma, and any other class is its first cell
    space = cong.space
    classes = cong.classes()
    forms = {}
    for c in sorted(space.cells, key=lambda c: (space.cells[c].dim, c)):
        members = classes[cong.find(space.simplex(c))]
        degenerate = [m for m in members if m.is_degenerate]
        if degenerate:
            d = min(degenerate, key=lambda m: (m.cell, m.degen.values))
            base = forms[d.cell]
            forms[c] = Simplex(base.cell, compose(d.degen, base.degen))
        else:
            forms[c] = members[0]
    return forms


def test_quotient_matches_classes_walk(corpus):
    # seeded merges on the small quotients of the oracle campaign and the
    # seed-0 members with <= 60 cells: the forms read off the table, and
    # those the reference reads off its witnesses, agree with the full
    # partition, and the quotient read from them is the classes-walk
    # quotient, cell for cell
    from ssetforge.verify import _small_quotients

    rng = random.Random(20201018)
    spaces = _small_quotients() + [e.space for e in corpus if len(e.space.cells) <= 60]
    congs = identified = degenerate = 0
    for x in spaces:
        simplices = [list(x.simplices(q)) for q in range(max(x.dim, 0) + 1)]
        for k in range(5):
            fast, full = Congruence(x), SimplexCongruence(x)
            for _ in range(k and rng.randint(1, 3)):
                pool = rng.choice([p for p in simplices if len(p) > 1] or simplices)
                a, b = rng.choice(pool), rng.choice(pool)
                fast.merge(a, b)
                full.merge_pushing_everything(a, b)
            want = _normal_forms_by_closure(full)
            assert _forms(fast) == want
            assert full.normal_forms() == want
            got, (ref, classes) = quotient(x, fast), quotient_by_classes(x, fast)
            assert format_sset(got.space) == format_sset(ref.space)
            assert format_smap(got.projection) == format_smap(ref.projection)
            assert fibres(got.projection) == classes
            congs += 1
            identified += len(got.space.cells) < len(x.cells)
            degenerate += any(f.is_degenerate for f in want.values())
    assert congs >= 700 and identified >= 500 and degenerate >= 300


def test_copy_carries_witnesses():
    # collapse the edge {0,1} of the 2-simplex onto its vertex 0, so that
    # its form is degenerate, then merge on in a copy
    x = standard_simplex(2)
    edge = x.simplex(EDGE)
    cong = Congruence(x)
    cong.merge(edge, Simplex(0, Operator(0, (0, 0))))
    other = cong.copy()
    assert other.killed_forms() == cong.killed_forms()
    other.merge(x.simplex(1), x.simplex(2))
    for c in (cong, other):
        forms = _forms(c)
        assert forms == _normal_forms_by_closure(c)
        assert forms[edge.cell].is_degenerate
    # the copy's merge leaves the original alone
    assert counts(quotient(x, cong).space) == (2, 2, 1)
    assert counts(quotient(x, other).space) == (1, 2, 1)


def _same_congruence(fast, ref):
    """The table and the union-find reference hold the same relation."""
    assert _forms(fast) == ref.normal_forms()
    assert fast.canonical() == ref.canonical()
    # each reference class lies in one class of fast, and no two
    # reference classes do
    keys = set()
    for members in ref.classes().values():
        first = members[0]
        assert all(fast.find(first) == fast.find(m) for m in members[1:])
        keys.add(fast.find(first))
    assert len(keys) == len(ref.classes())


def _table_holds_killed_cells(cong):
    # a form is kept exactly for each cell that is not a first cell: each
    # killed cell's form lies on a first cell before it in (dimension, id)
    # order, and ``_same_congruence`` matched every other cell with a
    # reference class of its own
    cells, killed = cong.space.cells, cong.killed_forms()
    assert set(cong._form) == set(killed) <= set(cells)
    for c, f in killed.items():
        assert f.cell not in killed and (cells[f.cell].dim, f.cell) < (cells[c].dim, c)


def test_forms_match_simplex_reference(corpus, monkeypatch):
    # seeded merges on the small quotients of the oracle campaign and the
    # seed-0 members with <= 60 cells, each followed by a comparison with
    # the union-find over simplices
    from ssetforge import colimits
    from ssetforge.verify import _small_quotients

    # whether each step comparing (f, alpha) with (g, beta), alpha != beta,
    # had f and g of one dimension
    real, sections = colimits.separating_section, []

    def spy(alpha, beta):
        sections.append(alpha.dst == beta.dst)
        return real(alpha, beta)

    monkeypatch.setattr(colimits, "separating_section", spy)
    rng = random.Random(20201019)
    spaces = _small_quotients() + [e.space for e in corpus if len(e.space.cells) <= 60]
    merges = 0
    for x in spaces:
        simplices = [list(x.simplices(q)) for q in range(max(x.dim, 0) + 1)]
        for _ in range(6):
            fast, ref = Congruence(x), SimplexCongruence(x)
            for _ in range(rng.randint(1, 3)):
                pool = rng.choice([p for p in simplices if len(p) > 1] or simplices)
                a, b = rng.choice(pool), rng.choice(pool)
                fast.merge(a, b)
                ref.merge(a, b)
                merges += 1
                _same_congruence(fast, ref)
                _table_holds_killed_cells(fast)
    assert merges >= 1500
    assert sum(sections) >= 60 and len(sections) - sum(sections) >= 600


def test_equal_rank_degeneracies_of_one_edge():
    # (e, s_0) ~ (e, s_1) for the edge {0,1} of the 2-simplex: face d_0
    # sends them to e and to vertex 1 degenerated, so e collapses onto
    # vertex 1, and with it vertex 0
    x = standard_simplex(2)
    a, b = Simplex(EDGE, Operator(1, (0, 0, 1))), Simplex(EDGE, Operator(1, (0, 1, 1)))
    fast, ref = Congruence(x), SimplexCongruence(x)
    fast.merge(a, b)
    ref.merge_pushing_everything(a, b)
    _same_congruence(fast, ref)
    forms = _forms(fast)
    assert forms[EDGE].is_degenerate and forms[0] == forms[1]
    assert counts(quotient(x, fast).space) == (2, 2, 1)


def test_long_form_chain_resolves():
    # merging vertices from the last one down chains every form through
    # the next lower vertex, longer than the interpreter's recursion limit
    n = 3000
    x = SimplicialSet({c: Cell(0, ()) for c in range(n)})
    cong = Congruence(x)
    for c in range(n - 1, 0, -1):
        cong.merge(x.simplex(c), x.simplex(c - 1))
    assert len(cong._form) == n - 1
    assert cong.find(x.simplex(n - 1)) == x.simplex(0)
    assert set(_forms(cong).values()) == {x.simplex(0)}


def _strip_by_runs(sx, sy):
    # a pair of equal-degree simplices as a jointly non-degenerate pair
    # degenerated by rho: rho collapses the runs of equal value pairs, and
    # each side keeps its value at the start of every run
    pairs = list(zip(sx.degen.values, sy.degen.values))
    starts, run = [], []
    for j, p in enumerate(pairs):
        if j == 0 or p != pairs[j - 1]:
            starts.append(j)
        run.append(len(starts) - 1)
    if len(starts) == len(pairs):
        return sx, sy, identity(run[-1])
    alpha = Operator(sx.degen.dst, tuple(pairs[k][0] for k in starts))
    beta = Operator(sy.degen.dst, tuple(pairs[k][1] for k in starts))
    return Simplex(sx.cell, alpha), Simplex(sy.cell, beta), Operator(run[-1], tuple(run))


def _product_per_pair(x, y):
    # the product enumeration with a repeat set built for every pair tried,
    # and every face of every pair evaluated on its own
    ids = {}
    for q in range(x.dim + y.dim + 1):
        for sx in x.simplices(q):
            rx = set(sx.degen.repeats())
            for sy in y.simplices(q):
                if rx & set(sy.degen.repeats()):
                    continue
                ids[(sx, sy)] = len(ids)
    cells = {}
    for (sx, sy), cid in ids.items():
        q = sx.degree
        faces = []
        for i in range(q + 1 if q else 0):
            ax, ay = x.eval(sx, make_face(i, q)), y.eval(sy, make_face(i, q))
            bx, by, rho = _strip_by_runs(ax, ay)
            faces.append((ids[(bx, by)], rho))
        cells[cid] = Cell(q, tuple(faces))
    return ids, cells


def test_product_matches_per_pair_enumeration(corpus):
    # every ordered pair of regular seed-0 members with <= 12 cells; the
    # small members of dimension <= 2 with a degenerate stored face against
    # each other and a slice of the oracle campaign's small quotients, both
    # ways round; and pairs of those quotients
    from ssetforge.verify import _small_quotients

    members = [e.space for e in corpus if e.regular and len(e.space.cells) <= 12]
    assert len(members) >= 15
    degenerate = [
        e.space for e in corpus
        if len(e.space.cells) <= 12 and e.space.dim <= 2
        and any(not sigma.is_identity for c in e.space.cells.values() for _, sigma in c.faces)
    ]
    assert len(degenerate) >= 3
    quotients = _small_quotients()[::6]
    pairs = [(x, y) for x in members for y in members]
    pairs += [(x, y) for x in degenerate for y in degenerate + quotients]
    pairs += [(y, x) for x in degenerate for y in quotients]
    pairs += list(zip(quotients, reversed(quotients)))
    for x, y in pairs:
        pr = product(x, y)
        ids, cells = _product_per_pair(x, y)
        assert list(pair_ids(pr).items()) == list(ids.items())
        assert list(pr.space.cells.items()) == list(cells.items())


def _product_factor_pairs(corpus):
    # ordered pairs of the seed-0 members with <= 12 cells, and pairs of a
    # slice of the oracle campaign's small quotients, each factor a fresh
    # copy with an empty row memo
    from ssetforge.verify import _small_quotients

    members = [e.space for e in corpus if len(e.space.cells) <= 12][:15]
    quotients = _small_quotients()[::6]
    pairs = [(x, y) for x in members for y in members]
    pairs += list(zip(quotients, reversed(quotients)))
    return [
        (SimplicialSet(x.cells), SimplicialSet(y.cells)) for x, y in pairs
    ]


def test_second_product_evaluates_nothing_on_its_factors(corpus, monkeypatch):
    # the factors' face rows are memoized on the factors: a first product
    # evaluates simplices of both, and a second product of the same pair,
    # the validation of its two projections included, evaluates none
    seen = []
    ev = SimplicialSet.eval

    def spy(self, s, op):
        seen.append(self)
        return ev(self, s, op)

    monkeypatch.setattr(SimplicialSet, "eval", spy)
    pairs = _product_factor_pairs(corpus)
    assert len(pairs) >= 200
    first = 0
    for x, y in pairs:
        seen.clear()
        pr = product(x, y)
        first += any(z is x or z is y for z in seen)
        seen.clear()
        again = product(x, y)
        assert not [z for z in seen if z is x or z is y]
        assert list(again.space.cells.items()) == list(pr.space.cells.items())
        assert again.first.assignment == pr.first.assignment
        assert again.second.assignment == pr.second.assignment
    assert first >= 200


def test_product_row_memo_holds_the_rows_it_asked_for(corpus):
    # after product(x, y) a factor's row memo holds the rows of its own
    # degenerate stored faces and those of the positive-degree simplices
    # of the product's pairs, all of degree <= dim x + dim y, and no other
    for x, y in _product_factor_pairs(corpus):
        before = [set(x._row_cache), set(y._row_cache)]
        pr = product(x, y)
        top = x.dim + y.dim
        for k, z in enumerate((x, y)):
            asked = {pair[k] for pair in pair_ids(pr) if pair[k].degree}
            assert set(z._row_cache) == before[k] | asked
            assert all(s.degree <= top for s in z._row_cache)
            if top:
                assert max(s.degree for s in z._row_cache) == top

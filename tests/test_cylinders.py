from collections import Counter
from dataclasses import replace
from itertools import product as cartesian

import pytest

from ssetforge import cylinders, verify
from ssetforge.colimits import collapse_subcomplex, is_regular, product
from ssetforge.corpus import gen_corpus
from ssetforge.cylinders import (
    _check_bundle,
    cylinder_reduction,
    dcr,
    embedded_sibling_pairs,
    identifies_embedded_siblings,
    injective_in_degree,
    pushout_comparison,
    representing_sharp,
    surjective_in_degree,
)
from ssetforge.desingularize import Certificate, desingularize, desingularized_comparison
from ssetforge.posets import (
    FinPoset,
    MonotoneMap,
    all_posets,
    chain_poset,
    compose_monotone,
    cylinder_end,
    face_poset,
    is_dwyer,
    nerve,
    nerve_map,
    product_poset,
    psi,
    sharp_map,
    singleton_poset,
)
from ssetforge.simplicial import (
    Cell,
    SimplicialMap,
    SimplicialSet,
    compose_maps,
    standard_simplex,
)
from ssetforge.subdivision import b_nat, last_vertex, sd
from ssetforge.textio import format_pmap, format_smap, format_sset
from ssetforge.verify import _small_quotients, prism_comparison

from reference import (
    chain_labels,
    find_isomorphism,
    fresh_cylinder_reduction,
    fresh_representing_sharp,
    injective_in_degree_by_simplices,
    is_isomorphic,
    leq,
    mediator,
    prism_row,
    product_cylinder_reduction,
    recursive_vertex_rows,
    surjective_in_degree_by_simplices,
)


def wedge_to_chain():
    p = FinPoset("abc", [("a", "b"), ("a", "c")])
    r = FinPoset(["a2", "b2", "c2"], [("a2", "b2"), ("b2", "c2")])
    return MonotoneMap(p, r, {"a": "a2", "b": "b2", "c": "c2"})


def circle_sharp():
    delta1 = standard_simplex(1)
    return sharp_map(collapse_subcomplex(delta1, [0, 1]).projection)


def terminal_map(p):
    apex = singleton_poset("apex")
    return MonotoneMap(p, apex, {e: "apex" for e in p.elements})


def test_identity_cylinder_is_the_prism():
    p = chain_poset(1)
    bundle = cylinder_reduction(MonotoneMap(p, p, {e: e for e in p.elements}))
    prism = product(nerve(p), standard_simplex(1)).space
    assert is_isomorphic(bundle.space, prism)
    assert is_isomorphic(bundle.reduced, nerve(product_poset(p, chain_poset(1))))
    assert bundle.reduction.is_isomorphism()


def test_prism_comparison_is_an_isomorphism():
    # the lemma suite's prism-nerve cases read NP x Delta[1] = N(P x [1])
    # off the map built from vertices; the search agrees on every poset
    posets = all_posets(4)
    assert len(posets) == 25
    for p in posets:
        f = prism_comparison(p)
        assert f.is_isomorphism()
        assert is_isomorphic(f.source, f.target)


def test_cylinder_legs_glue_correctly():
    bundle = cylinder_reduction(wedge_to_chain())
    front, back = bundle.front, bundle.back
    assert front.target is bundle.space and back.target is bundle.space
    assert front.is_degreewise_injective()
    assert back.is_degreewise_injective()
    # the two ends are disjoint in the glued prism
    front_cells = {s.cell for s in front.assignment.values()}
    back_cells = {s.cell for s in back.assignment.values()}
    assert not front_cells & back_cells


def test_wedge_to_chain_dimensions():
    bundle = cylinder_reduction(wedge_to_chain())
    assert bundle.space.dim == 2
    assert bundle.reduced.dim == 3


def test_wedge_to_chain_reduction_not_surjective_in_top_degree():
    bundle = cylinder_reduction(wedge_to_chain())
    cr = bundle.reduction
    assert injective_in_degree(cr, 0) and surjective_in_degree(cr, 0)
    assert not surjective_in_degree(cr, 3)
    # the missing chains already show up one and two degrees down
    assert not surjective_in_degree(cr, 1)
    assert not surjective_in_degree(cr, 2)
    assert all(injective_in_degree(cr, q) for q in range(4))


def test_wedge_to_chain_image_is_no_sieve():
    phi = wedge_to_chain()
    hit = {(phi(a), phi(b)) for a, b in phi.source.strict_pairs()}
    assert "c2" in {phi(e) for e in phi.source.elements}
    assert ("b2", "c2") not in hit


def test_wedge_to_chain_dcr_not_an_isomorphism():
    g, res = dcr(wedge_to_chain())
    assert res.certificate is not Certificate.UNCERTIFIED
    assert not g.is_isomorphism()


def test_collapsed_interval_cylinder_is_nonsingular_with_sibling_pair():
    bundle = cylinder_reduction(circle_sharp())
    t = bundle.space
    assert t.dim == 2
    assert t.is_nonsingular()
    g, res = dcr(circle_sharp(), bundle=bundle)
    # already non-singular, so nothing is collapsed
    assert len(res.quotient.cells) == len(t.cells)
    assert res.moves == []
    assert len(embedded_sibling_pairs(res.quotient, 2)) == 1
    assert len(embedded_sibling_pairs(res.quotient, 1)) == 1


def test_collapsed_interval_dcr_fails_in_positive_degrees():
    bundle = cylinder_reduction(circle_sharp())
    g, res = dcr(circle_sharp(), bundle=bundle)
    assert injective_in_degree(g, 0) and surjective_in_degree(g, 0)
    assert not injective_in_degree(g, 1)
    assert not injective_in_degree(g, 2)
    assert len(bundle.reduced.cell_ids(2)) == 3


def test_sibling_criterion_matches_injectivity():
    chain = chain_poset(2)
    identity = MonotoneMap(chain, chain, {e: e for e in chain.elements})
    for phi in (wedge_to_chain(), circle_sharp(), identity):
        bundle = cylinder_reduction(phi)
        g, res = dcr(phi, bundle=bundle)
        for q in range(1, bundle.space.dim + 1):
            assert injective_in_degree(g, q) == identifies_embedded_siblings(res.eta, q)


def _monotone_maps(max_size):
    # every monotone map between non-empty posets of at most max_size elements
    posets = [p for p in all_posets(max_size) if p.elements]
    for p, r in cartesian(posets, repeat=2):
        for images in cartesian(r.elements, repeat=len(p)):
            mapping = dict(zip(p.elements, images))
            if all(leq(r, mapping[a], mapping[b]) for a, b in p.strict_pairs()):
                yield MonotoneMap(p, r, mapping)


def _cylinder_maps(phi):
    # dcr, eta and the reduction and three legs of the cylinder of phi
    bundle = cylinder_reduction(phi)
    g, res = dcr(phi, bundle=bundle)
    return [g, res.eta, bundle.reduction, bundle.front, bundle.back, bundle.prism]


def test_degreewise_diagnostics_match_simplex_enumeration(corpus):
    # the cell-table criteria against evaluating the map on every simplex,
    # in every degree through one past the larger dimension
    phis = list(_monotone_maps(3))
    assert len(phis) == 476
    phis += [*_dcr_suite_maps(corpus), wedge_to_chain(), circle_sharp()]
    maps = [f for phi in phis for f in _cylinder_maps(phi)]
    for entry in corpus:
        if len(entry.space.cells) <= 60:
            lv = last_vertex(entry.space)
            maps += [b_nat(entry.space, sd_space=lv.source), lv]
    quotients = _small_quotients()
    assert len(quotients) == 102
    maps += [desingularize(x).eta for x in quotients]
    pairs, non_injective, non_surjective = 0, 0, 0
    for f in maps:
        # the face lemma: every image cell is some cell's non-degenerate image
        images = {s.cell for s in f.assignment.values()}
        assert images == {s.cell for s in f.assignment.values() if s.degen.is_identity}
        for q in range(max(f.source.dim, f.target.dim) + 2):
            injective, surjective = injective_in_degree(f, q), surjective_in_degree(f, q)
            assert injective == injective_in_degree_by_simplices(f, q)
            assert surjective == surjective_in_degree_by_simplices(f, q)
            pairs += 1
            non_injective += not injective
            non_surjective += not surjective
    assert len(maps) > 3000
    assert 0 < non_injective < pairs and 0 < non_surjective < pairs


def _other_legs(bundle, kind):
    # valid maps in place of the reduced legs: each the other's map, each
    # its own cells out of a copy of its source, or with its source and
    # target but other cells (R sent to one vertex of M, P through its
    # level-0 end)
    legs = bundle.reduced_front, bundle.reduced_back
    if kind == "swapped":
        return legs[::-1]
    if kind == "copied-source":
        return [SimplicialMap(SimplicialSet(f.source.cells), f.target, f.assignment) for f in legs]
    r, v = bundle.phi.target, bundle.poset
    point = MonotoneMap(r, v.poset, {e: v.leg_other(r.elements[0]) for e in r.elements})
    level0 = nerve_map(bundle.phi, bundle.back.source, bundle.front.source)
    return (
        nerve_map(point, bundle.front.source, bundle.reduced),
        compose_maps(level0, bundle.reduced_front),
    )


@pytest.mark.parametrize("kind", ["swapped", "copied-source", "other-cells"])
def test_check_bundle_names_the_leg_that_disagrees(kind):
    bundle = cylinder_reduction(wedge_to_chain())
    _check_bundle(bundle)
    front, back = _other_legs(bundle, kind)
    assert front != bundle.reduced_front and back != bundle.reduced_back
    with pytest.raises(RuntimeError, match="^reduction disagrees with the target-side leg$"):
        _check_bundle(replace(bundle, reduced_front=front))
    with pytest.raises(RuntimeError, match="^reduction disagrees with the free-end leg$"):
        _check_bundle(replace(bundle, reduced_back=back))


def _sibling_pairs_by_scan(space, q):
    # the quadratic scan over all pairs of embedded q-cells, which
    # embedded_sibling_pairs replaced by grouping on vertex rows
    rows = recursive_vertex_rows(space)
    cells = [c for c in space.cell_ids(q) if len(set(rows[c])) == len(rows[c])]
    out = []
    for i, a in enumerate(cells):
        for b in cells[i + 1 :]:
            if rows[a] == rows[b]:
                out.append((a, b))
    return out


def test_sibling_pairs_match_quadratic_scan(corpus):
    # the same list in the same order, for every degree of the seed-0
    # members and of their desingularizations
    spaces = [e.space for e in corpus]
    spaces += [desingularize(x).quotient for x in spaces]
    found = 0
    for x in spaces:
        for q in range(x.dim + 1):
            want = _sibling_pairs_by_scan(x, q)
            assert embedded_sibling_pairs(x, q) == want
            found += len(want)
    assert found > 0


# The cone over N(P) is the cylinder of the terminal map P -> *.


def test_cone_of_point_is_an_interval():
    cone = cylinder_reduction(terminal_map(singleton_poset(0))).space
    assert is_isomorphic(cone, standard_simplex(1))


def test_cone_raises_dimension_by_one():
    for n in range(3):
        assert cylinder_reduction(terminal_map(chain_poset(n))).space.dim == n + 1


def test_cone_rejects_non_nerves():
    # the cone's leg into the apex accepts only the nerve of P itself
    phi = terminal_map(singleton_poset(0))
    two_gon = sd(collapse_subcomplex(standard_simplex(1), [0, 1]).space)
    with pytest.raises(ValueError):
        nerve_map(phi, two_gon)
    delta1 = standard_simplex(1)
    with pytest.raises(ValueError):
        nerve_map(phi, collapse_subcomplex(delta1, [0, 1]).space)


def test_reduced_cone_is_the_nerve_of_the_poset_cone():
    p = FinPoset("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    bundle = cylinder_reduction(terminal_map(p))
    q = bundle.reduced.poset
    assert is_isomorphic(bundle.reduced, nerve(q))
    # P plus one apex, comparable with each element of P
    assert len(q) == 5 and len(q.strict_pairs()) == len(p.strict_pairs()) + 4
    apex = bundle.poset.leg_other("apex")
    assert all(leq(q, apex, e) or leq(q, e, apex) for e in q.elements)


def test_desingularized_cone_is_the_reduced_cone():
    for p in all_posets(3):
        if not p.elements:
            continue
        phi = terminal_map(p)
        bundle = cylinder_reduction(phi)
        g, res = dcr(phi, bundle=bundle)
        assert g.is_isomorphism()
        # the same statement on the cone itself
        out = desingularize(bundle.space)
        assert out.certificate is not Certificate.UNCERTIFIED
        assert is_isomorphic(out.quotient, bundle.reduced)


def test_cones_over_six_element_posets_reduce_by_an_isomorphism():
    # the next population past the cone/ cases, which stop at five
    # elements: each of the 318 cones desingularizes by forced moves alone
    sixes = [p for p in all_posets(6) if len(p) == 6]
    assert len(sixes) == 318
    for p in sixes:
        g, res = dcr(terminal_map(p))
        assert g.is_isomorphism()
        assert res.certificate is Certificate.ZIPPER


def test_cone_reduction_is_degreewise_surjective():
    p = FinPoset("abc", [("a", "b"), ("a", "c")])
    bundle = cylinder_reduction(terminal_map(p))
    assert surjective_in_degree(bundle.reduction, bundle.reduction.target.dim)


def test_representing_sharp_cylinders_certify_and_reduce():
    collapsed = collapse_subcomplex(standard_simplex(2), [3]).space
    assert is_regular(collapsed)
    for x in (standard_simplex(2), collapsed):
        for cid in x.cells:
            phi = representing_sharp(x, x.simplex(cid))
            g, res = dcr(phi)
            assert res.certificate is not Certificate.UNCERTIFIED
            assert g.is_isomorphism()


def test_pushout_comparison_matches_cylinder_route():
    phi = wedge_to_chain()
    p = phi.source
    cyl = product_poset(p, chain_poset(1))
    po, v, comp, other = pushout_comparison(cylinder_end(p, cyl, 0), phi)
    bundle = cylinder_reduction(phi)
    assert is_isomorphic(po.space, bundle.space)
    assert is_isomorphic(nerve(v.poset), bundle.reduced)
    # the comparison restricts to the leg out of R on the glued-in target,
    # and to N(leg_ambient) on the prism
    assert compose_maps(po.right, comp) == other
    assert compose_maps(po.left, comp) == nerve_map(v.leg_ambient, po.left.source, comp.target)
    g_here, _ = desingularized_comparison(comp)
    g_there, _ = dcr(phi, bundle=bundle)
    assert g_here.is_isomorphism() == g_there.is_isomorphism()


@pytest.mark.parametrize("leg", ["leg_other", "leg_ambient"])
def test_pushout_comparison_names_the_vertex_its_legs_disagree_on(monkeypatch, leg):
    # the cone over a chain: every vertex (e, 0) of the prism is glued to
    # the apex, and one leg of the poset pushout is changed on one element
    # it sends to the apex, to a vertex of the free end
    phi = terminal_map(chain_poset(1))
    apex = cylinder_reduction(phi).front.assignment[0].cell
    build = cylinders.poset_pushout

    def tampered(k, phi):
        v = build(k, phi)
        changed = getattr(v, leg)
        e = "apex" if leg == "leg_other" else (0, 0)
        changed.indices[changed.source.elements.index(e)] = v.poset.elements.index(("q", (0, 1)))
        return v

    monkeypatch.setattr(cylinders, "poset_pushout", tampered)
    with pytest.raises(ValueError, match=f"^vertex {apex} of the pushout is sent to both "):
        cylinder_reduction(phi)


def test_pushout_into_nerve_takes_only_nerves_of_its_maps_posets():
    # the legs swapped: each leg's source nerve is the nerve of the other
    # map's source; a map into another poset's nerve is refused as well
    phi = wedge_to_chain()
    p = phi.source
    po, v, comp, _ = pushout_comparison(cylinder_end(p, product_poset(p, chain_poset(1)), 0), phi)
    assert cylinders.pushout_into_nerve(po, comp.target, v.leg_ambient, v.leg_other) == comp
    for side, legs, target in (("source", (v.leg_other, v.leg_ambient), comp.target),
                               ("target", (v.leg_ambient, v.leg_other), nerve(phi.target))):
        message = f"^the {side} nerve given is not the nerve of the map's {side}$"
        with pytest.raises(ValueError, match=message):
            cylinders.pushout_into_nerve(po, target, *legs)


@pytest.mark.parametrize("triple", verify._dwyer_triples(), ids=lambda t: t[0])
def test_cosieve_square_names_the_vertex_its_legs_disagree_on(monkeypatch, triple):
    # the full pushout's leg out of Q is changed on the first element of
    # k(P), whose vertex of NQ is glued to the vertex ("r", phi(e)) of the
    # cosieve pushout's nerve: the square's comparison names that vertex
    _, _, k, phi = triple
    e = k.source.elements[0]
    want = ("r", phi(e))
    build_poset, build = verify.poset_pushout, verify.pushout
    changed, squares = [], []

    def tampered(k_, phi_):
        v = build_poset(k_, phi_)
        if k_ is k:
            changed.append(next(x for x in v.poset.elements if x != want))
            v.leg_ambient.indices[k.indices[0]] = v.poset.elements.index(changed[0])
        return v

    def recorded(f, g):
        squares.append(build(f, g))
        return squares[-1]

    assert verify._cosieve_extension_square(k, phi)
    monkeypatch.setattr(verify, "poset_pushout", tampered)
    monkeypatch.setattr(verify, "pushout", recorded)
    with pytest.raises(ValueError) as err:
        verify._cosieve_extension_square(k, phi)
    (po,) = squares
    t = po.left.assignment[k.target.elements.index(k(e))].cell
    assert str(err.value) == (
        f"vertex {t} of the pushout is sent to both {want!r} and {changed[0]!r}"
    )


def test_cosieve_square_maps_have_the_element_maps_tables(monkeypatch):
    # into_w, j and glue are built from index tables; each has the table of
    # the map the element route builds: k onto W, the inclusion of W in Q,
    # and the inclusion of W u_P R in Q u_P R
    seen = {"pushed": [], "nerve maps": []}
    build_poset, build_map, build_into = (
        verify.poset_pushout, verify.nerve_map, verify.pushout_into_nerve
    )

    def poset_pushout(k_, phi_):
        seen["pushed"].append(k_)
        return build_poset(k_, phi_)

    def nerve_map(phi_, *nerves):
        seen["nerve maps"].append(phi_)
        return build_map(phi_, *nerves)

    def pushout_into_nerve(po, target, left, right):
        seen["glue"] = right
        return build_into(po, target, left, right)

    for name, patched in (("poset_pushout", poset_pushout), ("nerve_map", nerve_map),
                          ("pushout_into_nerve", pushout_into_nerve)):
        monkeypatch.setattr(verify, name, patched)
    for _, _, k, phi in verify._dwyer_triples():
        seen["pushed"].clear()
        seen["nerve maps"].clear()
        assert verify._cosieve_extension_square(k, phi)
        (into_w, full), (j, _), glue = seen["pushed"], seen["nerve maps"], seen["glue"]
        p, q, w = k.source, k.target, k.dwyer.source
        assert full is k and into_w.target is w and j.target is q
        assert into_w.indices == MonotoneMap(p, w, {e: k(e) for e in p.elements}).indices
        assert j.indices == MonotoneMap(w, q, {e: e for e in w.elements}).indices
        inclusion = MonotoneMap(glue.source, glue.target, {e: e for e in glue.source.elements})
        assert glue.indices == inclusion.indices


def test_dwyer_factorization_implication():
    # factor the last-face embedding through its cylinder cosieve
    n = 2
    p = face_poset(n - 1)
    w = product_poset(p, chain_poset(1))
    i0 = cylinder_end(p, w, 0)
    k = compose_monotone(i0, psi(n))
    assert is_dwyer(k) is not None
    targets = [
        MonotoneMap(p, p, {e: e for e in p.elements}),
        MonotoneMap(p, chain_poset(1), {e: (0 if len(e.values) == 1 else 1) for e in p.elements}),
    ]
    for phi in targets:
        _, _, comp_w, _ = pushout_comparison(i0, phi)
        gw, _ = desingularized_comparison(comp_w)
        _, _, comp_q, _ = pushout_comparison(k, phi)
        gq, _ = desingularized_comparison(comp_q)
        if gw.is_isomorphism():
            assert gq.is_isomorphism()


def _dcr_suite_pairs(corpus):
    # the (member, simplex) pairs of the dcr suite on this corpus
    from ssetforge.verify import _DCR_ALL_SIMPLEX_CELLS, _DCR_MAX_CELLS

    for entry in corpus:
        x = entry.space
        if not entry.regular or len(x.cells) > _DCR_MAX_CELLS:
            continue
        for q in range(x.dim + 1):
            for y in x.simplices(q):
                if not y.is_degenerate or len(x.cells) <= _DCR_ALL_SIMPLEX_CELLS:
                    yield x, y


def _dcr_suite_maps(corpus):
    # the maps of the dcr suite: sharps of the representing maps of every
    # simplex it tests
    for x, y in _dcr_suite_pairs(corpus):
        yield representing_sharp(x, y)


@pytest.mark.parametrize("seed", [0, 1])
def test_shared_source_side_matches_fresh_route(corpus, seed):
    # every pair of the dcr suite on seeds 0 and 1, degenerate simplices
    # too: the cylinder over the shared Delta[q]# is the one built with a
    # fresh Delta[q]#, nerves and ends, byte for byte
    corpus = corpus if seed == 0 else gen_corpus(seed)
    sources = {}
    pairs = 0
    for x, y in _dcr_suite_pairs(corpus):
        phi, ref = representing_sharp(x, y), fresh_representing_sharp(x, y)
        # one source poset per degree, shared by every map of that degree
        assert sources.setdefault(y.degree, phi.source) is phi.source
        assert ref.source is not phi.source
        assert format_pmap(phi) == format_pmap(ref)
        new, old = cylinder_reduction(phi), fresh_cylinder_reduction(ref)
        (g_new, res_new), (g_old, res_old) = dcr(phi, bundle=new), dcr(ref, bundle=old)
        spaces = [(new.space, old.space), (new.reduced, old.reduced),
                  (res_new.quotient, res_old.quotient)]
        maps = [(new.reduction, old.reduction), (new.front, old.front),
                (new.back, old.back), (g_new, g_old)]
        assert all(format_sset(a) == format_sset(b) for a, b in spaces)
        assert all(format_smap(a) == format_smap(b) for a, b in maps)
        pairs += 1
    assert pairs >= 200
    assert len(sources) > 1


def test_nerve_prism_matches_product_prism(corpus):
    # all 88 cones over posets with at most five elements and every map of
    # the seed-0 dcr suite: the cylinder glued from the nerve of P x [1] is
    # the one glued from the product NP x Delta[1], up to cell numbering,
    # and its reduced front is the nerve map of the pushout's leg out of R
    maps = [terminal_map(p) for p in all_posets(5)]
    assert len(maps) == 88
    maps += list(_dcr_suite_maps(corpus))
    assert len(maps) >= 88 + 200
    for phi in maps:
        new = cylinder_reduction(phi)
        old, pr, po_old = product_cylinder_reduction(phi)
        # the isomorphism T_old -> T_new out of the pushout: the prisms
        # match cell for cell by vertex rows, and NR goes to itself
        prism = new.prism.source
        chains = {label: cid for cid, label in chain_labels(prism).items()}
        rows = SimplicialMap(
            pr.space, prism, {c: prism.simplex(chains[prism_row(pr, c)]) for c in pr.space.cells}
        )
        assert rows.is_isomorphism()
        assert old.front.source.same_presentation(new.front.source)
        iso = mediator(po_old, compose_maps(rows, new.prism), new.front)
        assert iso.is_isomorphism()
        # M is built the same way on both sides, so cr hits the same
        # simplices of it, as often
        assert format_sset(new.reduced) == format_sset(old.reduced)
        assert Counter(new.reduction.assignment.values()) == Counter(
            old.reduction.assignment.values()
        )
        # the reduced front is the nerve map cr was mediated from, kept
        # rather than built again: it equals a fresh one
        fresh = nerve_map(new.poset.leg_other, new.front.source, new.reduced)
        assert new.reduced_front.assignment == fresh.assignment
        verdicts = []
        for bundle in (new, old):
            g, res = dcr(phi, bundle=bundle)
            criterion = all(
                injective_in_degree(g, q) == identifies_embedded_siblings(res.eta, q)
                for q in range(1, bundle.space.dim + 1)
            )
            verdicts.append((g.is_isomorphism(), res.certificate, criterion))
        assert verdicts[0] == verdicts[1]


def _with_face(space, cid, i, target):
    # the cell table with face i of cell cid sent to another cell of the
    # same dimension; the face identities may fail, so it is not validated
    cells = dict(space.cells)
    faces = list(cells[cid].faces)
    faces[i] = (target, faces[i][1])
    cells[cid] = Cell(cells[cid].dim, tuple(faces))
    out = SimplicialSet.__new__(SimplicialSet)
    out.cells = cells
    return out


def test_find_isomorphism_on_largest_dcr_cylinders(corpus):
    # the five largest T of the seed-0 dcr suite, glued from the product
    # prism and from the nerve prism; the search must not branch over
    # every assignment of vertices
    bundles = [cylinder_reduction(phi) for phi in _dcr_suite_maps(corpus)]
    largest = sorted(bundles, key=lambda b: -len(b.space.cells))[:5]
    assert len(largest[0].space.cells) > 900
    for new in largest:
        old, _, _ = product_cylinder_reduction(new.phi)
        x, y = old.space, new.space
        m = find_isomorphism(x, y)
        assert m is not None and sorted(m.values()) == sorted(y.cells)
        for cid, cell in x.cells.items():
            assert y.cells[m[cid]] == Cell(cell.dim, tuple((m[t], op) for t, op in cell.faces))
        top = max(y.cells, key=lambda c: (y.cells[c].dim, c))
        t, _ = y.cells[top].faces[0]
        other = next(c for c in y.cells if c != t and y.cells[c].dim == y.cells[t].dim)
        assert find_isomorphism(x, _with_face(y, top, 0, other)) is None

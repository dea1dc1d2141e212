"""Pushouts attached along an injective leg, against the quotient of the
disjoint union that defines them (``reference.UnionPushout``).

Every caller that builds a pushout is run with ``pushout`` replaced by a
wrapper that builds both and asserts the same cells, classes (each
cell's members, read off the legs and off the reference's projection)
and legs, cell for cell and id for id.  Every map out
of a pushout that the program builds is built by ``pushout_into_nerve``
from its vertex images, not as a mediator, so that is wrapped as well,
and each map it returns is asserted equal to the reference pushout's
mediator of the nerves of its two monotone maps: the cylinders'
comparisons and the lemma suite's cosieve squares alike.
"""

from __future__ import annotations

import pytest

from ssetforge import colimits, corpus, cylinders, verify
from ssetforge.cli import main
from ssetforge.desingularize import desingularized_comparison
from ssetforge.operators import Operator
from ssetforge.posets import (
    FinPoset,
    MonotoneMap,
    all_posets,
    nerve_map,
    singleton_poset,
)
from ssetforge.simplicial import (
    Simplex,
    SimplicialMap,
    compose_maps,
    standard_simplex,
)
from ssetforge.subdivision import b_nat
from ssetforge.textio import format_pmap, format_sset

import reference
from reference import UnionPushout, pushout_classes, simplex_map_from


def _same_map(new: SimplicialMap, old: SimplicialMap) -> None:
    assert new.assignment == old.assignment
    assert list(new.assignment) == list(old.assignment)


def _same_pushout(new, old) -> None:
    assert new.space.cells == old.space.cells
    assert list(new.space.cells) == list(old.space.cells)
    assert pushout_classes(new) == old.classes
    _same_map(new.left, old.left)
    _same_map(new.right, old.right)


@pytest.fixture
def checked(monkeypatch):
    """Make every caller's pushout also build the reference and compare,
    and every map ``pushout_into_nerve`` builds out of one check against
    the reference mediator; yields the number of pushouts and of
    comparisons compared so far."""
    seen = {"pushouts": 0, "comparisons": 0}
    build, into_nerve = colimits.pushout, cylinders.pushout_into_nerve
    # each pushout built and not yet compared, by id, with its reference
    built: dict[int, tuple] = {}

    def pushout(f, g):
        new, old = build(f, g), UnionPushout(f, g)
        _same_pushout(new, old)
        seen["pushouts"] += 1
        built[id(new)] = new, old
        return new

    def pushout_into_nerve(po, target, left, right):
        got = into_nerve(po, target, left, right)
        _, old = built.pop(id(po))
        u, v = (
            nerve_map(phi, leg.source, target) for leg, phi in ((po.left, left), (po.right, right))
        )
        _same_map(got, old.mediator(u, v))
        seen["comparisons"] += 1
        return got

    for module in (cylinders, reference, verify, corpus):
        monkeypatch.setattr(module, "pushout", pushout)
    for module in (cylinders, verify):
        monkeypatch.setattr(module, "pushout_into_nerve", pushout_into_nerve)
    return seen


def _terminal(p: FinPoset) -> MonotoneMap:
    return MonotoneMap(p, singleton_poset("apex"), {e: "apex" for e in p.elements})


def test_cones_and_dcr_suite_cylinders(corpus, checked):
    from test_cylinders import _dcr_suite_maps

    maps = [_terminal(p) for p in all_posets(5)]
    assert len(maps) == 88
    maps += list(_dcr_suite_maps(corpus))
    for phi in maps:
        cylinders.cylinder_reduction(phi)
    # one pushout and one comparison per cylinder
    assert checked == {"pushouts": len(maps), "comparisons": len(maps)}
    assert len(maps) >= 88 + 200


def test_skeletal_subdivision_attachments(corpus, checked):
    # sd_skeletal attaches along its first leg, the other one collapses
    members = [e.space for e in corpus if len(e.space.cells) <= 12]
    assert len(members) == 25
    for x in members:
        reference.sd_skeletal(x)
    # one attachment per positive dimension that has cells
    assert checked["pushouts"] == sum(
        len({c.dim for c in x.cells.values()} - {0}) for x in members
    )


def test_lemma_suite_dwyer_and_cosieve_squares(checked):
    triples = verify._dwyer_triples()
    for _, i0, k, phi in triples:
        assert verify._cosieve_extension_square(k, phi)
        for leg in (i0, k):
            po, _, comp, other = cylinders.pushout_comparison(leg, phi)
            assert compose_maps(po.right, comp) == other
    # the square's pushout and comparison, and the comparisons along i0 and k
    n = len(triples)
    assert checked == {"pushouts": 3 * n, "comparisons": 3 * n}


@pytest.fixture
def legs(monkeypatch) -> list:
    """Both legs of every pushout a caller builds, in order."""
    out, build = [], colimits.pushout

    def pushout(f, g):
        po = build(f, g)
        out.extend((po.left, po.right))
        return po

    for module in (cylinders, reference, verify, corpus):
        monkeypatch.setattr(module, "pushout", pushout)
    return out


def test_distinct_image_cells_are_never_degenerate(corpus, legs):
    # the face lemma of the cylinders module, on which is_degreewise_injective
    # and is_isomorphism rest: a validated map whose cells have distinct
    # image cells sends none of them to a degenerate simplex.  On the legs
    # of the pushouts the tests above build, and on b, eta and t of every
    # seed-0 member
    from test_cylinders import _dcr_suite_maps

    for phi in [_terminal(p) for p in all_posets(5)] + list(_dcr_suite_maps(corpus)):
        cylinders.cylinder_reduction(phi)
    for x in [e.space for e in corpus if len(e.space.cells) <= 12]:
        reference.sd_skeletal(x)
    for _, i0, k, phi in verify._dwyer_triples():
        verify._cosieve_extension_square(k, phi)
        for leg in (i0, k):
            cylinders.pushout_comparison(leg, phi)
    maps = list(legs)
    for e in corpus:
        b = b_nat(e.space)
        t, res = desingularized_comparison(b)
        maps += [b, res.eta, t]
    distinct = degenerate = 0
    for f in maps:
        images = [s.cell for s in f.assignment.values()]
        if len(set(images)) == len(images):
            distinct += 1
            assert not any(s.is_degenerate for s in f.assignment.values())
        elif any(s.is_degenerate for s in f.assignment.values()):
            degenerate += 1
    assert (len(maps), distinct, degenerate) == (865, 651, 171)


def test_corpus_builtin_pushout(checked):
    corpus._builtins()
    assert checked["pushouts"] == 1


def test_pushout_needs_an_injective_leg():
    # both legs fold an edge onto a vertex
    delta1, point = standard_simplex(1), standard_simplex(0)
    fold = simplex_map_from(point, Simplex(0, Operator(0, (0, 0))), delta1)
    with pytest.raises(ValueError, match="pushout needs a degreewise injective first leg"):
        colimits.pushout(fold, fold)
    # the reference quotient is defined for it: a point
    assert len(UnionPushout(fold, fold).space.cells) == 1


def test_pushout_attaches_along_its_first_leg_only():
    # an edge glued into a triangle, and folded onto a point
    delta1, delta2, point = standard_simplex(1), standard_simplex(2), standard_simplex(0)
    fold = simplex_map_from(point, Simplex(0, Operator(0, (0, 0))), delta1)
    glue = simplex_map_from(delta2, delta2.simplex(delta2.cell_ids(1)[0]), delta1)
    with pytest.raises(ValueError, match="pushout needs a degreewise injective first leg"):
        colimits.pushout(fold, glue)
    po = colimits.pushout(glue, fold)
    _same_pushout(po, UnionPushout(glue, fold))
    # the triangle with one edge collapsed: two vertices, two edges, one triangle
    assert [len(po.space.cell_ids(q)) for q in range(3)] == [2, 2, 1]


@pytest.mark.parametrize(
    "phi",
    [
        MonotoneMap(
            FinPoset("abc", [("a", "b"), ("a", "c")]),
            FinPoset("uvw", [("u", "v"), ("v", "w")]),
            {"a": "u", "b": "v", "c": "w"},
        ),
        _terminal(FinPoset("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])),
    ],
)
def test_cli_topological_cylinder_matches_reference(tmp_path, capsys, monkeypatch, phi):
    src = tmp_path / "phi.pmap"
    src.write_text(format_pmap(phi))
    assert main(["cylinder", str(src), "--topological"]) == 0
    printed = capsys.readouterr().out
    monkeypatch.setattr(cylinders, "pushout", UnionPushout)
    assert printed == format_sset(cylinders.cylinder_reduction(phi).space)

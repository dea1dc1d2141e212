"""Pushouts attached along an injective leg, against the quotient of the
disjoint union that defines them (``reference.UnionPushout``).

Every caller that builds a pushout is run with ``pushout`` replaced by a
wrapper that builds both and asserts the same cells, labels (each
cell's members), legs and mediators, cell for cell and id for id.
``pushout_comparison`` builds its comparison from the vertex map, not as
a mediator, so it is wrapped as well, and each comparison is asserted
equal to the reference pushout's mediator of N(leg_ambient) and the
reduced leg out of NR.
"""

from __future__ import annotations

import pytest

from ssetforge import colimits, corpus, cylinders, verify
from ssetforge.cli import main
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
    simplex_map,
    standard_simplex,
)
from ssetforge.textio import format_pmap, format_sset

import reference
from reference import UnionPushout


def _same_map(new: SimplicialMap, old: SimplicialMap) -> None:
    assert new.assignment == old.assignment
    assert list(new.assignment) == list(old.assignment)


def _same_pushout(new, old) -> None:
    assert new.space.cells == old.space.cells
    assert list(new.space.cells) == list(old.space.cells)
    assert new.space.labels == old.space.labels
    _same_map(new.left, old.left)
    _same_map(new.right, old.right)


@pytest.fixture
def checked(monkeypatch):
    """Make every caller's pushout also build the reference and compare,
    and every ``pushout_comparison`` check its comparison against the
    reference mediator; yields the number of pushouts, mediators and
    comparisons compared so far."""
    seen = {"pushouts": 0, "mediators": 0, "comparisons": 0}
    build, compare = colimits.pushout, cylinders.pushout_comparison
    # each pushout built and not yet compared, by id, with its reference
    built: dict[int, tuple] = {}

    def pushout(f, g):
        new, old = build(f, g), UnionPushout(f, g)
        _same_pushout(new, old)
        seen["pushouts"] += 1
        built[id(new)] = new, old
        fast = new.mediator

        def mediator(u, v):
            got = fast(u, v)
            _same_map(got, old.mediator(u, v))
            seen["mediators"] += 1
            return got

        new.mediator = mediator
        return new

    def pushout_comparison(k, phi, **kwargs):
        po, v, comp, other = compare(k, phi, **kwargs)
        _, old = built.pop(id(po))
        nq, nv = po.left.source, comp.target
        _same_map(comp, old.mediator(nerve_map(v.leg_ambient, nq, nv), other))
        seen["comparisons"] += 1
        return po, v, comp, other

    for module in (cylinders, reference, verify, corpus):
        monkeypatch.setattr(module, "pushout", pushout)
    for module in (cylinders, verify):
        monkeypatch.setattr(module, "pushout_comparison", pushout_comparison)
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
    # one pushout and one comparison per cylinder, and no mediator
    assert checked == {"pushouts": len(maps), "mediators": 0, "comparisons": len(maps)}
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
    # the square's pushout and mediator, and the comparisons along i0 and k
    n = len(triples)
    assert checked == {"pushouts": 3 * n, "mediators": n, "comparisons": 2 * n}


def test_corpus_builtin_pushout(checked):
    corpus._builtins()
    assert checked["pushouts"] == 1


def test_pushout_needs_an_injective_leg():
    # both legs fold an edge onto a vertex
    delta1, point = standard_simplex(1), standard_simplex(0)
    fold = simplex_map(point, Simplex(0, Operator(0, (0, 0))), source=delta1)
    with pytest.raises(ValueError, match="pushout needs a degreewise injective first leg"):
        colimits.pushout(fold, fold)
    # the reference quotient is defined for it: a point
    assert len(UnionPushout(fold, fold).space.cells) == 1


def test_pushout_attaches_along_its_first_leg_only():
    # an edge glued into a triangle, and folded onto a point
    delta1, delta2, point = standard_simplex(1), standard_simplex(2), standard_simplex(0)
    fold = simplex_map(point, Simplex(0, Operator(0, (0, 0))), source=delta1)
    glue = simplex_map(delta2, delta2.simplex(delta2.cell_ids(1)[0]), source=delta1)
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

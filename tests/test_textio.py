import pytest

from ssetforge.colimits import collapse_subcomplex
from ssetforge.posets import FinPoset, MonotoneMap
from ssetforge.simplicial import boundary, representing_map, standard_simplex
from ssetforge.subdivision import sd
from ssetforge.textio import (
    format_pmap,
    format_poset,
    format_smap,
    format_sset,
    parse_pmap,
    parse_poset,
    parse_smap,
    parse_sset,
)


def test_sset_round_trip_on_varied_spaces():
    circle = collapse_subcomplex(standard_simplex(1), [0, 1]).space
    for x in (standard_simplex(3), boundary(2), circle, sd(circle)):
        assert parse_sset(format_sset(x)).same_presentation(x)


def test_sset_comments_and_blank_lines_ignored():
    text = "# a point\n\ncell 0 0   # the only cell\n"
    assert parse_sset(text).dim == 0


def test_sset_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_sset("cell 0 1 0{}\n")  # wrong face count
    with pytest.raises(ValueError):
        parse_sset("cell 0 0\ncell 0 0\n")
    with pytest.raises(ValueError):
        parse_sset("vertex 0\n")


def test_smap_round_trip():
    f = representing_map(standard_simplex(2), 6)
    g = parse_smap(format_smap(f))
    assert g.assignment == f.assignment
    assert g.source.same_presentation(f.source)
    assert g.target.same_presentation(f.target)


def test_poset_round_trip_keeps_plain_names():
    p = FinPoset("abc", [("a", "b"), ("a", "c")])
    q = parse_poset(format_poset(p))
    assert list(q.elements) == ["a", "b", "c"]
    assert set(q.strict_pairs()) == {("a", "b"), ("a", "c")}


def test_poset_falls_back_to_indices_for_awkward_elements():
    p = FinPoset([("x", 0), ("x", 1)], [(("x", 0), ("x", 1))])
    q = parse_poset(format_poset(p))
    assert list(q.elements) == ["e0", "e1"]
    assert set(q.strict_pairs()) == {("e0", "e1")}


def test_pmap_round_trip_and_validation():
    p = FinPoset("abc", [("a", "b"), ("a", "c")])
    r = FinPoset("uv", [("u", "v")])
    phi = MonotoneMap(p, r, {"a": "u", "b": "v", "c": "v"})
    again = parse_pmap(format_pmap(phi))
    assert again.mapping == phi.mapping
    # reversing where a and b land breaks monotonicity
    bad = format_pmap(phi).replace("send a u", "send a v").replace("send b v", "send b u")
    with pytest.raises(ValueError):
        parse_pmap(bad)

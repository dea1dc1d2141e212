import pytest

from ssetforge.colimits import collapse_subcomplex
from ssetforge.posets import FinPoset, MonotoneMap
from ssetforge.simplicial import boundary, representing_map, standard_simplex
from ssetforge.subdivision import sd
from ssetforge.textio import (
    ParseError,
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


# one well-formed text per format; each malformed case below swaps one line
SSET = "cell 0 0\ncell 1 0\ncell 2 1 1{} 0{}\n"
SMAP = "begin source\ncell 0 0\nend\nbegin target\n" + SSET + "end\nsend 0 1{}\n"
POSET = "el a\nel b\nlt a b\n"
PMAP = "begin source\nel p\nend\nbegin target\n" + POSET + "end\nsend p b\n"


def _swap(text: str, line: int, new: str) -> str:
    lines = text.splitlines()
    lines[line - 1] = new
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "parse, text, line, message",
    [
        # short row, non-integer, unknown keyword, bad token or value
        (parse_sset, _swap(SSET, 1, "cell 0"), 1, "needs an id and a dimension"),
        (parse_sset, _swap(SSET, 2, "cell x 0"), 2, "expected an integer, got 'x'"),
        (parse_sset, _swap(SSET, 2, "foo 1"), 2, "unexpected line 'foo 1'"),
        (parse_sset, "cell 0 1 0{7} 0{}\n", 1, "repeat positions [7] out of range"),
        (parse_sset, _swap(SSET, 3, "cell 2 1 1{,} 0{}"), 3, "bad simplex token '1{,}'"),
        (parse_sset, _swap(SSET, 3, "cell 2 1 1{}"), 3, "cell 2 needs 2 faces, got 1"),
        (parse_sset, SSET + "# x\ncell 1 0\n", 5, "cell 1 declared twice"),
        (parse_smap, _swap(SMAP, 9, "send 0"), 9, "unexpected line 'send 0'"),
        (parse_smap, _swap(SMAP, 9, "send x 1{}"), 9, "expected an integer, got 'x'"),
        (parse_smap, _swap(SMAP, 9, "foo 1"), 9, "unexpected line 'foo 1'"),
        (parse_smap, _swap(SMAP, 9, "send 0 1{7}"), 9, "repeat positions [7] out of range"),
        (parse_smap, _swap(SMAP, 9, "send 4 1{}"), 9, "cell 4 is not in the source"),
        (parse_smap, _swap(SMAP, 9, "send 0 9{}"), 9, "cell 9 is not in the target"),
        (parse_smap, _swap(SMAP, 2, "cell 0"), 2, "needs an id and a dimension"),
        (parse_smap, _swap(SMAP, 3, "begin x"), 3, "nested begin"),
        (parse_smap, "end\n", 1, "end without begin"),
        (parse_smap, "\nbegin source\ncell 0 0\n", 2, "unterminated section 'source'"),
        (parse_poset, _swap(POSET, 3, "lt a"), 3, "unexpected line 'lt a'"),
        (parse_poset, _swap(POSET, 2, "el"), 2, "unexpected line 'el'"),
        (parse_poset, _swap(POSET, 2, "foo 1"), 2, "unexpected line 'foo 1'"),
        (parse_pmap, _swap(PMAP, 9, "send p"), 9, "unexpected line 'send p'"),
        (parse_pmap, _swap(PMAP, 9, "foo 1"), 9, "unexpected line 'foo 1'"),
        (parse_pmap, _swap(PMAP, 9, "send q b"), 9, "'q' is not in the source"),
        (parse_pmap, _swap(PMAP, 9, "send p c"), 9, "'c' is not in the target"),
        (parse_pmap, _swap(PMAP, 2, "el"), 2, "unexpected line 'el'"),
    ],
)
def test_malformed_line_names_its_line(parse, text, line, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.line == line
    assert message in str(info.value)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_sset, _swap(SSET, 3, "cell 2 1 5{} 0{}"), "targets missing cell 5"),
        (parse_smap, SSET, "map needs source and target sections"),
        (parse_poset, _swap(POSET, 3, "lt a z"), "mentions unknown elements"),
        (parse_pmap, _swap(PMAP, 7, "lt a b\nlt b a"), "not antisymmetric"),
    ],
)
def test_invalid_presentation_is_a_parse_error_of_the_whole_text(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.line is None
    assert message in str(info.value)


def test_wellformed_texts_parse():
    assert len(parse_sset(SSET).cells) == 3
    assert parse_smap(SMAP).assignment[0].cell == 1
    assert parse_poset(POSET).leq("a", "b")
    assert parse_pmap(PMAP)("p") == "b"

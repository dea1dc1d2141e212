import os
import random
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from ssetforge.colimits import (
    collapse_subcomplex,
    congruence_from_pairs,
    disjoint_union,
    quotient,
)
from ssetforge.corpus import save_corpus
from ssetforge.operators import all_degeneracies
from ssetforge.posets import FinPoset, MonotoneMap, all_posets
from ssetforge.simplicial import boundary, representing_map, standard_simplex
from ssetforge.subdivision import sd
from ssetforge.textio import (
    ParseError,
    format_manifest,
    format_pmap,
    format_poset,
    format_smap,
    format_sset,
    parse_pmap,
    parse_poset,
    parse_file,
    parse_manifest,
    parse_smap,
    parse_sset,
    _braces,
    _parse_simplex,
    _read_braces,
    _simplex_token,
    write_file,
)

from reference import fstring_simplex_token, leq, regex_parse_simplex


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
    assert [again(e) for e in p.elements] == [phi(e) for e in p.elements]
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
        # a repeat position listed twice, which would be written back once
        (parse_sset, "cell 0 0\ncell 1 1 0{} 0{}\ncell 2 2 1{} 1{} 0{0,0}\n", 3,
         "simplex token '0{0,0}' lists a repeat position twice"),
        (parse_smap, "begin source\n" + SSET + "end\nbegin target\ncell 0 0\nend\n"
         "send 0 0{}\nsend 1 0{}\nsend 2 0{0,0}\n", 11,
         "simplex token '0{0,0}' lists a repeat position twice"),
        # repeat positions out of order, which would be written back sorted
        (parse_sset, "cell 0 0\ncell 1 3 0{0,1} 0{0,1} 0{0,1} 0{1,0}\n", 2,
         "simplex token '0{1,0}' lists its repeat positions out of order"),
        (parse_smap, "begin source\ncell 0 0\ncell 1 1 0{} 0{}\ncell 2 2 1{} 1{} 0{0}\nend\n"
         "begin target\ncell 0 0\nend\nsend 0 0{}\nsend 1 0{0}\nsend 2 0{1,0}\n", 11,
         "simplex token '0{1,0}' lists its repeat positions out of order"),
        (parse_sset, _swap(SSET, 3, "cell 2 1 1{}"), 3, "cell 2 needs 2 faces, got 1"),
        (parse_sset, SSET + "# x\ncell 1 0\n", 5, "cell 1 declared twice"),
        # no face token names a negative id, so no cell line may declare one
        (parse_sset, _swap(SSET, 2, "cell -1 0"), 2, "cell -1 has a negative id"),
        (parse_smap, _swap(SMAP, 2, "cell -1 0"), 2, "cell -1 has a negative id"),
        (parse_smap, _swap(SMAP, 5, "cell -1 0"), 5, "cell -1 has a negative id"),
        # an integer is ASCII digits, so it reads back as the text it came from
        (parse_sset, _swap(SSET, 2, "cell +0 0"), 2, "expected an integer, got '+0'"),
        (parse_sset, _swap(SSET, 2, "cell 1_0 0"), 2, "expected an integer, got '1_0'"),
        (parse_sset, _swap(SSET, 2, "cell 0 \u00b2"), 2, "expected an integer, got '\u00b2'"),
        (parse_sset, _swap(SSET, 3, "cell \u0662 1 10{} 0{}"), 3,
         "expected an integer, got '\u0662'"),
        (parse_sset, _swap(SSET, 3, "cell 2 1 1{} \u0660{}"), 3, "bad simplex token '\u0660{}'"),
        (parse_sset, "cell 0 0\ncell 1 1 0{} 0{}\ncell 2 2 1{} 1{} 0{\u0660}\n", 3,
         "bad simplex token '0{\u0660}'"),
        (parse_smap, _swap(SMAP, 9, "send +0 1{}"), 9, "expected an integer, got '+0'"),
        (parse_smap, _swap(SMAP, 9, "send 0 \u0661{}"), 9, "bad simplex token '\u0661{}'"),
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
        (parse_smap, SMAP + "begin junk\ncell 0 0\nend\n", 10, "unknown section 'junk'"),
        (parse_smap, _swap(SMAP, 3, "end source"), 3, "end takes no section name"),
        # a face or an image of the wrong degree for the cell it names
        (parse_sset, SSET + "cell 3 2 2{} 2{} 0{}\n", 4, "cell 3 face 2 has mismatched ranks"),
        (parse_smap, _swap(SMAP, 9, "send 0 2{}"), 9, "cell 0 sent to simplex of wrong degree"),
        (parse_poset, _swap(POSET, 3, "lt a"), 3, "unexpected line 'lt a'"),
        (parse_poset, _swap(POSET, 2, "el"), 2, "unexpected line 'el'"),
        (parse_poset, _swap(POSET, 2, "foo 1"), 2, "unexpected line 'foo 1'"),
        (parse_pmap, _swap(PMAP, 9, "send p"), 9, "unexpected line 'send p'"),
        (parse_pmap, _swap(PMAP, 9, "foo 1"), 9, "unexpected line 'foo 1'"),
        (parse_pmap, _swap(PMAP, 9, "send q b"), 9, "'q' is not in the source"),
        (parse_pmap, _swap(PMAP, 9, "send p c"), 9, "'c' is not in the target"),
        (parse_pmap, _swap(PMAP, 2, "el"), 2, "unexpected line 'el'"),
        (parse_pmap, PMAP + "begin junk\nend\n", 10, "unknown section 'junk'"),
        (parse_pmap, _swap(PMAP, 8, "end target"), 8, "end takes no section name"),
        # a declaration repeated, even word for word, is malformed at the repeat
        (parse_smap, SMAP + "send 0 2{}\n", 10, "cell 0 sent twice"),
        (parse_smap, SMAP + "send 0 1{}\n", 10, "cell 0 sent twice"),
        (parse_poset, POSET + "el a\n", 4, "element 'a' declared twice"),
        (parse_pmap, _swap(PMAP, 2, "el p\nel p"), 3, "element 'p' declared twice"),
        (parse_pmap, PMAP + "send p a\n", 10, "'p' sent twice"),
        (parse_pmap, PMAP + "send p b\n", 10, "'p' sent twice"),
        (parse_smap, _swap(SMAP, 4, "begin source"), 4, "section 'source' declared twice"),
        (parse_pmap, _swap(PMAP, 4, "begin source"), 4, "section 'source' declared twice"),
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
    assert leq(parse_poset(POSET), "a", "b")
    assert parse_pmap(PMAP)("p") == "b"


# -- generated round trips and one-token mutations ----------------------------


def _seeded_quotient(seed: int):
    # a disjoint union of one to three simplices of dimension <= 2, with up
    # to two pairs of same-degree cells identified; the projection onto the
    # quotient is the map
    rng = random.Random(seed)
    space = standard_simplex(rng.randint(0, 2))
    for _ in range(rng.randint(0, 2)):
        space, _, _ = disjoint_union(space, standard_simplex(rng.randint(0, 2)))
    pairs = []
    for _ in range(rng.randint(0, 2)):
        q = rng.randint(0, space.dim)
        a, b = rng.choice(space.cell_ids(q)), rng.choice(space.cell_ids(q))
        pairs.append((space.simplex(a), space.simplex(b)))
    return quotient(space, congruence_from_pairs(space, pairs))


@lru_cache(maxsize=None)
def _monotone_maps():
    # every monotone map between posets with at most three elements
    posets = all_posets(3)
    maps = []
    for p in posets:
        for r in posets:
            for values in product(r.elements, repeat=len(p)):
                mapping = dict(zip(p.elements, values))
                if all(leq(r, mapping[a], mapping[b]) for a, b in p.strict_pairs()):
                    maps.append(MonotoneMap(p, r, mapping))
    return maps


_quotients = st.integers(0, 2**32 - 1).map(_seeded_quotient)
_words = st.text("abcxyz019-.", min_size=1, max_size=8)
# a seed and up to five members with distinct names, each with a
# provenance, a flag and a file name
_manifests = st.builds(
    format_manifest,
    st.integers(-(2**40), 2**40),
    st.lists(
        st.tuples(
            _words,
            st.sampled_from(["builtin", "random-quotient", "sd-image"]),
            st.sampled_from(["regular", "singular"]),
            _words.map(lambda w: w + ".sset"),
        ),
        max_size=5,
        unique_by=lambda member: member[0],
    ),
)


def _format_parsed_manifest(parsed) -> str:
    seed, members = parsed
    return format_manifest(seed, [member for _, member in members])


# kind -> (texts of that kind, parser, formatter)
TEXTS = {
    "sset": (_quotients.map(lambda res: format_sset(res.space)), parse_sset, format_sset),
    "smap": (_quotients.map(lambda res: format_smap(res.projection)), parse_smap, format_smap),
    "poset": (st.sampled_from(all_posets(4)).map(format_poset), parse_poset, format_poset),
    "pmap": (
        st.deferred(lambda: st.sampled_from(_monotone_maps())).map(format_pmap),
        parse_pmap,
        format_pmap,
    ),
    "manifest": (_manifests, parse_manifest, _format_parsed_manifest),
}
_generated = settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.mark.parametrize("kind", sorted(TEXTS))
@_generated
@given(data=st.data())
def test_generated_text_round_trips(kind, data):
    texts, parse, fmt = TEXTS[kind]
    text = data.draw(texts)
    assert fmt(parse(text)) == text


@pytest.mark.parametrize("kind", sorted(TEXTS))
@_generated
@given(data=st.data())
def test_one_token_dropped_or_corrupted_is_a_parse_error(kind, data):
    texts, parse, _ = TEXTS[kind]
    lines = [line.split() for line in data.draw(texts).splitlines()]
    spots = [(i, j) for i, toks in enumerate(lines) for j in range(len(toks))]
    assume(spots)
    i, j = data.draw(st.sampled_from(spots))
    how = data.draw(st.sampled_from(["drop", "corrupt"]))
    toks = list(lines[i])
    if how == "drop":
        del toks[j]
    else:
        toks[j] = "?"
    mutated = "\n".join(" ".join(row) for row in lines[:i] + [toks] + lines[i + 1 :]) + "\n"
    try:
        parse(mutated)
    except ParseError:
        return
    # only free text may change and leave the text valid: a poset element
    # that no other line names, a manifest member's name or file, or a
    # comment's words
    head = lines[i][0]
    assert (how == "corrupt" and (head, j) in {("el", 1), ("member", 1), ("member", 4)}
            or head == "#" and j > 0)


# -- simplex token codecs -----------------------------------------------------


def test_simplex_tokens_match_their_definitions():
    # every degeneracy out of [degree] for degree <= 4, onto each rank
    for degree in range(5):
        for rank in range(degree + 1):
            for op in all_degeneracies(degree, rank):
                for cell in (0, 7, 12345):
                    tok = _simplex_token(cell, op)
                    assert tok == fstring_simplex_token(cell, op)
                    assert _parse_simplex(tok, degree, 1) == (cell, op)
                    assert regex_parse_simplex(tok, degree, 1) == (cell, op)


# (token, degree): well-formed ones, and faults of the cell id, of the
# braces' shape, of repeat positions and of their range, some of them
# sharing their braces with a well-formed token of another degree
TOKENS = [
    ("0{}", 0), ("7{0}", 1), ("12345{0,1}", 2), ("3{1}", 2),
    ("", 0), ("{}", 0), ("x{}", 0), ("-1{}", 0), ("+1{}", 0), ("1_0{}", 0), ("0", 0),
    ("\u0663{\u0660}", 1), ("\u0663{0}", 1), ("0{\u00b2}", 3),
    ("0{", 0), ("0}", 0), ("0{}}", 0), ("0{{}", 0), ("0{},", 0), ("0{,}", 1), ("0{0,}", 2),
    ("0{a}", 1), ("0{ 0}", 1), ("0{-1}", 1), ("0{0}{}", 1), ("x{0}", 1), ("7{0}x", 1),
    ("0{0,0}", 2), ("0{1,0}", 2), ("0{0,1,0}", 3), ("0{0}", 0), ("7{0,1}", 1),
    ("0{2}", 2), ("0{1,0}", 0),
]


def _outcome(parse, tok, degree, line):
    try:
        return parse(tok, degree, line)
    except ParseError as err:
        return err.line, str(err)


def test_token_faults_are_never_cached():
    # cold: each token read on an empty cache
    for line, (tok, degree) in enumerate(TOKENS, 1):
        _read_braces.cache_clear()
        expected = _outcome(regex_parse_simplex, tok, degree, line)
        assert _outcome(_parse_simplex, tok, degree, line) == expected
    # warm: every token read once, then each again at another line
    for tok, degree in TOKENS:
        _outcome(_parse_simplex, tok, degree, 1)
    warm = _read_braces.cache_info().currsize
    for line, (tok, degree) in enumerate(TOKENS, 100):
        expected = _outcome(regex_parse_simplex, tok, degree, line)
        assert _outcome(_parse_simplex, tok, degree, line) == expected
    # one entry for each well-formed (braces, degree) pair, none for a fault
    assert warm == _read_braces.cache_info().currsize == 4


def _token_pairs(text: str) -> set[tuple[str, int]]:
    """The (braces text, degree) pairs of the simplex tokens of an sset or
    smap text, read off its lines."""
    pairs = set()
    dims = {}  # of the source's cells, which the send lines name
    section = None
    for row in (line.split() for line in text.splitlines()):
        if row[0] == "begin":
            section = row[1]
        elif row[0] == "cell":
            if section != "target":
                dims[row[1]] = int(row[2])
            pairs |= {(tok[tok.index("{"):], int(row[2]) - 1) for tok in row[3:]}
        elif row[0] == "send":
            pairs.add((row[2][row[2].index("{"):], dims[row[1]]))
    return pairs


def test_token_caches_grow_with_operators_not_cells():
    # the files a desing or an sd request reads and writes, on small
    # quotients: inputs, quotients, projections and subdivisions
    _read_braces.cache_clear()
    _braces.cache_clear()
    pairs, tokens = set(), 0
    for seed in range(200):
        res = _seeded_quotient(seed)
        for text in (format_sset(res.space), format_smap(res.projection),
                     format_sset(sd(res.space))):
            pairs |= _token_pairs(text)
            tokens += text.count("{")
            (parse_smap if text.startswith("begin") else parse_sset)(text)
    assert _read_braces.cache_info().currsize == len(pairs) < tokens
    assert _braces.cache_info().currsize <= len(pairs)


# -- files --------------------------------------------------------------------

TEXT = "cell 0 0\ncell 1 0\ncell 2 1 1{} 0{}\n# \u03b4 and \u2202\n"


@pytest.mark.parametrize("before", [None, TEXT * 3, TEXT[:5], TEXT.upper()],
                         ids=["new", "longer", "shorter", "as-long"])
def test_write_file_leaves_exactly_the_new_bytes(tmp_path, before):
    # a new file, and an existing one that is longer, shorter, or as long
    assert len(TEXT.upper().encode()) == len(TEXT.encode())
    path = tmp_path / "out.sset"
    if before is not None:
        path.write_text(before)
        inode = path.stat().st_ino
    write_file(path, TEXT)
    assert path.read_bytes() == TEXT.encode()
    if before is not None:
        assert path.stat().st_ino == inode


def test_write_file_follows_links_and_keeps_the_mode(tmp_path):
    target = tmp_path / "target.sset"
    target.write_text(TEXT * 2)
    target.chmod(0o600)
    link = tmp_path / "link.sset"
    link.symlink_to(target)
    write_file(link, TEXT)
    assert link.is_symlink() and link.readlink() == target
    assert target.read_bytes() == TEXT.encode()
    assert target.stat().st_mode & 0o777 == 0o600

    other = tmp_path / "other.sset"
    os.link(target, other)
    write_file(other, "cell 0 0\n")
    assert target.read_bytes() == other.read_bytes() == b"cell 0 0\n"
    assert target.stat().st_nlink == 2


def test_write_file_applies_the_umask_to_a_new_file(tmp_path):
    old = os.umask(0o027)
    try:
        write_file(tmp_path / "new.sset", TEXT)
    finally:
        os.umask(old)
    assert (tmp_path / "new.sset").stat().st_mode & 0o777 == 0o640


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_write_error_names_the_file():
    with pytest.raises(OSError) as caught:
        write_file("/dev/full", TEXT)
    assert caught.value.filename == "/dev/full"


@pytest.mark.parametrize("parse, name, text", [
    (parse_sset, "x.sset", format_sset(boundary(2))),
    (parse_smap, "f.smap", format_smap(representing_map(boundary(2), boundary(2).cell_ids(1)[0]))),
    (parse_pmap, "phi.pmap", format_pmap(MonotoneMap(
        FinPoset("ab", [("a", "b")]), FinPoset("u", []), {"a": "u", "b": "u"}))),
])
@pytest.mark.parametrize("bad", [b"\xff", b"\xc3", b"\xe2\x88"])
def test_non_utf8_file_is_a_parse_error_naming_its_line(tmp_path, parse, name, text, bad):
    path = tmp_path / name
    path.write_text(text)
    parse_file(path, parse)
    lines = text.encode().splitlines(keepends=True)
    # the bad bytes end line 2, before its line break
    lines[1] = lines[1].rstrip(b"\n") + bad + b"\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(ParseError) as caught:
        parse_file(path, parse)
    assert (caught.value.path, caught.value.line) == (str(path), 2)
    assert str(caught.value) == f"byte 0x{bad[0]:02x} is not UTF-8"


def test_empty_file_parses_as_empty_text(tmp_path):
    path = tmp_path / "empty.sset"
    path.write_bytes(b"")
    assert parse_file(path, parse_sset).same_presentation(parse_sset(""))
    assert parse_file(path, parse_manifest) == parse_manifest("") == (0, [])
    with pytest.raises(ParseError) as caught:
        parse_file(path, parse_smap)
    assert (caught.value.path, caught.value.line) == (str(path), None)
    assert str(caught.value) == "map needs source and target sections"


def test_file_of_many_reads_round_trips_byte_for_byte(tmp_path):
    # far longer than one 64 KiB read, and a comment whose three-byte
    # characters straddle each read's end
    path = tmp_path / "sd5.sset"
    cells = format_sset(sd(standard_simplex(5)))
    assert len(cells.encode()) > 4 * 2**16
    for text in (cells, "# " + "\u2202" * 2**16 + "\n" + cells):
        path.write_bytes(text.encode())
        assert parse_file(path, str) == text
        assert format_sset(parse_file(path, parse_sset)) == cells


def test_parse_file_reads_what_parse_reads_on_the_saved_corpus(tmp_path, corpus):
    save_corpus(corpus, tmp_path)
    paths = sorted(tmp_path.iterdir())
    assert len(paths) == len(corpus) + 1
    for path in paths:
        text = path.read_text(encoding="utf-8")
        if path.name == "manifest.txt":
            assert parse_file(path, parse_manifest) == parse_manifest(text)
        else:
            assert parse_file(path, parse_sset).same_presentation(parse_sset(text))

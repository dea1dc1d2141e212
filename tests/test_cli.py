import argparse
import gc
import os
import re

import pytest

import ssetforge
from ssetforge import cli
from ssetforge.cli import main
from ssetforge.corpus import Corpus, gen_corpus, load_corpus, save_corpus
from ssetforge.cylinders import cylinder_reduction
from ssetforge.desingularize import desingularize
from ssetforge.posets import FinPoset, MonotoneMap
from ssetforge.simplicial import boundary, identity_map, standard_simplex
from ssetforge.subdivision import b_nat, sd
from ssetforge.textio import (
    format_pmap,
    format_smap,
    format_sset,
    parse_pmap,
    parse_smap,
    parse_sset,
)
from ssetforge.verify import format_report, run_suite, verify_counterexamples

from reference import is_isomorphic
from test_verify import sparse_corpora

# triangle with two vertices merged: the zipper stalls with the vertices
# (0, 1, 0) on its 2-cell; the interval move merges them
STALL = """\
cell 0 0
cell 1 0
cell 2 1 1{} 0{}
cell 3 1 0{} 0{}
cell 4 1 0{} 1{}
cell 5 2 4{} 3{} 2{}
"""

WEDGE_TO_CHAIN = format_pmap(
    MonotoneMap(
        FinPoset("abc", [("a", "b"), ("a", "c")]),
        FinPoset("uvw", [("u", "v"), ("v", "w")]),
        {"a": "u", "b": "v", "c": "w"},
    )
)


def test_corpus_roundtrip(tmp_path):
    out = tmp_path / "corpus"
    assert main(["corpus", "--seed", "1", "-o", str(out)]) == 0
    assert (out / "manifest.txt").exists()
    loaded = load_corpus(out)
    fresh = gen_corpus(1)
    assert [e.name for e in loaded] == [e.name for e in fresh]
    for a, b in zip(loaded, fresh):
        assert a.space.same_presentation(b.space)
        assert a.regular == b.regular and a.provenance == b.provenance


def test_sd_command(tmp_path):
    src = tmp_path / "d2.sset"
    dst = tmp_path / "sd.sset"
    src.write_text(format_sset(standard_simplex(2)))
    assert main(["sd", str(src), "-o", str(dst)]) == 0
    assert is_isomorphic(parse_sset(dst.read_text()), sd(standard_simplex(2)))


def test_barratt_bnat_lastvertex(tmp_path, capsys):
    src = tmp_path / "d2.sset"
    src.write_text(format_sset(standard_simplex(2)))
    assert main(["barratt", str(src)]) == 0
    bx = parse_sset(capsys.readouterr().out)
    assert len(bx.cells) == 25
    assert main(["bnat", str(src)]) == 0
    b = parse_smap(capsys.readouterr().out)
    assert b.is_isomorphism()  # the standard simplex is non-singular
    assert main(["lastvertex", str(src)]) == 0
    lv = parse_smap(capsys.readouterr().out)
    assert lv.target.same_presentation(standard_simplex(2))


def test_desing_exit_codes(tmp_path, capsys):
    src = tmp_path / "stall.sset"
    src.write_text(STALL)
    out = tmp_path / "out.sset"
    eta = tmp_path / "eta.smap"

    assert main(["desing", str(src), "--method", "zipper"]) == 2
    assert "Uncertified" in capsys.readouterr().out

    code = main(["desing", str(src), "-o", str(out), "--emit-eta", str(eta)])
    assert code == 0
    assert capsys.readouterr().out == "certificate ZipperCertified\ncells 6 -> 1\n"
    proj = parse_smap(eta.read_text())
    assert proj.target.same_presentation(parse_sset(out.read_text()))
    assert proj.target.is_nonsingular()

    assert main(["desing", str(src), "--method", "oracle", "--bound", "4"]) == 2


def test_desing_certifies_above_the_oracle_bound(tmp_path, capsys):
    # seed 1's random-0 stalls the zipper with 37 cells, far above the
    # oracle's bound; the interval move certifies it all the same
    src = tmp_path / "random-0.sset"
    member = next(e for e in gen_corpus(1) if e.name == "random-0")
    src.write_text(format_sset(member.space))
    assert main(["desing", str(src), "--method", "zipper"]) == 2
    assert "Uncertified" in capsys.readouterr().out
    assert main(["desing", str(src)]) == 0
    assert capsys.readouterr().out == "certificate ZipperCertified\ncells 37 -> 26\n"


def test_uncertified_zipper_names_its_singular_cell(tmp_path, capsys):
    # the zipper stalls on STALL at its 2-cell, whose vertices (0, 1, 0)
    # repeat apart, and on seed 1's random-0 at the 2-cell 31, whose row
    # (6, 7, 6) does the same; a certified run names no cell
    member = next(e for e in gen_corpus(1) if e.name == "random-0")
    cases = [
        (STALL, "certificate Uncertified\nsingular cell 5\ncells 6 -> 5\n"),
        (format_sset(member.space), "certificate Uncertified\nsingular cell 31\ncells 37 -> 34\n"),
    ]
    src = tmp_path / "x.sset"
    for text, want in cases:
        src.write_text(text)
        assert main(["desing", str(src), "--method", "zipper"]) == 2
        assert capsys.readouterr().out == want
        assert main(["desing", str(src)]) == 0
        assert "singular cell" not in capsys.readouterr().out


@pytest.mark.parametrize("bound", [None, "4", "0"])
def test_desing_oracle_above_bound_is_uncertified(tmp_path, capsys, bound):
    # the oracle refuses an input above its cell bound: no certificate,
    # one line on stderr and exit 2
    src = tmp_path / "x.sset"
    src.write_text(format_sset(standard_simplex(3)) if bound is None else STALL)
    argv = ["desing", str(src), "--method", "oracle", "-o", str(tmp_path / "out.sset")]
    assert main(argv if bound is None else [*argv, "--bound", bound]) == 2
    out, err = capsys.readouterr()
    assert out == "certificate Uncertified\n"
    want = "15 cells > 10" if bound is None else f"6 cells > {bound}"
    assert err == f"error: oracle bound exceeded: {want}\n"
    assert not (tmp_path / "out.sset").exists()


# the sharp of the interval with its ends merged: Delta[1]# onto the circle's
# cell poset, both vertices to the one vertex
COLLAPSED_INTERVAL = """\
begin source
el 0
el 1
el 2
lt 0 2
lt 1 2
end
begin target
el 0
el 1
lt 0 1
end
send 0 0
send 1 0
send 2 1
"""

# the whole dcr table for each counterexample: surjectivity fails above
# degree 0 for the first, injectivity for the second
DCR_STDOUT = {
    WEDGE_TO_CHAIN: """\
certificate ZipperCertified
cells 21 -> 25
degree injective surjective
     0 yes       yes
     1 yes       no
     2 yes       no
     3 yes       no
verdict not-an-isomorphism
""",
    COLLAPSED_INTERVAL: """\
certificate ZipperCertified
cells 17 -> 15
degree injective surjective
     0 yes       yes
     1 no        yes
     2 no        yes
verdict not-an-isomorphism
""",
}


def test_dcr_table(tmp_path, capsys):
    src = tmp_path / "phi.pmap"
    for phi, want in DCR_STDOUT.items():
        src.write_text(phi)
        assert main(["dcr", str(src)]) == 0
        assert capsys.readouterr().out == want


def test_cylinder_outputs(tmp_path, capsys):
    src = tmp_path / "phi.pmap"
    src.write_text(WEDGE_TO_CHAIN)
    assert main(["cylinder", str(src)]) == 0
    reduced = parse_sset(capsys.readouterr().out)
    assert reduced.dim == 3
    assert main(["cylinder", str(src), "--topological"]) == 0
    top = parse_sset(capsys.readouterr().out)
    assert top.dim == 2
    assert main(["cylinder", str(src), "--bundle"]) == 0
    cr = parse_smap(capsys.readouterr().out)
    assert cr.source.same_presentation(top)
    assert cr.target.same_presentation(reduced)


@pytest.mark.parametrize(
    "phi",
    [
        parse_pmap(WEDGE_TO_CHAIN),
        MonotoneMap(FinPoset("abc", [("a", "b"), ("a", "c")]), FinPoset(["apex"]),
                    {e: "apex" for e in "abc"}),
    ],
)
def test_cylinder_kinds_write_the_bundle(tmp_path, phi):
    # each kind writes one field of cylinder_reduction's checked bundle
    src = tmp_path / "phi.pmap"
    src.write_text(format_pmap(phi))
    b = cylinder_reduction(phi)
    for flags, text in [
        ([], format_sset(b.reduced)),
        (["--reduced"], format_sset(b.reduced)),
        (["--topological"], format_sset(b.space)),
        (["--bundle"], format_smap(b.reduction)),
    ]:
        out = tmp_path / "out"
        assert main(["cylinder", str(src), *flags, "-o", str(out)]) == 0
        assert out.read_bytes() == text.encode()


def test_verify_cli_tiny_corpus(tmp_path, tiny_corpus):
    from ssetforge.corpus import save_corpus

    cdir = tmp_path / "corpus"
    save_corpus(tiny_corpus, cdir)

    report = tmp_path / "main.txt"
    assert main(["verify", "main", "--corpus", str(cdir), "--report", str(report)]) == 0
    text = report.read_text()
    assert "main/delta-2: pass" in text
    assert "corollary/circle: pass" in text

    # the tiny corpus cannot reach 100 cylinder pairs, so the count case fails
    report2 = tmp_path / "cyl.txt"
    code = main(["verify", "cylinders", "--corpus", str(cdir), "--report", str(report2)])
    assert code == 1
    assert "dcr/pair-count: fail" in report2.read_text()


@pytest.mark.parametrize("name", ["sphere-1", "delta-3", "none"])
def test_verify_lemmas_on_a_sparse_corpus(tmp_path, capsys, name):
    # a saved corpus with no member the seeded draws can take: a clean
    # report, not a traceback
    cdir = tmp_path / "corpus"
    save_corpus(sparse_corpora()[name], cdir)
    assert main(["verify", "lemmas", "--corpus", str(cdir)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith("report verify-lemmas\n") and ", 0 fail, " in out


def test_counterexamples_cli(capsys):
    assert main(["verify", "counterexamples"]) == 0
    out = capsys.readouterr().out
    assert "summary: 4 pass, 0 fail, 0 skip" in out
    # the case lines of the campaign, under the suite's title
    cases = format_report(verify_counterexamples(Corpus(0, [])))
    assert out.splitlines()[1:] == cases.splitlines()[1:]
    assert out.startswith("report verify-counterexamples\n")


@pytest.mark.parametrize("suite", ["counterexamples", "lemmas"])
def test_timings_stamp_every_case(tmp_path, tiny_corpus, capsys, suite):
    # --timings adds one seconds line, the last, under every case, and
    # leaves every other line as the untimed report has it
    cdir = tmp_path / "corpus"
    save_corpus(tiny_corpus, cdir)
    main(["verify", suite, "--corpus", str(cdir)])
    plain = capsys.readouterr().out.splitlines()
    main(["verify", suite, "--corpus", str(cdir), "--timings"])
    timed = capsys.readouterr().out.splitlines()
    cases: list[list[str]] = []
    for line in timed[1:-1]:
        if line.startswith("    "):
            cases[-1].append(line)
        else:
            cases.append([line])
    assert cases and len(timed) == len(plain) + len(cases)
    assert all(re.fullmatch(r"    seconds = \d+\.\d{6}", case[-1]) for case in cases)
    assert [line for line in timed if not line.startswith("    seconds = ")] == plain


@pytest.mark.parametrize(
    "command, name, text, where",
    [
        # the input formats the commands read: spaces and monotone maps
        ("sd", "x.sset", "cell 0\n", ":1:"),
        ("sd", "x.sset", "cell x 0\n", ":1:"),
        ("sd", "x.sset", "cell 0 0\ncell -1 0\n", ":2:"),
        ("sd", "x.sset", "cell 0 0\nfoo 1\n", ":2:"),
        ("sd", "x.sset", "cell 0 1 0{7} 0{}\n", ":1:"),
        ("sd", "x.sset", "cell 0 0\ncell 1 1 5{} 0{}\n", ":"),
        ("sd", "x.sset", "cell 0 0\ncell 1 3 0{0,1} 0{0,1} 0{0,1} 0{1,0}\n", ":2:"),
        # an integer that is not ASCII digits, which would be written back
        # as other text
        ("sd", "x.sset", "cell +0 0\n", ":1:"),
        ("sd", "x.sset", "cell 0 0\ncell 1_0 0\n", ":2:"),
        ("sd", "x.sset", "cell 0 0\ncell 1 0\ncell \u0662 1 10{} 0{}\n", ":3:"),
        ("sd", "x.sset", "cell 0 0\ncell 1 1 \u0660{} 0{}\n", ":2:"),
        ("dcr", "phi.pmap", WEDGE_TO_CHAIN.replace("send a u", "send a"), ":16:"),
        ("cylinder", "phi.pmap", WEDGE_TO_CHAIN.replace("send b v", "send b z"), ":17:"),
        # a repeated declaration, which a later one would otherwise override
        ("dcr", "phi.pmap", WEDGE_TO_CHAIN.replace("send a u", "send a u\nsend a v"), ":17:"),
        ("cylinder", "phi.pmap", WEDGE_TO_CHAIN.replace("el b\n", "el b\nel b\n"), ":4:"),
    ],
)
def test_malformed_input_is_one_line_and_exit_3(tmp_path, capsys, command, name, text, where):
    src = tmp_path / name
    src.write_text(text, encoding="utf-8")
    assert main([command, str(src)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"forge: {src}{where} ")
    assert "Traceback" not in captured.err


def test_malformed_corpus_member_names_its_file(tmp_path, tiny_corpus, capsys):
    from ssetforge.corpus import save_corpus

    cdir = tmp_path / "corpus"
    save_corpus(tiny_corpus, cdir)
    member = sorted(cdir.glob("*.sset"))[0]
    member.write_text("cell 0 0\ncell 1\n")
    assert main(["verify", "main", "--corpus", str(cdir)]) == 3
    assert capsys.readouterr().err == (
        f"forge: {member}:2: a cell line needs an id and a dimension\n"
    )


@pytest.mark.parametrize(
    "argv, culprit",
    [
        # an input that does not exist, for each kind of input command
        (["sd", "{tmp}/missing.sset"], "{tmp}/missing.sset"),
        (["desing", "{tmp}/missing.sset"], "{tmp}/missing.sset"),
        (["dcr", "{tmp}/missing.pmap"], "{tmp}/missing.pmap"),
        # an output into a directory that does not exist
        (["sd", "{tmp}/x.sset", "-o", "{tmp}/no/such/dir/out.sset"], "{tmp}/no/such/dir/out.sset"),
        (["desing", "{tmp}/x.sset", "-o", "{tmp}/no/out.sset"], "{tmp}/no/out.sset"),
    ],
)
def test_unreadable_or_unwritable_file_is_one_line_and_exit_3(tmp_path, capsys, argv, culprit):
    (tmp_path / "x.sset").write_text(format_sset(standard_simplex(1)))
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == f"forge: {culprit.format(tmp=tmp_path)}: No such file or directory\n"


@pytest.mark.parametrize("argv", [
    ["sd", "{tmp}/x.sset", "-o", "/dev/full"],
    ["desing", "{tmp}/x.sset", "--emit-eta", "/dev/full"],
])
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_failed_write_names_its_file(tmp_path, capsys, argv):
    (tmp_path / "x.sset").write_text(STALL)
    assert main([a.format(tmp=tmp_path) for a in argv]) == 3
    assert capsys.readouterr().err == "forge: /dev/full: No space left on device\n"


def test_output_to_a_device_is_not_truncated(tmp_path, capsys):
    # /dev/null is written but has no length to cut
    (tmp_path / "x.sset").write_text(STALL)
    assert main(["sd", str(tmp_path / "x.sset"), "-o", "/dev/null"]) == 0
    argv = ["desing", str(tmp_path / "x.sset"), "-o", "/dev/null", "--emit-eta", "/dev/null"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_outputs_are_their_formatted_text(tmp_path, capsys):
    # rewritten over longer and shorter files of the previous request
    src, out, eta = tmp_path / "x.sset", tmp_path / "out.sset", tmp_path / "eta.smap"
    for space in [boundary(2), parse_sset(STALL), standard_simplex(1), standard_simplex(3)]:
        src.write_text(format_sset(space))
        res = desingularize(space)
        assert main(["desing", str(src), "-o", str(out), "--emit-eta", str(eta)]) == 0
        assert out.read_bytes() == format_sset(res.quotient).encode()
        assert eta.read_bytes() == format_smap(res.eta).encode()
        assert main(["sd", str(src), "-o", str(out)]) == 0
        assert out.read_bytes() == format_sset(sd(space)).encode()
        assert main(["bnat", str(src), "-o", str(eta)]) == 0
        assert eta.read_bytes() == format_smap(b_nat(space)).encode()


def test_emit_eta_of_a_non_singular_input_is_its_identity(tmp_path):
    # D makes no move on a non-singular input, so the eta written is the
    # identity map of the input, whatever the result holds in its place
    src, eta = tmp_path / "x.sset", tmp_path / "eta.smap"
    for space in [standard_simplex(1), standard_simplex(3), sd(boundary(2))]:
        src.write_text(format_sset(space))
        assert main(["desing", str(src), "-o", "/dev/null", "--emit-eta", str(eta)]) == 0
        assert eta.read_bytes() == format_smap(identity_map(space)).encode()


@pytest.mark.parametrize("argv, culprit", [
    (["sd", "{tmp}/x.sset"], "{tmp}/x.sset"),
    (["dcr", "{tmp}/phi.pmap"], "{tmp}/phi.pmap"),
    (["verify", "main", "--corpus", "{tmp}/corpus"], "{tmp}/corpus/delta-2.sset"),
    (["verify", "main", "--corpus", "{tmp}/corpus"], "{tmp}/corpus/manifest.txt"),
])
def test_non_utf8_input_is_one_line_and_exit_3(tmp_path, tiny_corpus, capsys, argv, culprit):
    # a bad byte in a comment on line 3: the file is refused before parsing
    from ssetforge.corpus import save_corpus

    (tmp_path / "x.sset").write_text(STALL)
    (tmp_path / "phi.pmap").write_text(WEDGE_TO_CHAIN)
    save_corpus(tiny_corpus, tmp_path / "corpus")
    culprit = tmp_path / culprit.format(tmp=tmp_path)
    rows = culprit.read_bytes().splitlines(keepends=True)
    rows[2] = b"# \xff" + rows[2]
    culprit.write_bytes(b"".join(rows))
    assert main([a.format(tmp=tmp_path) for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"forge: {culprit}:3: byte 0xff is not UTF-8\n"


@pytest.mark.parametrize(
    "line, message",
    [
        ("member x", "a member line needs a name, a provenance, a flag and a file"),
        ("seed zero", "expected an integer seed, got 'zero'"),
        ("seed", "a seed line needs one integer"),
        ("colour red", "unknown manifest line 'colour red'"),
        ("member d1 builtin reguler d1.sset", "expected the flag regular or singular, got 'reguler'"),
        # a misspelt sd-image would give the image corollary cases of its own
        ("member d1 sd-imag regular d1.sset",
         "expected the provenance builtin, random-quotient or sd-image, got 'sd-imag'"),
        # line 3 names delta-1 already: a second line would run it twice
        ("member delta-1 builtin regular delta-1.sset", "member delta-1 declared twice"),
        # line 2 sets the seed already: a second line would override it
        ("seed 5", "seed declared twice"),
    ],
)
def test_malformed_manifest_line_names_its_line(tmp_path, tiny_corpus, capsys, line, message):
    from ssetforge.corpus import save_corpus
    from ssetforge.textio import ParseError

    cdir = tmp_path / "corpus"
    save_corpus(tiny_corpus, cdir)
    manifest = cdir / "manifest.txt"
    rows = manifest.read_text().splitlines()
    rows.insert(3, line)
    manifest.write_text("\n".join(rows) + "\n")
    with pytest.raises(ParseError) as caught:
        load_corpus(cdir)
    assert (caught.value.path, caught.value.line, str(caught.value)) == (
        str(manifest), 4, message
    )
    assert main(["verify", "main", "--corpus", str(cdir)]) == 3
    assert capsys.readouterr().err == f"forge: {manifest}:4: {message}\n"


@pytest.mark.parametrize("seed", ["+0", "1_0", "\u0663"])
def test_manifest_seed_is_ascii_digits(tmp_path, tiny_corpus, capsys, seed):
    # int() would read these as 0, 10 and 3, which save_corpus writes back
    # as other text
    from ssetforge.textio import ParseError

    cdir = tmp_path / "corpus"
    save_corpus(tiny_corpus, cdir)
    manifest = cdir / "manifest.txt"
    rows = manifest.read_text().splitlines()
    assert rows[1] == "seed 0"
    rows[1] = f"seed {seed}"
    manifest.write_text("\n".join(rows) + "\n")
    message = f"expected an integer seed, got {seed!r}"
    with pytest.raises(ParseError) as caught:
        load_corpus(cdir)
    assert (caught.value.path, caught.value.line, str(caught.value)) == (
        str(manifest), 2, message
    )
    assert main(["verify", "main", "--corpus", str(cdir)]) == 3
    assert capsys.readouterr().err == f"forge: {manifest}:2: {message}\n"


@pytest.mark.parametrize(
    "member, flag, copied, message",
    [
        ("circle", "regular", None, "member circle is flagged regular, but it is singular"),
        ("delta-2", "singular", None, "member delta-2 is flagged singular, but it is regular"),
        ("sd-circle", "regular", "delta-2.sset",
         "member sd-circle is not the subdivision of circle"),
    ],
)
def test_manifest_flag_must_match_regularity(
    tmp_path, tiny_corpus, capsys, member, flag, copied, message
):
    # a wrong flag would make verify main compare a member the theorem says
    # nothing about, or skip one it covers; a member sd-X that is not sd(X),
    # here another member's file copied over it, would be compared as sd(X)
    from ssetforge.corpus import save_corpus
    from ssetforge.textio import ParseError

    cdir = tmp_path / "corpus"
    save_corpus(tiny_corpus, cdir)
    manifest = cdir / "manifest.txt"
    rows = manifest.read_text().splitlines()
    line = next(i for i, row in enumerate(rows, 1) if row.startswith(f"member {member} "))
    name, provenance, _, fname = rows[line - 1].split()[1:]
    rows[line - 1] = f"member {name} {provenance} {flag} {fname}"
    manifest.write_text("\n".join(rows) + "\n")
    if copied:
        (cdir / fname).write_bytes((cdir / copied).read_bytes())
    with pytest.raises(ParseError) as caught:
        load_corpus(cdir)
    assert (caught.value.path, caught.value.line, str(caught.value)) == (
        str(manifest), line, message
    )
    assert main(["verify", "main", "--corpus", str(cdir)]) == 3
    assert capsys.readouterr().err == f"forge: {manifest}:{line}: {message}\n"


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    src = tmp_path / "d1.sset"
    src.write_text(format_sset(standard_simplex(1)))
    built = 0
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert main(["sd", str(src)]) == 0
    assert built > 0
    built = 0
    for argv in (["sd", str(src)], ["desing", str(src)], ["barratt", str(src)]):
        assert main(argv) == 0
    assert built == 0


def test_options_do_not_leak_between_calls(tmp_path, capsys, monkeypatch):
    src = tmp_path / "stall.sset"
    src.write_text(STALL)
    calls = []
    real = cli.desingularize

    def spy(space):
        calls.append(space)
        return real(space)

    monkeypatch.setattr(cli, "desingularize", spy)
    # six cells over a bound of five: the oracle refuses
    assert main(["desing", str(src), "--method", "oracle", "--bound", "5"]) == 2
    assert calls == []
    assert capsys.readouterr().out == "certificate Uncertified\n"
    # a bare call takes the auto path, which certifies
    assert main(["desing", str(src)]) == 0
    assert len(calls) == 1
    assert "certificate ZipperCertified" in capsys.readouterr().out
    # and the oracle is back at its default bound of ten
    assert main(["desing", str(src), "--method", "oracle"]) == 0
    assert len(calls) == 1
    assert "certificate OracleExact" in capsys.readouterr().out


def test_calls_leave_no_cyclic_garbage(tmp_path, capsys):
    # the package's collection policy rests on this: reference counting
    # frees everything the program builds, so the collector finds nothing
    assert gc.isenabled()
    assert gc.get_threshold()[0] == ssetforge.GC_GEN0_THRESHOLD
    stall = tmp_path / "stall.sset"
    stall.write_text(STALL)
    phi = tmp_path / "phi.pmap"
    phi.write_text(WEDGE_TO_CHAIN)
    cli.build_parser()  # argparse's formatters make cycles once per process
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        corpus = gen_corpus(0)
        assert run_suite("all", corpus).ok and run_suite("counterexamples", corpus).ok
        del corpus
        assert main(["sd", str(stall), "-o", str(tmp_path / "sd.sset")]) == 0
        assert main(["desing", str(stall)]) == 0
        assert main(["desing", str(stall), "--method", "zipper"]) == 2
        assert main(["desing", str(stall), "--method", "oracle"]) == 0
        assert main(["cylinder", str(phi), "--bundle"]) == 0
        assert main(["dcr", str(phi)]) == 0
        gc.collect()
        garbage = [type(o).__qualname__ for o in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == []


# one command line of each subcommand, with its options
COMMAND_LINES = [
    ["corpus", "--seed", "3", "-o", "out"],
    ["verify", "lemmas", "--seed", "2", "--report", "r.txt", "--timings"],
    ["sd", "X.sset", "-o", "Y.sset"],
    ["barratt", "X.sset"],
    ["bnat", "X.sset", "--out", "b.smap"],
    ["lastvertex", "X.sset"],
    ["desing", "X.sset", "--method", "oracle", "--bound", "4", "--emit-eta", "e.smap"],
    ["cylinder", "phi.pmap", "--bundle", "-o", "c.smap"],
    ["dcr", "phi.pmap"],
]


def test_every_subcommand_has_a_command_line():
    _, commands = cli.build_parser()
    assert sorted(commands) == sorted(argv[0] for argv in COMMAND_LINES)


@pytest.mark.parametrize("argv", COMMAND_LINES, ids=lambda argv: argv[0])
def test_a_subcommand_parser_reads_as_the_top_level_parser(argv):
    parser, commands = cli.build_parser()
    whole = vars(parser.parse_args(argv))
    assert whole.pop("command") == argv[0]
    assert vars(commands[argv[0]].parse_args(argv[1:])) == whole


def test_main_parses_a_request_once(tmp_path, capsys, monkeypatch):
    src = tmp_path / "d1.sset"
    src.write_text(format_sset(standard_simplex(1)))
    parsed = []
    parse = argparse.ArgumentParser.parse_known_args

    def counting_parse(self, *args, **kwargs):
        parsed.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting_parse)
    assert main(["desing", str(src), "--method", "zipper"]) == 0
    assert parsed == ["forge desing"]


@pytest.mark.parametrize("argv, message", [
    (["desing", "X.sset", "--bound", "x"], "argument --bound: invalid int value: 'x'"),
    (["desing", "X.sset", "--method", "best"], "argument --method: invalid choice: 'best'"),
    (["dcr", "phi.pmap", "--bound", "4"], "unrecognized arguments: --bound 4"),
    (["frobnicate", "X.sset"], "argument command: invalid choice: 'frobnicate'"),
    (["verify", "every"],
     "argument suite: invalid choice: 'every' (choose from 'main', 'lemmas', 'cylinders', 'all',"
     " 'counterexamples')"),
    # the counterexamples are a suite of verify, not a command of their own
    (["counterexamples"], "argument command: invalid choice: 'counterexamples'"),
    (["desing"], "the following arguments are required: space"),
    ([], "the following arguments are required: command"),
    (["sd", "X.sset", "--frob"], "unrecognized arguments: --frob"),
    (["cylinder", "phi.pmap", "--reduced", "--bundle"], "argument --bundle: not allowed with argument --reduced"),
    (["desing", "X.sset", "--bound", "0"], "argument --bound: only --method oracle takes a cell bound"),
    (["desing", "X.sset", "--method", "zipper", "--bound", "4"],
     "argument --bound: only --method oracle takes a cell bound"),
    (["desing", "X.sset", "--method", "oracle", "--bound", "-3"],
     "argument --bound: a cell bound is at least 0, not -3"),
    (["verify", "main", "--corpus", "DIR", "--seed", "5"],
     "argument --seed: not allowed with argument --corpus"),
    (["verify", "main", "--seed", "0", "--corpus", "DIR"],
     "argument --corpus: not allowed with argument --seed"),
])
def test_usage_error_is_one_line_and_exit_3(capsys, argv, message):
    # exit 2 means no certified desingularization, so a usage error
    # exits 3 like every other input the command cannot take
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"forge: {message}")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("argv", [["--help"], ["desing", "--help"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: forge")

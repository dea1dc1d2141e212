import hashlib

from ssetforge.colimits import is_regular
from ssetforge.corpus import SD_CAP, gen_corpus, load_corpus, save_corpus, sd_size, sphere
from ssetforge.simplicial import boundary, standard_simplex
from ssetforge.subdivision import sd
from ssetforge.textio import format_sset

from reference import is_isomorphic

# sha256 of the seed-0 corpus as corpus_digest computes it; any change to
# corpus construction or cell numbering moves it
SEED0_DIGEST = "fd17d89cde1935db305340a535bde9ebd31d3105bd1665ab48167255b75be07b"


def test_sphere_is_collapsed_boundary():
    s2 = sphere(2)
    assert len(s2.cell_ids(0)) == 1
    assert len(s2.cell_ids(2)) == 1
    # the one-vertex model is singular: the top cell's attaching square
    # is not a pushout, so these members exercise the irregular side
    assert not is_regular(s2)
    assert is_regular(sd(s2))


def test_builtins_present(corpus):
    names = {e.name for e in corpus}
    for expected in [
        "delta-2", "boundary-3", "sphere-1", "square",
        "triangle-middle-edge-collapse", "two-triangles",
    ]:
        assert expected in names


def test_irregular_member_flagged(corpus):
    by_name = {e.name: e for e in corpus}
    assert not by_name["triangle-middle-edge-collapse"].regular
    assert by_name["triangle-last-edge-collapse"].regular
    for entry in corpus:
        assert entry.regular == is_regular(entry.space)


def test_sd_images_are_regular_and_sized(corpus):
    by_name = {e.name: e for e in corpus}
    for entry in corpus:
        if entry.provenance != "sd-image":
            continue
        assert entry.regular
        base = by_name[entry.name[len("sd-"):]]
        assert len(entry.space.cells) == sd_size(base.space)
        assert is_isomorphic(entry.space, sd(base.space))


def test_population_counts(corpus):
    regular = [e for e in corpus if e.regular]
    arbitrary = [
        e for e in corpus
        if e.provenance != "sd-image" and sd_size(e.space) <= SD_CAP
    ]
    assert len(regular) >= 30
    assert len(arbitrary) >= 15


def test_deterministic():
    a, b = gen_corpus(3), gen_corpus(3)
    assert [e.name for e in a] == [e.name for e in b]
    for ea, eb in zip(a, b):
        assert ea.space.same_presentation(eb.space)
    c = gen_corpus(4)
    assert any(
        not ea.space.same_presentation(ec.space)
        for ea, ec in zip(a, c)
        if ea.provenance == "random-quotient"
    )


def test_sd_size_matches():
    assert sd_size(standard_simplex(2)) == 3 * 1 + 3 * 3 + 13
    assert sd_size(boundary(2)) == 3 + 3 * 3


def corpus_digest(corpus):
    h = hashlib.sha256()
    for e in corpus:
        h.update(f"member {e.name} {e.provenance} {e.regular}\n".encode())
        h.update(format_sset(e.space).encode())
    return h.hexdigest()


def test_seed0_corpus_pin(corpus):
    assert corpus_digest(corpus) == SEED0_DIGEST


def test_saved_corpus_reads_back_to_the_same_bytes(corpus, tmp_path):
    # the manifest and every member file, written again from what was read
    first, second = tmp_path / "first", tmp_path / "second"
    save_corpus(corpus, first)
    save_corpus(load_corpus(first), second)
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in second.iterdir())
    assert len(names) == len(corpus) + 1
    for name in names:
        assert (second / name).read_bytes() == (first / name).read_bytes(), name

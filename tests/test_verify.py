from ssetforge.colimits import collapse_subcomplex, is_regular
from ssetforge.corpus import Corpus, CorpusEntry
from ssetforge.operators import compose, ez_factor
from ssetforge.simplicial import boundary, standard_simplex
from ssetforge.subdivision import sd
from ssetforge.textio import format_sset, parse_sset
from ssetforge.verify import (
    Report,
    format_report,
    run_counterexamples,
    verify_dcr_suite,
    verify_lemma_suite,
    verify_main_theorem,
    verify_second_subdivision,
)


def tiny_corpus() -> Corpus:
    circle = collapse_subcomplex(
        standard_simplex(1), standard_simplex(1).cell_ids(0)
    ).space
    entries = []
    for name, space in [
        ("delta-1", standard_simplex(1)),
        ("delta-2", standard_simplex(2)),
        ("boundary-2", boundary(2)),
        ("circle", circle),
    ]:
        entries.append(CorpusEntry(name, space, "builtin", is_regular(space)))
    entries.append(CorpusEntry("sd-circle", sd(circle), "sd-image", True))
    return Corpus(0, entries)


def test_report_formatting_is_stable():
    rep = Report("demo")
    rep.add("beta", True, size=3, kind="x")
    rep.add("alpha", False, reason="because")
    rep.add("gamma", True, skip=True)
    text = format_report(rep)
    assert text == (
        "report demo\n"
        "  alpha: fail\n"
        "    reason = because\n"
        "  beta: pass\n"
        "    kind = x\n"
        "    size = 3\n"
        "  gamma: skip\n"
        "  summary: 1 pass, 1 fail, 1 skip\n"
    )
    assert format_report(rep) == text
    assert not rep.ok
    assert rep.count("skip") == 1


def test_counterexamples_pass():
    rep = run_counterexamples()
    assert rep.ok
    assert rep.count("pass") == 4


def test_main_theorem_on_tiny_corpus():
    corpus = tiny_corpus()
    rep = verify_main_theorem(corpus)
    names = {c.name for c in rep.cases}
    assert "main/circle" not in names  # irregular members stay out
    assert "main/delta-2" in names
    assert rep.ok


def test_main_theorem_reuses_built_sd_image(monkeypatch):
    x = boundary(2)
    image = sd(x)
    built = [CorpusEntry("b", x, "builtin", True), CorpusEntry("sd-b", image, "sd-image", True)]
    # an image read back from text has no chain labels, so it is built again
    read = [built[0], CorpusEntry("sd-b", parse_sset(format_sset(image)), "sd-image", True)]
    subdivided = []
    monkeypatch.setattr("ssetforge.verify.sd", lambda s: subdivided.append(s) or sd(s))
    reports = {}
    for name, entries in (("alone", built[:1]), ("built", built), ("read", read)):
        subdivided.clear()
        rep = verify_main_theorem(Corpus(0, entries))
        assert rep.ok
        reports[name] = [(c.outcome, c.details) for c in rep.cases if c.name == "main/b"]
        assert sum(s is x for s in subdivided) == (name != "built"), name
    assert reports["alone"] == reports["built"] == reports["read"]


def test_operator_memo_stays_small(corpus):
    # compose and ez_factor memoize without a size limit; the ranks the
    # seed-0 main theorem reaches must keep their tables small
    compose.cache_clear()
    ez_factor.cache_clear()
    assert verify_main_theorem(corpus).ok
    assert compose.cache_info().currsize < 5000
    assert ez_factor.cache_info().currsize < 5000


def test_second_subdivision_on_tiny_corpus():
    corpus = tiny_corpus()
    rep = verify_second_subdivision(corpus)
    names = {c.name for c in rep.cases}
    # arbitrary members only: the sd image is excluded, the circle is in
    assert "corollary/circle" in names
    assert "corollary/sd-circle" not in names
    assert rep.ok


def test_dcr_suite_counts_pairs():
    corpus = Corpus(0, list(tiny_corpus())[:2])
    rep = verify_dcr_suite(corpus)
    count_case = [c for c in rep.cases if c.name == "dcr/pair-count"][0]
    # every simplex through the dimension: 5 for the interval (2 vertices,
    # the edge, both degenerate edges), 19 for the triangle; still far
    # below the acceptance population
    assert count_case.outcome == "fail"
    assert dict(count_case.details)["pairs"] == "24"
    assert all(c.outcome == "pass" for c in rep.cases if c.name != "dcr/pair-count")
    degenerate = [c for c in rep.cases if "-s" in c.name]
    assert len(degenerate) == 14


def test_lemma_suite_smoke():
    rep = verify_lemma_suite(tiny_corpus(), seed=1)
    assert rep.ok
    cones = [c for c in rep.cases if c.name.startswith("cone/")]
    assert len(cones) == 88

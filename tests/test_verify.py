from ssetforge.corpus import Corpus, CorpusEntry
from ssetforge import operators
from ssetforge.simplicial import boundary
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


def test_main_theorem_on_tiny_corpus(tiny_corpus):
    rep = verify_main_theorem(tiny_corpus)
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
    # the calculus memoizes and interns without a size limit; the ranks the
    # seed-0 main theorem reaches must keep every table small.  The tables
    # are found by looking, so one added later is bounded too.
    caches = {
        name: fn for name, fn in vars(operators).items() if hasattr(fn, "cache_clear")
    }
    assert {
        "identity", "make_face", "make_degen", "make_vertex", "compose", "ez_factor",
        "face_split", "section", "face_restriction", "_degeneracy", "all_degeneracies",
    } <= set(caches)
    for fn in caches.values():
        fn.cache_clear()
    operators._CANON.clear()
    assert verify_main_theorem(corpus).ok
    sizes = {name: fn.cache_info().currsize for name, fn in caches.items()}
    sizes["_CANON"] = len(operators._CANON)
    assert sizes["compose"] and sizes["_CANON"]
    assert all(size < 5000 for size in sizes.values()), sizes


def test_second_subdivision_on_tiny_corpus(tiny_corpus):
    rep = verify_second_subdivision(tiny_corpus)
    names = {c.name for c in rep.cases}
    # arbitrary members only: the sd image is excluded, the circle is in
    assert "corollary/circle" in names
    assert "corollary/sd-circle" not in names
    assert rep.ok


def test_dcr_suite_counts_pairs(tiny_corpus):
    corpus = Corpus(0, list(tiny_corpus)[:2])
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


def test_lemma_suite_smoke(tiny_corpus):
    rep = verify_lemma_suite(tiny_corpus, seed=1)
    assert rep.ok
    cones = [c for c in rep.cases if c.name.startswith("cone/")]
    assert len(cones) == 88

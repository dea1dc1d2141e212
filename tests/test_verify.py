import gc
import hashlib
import importlib.util
import os
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

from ssetforge.cli import main
from ssetforge.colimits import is_regular
from ssetforge.corpus import Corpus, CorpusEntry, load_corpus, save_corpus, sphere
from ssetforge import cylinders, operators, verify
from ssetforge.cylinders import cylinder_reduction
from ssetforge.desingularize import _dup_operator
from ssetforge.posets import MonotoneMap, all_posets, singleton_poset
from ssetforge.simplicial import boundary, standard_simplex
from ssetforge.subdivision import sd
from ssetforge.textio import format_sset, parse_sset
from ssetforge.verify import (
    Report,
    format_report,
    verify_counterexamples,
    verify_dcr_suite,
    verify_lemma_suite,
    verify_main_theorem,
    verify_second_subdivision,
)

# sha256 of `forge verify main --seed 0`, without timings, as the parent of
# the per-space comparison record wrote it
VERIFY_MAIN_SEED0_SHA256 = (
    "4fca26fc077840a18f60ef5091605f8e62aef4ef2a1038ce8b7653910b9ee0fb"
)
# sha256 of `forge verify all --seed 0`, without timings: 771 pass, 0 fail,
# 11 skip, the report ROADMAP.md pins
VERIFY_ALL_SEED0_SHA256 = (
    "a54ebb3b4d9a6cc21611043933067b374249419b7eb89f5c88f9a733581fc158"
)
# b_nat calls in `forge verify all --seed 0` if the lemma suite built every
# b itself: 55 spaces, 39 of them twice
VERIFY_ALL_SEED0_BNAT_CALLS_UNSHARED = 94
# records the `all` report of seeds 0 to 40 in SWEEP.json
SWEEP_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "sweep.py"


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
    rep = verify_counterexamples(Corpus(0, []))
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
    # an image read back from text has sd's cell ids, so it is used as it is
    read = [built[0], CorpusEntry("sd-b", parse_sset(format_sset(image)), "sd-image", True)]
    subdivided = []
    monkeypatch.setattr("ssetforge.verify.sd", lambda s: subdivided.append(s) or sd(s))
    reports = {}
    for name, entries in (("alone", built[:1]), ("built", built), ("read", read)):
        subdivided.clear()
        verify._COMPARISONS.clear()
        rep = verify_main_theorem(Corpus(0, entries))
        assert rep.ok
        reports[name] = [(c.outcome, c.details) for c in rep.cases if c.name == "main/b"]
        assert sum(s is x for s in subdivided) == (name == "alone"), name
    assert reports["alone"] == reports["built"] == reports["read"]


def test_operator_memo_stays_small(corpus):
    # the calculus memoizes and interns without a size limit; the ranks the
    # seed-0 main theorem reaches must keep every table small.  The tables
    # are found by looking, so one added later is bounded too.
    caches = {
        name: fn for name, fn in vars(operators).items() if hasattr(fn, "cache_clear")
    }
    assert {
        "identity", "make_face", "make_vertex", "compose", "ez_factor",
        "face_split", "section", "face_restriction", "_degeneracy", "all_degeneracies",
    } <= set(caches)
    for fn in caches.values():
        fn.cache_clear()
    operators._CANON.clear()
    verify._COMPARISONS.clear()
    assert verify_main_theorem(corpus).ok
    sizes = {name: fn.cache_info().currsize for name, fn in caches.items()}
    sizes["_CANON"] = len(operators._CANON)
    assert sizes["compose"] and sizes["_CANON"]
    assert all(size < 5000 for size in sizes.values()), sizes


def test_cylinder_memos_stay_small(corpus):
    # the source side of a representing cylinder is kept once per simplex
    # dimension, and the zipper's move once per (degree, position); a
    # cone's source side is built for its call and not kept
    cylinders._SIMPLEX_SOURCES.clear()
    _dup_operator.cache_clear()
    p = all_posets(4)[-1]
    cylinder_reduction(MonotoneMap(p, singleton_poset("apex"), {e: "apex" for e in p.elements}))
    assert not cylinders._SIMPLEX_SOURCES
    assert verify_dcr_suite(corpus).ok
    dim = max(
        e.space.dim for e in corpus
        if e.regular and len(e.space.cells) <= verify._DCR_MAX_CELLS
    )
    assert set(cylinders._SIMPLEX_SOURCES) == set(range(dim + 1))
    # p < q, with q at most the dimension of the largest cylinder
    assert 0 < _dup_operator.cache_info().currsize < 100


def test_second_subdivision_on_tiny_corpus(tiny_corpus):
    rep = verify_second_subdivision(tiny_corpus)
    names = {c.name for c in rep.cases}
    # arbitrary members only: the sd image is excluded, the circle is in
    assert "corollary/circle" in names
    assert "corollary/sd-circle" not in names
    assert rep.ok


def _comparison_reports(corpus, second_first=False):
    if second_first:
        second_report = verify_second_subdivision(corpus)
        main_report = verify_main_theorem(corpus)
    else:
        main_report = verify_main_theorem(corpus)
        second_report = verify_second_subdivision(corpus)
    return format_report(main_report), format_report(second_report)


def test_comparison_reports_do_not_depend_on_campaign_order(corpus, tmp_path):
    # with an empty record, either campaign may fill it for the other; a
    # corpus read back from files has new spaces, so it starts empty too
    verify._COMPARISONS.clear()
    main_first = _comparison_reports(corpus)
    verify._COMPARISONS.clear()
    second_first = _comparison_reports(corpus, second_first=True)
    save_corpus(corpus, tmp_path / "corpus")
    loaded = _comparison_reports(load_corpus(tmp_path / "corpus"))
    assert main_first == second_first == loaded
    assert "main/sd-" in main_first[0] and "corollary/" in main_first[1]


def test_comparison_builds_t_once_per_space(corpus, monkeypatch):
    # t is b factored through the desingularization, so each t built is
    # one b_nat call
    built = []
    b_nat = verify.b_nat

    def counted(space, **kwargs):
        built.append(space)  # kept alive, so no two spaces share an id
        return b_nat(space, **kwargs)

    monkeypatch.setattr(verify, "b_nat", counted)
    verify._COMPARISONS.clear()
    main_report = verify_main_theorem(corpus)
    second_report = verify_second_subdivision(corpus)
    assert main_report.ok and second_report.ok
    per_space = Counter(id(space) for space in built)
    assert set(per_space.values()) == {1}
    # every corollary whose sd image is a corpus member reads main's verdict
    members = {e.name for e in corpus}
    reused = sum(
        1 for c in second_report.cases
        if f"sd-{c.name.removeprefix('corollary/')}" in members
    )
    assert reused
    assert len(built) == len(main_report.cases) + len(second_report.cases) - reused


def test_comparison_record_goes_with_its_space():
    verify._COMPARISONS.clear()
    x = boundary(2)
    corpus = Corpus(0, [CorpusEntry("b", x, "builtin", True)])
    assert verify_main_theorem(corpus).ok
    assert list(verify._COMPARISONS.keys()) == [x]
    dropped = weakref.ref(x)
    del x, corpus
    gc.collect()
    assert dropped() is None
    assert len(verify._COMPARISONS) == 0


def test_verify_main_report_matches_pin(tmp_path):
    report = tmp_path / "main.txt"
    assert main(["verify", "main", "--seed", "0", "--report", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == VERIFY_MAIN_SEED0_SHA256


def test_saved_corpus_gives_the_pinned_report_without_building_its_images(
    corpus, tmp_path, monkeypatch
):
    # load_corpus checks each sd-X member against sd(X), so both campaigns
    # take the loaded image as it is and subdivide no member X that has one
    save_corpus(corpus, tmp_path)
    loaded = load_corpus(tmp_path)
    names = {e.name for e in loaded}
    imaged = [e.space for e in loaded if f"sd-{e.name}" in names]
    subdivided = []
    monkeypatch.setattr("ssetforge.verify.sd", lambda s: subdivided.append(s) or sd(s))
    verify._COMPARISONS.clear()
    text = format_report(verify.run_suite("main", loaded))
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_MAIN_SEED0_SHA256
    assert len(imaged) == 26 and subdivided
    assert not any(s is x for s in subdivided for x in imaged)


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_verify_main_report_ignores_hash_seed(tmp_path, hash_seed):
    # the same seed gives the same report bytes in a fresh interpreter,
    # whatever order its sets and dicts of strings iterate in
    src = os.path.dirname(os.path.dirname(verify.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
    report = tmp_path / "main.txt"
    argv = ["verify", "main", "--seed", "0", "--report", str(report)]
    subprocess.run([sys.executable, "-m", "ssetforge.cli", *argv], env=env, check=True,
                   capture_output=True)
    assert hashlib.sha256(report.read_bytes()).hexdigest() == VERIFY_MAIN_SEED0_SHA256


def test_verify_all_report_matches_pin(verify_all_run):
    assert hashlib.sha256(verify_all_run.report).hexdigest() == VERIFY_ALL_SEED0_SHA256


def test_seed_digest_holds_the_pin_and_two_more_seeds():
    # SWEEP.json, which scripts/sweep.py records, digests the `all` report of
    # seeds 0 to 40: seed 0's entry is the pinned report, and seeds 7 and
    # 40, run again here in this process, give the reports recorded
    spec = importlib.util.spec_from_file_location("sweep", SWEEP_SCRIPT)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    recorded = sweep.load()
    assert sorted(recorded) == list(sweep.SEEDS)
    assert recorded[0]["sha256"] == VERIFY_ALL_SEED0_SHA256
    assert all(entry["fail"] == 0 for entry in recorded.values())
    assert sweep.differences(recorded, (7, 40)) == []


def test_lemma_report_reads_b_from_the_record(corpus):
    # the bnat cases give the same bytes whether main and the corollary
    # recorded b's verdict first or the lemma suite builds every b itself
    verify._COMPARISONS.clear()
    alone = format_report(verify_lemma_suite(corpus))
    assert len(verify._COMPARISONS) == 0
    assert verify_main_theorem(corpus).ok and verify_second_subdivision(corpus).ok
    recorded = {id(x) for x in verify._COMPARISONS.keys()}
    assert any(id(e.space) in recorded for e in corpus if len(e.space.cells) <= 80)
    after = format_report(verify_lemma_suite(corpus))
    assert after == alone
    assert "bnat-iso-iff-nonsingular/" in after


def test_verify_all_builds_b_once_per_space(verify_all_run):
    # the lemma suite reads b's verdict for every space that the main
    # campaign or the corollary compared
    built = verify_all_run.built
    assert set(Counter(id(space) for space in built).values()) == {1}
    assert len(built) == VERIFY_ALL_SEED0_BNAT_CALLS_UNSHARED - 39


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
    rep = verify_lemma_suite(tiny_corpus)
    assert rep.ok
    cones = [c for c in rep.cases if c.name.startswith("cone/")]
    assert len(cones) == 88


def sparse_corpora() -> dict[str, Corpus]:
    """Corpora the lemma suite's seeded draws find nothing in: one with no
    regular member, one whose only regular member has more than 12 cells
    (delta-3 has 15), and one with no member at all."""
    corpora = {"none": Corpus(0, [])}
    for name, space in (("sphere-1", sphere(1)), ("delta-3", standard_simplex(3))):
        corpora[name] = Corpus(0, [CorpusEntry(name, space, "builtin", is_regular(space))])
    return corpora


@pytest.mark.parametrize("name", ["sphere-1", "delta-3", "none"])
def test_lemma_suite_draws_nothing_from_an_empty_population(name):
    # the subcomplex draws need a regular member and the product draws a
    # regular member of at most 12 cells; without one a loop emits no case
    corpus = sparse_corpora()[name]
    rep = verify_lemma_suite(corpus)
    assert rep.ok
    kinds = Counter(c.name.split("/")[0] for c in rep.cases)
    assert kinds["subcomplex-regular"] == (50 if name == "delta-3" else 0)
    assert kinds["product-regular"] == 0
    assert kinds["cone"] == 88

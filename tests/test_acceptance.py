"""Acceptance gate: every criterion checked exactly, one printed line each.

The heavyweight campaigns run once per session through fixtures: the
campaigns of `forge verify all --seed 0` in ``verify_all_run``
(``conftest.py``), timed one by one, and the counterexamples here.
Each criterion then asserts on the relevant slice of the reports, with
the stated population minimums and wall clock budgets enforced as hard
bounds.
"""

import pytest

from ssetforge.cylinders import (
    cylinder_reduction,
    injective_in_degree,
    surjective_in_degree,
)
from ssetforge.posets import FinPoset, MonotoneMap, all_posets, singleton_poset
from ssetforge.verify import verify_counterexamples


@pytest.fixture(scope="module")
def lemma_report(verify_all_run):
    return verify_all_run.campaigns["verify_lemma_suite"]


@pytest.fixture(scope="module")
def counterexample_report(corpus):
    return verify_counterexamples(corpus)


def announce(capsys, name: str, ok: bool, note: str = "") -> None:
    with capsys.disabled():
        tail = f" ({note})" if note else ""
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)
    assert ok, name


def section(report, prefix):
    return [c for c in report.cases if c.name.startswith(prefix)]


def all_pass(cases):
    return bool(cases) and all(c.outcome == "pass" for c in cases)


def test_main_theorem_regular_corpus(verify_all_run, capsys):
    report = verify_all_run.campaigns["verify_main_theorem"]
    elapsed = verify_all_run.seconds["verify_main_theorem"]
    cases = section(report, "main/")
    zipper = all(
        dict(c.details).get("certificate") == "ZipperCertified" for c in cases
    )
    ok = all_pass(cases) and len(cases) >= 30 and zipper and elapsed < 120
    announce(
        capsys, "main-theorem-regular-corpus", ok,
        f"{len(cases)} members, all zipper-certified, {elapsed:.0f}s",
    )


def test_double_subdivision_corollary(verify_all_run, capsys):
    report = verify_all_run.campaigns["verify_second_subdivision"]
    elapsed = verify_all_run.seconds["verify_second_subdivision"]
    cases = section(report, "corollary/")
    ok = all_pass(cases) and len(cases) >= 15 and elapsed < 300
    announce(
        capsys, "double-subdivision-corollary", ok,
        f"{len(cases)} members, {elapsed:.0f}s",
    )


def test_counterexample_nonsurjective_reduction(counterexample_report, capsys):
    cases = section(counterexample_report, "nonsurjective-reduction/")
    ok = all_pass(cases) and len(cases) == 2
    announce(capsys, "counterexample-nonsurjective-reduction", ok,
             "cylinder dim 2, reduced dim 3, degree 3 not hit")


def test_counterexample_noninjective_dcr(counterexample_report, capsys):
    cases = section(counterexample_report, "noninjective-dcr/")
    ok = all_pass(cases) and len(cases) == 2
    announce(capsys, "counterexample-noninjective-dcr", ok,
             "sibling 2-cell pair survives, degrees 1 and 2 collapse")


def test_representing_cylinder_suite(verify_all_run, capsys):
    report = verify_all_run.campaigns["verify_dcr_suite"]
    elapsed = verify_all_run.seconds["verify_dcr_suite"]
    count = [c for c in report.cases if c.name == "dcr/pair-count"][0]
    pairs = int(dict(count.details)["pairs"])
    criterion = all(
        dict(c.details).get("sibling_criterion", "True") == "True"
        for c in section(report, "dcr/")
    )
    ok = report.ok and pairs >= 100 and criterion and elapsed < 300
    announce(
        capsys, "representing-cylinder-suite", ok,
        f"{pairs} pairs, sibling criterion biconditional, {elapsed:.0f}s",
    )


def test_cone_desingularization_exhaustive(lemma_report, capsys):
    cases = section(lemma_report, "cone/")
    ok = all_pass(cases) and len(cases) == 88
    announce(capsys, "cone-desingularization-exhaustive", ok,
             f"{len(cases)} posets up to 5 elements")


def test_zipper_oracle_agreement(lemma_report, capsys):
    cases = section(lemma_report, "oracle-agreement/")
    certified = [c for c in cases if c.outcome != "skip" and "/count" not in c.name]
    ok = all_pass([c for c in cases if c.outcome != "skip"]) and len(certified) >= 50
    announce(capsys, "zipper-oracle-agreement", ok,
             f"{len(certified)} certified cases agree")


def test_regularity_battery(lemma_report, capsys):
    ok = True
    counts = {}
    for prefix in (
        "sd-regular/", "subcomplex-regular/", "product-regular/",
        "bnat-iso-iff-nonsingular/", "sd-vertices/",
    ):
        cases = section(lemma_report, prefix)
        counts[prefix.rstrip("/")] = len(cases)
        ok = ok and all_pass(cases)
    announce(capsys, "regularity-battery", ok,
             ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))


def _phi_family():
    yield MonotoneMap(
        FinPoset("abc", [("a", "b"), ("a", "c")]),
        FinPoset("uvw", [("u", "v"), ("v", "w")]),
        {"a": "u", "b": "v", "c": "w"},
    )
    for p in all_posets(3):
        apex = singleton_poset("apex")
        yield MonotoneMap(p, apex, {e: "apex" for e in p.elements})
        yield MonotoneMap(p, p, {e: e for e in p.elements})


def test_structural_battery(lemma_report, capsys):
    bijections = 0
    ok = True
    for phi in _phi_family():
        bundle = cylinder_reduction(phi)
        ok = ok and injective_in_degree(bundle.reduction, 0)
        ok = ok and surjective_in_degree(bundle.reduction, 0)
        bijections += 1
    for prefix in (
        "face-cancellation/", "deflation/", "dwyer-pushout-poset/",
        "cosieve-extension/", "dwyer-implication/", "prism-nerve/", "psi-image/",
    ):
        ok = ok and all_pass(section(lemma_report, prefix))
    announce(capsys, "structural-battery", ok,
             f"degree-0 bijection on {bijections} cylinders, pushout suite green")

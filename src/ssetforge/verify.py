"""Verification campaigns: the main comparison, both counterexamples, the
supporting lemma battery, and the cylinder suite.

Each campaign takes a corpus and returns a Report, a list of named
pass/fail cases with key-value details.  Reports render as a stable text
tree so that two runs under the same seed diff cleanly; every case carries
its seconds, left out of the rendering unless asked for.  ``SUITES`` names
the campaigns of each suite of ``forge verify``, the only route to a
campaign, and ``run_suite`` merges their cases into one report; ``all`` is
the pinned report, and the counterexamples are a suite outside it.

The second-subdivision corollary is the main theorem applied to sd
images: its case for X is the main comparison for Sd X.  The verdict of
each main comparison is recorded per space, so whichever campaign reaches
a space second reads the verdict instead of building t again, and the
lemma suite reads whether b, which t factors, is an isomorphism.
"""

from __future__ import annotations

import itertools
import random
import time
import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

from .colimits import (
    collapse_subcomplex,
    disjoint_union,
    congruence_from_pairs,
    is_regular,
    kernel_congruence,
    product,
    pushout,
    quotient,
)
from .corpus import SD_CAP, Corpus, CorpusEntry, sd_size
from .cylinders import (
    cylinder_reduction,
    dcr,
    embedded_sibling_pairs,
    identifies_embedded_siblings,
    injective_in_degree,
    pushout_comparison,
    pushout_into_nerve,
    representing_sharp,
    surjective_in_degree,
)
from .desingularize import (
    Certificate,
    desingularized_comparison,
    oracle_desingularize,
    zipper_desingularize,
)
from .operators import Operator, all_faces, identity, make_vertex
from .posets import (
    FinPoset,
    MonotoneMap,
    all_posets,
    chain_poset,
    compose_monotone,
    cylinder_end,
    face_poset,
    full_subposet,
    is_cosieve,
    map_into_nerve,
    nerve,
    nerve_map,
    poset_pushout,
    product_poset,
    psi,
    sharp_map,
    singleton_poset,
)
from .simplicial import (
    Simplex,
    SimplicialMap,
    SimplicialSet,
    boundary,
    generate,
    standard_simplex,
)
from .subdivision import b_nat, sd


# -- reports -------------------------------------------------------------------


@dataclass
class CaseResult:
    name: str
    outcome: str  # pass | fail | skip
    details: tuple[tuple[str, str], ...] = ()
    seconds: float = 0.0


@dataclass
class Report:
    """Cases, each stamped with the seconds since the case before it, or
    since the report was made for the first: work between two cases counts
    toward the later one, as building ``all_posets(5)`` counts toward ``cone/0``."""

    title: str
    cases: list[CaseResult] = field(default_factory=list)
    _clock: float = field(default_factory=time.perf_counter, init=False, repr=False)

    def add(self, name: str, ok: bool, skip: bool = False, **details) -> None:
        now = time.perf_counter()
        outcome = "skip" if skip else ("pass" if ok else "fail")
        pairs = tuple((k, str(v)) for k, v in sorted(details.items()))
        self.cases.append(CaseResult(name, outcome, pairs, now - self._clock))
        self._clock = now

    def count(self, outcome: str) -> int:
        return sum(1 for c in self.cases if c.outcome == outcome)

    @property
    def ok(self) -> bool:
        return self.count("fail") == 0


def format_report(report: Report, timings: bool = False) -> str:
    lines = [f"report {report.title}"]
    for c in sorted(report.cases, key=lambda c: c.name):
        lines.append(f"  {c.name}: {c.outcome}")
        for k, v in c.details:
            lines.append(f"    {k} = {v}")
        if timings:
            lines.append(f"    seconds = {c.seconds:.6f}")
    lines.append(
        f"  summary: {report.count('pass')} pass,"
        f" {report.count('fail')} fail, {report.count('skip')} skip"
    )
    return "\n".join(lines) + "\n"


# -- the main comparison --------------------------------------------------------


def _corpus_sd(entry: CorpusEntry, by_name: dict[str, CorpusEntry]) -> SimplicialSet:
    """sd of a member, taken from the corpus when gen_corpus already built it.

    Only a built image carries (cell, chain) labels.  b_nat reads just the
    vertex labels, each vertex's carrier cell, and needs them; an image read
    from a corpus directory has no labels and is built again.
    """
    image = by_name.get(f"sd-{entry.name}")
    if image is not None and image.space.labels:
        return image.space
    return sd(entry.space)


class Comparison(NamedTuple):
    """The verdict facts of the main comparison for one space x: how sd x
    desingularized, its cell count, the cell count of the barratt nerve,
    whether t_x is an isomorphism, and whether b_x : sd x -> BX, which t_x
    factors, is one."""

    certificate: Certificate
    sd_cells: int
    barratt_cells: int
    iso: bool
    b_iso: bool


# Keyed by the space x whose subdivision is compared; SimplicialSet hashes by
# identity, so a record lives exactly as long as its space.
_COMPARISONS: weakref.WeakKeyDictionary[SimplicialSet, Comparison] = (
    weakref.WeakKeyDictionary()
)


def _compare(x: SimplicialSet, subdivide: Callable[[], SimplicialSet]) -> Comparison:
    """The main comparison for x, from the record or, on a miss, from b and
    t built on subdivide() (sd x) and validated, then recorded.  t is b
    factored through the desingularization, as ``t_nat`` builds it: b
    itself when sd x is non-singular and D makes no move, and then b's
    verdict is read once and is t's.  Only the verdict facts are kept,
    not the objects they were read from."""
    found = _COMPARISONS.get(x)
    if found is not None:
        return found
    b = b_nat(x, sd_space=subdivide())
    t, res = desingularized_comparison(b)
    b_iso = b.is_isomorphism()
    found = Comparison(
        res.certificate, len(b.source.cells), len(t.target.cells),
        b_iso if t is b else t.is_isomorphism(), b_iso,
    )
    _COMPARISONS[x] = found
    return found


def verify_main_theorem(corpus: Corpus) -> Report:
    """For every regular member the desingularized subdivision maps
    isomorphically onto the nerve of the cell poset."""
    report = Report("main-theorem")
    by_name = {e.name: e for e in corpus}
    for entry in corpus:
        if not entry.regular:
            continue
        c = _compare(entry.space, lambda: _corpus_sd(entry, by_name))
        report.add(
            f"main/{entry.name}", c.iso,
            certificate=c.certificate.value,
            sd_cells=c.sd_cells,
            barratt_cells=c.barratt_cells,
        )
    return report


def verify_second_subdivision(corpus: Corpus) -> Report:
    """For arbitrary members the same comparison holds one subdivision up:
    the double subdivision desingularizes onto the nerve of the cell poset
    of the single subdivision.

    That is the main theorem for y = Sd X, which is regular, so the case
    reads y's record when the main campaign already compared y (the corpus
    member sd-X) and fills it otherwise."""
    report = Report("second-subdivision")
    by_name = {e.name: e for e in corpus}
    for entry in corpus:
        if entry.provenance == "sd-image" or sd_size(entry.space) > SD_CAP:
            continue
        image = by_name.get(f"sd-{entry.name}")
        y = image.space if image is not None else sd(entry.space)
        c = _compare(y, lambda: sd(y))
        report.add(
            f"corollary/{entry.name}", c.iso,
            regular_input=entry.regular,
            sd2_cells=c.sd_cells,
        )
    return report


# -- the two counterexamples ----------------------------------------------------


def _wedge_to_chain() -> MonotoneMap:
    p = FinPoset("abc", [("a", "b"), ("a", "c")])
    r = FinPoset(["a2", "b2", "c2"], [("a2", "b2"), ("b2", "c2")])
    return MonotoneMap(p, r, {"a": "a2", "b": "b2", "c": "c2"})


def verify_counterexamples(corpus: Corpus) -> Report:
    """Both counterexamples; the corpus is not read."""
    report = Report("counterexamples")

    bundle = cylinder_reduction(_wedge_to_chain())
    report.add(
        "nonsurjective-reduction/dimensions",
        bundle.space.dim == 2 and bundle.reduced.dim == 3,
        topological_dim=bundle.space.dim,
        reduced_dim=bundle.reduced.dim,
    )
    report.add(
        "nonsurjective-reduction/degree-3",
        not surjective_in_degree(bundle.reduction, 3),
    )

    interval = standard_simplex(1)
    phi = sharp_map(collapse_subcomplex(interval, [0, 1]).projection)
    b91 = cylinder_reduction(phi)
    g, res = dcr(phi, bundle=b91)
    siblings = embedded_sibling_pairs(res.quotient, 2)
    report.add(
        "noninjective-dcr/sibling-pair",
        len(siblings) == 1,
        pairs=len(siblings),
        certificate=res.certificate.value,
    )
    report.add(
        "noninjective-dcr/degrees",
        injective_in_degree(g, 0)
        and not injective_in_degree(g, 1)
        and not injective_in_degree(g, 2),
        degree0=injective_in_degree(g, 0),
        degree1=injective_in_degree(g, 1),
        degree2=injective_in_degree(g, 2),
    )
    return report


# -- cylinders of representing maps ---------------------------------------------

_DCR_MAX_CELLS = 15
_DCR_ALL_SIMPLEX_CELLS = 8


def verify_dcr_suite(corpus: Corpus) -> Report:
    """For each simplex of each regular member, the cylinder of the sharp of
    its corestricted representing map reduces by an isomorphism.

    Every cell is tested on members up to _DCR_MAX_CELLS cells; degenerate
    simplices (through the member's dimension) join in on members of up to
    _DCR_ALL_SIMPLEX_CELLS, small enough that the deep cylinders stay cheap."""
    report = Report("dcr-suite")
    pairs = 0
    for entry in corpus:
        if not entry.regular or len(entry.space.cells) > _DCR_MAX_CELLS:
            continue
        x = entry.space
        degenerate_too = len(x.cells) <= _DCR_ALL_SIMPLEX_CELLS
        for q in range(x.dim + 1):
            for y in x.simplices(q):
                if y.is_degenerate and not degenerate_too:
                    continue
                phi = representing_sharp(x, y)
                bundle = cylinder_reduction(phi)
                g, res = dcr(phi, bundle=bundle)
                criterion = all(
                    injective_in_degree(g, p) == identifies_embedded_siblings(res.eta, p)
                    for p in range(1, bundle.space.dim + 1)
                )
                tag = f"cell-{y.cell}"
                if y.is_degenerate:
                    tag += "-s" + "-".join(str(r) for r in y.degen.repeats())
                report.add(
                    f"dcr/{entry.name}/{tag}", g.is_isomorphism() and criterion,
                    certificate=res.certificate.value,
                    sibling_criterion=criterion,
                )
                pairs += 1
    report.add("dcr/pair-count", pairs >= 100, pairs=pairs)
    return report


# -- the lemma battery -----------------------------------------------------------

_DEFLATION_DEGENERATE_CELLS = 40  # members whose degenerate simplices are checked too


@lru_cache(maxsize=None)
def _covering_face_pairs(n: int) -> tuple[tuple[Operator, Operator], ...]:
    faces = list(all_faces(n))
    out = []
    full = set(range(n + 1))
    for mu, nu in itertools.combinations(faces, 2):
        a, b = set(mu.values), set(nu.values)
        if a | b == full and not a <= b and not b <= a:
            out.append((mu, nu))
    return tuple(out)


def _check_face_cancellation(x: SimplicialSet) -> bool:
    """Distinct faces that keep the last vertex have distinct carriers."""
    for cid, cell in x.cells.items():
        n = cell.dim
        seen: set[int] = set()
        for mu in all_faces(n):
            if n not in mu.values:
                continue
            carrier = x.eval(x.simplex(cid), mu).cell
            if carrier in seen:
                return False
            seen.add(carrier)
        # mixed pairs: one side missing the last vertex
        for mu in all_faces(n):
            if n in mu.values:
                continue
            if x.eval(x.simplex(cid), mu).cell in seen:
                return False
    return True


def _check_deflation(x: SimplicialSet) -> tuple[bool, int]:
    """Covering face pairs with equal carriers force deflated simplices."""
    checked = 0
    for cid, cell in x.cells.items():
        for mu, nu in _covering_face_pairs(cell.dim):
            checked += 1
            if x.eval(x.simplex(cid), mu).cell == x.eval(x.simplex(cid), nu).cell:
                return False, checked  # a non-degenerate simplex cannot deflate
    if len(x.cells) <= _DEFLATION_DEGENERATE_CELLS:
        for q in range(1, x.dim + 2):
            for y in x.simplices(q):
                if not y.is_degenerate:
                    continue
                for mu, nu in _covering_face_pairs(q):
                    checked += 1
                    a, b = x.eval(y, mu), x.eval(y, nu)
                    if a.cell == b.cell and y.cell != a.cell:
                        return False, checked
    return True, checked


def _small_quotients() -> list[SimplicialSet]:
    """A deterministic family of at most-ten-cell quotients."""
    bases = [
        standard_simplex(1),
        standard_simplex(2),
        boundary(2),
        disjoint_union(standard_simplex(1), standard_simplex(1))[0],
        disjoint_union(standard_simplex(1), standard_simplex(2))[0],
    ]
    out: list[SimplicialSet] = []
    for base in bases:
        merges = []
        for q in (0, 1):
            cells = base.cell_ids(q)
            merges += [[(a, b)] for a, b in itertools.combinations(cells, 2)]
        vs = base.cell_ids(0)
        merges += [
            [p, r]
            for p, r in itertools.combinations(itertools.combinations(vs, 2), 2)
        ]
        for pairing in merges:
            pairs = [
                (
                    Simplex(a, identity(base.cells[a].dim)),
                    Simplex(b, identity(base.cells[b].dim)),
                )
                for a, b in pairing
            ]
            space = quotient(base, congruence_from_pairs(base, pairs)).space
            if len(space.cells) <= 10:
                out.append(space)
    return out


def _dwyer_triples() -> list[tuple[str, MonotoneMap, MonotoneMap, MonotoneMap]]:
    """Factorized last-face embeddings with assorted maps out of the source."""
    triples = []
    for n in (1, 2):
        p = face_poset(n - 1)
        w = product_poset(p, chain_poset(1))
        i0 = cylinder_end(p, w, 0)
        k = compose_monotone(i0, psi(n))
        targets = [
            MonotoneMap(p, p, {e: e for e in p.elements}),
            MonotoneMap(p, singleton_poset("z"), {e: "z" for e in p.elements}),
            MonotoneMap(
                p,
                chain_poset(1),
                {e: (0 if len(e.values) == 1 else 1) for e in p.elements},
            ),
        ]
        for j, phi in enumerate(targets):
            triples.append((f"last-face-{n}-{j}", i0, k, phi))
    return triples


def verify_lemma_suite(corpus: Corpus) -> Report:
    report = Report("lemma-suite")
    rng = random.Random(corpus.seed)
    members = list(corpus)
    regulars = [e for e in members if e.regular]
    by_name = {e.name: e for e in members}

    # subdivision lands in the regular class with one vertex per cell, and
    # the nerve comparison is an isomorphism exactly on non-singular members
    for entry in members:
        image = None
        if sd_size(entry.space) <= SD_CAP:
            image = _corpus_sd(entry, by_name)
            report.add(f"sd-regular/{entry.name}", is_regular(image))
            report.add(
                f"sd-vertices/{entry.name}",
                len(image.cell_ids(0)) == len(entry.space.cells),
            )
        if len(entry.space.cells) <= 80:
            c = _COMPARISONS.get(entry.space)
            if c is not None:
                iso = c.b_iso
            else:
                iso = b_nat(entry.space, sd_space=image).is_isomorphism()
            report.add(
                f"bnat-iso-iff-nonsingular/{entry.name}",
                iso == entry.space.is_nonsingular(),
                iso=iso,
            )

    # subcomplexes of regular members stay regular; with no regular member
    # there is nothing to draw from
    for i in range(50 if regulars else 0):
        entry = rng.choice(regulars)
        cells = sorted(entry.space.cells)
        seeds = rng.sample(cells, rng.randint(1, min(3, len(cells))))
        sub, _ = generate(entry.space, seeds)
        report.add(f"subcomplex-regular/{i}", is_regular(sub), member=entry.name)

    # binary products of small regular members stay regular
    small = [e for e in regulars if len(e.space.cells) <= 12]
    for i in range(15 if small else 0):
        a, b = rng.choice(small), rng.choice(small)
        pr = product(a.space, b.space).space
        report.add(
            f"product-regular/{i}", is_regular(pr), left=a.name, right=b.name
        )

    # face cancellation and deflation on the regular population
    for entry in regulars:
        report.add(f"face-cancellation/{entry.name}", _check_face_cancellation(entry.space))
        ok, checked = _check_deflation(entry.space)
        report.add(f"deflation/{entry.name}", ok, pairs_checked=checked)

    # cones desingularize to the reduced cone, exhaustively in small posets
    for i, p in enumerate(all_posets(5)):
        apex = singleton_poset("apex")
        phi = MonotoneMap(p, apex, {e: "apex" for e in p.elements})
        bundle = cylinder_reduction(phi)
        g, res = dcr(phi, bundle=bundle)
        report.add(
            f"cone/{i}",
            g.is_isomorphism(),
            elements=len(p),
            certificate=res.certificate.value,
        )

    # zipper agrees with the oracle wherever both apply
    agreed = 0
    for i, space in enumerate(_small_quotients()):
        z = zipper_desingularize(space)
        if z.certificate is not Certificate.ZIPPER:
            report.add(f"oracle-agreement/{i}", True, skip=True, cells=len(space.cells))
            continue
        o = oracle_desingularize(space, bound=10)
        same = (
            kernel_congruence(z.eta).canonical()
            == kernel_congruence(o.eta).canonical()
        )
        report.add(f"oracle-agreement/{i}", same, cells=len(space.cells))
        agreed += 1
    report.add("oracle-agreement/count", agreed >= 50, certified_cases=agreed)

    # prisms of nerves against nerves of cylinders
    for name, p in [
        ("chain-2", chain_poset(2)),
        ("wedge", FinPoset("abc", [("a", "b"), ("a", "c")])),
        ("faces-1", face_poset(1)),
    ]:
        report.add(f"prism-nerve/{name}", prism_comparison(p).is_isomorphism())

    # on each last-face embedding: it is a Dwyer map and its pushouts are
    # posets; extending a pushout from the cosieve to the whole target is
    # cocartesian; if the cosieve-level comparison is an isomorphism, so is
    # the full one
    for name, i0, k, phi in _dwyer_triples():
        ok = k.dwyer is not None
        if ok:
            try:
                poset_pushout(k, phi)
                poset_pushout(i0, phi)
            except ValueError:
                ok = False
        report.add(f"dwyer-pushout-poset/{name}", ok)
        report.add(f"cosieve-extension/{name}", _cosieve_extension_square(k, phi))
        _, _, comp_w, _ = pushout_comparison(i0, phi)
        gw, _ = desingularized_comparison(comp_w)
        _, _, comp_q, _ = pushout_comparison(k, phi)
        gq, _ = desingularized_comparison(comp_q)
        antecedent = gw.is_isomorphism()
        consequent = gq.is_isomorphism()
        report.add(
            f"dwyer-implication/{name}",
            (not antecedent) or consequent,
            antecedent=antecedent,
            consequent=consequent,
        )

    # the cosieve covering the last face misses exactly the last vertex
    for n in (1, 2, 3):
        ps = psi(n)
        image = {ps(e) for e in ps.source.elements}
        missing = set(ps.target.elements) - image
        report.add(
            f"psi-image/{n}",
            missing == {make_vertex(n, n)} and is_cosieve(ps.target, image),
        )
    return report


def prism_comparison(p: FinPoset) -> SimplicialMap:
    """The comparison NP x Delta[1] -> N(P x [1]) of the prism as a product
    with the prism as a nerve, built from its vertex map: the vertex
    ((e,), level) goes to (e, level)."""
    np_, interval = nerve(p), standard_simplex(1)
    prism = product(np_, interval)
    first, second = prism.first.assignment, prism.second.assignment

    def element_of(v: int) -> tuple:
        e = p.elements[first[v].cell]
        (level,) = interval.labels[second[v].cell].values
        return e, level

    return map_into_nerve(prism.space, nerve(product_poset(p, chain_poset(1))), element_of)


def _cosieve_extension_square(k: MonotoneMap, phi: MonotoneMap) -> bool:
    """Pushing out along the rest of the target reproduces the full pushout:
    for W the cosieve of k's Dwyer witness, the comparison of NQ u_NW
    N(W u_P R) with N(Q u_P R), by the full pushout's leg out of Q and
    by ``glue``, is an isomorphism."""
    witness = k.dwyer
    if witness is None:
        return False
    p, q = k.source, k.target
    w = full_subposet(q, witness.cosieve)
    into_w = MonotoneMap(p, w, {e: k(e) for e in p.elements})
    j = MonotoneMap(w, q, {e: e for e in w.elements})
    small = poset_pushout(into_w, phi)
    big = poset_pushout(k, phi)
    nw, nq, nsmall = nerve(w), nerve(q), nerve(small.poset)
    po = pushout(nerve_map(j, nw, nq), nerve_map(small.leg_ambient, nw, nsmall))
    # both poset pushouts name their elements ("r", y) for y in R and
    # ("q", x) for x outside k(P), and W lies in Q, so W u_P R lies in
    # Q u_P R element for element: glue is the inclusion
    glue = {e: e for e in small.poset.elements}
    comparison = pushout_into_nerve(po, nerve(big.poset), big.leg_ambient.mapping, glue)
    return comparison.is_isomorphism()


# -- suites ----------------------------------------------------------------------

SUITES: dict[str, tuple[Callable[[Corpus], Report], ...]] = {
    "main": (verify_main_theorem, verify_second_subdivision),
    "lemmas": (verify_lemma_suite,),
    "cylinders": (verify_dcr_suite,),
}
SUITES["all"] = (*SUITES["main"], *SUITES["lemmas"], *SUITES["cylinders"])
SUITES["counterexamples"] = (verify_counterexamples,)


def run_suite(name: str, corpus: Corpus) -> Report:
    """The ``verify-<name>`` report: the cases of every campaign of the
    suite ``name``, in table order."""
    report = Report(f"verify-{name}")
    for campaign in SUITES[name]:
        report.cases.extend(campaign(corpus).cases)
    return report

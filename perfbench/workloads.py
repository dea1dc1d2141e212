"""The benchmark's four workloads, each a seeded list of cases.

A workload is built from ``gen_corpus(seed)`` plus its own seeded inputs;
building it is part of set-up.  A case is one verdict (one request for
``cli-small``).  Calling ``run`` does the program's work and is timed;
it returns a ``finish`` callable, run off the clock, that checks the
outputs and gives whether the verdict is the one known by theorem,
together with the rendered verdict line that the pins hash.

Case costs span four orders of magnitude, and a session times only a
prefix of its list, about five seconds of cases.  So each case carries a
cost proxy (``weight``, from the input's size).  Cases whose weight
predicts seconds are left out: one of them would be a third of a window.
The rest are ordered by weight in bit-reversed rank order, so every
prefix mixes light and heavy cases in about the proportions of the whole
list.  The seed breaks ties, so it still decides the order.

Timed cases draw on the corpus's builtin members and their subdivisions,
which are the same for every seed.  The random members differ from seed
to seed in number and size, and so would the mix of case costs: with
them, ``cases_per_s`` moved by half between seeds.  They still take part
in set-up, since ``gen_corpus(seed)`` builds them.  The seed picks the
cells whose subcomplexes are tested, the small quotients, and the order.
"""

from __future__ import annotations

import hashlib
import io
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ssetforge.cli import main as forge_main
from ssetforge.colimits import (
    congruence_from_pairs,
    disjoint_union,
    is_regular,
    kernel_congruence,
    product,
    quotient,
)
from ssetforge.corpus import Corpus, CorpusEntry, gen_corpus, sd_size
from ssetforge.cylinders import (
    cylinder_reduction,
    dcr,
    identifies_embedded_siblings,
    injective_in_degree,
    representing_sharp,
)
from ssetforge.desingularize import Certificate, zipper_desingularize
from ssetforge.operators import identity
from ssetforge.posets import MonotoneMap, all_posets, sharp, singleton_poset
from ssetforge.simplicial import Simplex, boundary, generate, standard_simplex
from ssetforge.subdivision import sd
from ssetforge.textio import format_sset, parse_smap, parse_sset
from ssetforge.verify import (
    format_report,
    verify_main_theorem,
    verify_second_subdivision,
)

SD_CAP = 200  # the corpus's own cap on sd sizes
SUBCOMPLEXES_PER_DIMENSION = 2  # per regular member
# comparison: weight is the cell count of the subdivision the case builds;
# cases up to 434 take at most 0.25 s, the next ones up, from 2312, 1.5 to 4 s
COMPARISON_MAX_WEIGHT = 500
# regularity: weight is the cell count of the space tested (for products,
# the product of the factors' counts).  Up to 28, a case takes at most
# 0.3 s and the whole list about 4 s, so a session runs all of it.
REGULARITY_MAX_WEIGHT = 28
PRODUCT_FACTOR_CELLS = 12
PRODUCT_MAX_DIM = 3  # a 4-dimensional product takes seconds, a 6-dimensional one a minute
# cylinders: the acceptance gate's populations, without the two cases of
# weight above 256, which take 3.5 and 5.5 s (the rest take at most 1.5 s)
CYLINDERS_MAX_WEIGHT = 256
CONE_POSET_SIZE = 5
DCR_MAX_CELLS = 15
DCR_DEGENERATE_CELLS = 8
# cli-small: enough requests for a session at the parent commit's speed, twice over
SMALL_QUOTIENTS = 600
SMALL_QUOTIENT_CELLS = 10

Finish = Callable[[], tuple[bool, str]]


@dataclass
class Case:
    name: str
    weight: float
    run: Callable[[], Finish]


def arrange(cases: list[Case], seed: int, salt: str, max_weight: float) -> list[Case]:
    """Drop cases above max_weight, rank the rest by weight (seeded
    tie-break), then take ranks in bit-reversed order."""
    rng = random.Random(f"{salt}:{seed}")
    kept = [c for c in cases if c.weight <= max_weight]
    ranked = sorted(kept, key=lambda c: (c.weight, rng.random()))
    bits = max(1, (len(ranked) - 1).bit_length())
    order = (int(f"{i:0{bits}b}"[::-1], 2) for i in range(1 << bits))
    return [ranked[j] for j in order if j < len(ranked)]


# -- comparison -----------------------------------------------------------


def _report_case(name: str, weight: float, campaign, corpus: Corpus) -> Case:
    def run() -> Finish:
        report = campaign(corpus)
        return lambda: (len(report.cases) == 1 and report.ok, format_report(report))

    return Case(name, weight, run)


def cell_closures(space, rng: random.Random):
    """(cell, subcomplex it generates) for a few seeded cells of each
    positive dimension.  In a regular space, cells of one dimension have
    closures of about one size, so the seed moves the cells, not the sizes."""
    for d in range(1, space.dim + 1):
        ids = space.cell_ids(d)
        for cell in rng.sample(ids, min(SUBCOMPLEXES_PER_DIMENSION, len(ids))):
            yield cell, generate(space, [cell])[0]


def stable_members(corpus: Corpus) -> list[CorpusEntry]:
    """The builtin members and their sd images: the same for every seed."""
    builtins = {e.name for e in corpus if e.provenance == "builtin"}
    return [e for e in corpus
            if e.name in builtins or e.name.removeprefix("sd-") in builtins]


def comparison(corpus: Corpus, seed: int, workdir: Path) -> list[Case]:
    """Main theorem on regular members and on subcomplexes of them (regular
    too), corollary on members under the cap; each case is one campaign
    case on a one- or two-member corpus."""
    cases = []
    members = stable_members(corpus)
    by_name = {e.name: e for e in members}
    rng = random.Random(f"comparison:{seed}")
    for entry in members:
        if entry.regular:
            cases.append(_report_case(
                f"main/{entry.name}", sd_size(entry.space),
                verify_main_theorem, Corpus(seed, [entry]),
            ))
            for cell, sub in cell_closures(entry.space, rng):
                part = CorpusEntry(f"{entry.name}/cell-{cell}", sub, "subcomplex", True)
                cases.append(_report_case(
                    f"main/{part.name}", sd_size(sub),
                    verify_main_theorem, Corpus(seed, [part]),
                ))
        image = by_name.get(f"sd-{entry.name}")
        if entry.provenance != "sd-image" and image is not None:
            cases.append(_report_case(
                f"corollary/{entry.name}", sd_size(image.space),
                verify_second_subdivision, Corpus(seed, [entry, image]),
            ))
    return arrange(cases, seed, "comparison", COMPARISON_MAX_WEIGHT)


# -- regularity -------------------------------------------------------------


def _regular_case(name: str, weight: float, make) -> Case:
    def run() -> Finish:
        space = make()
        ok = is_regular(space)
        return lambda: (
            ok, f"{name}: {'regular' if ok else 'singular'} cells={len(space.cells)}"
        )

    return Case(name, weight, run)


def regularity(corpus: Corpus, seed: int, workdir: Path) -> list[Case]:
    """is_regular where every answer is 'regular' by theorem: sd images,
    subcomplexes of regular members, and products of small regular ones."""
    cases = []
    members = stable_members(corpus)
    for entry in members:
        if sd_size(entry.space) <= REGULARITY_MAX_WEIGHT:
            image = sd(entry.space)
            cases.append(_regular_case(
                f"sd/{entry.name}", len(image.cells), lambda s=image: s))
    # subcomplexes generated by seeded cells, a fixed number per member and
    # dimension, and every product of two small members: seeds change the
    # spaces, not the mix of sizes
    rng = random.Random(f"regularity:{seed}")
    regulars = [e for e in members if e.regular]
    for entry in regulars:
        for cell, sub in cell_closures(entry.space, rng):
            cases.append(_regular_case(
                f"subcomplex/{entry.name}/{cell}", len(sub.cells), lambda s=sub: s))
    small = [e for e in regulars if len(e.space.cells) <= PRODUCT_FACTOR_CELLS]
    for i, a in enumerate(small):
        for b in small[i:]:
            if a.space.dim + b.space.dim > PRODUCT_MAX_DIM:
                continue
            cases.append(_regular_case(
                f"product/{a.name}/{b.name}",
                len(a.space.cells) * len(b.space.cells),
                lambda x=a.space, y=b.space: product(x, y).space,
            ))
    return arrange(cases, seed, "regularity", REGULARITY_MAX_WEIGHT)


# -- cylinders ---------------------------------------------------------------


def _cone_case(i: int, poset) -> Case:
    name = f"cone/{i}"

    def run() -> Finish:
        phi = MonotoneMap(poset, singleton_poset("apex"),
                          {e: "apex" for e in poset.elements})
        bundle = cylinder_reduction(phi)
        g, res = dcr(phi, bundle=bundle)
        ok = g.is_isomorphism()
        return lambda: (ok, f"{name}: {'iso' if ok else 'not-iso'}"
                            f" elements={len(poset)} certificate={res.certificate.value}")

    return Case(name, len(poset.chains()), run)


def _dcr_case(name: str, space, simplex) -> Case:
    def run() -> Finish:
        phi = representing_sharp(space, simplex)
        bundle = cylinder_reduction(phi)
        g, res = dcr(phi, bundle=bundle)
        iso = g.is_isomorphism()
        criterion = all(
            injective_in_degree(g, p) == identifies_embedded_siblings(res.eta, p)
            for p in range(1, bundle.space.dim + 1)
        )
        return lambda: (iso and criterion,
                        f"{name}: {'iso' if iso else 'not-iso'} criterion={criterion}"
                        f" certificate={res.certificate.value}")

    # the cylinder's nerve grows with the chains below the cell, and with
    # the degree of the simplex mapped in
    sub, _ = generate(space, [simplex.cell])
    weight = len(sharp(sub).chains()) * (simplex.degree + 1)
    return Case(name, weight, run)


def cylinders(corpus: Corpus, seed: int, workdir: Path) -> list[Case]:
    """Cones over every poset with at most five elements, and the
    representing-cylinder suite over the small regular members."""
    cases = [_cone_case(i, p) for i, p in enumerate(all_posets(CONE_POSET_SIZE))]
    for entry in stable_members(corpus):
        x = entry.space
        if not entry.regular or len(x.cells) > DCR_MAX_CELLS:
            continue
        degenerate_too = len(x.cells) <= DCR_DEGENERATE_CELLS
        for q in range(x.dim + 1):
            for y in x.simplices(q):
                if y.is_degenerate and not degenerate_too:
                    continue
                tag = f"cell-{y.cell}"
                if y.is_degenerate:
                    tag += "-s" + "-".join(str(r) for r in y.degen.repeats())
                cases.append(_dcr_case(f"dcr/{entry.name}/{tag}", x, y))
    return arrange(cases, seed, "cylinders", CYLINDERS_MAX_WEIGHT)


# -- cli-small ----------------------------------------------------------------


def _small_quotient(rng: random.Random):
    bases = [
        lambda: standard_simplex(1),
        lambda: standard_simplex(2),
        lambda: boundary(2),
        lambda: disjoint_union(standard_simplex(1), standard_simplex(1))[0],
        lambda: disjoint_union(standard_simplex(1), standard_simplex(2))[0],
        lambda: disjoint_union(standard_simplex(2), standard_simplex(0))[0],
    ]
    base = rng.choice(bases)()
    pairs = []
    for _ in range(rng.randint(1, 2)):
        q = rng.choice([0, 0, 1])
        cells = base.cell_ids(q)
        if len(cells) < 2:
            continue
        a, b = rng.sample(cells, 2)
        pairs.append((Simplex(a, identity(q)), Simplex(b, identity(q))))
    return quotient(base, congruence_from_pairs(base, pairs)).space


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _forge(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = forge_main(argv)
    return code, " ".join(buf.getvalue().split())


def _desing_request(name: str, cells: int, src: Path, outdir: Path) -> Case:
    """forge desing by the zipper, then by the oracle; they must agree."""
    outs = {m: (outdir / f"{m}.sset", outdir / f"{m}.smap") for m in ("zipper", "oracle")}

    def run() -> Finish:
        answers = {
            method: _forge(["desing", str(src), "--method", method,
                            "-o", str(out), "--emit-eta", str(eta)])
            for method, (out, eta) in outs.items()
        }

        def finish() -> tuple[bool, str]:
            zipper_eta, oracle_eta = (parse_smap(eta.read_text()) for _, eta in outs.values())
            agree = (kernel_congruence(zipper_eta).canonical()
                     == kernel_congruence(oracle_eta).canonical())
            ok = agree and all(code == 0 for code, _ in answers.values())
            line = " ".join(
                f"{m}: exit={code} {text} out={_digest(outs[m][0])} eta={_digest(outs[m][1])}"
                for m, (code, text) in answers.items()
            )
            return ok, f"{name}: {line} agree={agree}"

        return finish

    return Case(name, cells, run)


def _sd_request(name: str, cells: int, src: Path, outdir: Path) -> Case:
    out = outdir / "sd.sset"

    def run() -> Finish:
        code, _ = _forge(["sd", str(src), "-o", str(out)])

        def finish() -> tuple[bool, str]:
            got = len(parse_sset(out.read_text()).cells)
            return (code == 0 and got == cells,
                    f"{name}: exit={code} cells={got} out={_digest(out)}")

        return finish

    return Case(name, cells, run)


def cli_small(corpus: Corpus, seed: int, workdir: Path) -> list[Case]:
    """forge desing (zipper, then oracle) on seeded small quotients, and
    forge sd on corpus member files, each reading and writing files."""
    indir, outdir = workdir / "in", workdir / "out"
    indir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"cli-small:{seed}")
    cases = []
    while len(cases) < SMALL_QUOTIENTS:
        space = _small_quotient(rng)
        if (len(space.cells) > SMALL_QUOTIENT_CELLS
                or zipper_desingularize(space).certificate is not Certificate.ZIPPER):
            continue
        src = indir / f"q{len(cases)}.sset"
        src.write_text(format_sset(space))
        cases.append(_desing_request(f"desing/q{len(cases)}", len(space.cells), src, outdir))
    for entry in stable_members(corpus):
        if sd_size(entry.space) <= SD_CAP:
            src = indir / f"{entry.name}.sset"
            src.write_text(format_sset(entry.space))
            cases.append(_sd_request(f"sd/{entry.name}", sd_size(entry.space), src, outdir))
    return arrange(cases, seed, "cli-small", float("inf"))


BUILDERS = {
    "comparison": comparison,
    "regularity": regularity,
    "cylinders": cylinders,
    "cli-small": cli_small,
}


def build(workload: str, seed: int, workdir: Path) -> list[Case]:
    return BUILDERS[workload](gen_corpus(seed), seed, workdir)

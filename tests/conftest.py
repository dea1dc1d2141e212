import time
from typing import NamedTuple

import pytest

from ssetforge import verify
from ssetforge.cli import main
from ssetforge.colimits import collapse_subcomplex, is_regular
from ssetforge.corpus import Corpus, CorpusEntry, gen_corpus
from ssetforge.simplicial import SimplicialSet, boundary, standard_simplex
from ssetforge.subdivision import sd


@pytest.fixture(scope="session")
def corpus():
    """The seed-0 corpus, built once for every test that reads it."""
    return gen_corpus(0)


class VerifyAllRun(NamedTuple):
    report: bytes  # the report file, without timings
    campaigns: dict[str, verify.Report]  # each campaign's report, by function name
    seconds: dict[str, float]  # each campaign's wall time
    built: list[SimplicialSet]  # every space b_nat was called on, in call order


@pytest.fixture(scope="session")
def verify_all_run(tmp_path_factory) -> VerifyAllRun:
    """`forge verify all --seed 0` run once per session, for every test
    that only reads its report or the reports of its campaigns."""
    campaigns, seconds, built = {}, {}, []
    b_nat = verify.b_nat

    def counted(space, *args, **kwargs):
        built.append(space)  # kept alive, so no two spaces share an id
        return b_nat(space, *args, **kwargs)

    def timed(campaign):
        def run(corpus):
            started = time.perf_counter()
            campaigns[campaign.__name__] = report = campaign(corpus)
            seconds[campaign.__name__] = time.perf_counter() - started
            return report
        return run

    report = tmp_path_factory.mktemp("verify-all") / "all.txt"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "b_nat", counted)
        patch.setitem(verify.SUITES, "all", tuple(map(timed, verify.SUITES["all"])))
        assert main(["verify", "all", "--seed", "0", "--report", str(report)]) == 0
    return VerifyAllRun(report.read_bytes(), campaigns, seconds, built)


@pytest.fixture
def tiny_corpus() -> Corpus:
    """Four builtin spaces, the circle among them, and the circle's sd image."""
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

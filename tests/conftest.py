import pytest

from ssetforge.colimits import collapse_subcomplex, is_regular
from ssetforge.corpus import Corpus, CorpusEntry, gen_corpus
from ssetforge.simplicial import boundary, standard_simplex
from ssetforge.subdivision import sd


@pytest.fixture(scope="session")
def corpus():
    """The seed-0 corpus, built once for every test that reads it."""
    return gen_corpus(0)


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

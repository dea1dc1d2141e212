import pytest

from ssetforge.corpus import gen_corpus


@pytest.fixture(scope="session")
def corpus():
    """The seed-0 corpus, built once for every test that reads it."""
    return gen_corpus(0)

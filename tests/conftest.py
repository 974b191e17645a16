import pytest

from formlab.harmonic import BasisCache


@pytest.fixture(scope="session")
def cache():
    """Shared in-memory basis cache, so that the tests build each basis
    and each trial block (with its independence decision) once."""
    return BasisCache()

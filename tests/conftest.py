import pytest

from trifference.constructions import triple_construction
from trifference.search import max_r_bounded, max_trifferent


@pytest.fixture(scope="session")
def exact_unrestricted():
    """Certified maximum code sizes at tiny lengths, keyed by n."""
    return {n: max_trifferent(n).best_size for n in (1, 2, 3, 4)}


# every layer small enough for the exhaustive oracle, plus the engine-only
# pairs that are still cheap to certify (seconds, not minutes)
LAYER_PAIRS = [
    (1, 0), (1, 1),
    (2, 0), (2, 1), (2, 2),
    (3, 0), (3, 1), (3, 2), (3, 3),
    (4, 0), (4, 1), (4, 2), (4, 3), (4, 4),
    (5, 0), (5, 1), (5, 2), (5, 3), (5, 4), (5, 5),
    (6, 1), (6, 3), (6, 4), (6, 5), (6, 6),
]


@pytest.fixture(scope="session")
def exact_layers():
    """Certified maximum r-bounded sizes, keyed by (n, r)."""
    return {(n, r): max_r_bounded(n, r).best_size for n, r in LAYER_PAIRS}


@pytest.fixture(scope="session")
def triple_codes():
    return {q: triple_construction(q) for q in (2, 3, 5)}

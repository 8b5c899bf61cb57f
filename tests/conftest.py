import numpy as np
import pytest

from duelbandit.rng import RngHandle


@pytest.fixture
def rng():
    return RngHandle(12345)


def random_skew(k: int, gen: np.random.Generator, cap: float = 1.0) -> np.ndarray:
    raw = gen.uniform(-cap, cap, (k, k))
    upper = np.triu(raw, 1)
    return upper - upper.T


@pytest.fixture
def make_skew():
    return random_skew


@pytest.fixture(params=[np.float64(0.5), np.zeros((3, 2)), np.zeros((3, 4, 2)),
                        np.zeros((3, 3, 3))],
                ids=["0-d", "2-d", "3x4-pairs", "wrong-d"])
def bad_linear_context(request):
    """A context that is not a (K, K, 2) feature tensor."""
    return request.param

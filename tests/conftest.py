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

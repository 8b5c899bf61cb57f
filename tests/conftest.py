import numpy as np
import pytest

from duelbandit.games import get_kernels
from duelbandit.rng import RngHandle


def available_backends() -> list[str]:
    """Every kernel backend `get_kernels` can load here."""
    names = ["python"]
    try:
        get_kernels("c")
        names.append("c")
    except ImportError:
        pass
    return names


BACKENDS = available_backends()


@pytest.fixture(params=BACKENDS)
def kernels(request):
    return get_kernels(request.param)


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

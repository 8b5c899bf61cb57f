"""Synthetic contextual dueling environments and the named matrix fixtures.

Each round an environment draws a context and its ground-truth matrix, the
conditional mean of every duel's outcome; the harness draws the outcome from
it and books the regret against it. Learners see contexts and binary
outcomes, never a matrix. Realizability holds by construction: the
generating function is a member of the hypothesis class handed to the oracle.
"""

from __future__ import annotations

import inspect

import numpy as np

from .core import PreferenceMatrix
from .errors import UnknownContext
from .rng import RngHandle

DRAW_AHEAD_ROUNDS = 256   # linear rounds drawn per environment-stream call
FINITE_CLASS_MARGIN_CAP = 0.8   # keeps win probabilities away from {0, 1}


def rps3() -> PreferenceMatrix:
    """The 3-arm cyclic matrix with no pure equilibrium."""
    return PreferenceMatrix([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])


def condorcet(k: int, margin: float) -> PreferenceMatrix:
    """Arm 0 beats every other arm by `margin`; remaining pairs tie."""
    if isinstance(margin, bool) or not isinstance(margin, (int, float)):
        raise ValueError(f"margin must be a number, got {margin!r}")
    if not 0 < margin <= 1:
        raise ValueError("margin must be in (0, 1]")
    m = np.zeros((k, k))
    m[0, 1:] = margin
    m[1:, 0] = -margin
    return PreferenceMatrix(m)


def hardness(eps: float) -> PreferenceMatrix:
    """3-arm instance where estimating the near-optimal arm forces mistakes."""
    if isinstance(eps, bool) or not isinstance(eps, (int, float)):
        raise ValueError(f"eps must be a number, got {eps!r}")
    if not 0 <= eps <= 1:
        raise ValueError("eps must be in [0, 1]")
    return PreferenceMatrix([[0, 1, 0], [-1, 0, eps], [0, -eps, 0]])


_FIXTURES = {"rps3": rps3, "condorcet": condorcet, "hardness": hardness}


def named_fixture(name: str, **params) -> PreferenceMatrix:
    """The matrix of the fixture `name`, built from exactly the parameters
    its function takes: a parameter it does not take, then one it needs and
    lacks, raises ValueError."""
    if not isinstance(name, str) or name not in _FIXTURES:
        raise ValueError(f"unknown fixture {name!r}; have {sorted(_FIXTURES)}")
    build = _FIXTURES[name]
    takes = inspect.signature(build).parameters
    unused = sorted(set(params) - set(takes))
    if unused:
        raise ValueError(f"fixture {name!r} does not take keys {unused}")
    missing = [key for key in takes if key not in params]
    if missing:
        raise ValueError(f"fixture {name!r} needs keys {missing}")
    return build(**params)


class Environment:
    """Contract: sample_round draws (context, truth), where truth is the
    context's conditional-mean matrix, so the round loop needs no second
    call; ground_truth maps a context back to that same matrix."""

    @property
    def k(self) -> int:
        raise NotImplementedError

    def sample_round(self, rng: RngHandle):
        raise NotImplementedError

    def ground_truth(self, x) -> PreferenceMatrix:
        raise NotImplementedError


class FixedMatrixEnvironment(Environment):
    """Singleton context; every round draws the same matrix."""

    def __init__(self, matrix: PreferenceMatrix):
        self.matrix = matrix

    @property
    def k(self) -> int:
        return self.matrix.k

    def sample_round(self, rng: RngHandle):
        return 0, self.matrix

    def ground_truth(self, x) -> PreferenceMatrix:
        if x != 0:
            raise UnknownContext(f"fixed environment has only context 0, got {x!r}")
        return self.matrix


class FiniteClassEnvironment(Environment):
    """Uniform contexts over a finite grid; truth is one table of a known class."""

    def __init__(self, tables: np.ndarray, truth_index: int):
        tables = np.asarray(tables, dtype=np.float64)
        if tables.ndim != 4:
            raise ValueError("tables must have shape (|F|, n_contexts, K, K)")
        if tables.shape[1] < 1:
            raise ValueError("finite-class environment needs n_contexts >= 1")
        if not 0 <= truth_index < tables.shape[0]:
            raise ValueError("truth_index outside the class")
        self.tables = tables
        self.truth_index = int(truth_index)
        self._truth = [PreferenceMatrix(tables[truth_index, c])
                       for c in range(tables.shape[1])]

    @property
    def k(self) -> int:
        return self.tables.shape[2]

    @property
    def n_contexts(self) -> int:
        return self.tables.shape[1]

    def sample_round(self, rng: RngHandle):
        # a one-context grid draws nothing; integers(0, 1) takes no bits
        x = rng.integers(0, self.n_contexts) if len(self._truth) > 1 else 0
        return x, self._truth[x]

    def ground_truth(self, x) -> PreferenceMatrix:
        xi = int(x)
        if not 0 <= xi < self.n_contexts:
            raise UnknownContext(f"context {x!r} outside grid of {self.n_contexts}")
        return self._truth[xi]


class LinearRealizableEnvironment(Environment):
    """Contexts are (K, K, d) feature tensors; truth is linear in them.

    Feature tensors are antisymmetric across the pair axes, so predictions of
    any linear model are skew by linearity; each draw is rescaled so the
    ground-truth entries land in [-1, 1].

    No learner can influence a context, so `sample_round` draws
    `DRAW_AHEAD_ROUNDS` rounds at once from the handle it is given, with
    the bits of drawing them one round at a time, and serves them in turn
    as read-only views into the block. A call with another handle starts
    a new block from that handle.
    """

    def __init__(self, k: int, weight: np.ndarray):
        k = int(k)
        if k < 2:
            raise ValueError(f"linear environment needs k >= 2 arms, got {k}")
        weight = np.array(weight, dtype=np.float64)
        if weight.ndim != 1:
            raise ValueError("weight must be a vector")
        if weight.shape[0] < 1:
            raise ValueError("linear environment needs dim >= 1, got 0")
        if not np.isfinite(weight).all():
            raise ValueError("weight entries must be finite")
        if np.abs(weight).max() > 1.0:
            raise ValueError("weight entries must lie in [-1, 1]")
        # a private copy, frozen: every draw's truth is then finite
        weight.setflags(write=False)
        self._k = k
        self.weight = weight
        self.dim = weight.shape[0]
        self._upper = np.triu(np.ones((k, k), dtype=bool), 1)
        self._source = None     # the handle the held block came from
        self._rounds = iter(())

    @property
    def k(self) -> int:
        return self._k

    def sample_round(self, rng: RngHandle):
        if rng is not self._source:
            self._source, self._rounds = rng, iter(())
        drawn = next(self._rounds, None)
        if drawn is None:
            self._rounds = self._draw_ahead(rng)
            drawn = next(self._rounds)
        return drawn

    def _draw_ahead(self, rng: RngHandle):
        """The next DRAW_AHEAD_ROUNDS rounds' (features, truth), in order."""
        k, d = self._k, self.dim
        raw = rng.generator.uniform(-1.0, 1.0, (DRAW_AHEAD_ROUNDS, k, k, d))
        feats = (raw - raw.transpose(0, 2, 1, 3)) / 2.0
        vals = feats @ self.weight
        peaks = np.abs(vals).max(axis=(1, 2))
        # the bits PreferenceMatrix stores; skew, zero diagonal, in [-1, 1]
        upper = np.where(self._upper, vals, 0.0)
        for t in np.flatnonzero(peaks > 1.0 - 1e-9):
            # headroom absorbs re-summation error when truth is recomputed
            feats[t] *= (1.0 - 1e-9) / peaks[t]
            upper[t] = np.where(self._upper, feats[t] @ self.weight, 0.0)
        feats.setflags(write=False)
        truths = map(PreferenceMatrix._unchecked,
                     upper - upper.transpose(0, 2, 1))
        return zip(feats, truths)

    def ground_truth(self, x) -> PreferenceMatrix:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape != (self._k, self._k, self.dim):
            raise UnknownContext(
                f"expected a ({self._k}, {self._k}, {self.dim}) feature tensor"
            )
        return PreferenceMatrix(x @ self.weight)


def make_finite_class(
    n_contexts: int, k: int, class_size: int, rng: RngHandle
) -> FiniteClassEnvironment:
    """Random finite hypothesis class with the truth designated inside it.

    Entries are uniform in [-FINITE_CLASS_MARGIN_CAP, FINITE_CLASS_MARGIN_CAP],
    antisymmetrized; the environment's `tables` hold the whole class for
    the oracle.
    """
    if class_size < 1:
        raise ValueError("class_size must be >= 1")
    gen = rng.generator
    raw = gen.uniform(-FINITE_CLASS_MARGIN_CAP, FINITE_CLASS_MARGIN_CAP,
                      (class_size, n_contexts, k, k))
    upper = np.triu(raw, 1)
    tables = upper - upper.transpose(0, 1, 3, 2)
    truth_index = int(gen.integers(0, class_size))
    return FiniteClassEnvironment(tables, truth_index)


def make_linear_environment(
    k: int, dim: int, rng: RngHandle
) -> LinearRealizableEnvironment:
    """Linear environment with a random weight vector in [-1, 1]^d."""
    w = rng.generator.uniform(-1.0, 1.0, dim)
    return LinearRealizableEnvironment(k, w)

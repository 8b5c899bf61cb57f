"""Domain types and sampling primitives shared by every other module.

The zero-sum convention used throughout: a preference matrix P is
skew-symmetric with entries in [-1, 1], zero diagonal, and P[a, b] is the
expected win-signal of arm a over arm b, so Pr(a beats b) = (P[a, b] + 1) / 2.
"""

from __future__ import annotations

import functools
import logging
import math
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from .errors import (
    DiagonalViolation,
    RangeViolation,
    SkewSymmetryViolation,
)
from .rng import RngHandle

log = logging.getLogger(__name__)

SKEW_TOLERANCE = 1e-12
SIMPLEX_TOLERANCE = 1e-9
RENORMALIZE_LIMIT = 1e-6


def _as_square(entries) -> np.ndarray:
    arr = np.asarray(entries, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


class PreferenceMatrix:
    """K x K skew-symmetric matrix in [-1, 1], validated and immutable.

    Stored entries are exactly antisymmetrized (lower triangle is the
    negated upper triangle) so downstream skew checks can be exact.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        arr = _as_square(entries)
        k = arr.shape[0]
        if k < 2:
            raise ValueError(f"arm count must be >= 2, got {k}")
        if not np.isfinite(arr).all():
            raise RangeViolation("non-finite entry in preference matrix")
        diag = np.diagonal(arr)
        bad = np.nonzero(diag != 0.0)[0]
        if bad.size:
            raise DiagonalViolation(int(bad[0]), float(diag[bad[0]]))
        asym = arr + arr.T
        worst = np.unravel_index(np.argmax(np.abs(asym)), asym.shape)
        if abs(asym[worst]) > SKEW_TOLERANCE:
            i, j = int(worst[0]), int(worst[1])
            i, j = min(i, j), max(i, j)
            raise SkewSymmetryViolation(i, j, float(arr[i, j]), float(arr[j, i]))
        if np.abs(arr).max() > 1.0:
            worst = np.unravel_index(np.argmax(np.abs(arr)), arr.shape)
            raise RangeViolation(
                f"entry {arr[worst]!r} at {tuple(int(x) for x in worst)} "
                "outside [-1, 1]"
            )
        upper = np.triu(arr, 1)
        exact = upper - upper.T
        exact.setflags(write=False)
        self.entries = exact

    @classmethod
    def _unchecked(cls, entries: np.ndarray) -> PreferenceMatrix:
        """Wrap an exactly skew matrix in [-1, 1] built inside the package.

        Skips every check of `__init__`; `entries` is frozen, not copied.
        """
        m = cls.__new__(cls)
        entries.setflags(write=False)
        m.entries = entries
        return m

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        return f"PreferenceMatrix(k={self.k})"


def _clean_weights(raw, shape_name: str) -> np.ndarray:
    w = np.asarray(raw, dtype=np.float64).copy()
    if not np.isfinite(w).all():
        raise ValueError(f"non-finite weight in {shape_name}")
    if w.min() < -SKEW_TOLERANCE:
        raise ValueError(f"negative weight {w.min()!r} in {shape_name}")
    np.clip(w, 0.0, None, out=w)
    total = w.sum()
    dev = abs(total - 1.0)
    if dev > RENORMALIZE_LIMIT:
        raise ValueError(f"{shape_name} mass {total!r} too far from 1")
    if dev > SIMPLEX_TOLERANCE:
        w /= total
    w.setflags(write=False)
    return w


class ActionDistribution:
    """Point of the K-simplex (arm marginal or adversary response).

    The weights are frozen, so their running sums, which `sample_pair`
    draws from, are computed once per distribution.
    """

    __slots__ = ("weights", "_cumulative")

    def __init__(self, weights):
        w = _clean_weights(weights, "distribution")
        if w.ndim != 1 or w.shape[0] < 1:
            raise ValueError(f"expected a weight vector, got shape {w.shape}")
        self.weights = w
        self._cumulative = None

    @classmethod
    def _unchecked(cls, weights: np.ndarray) -> ActionDistribution:
        """Wrap a simplex point computed inside the package (a solver's
        output): no checks, no renormalization; `weights` is frozen, not
        copied."""
        d = cls.__new__(cls)
        weights.setflags(write=False)
        d.weights = weights
        d._cumulative = None
        return d

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    def __repr__(self) -> str:
        return f"ActionDistribution(k={self.k})"


class JointActionDistribution:
    """Distribution over ordered arm pairs (a, b) in [K] x [K]."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"expected K x K weights, got shape {w.shape}")
        self.weights = _clean_weights(w, "joint distribution")

    @classmethod
    def _unchecked(cls, weights: np.ndarray) -> JointActionDistribution:
        """Wrap a K x K joint computed inside the package (a solver's output
        or an exact product): no checks, no renormalization; `weights` is
        frozen, not copied."""
        j = cls.__new__(cls)
        weights.setflags(write=False)
        j.weights = weights
        return j

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    def left_marginal(self) -> ActionDistribution:
        return ActionDistribution(self.weights.sum(axis=1))

    def right_marginal(self) -> ActionDistribution:
        return ActionDistribution(self.weights.sum(axis=0))

    def __repr__(self) -> str:
        return f"JointActionDistribution(k={self.k})"


@functools.lru_cache(maxsize=32)
def pair_indices(k: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.triu_indices(k, 1)`, the pair order a < b, cached and read-only."""
    rows, cols = np.triu_indices(k, 1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def clamp_forecasts(forecasts: np.ndarray) -> np.ndarray:
    """A stack (S, K, K) of skew forecasts, each clamped into [-1, 1].

    The stack itself is returned when every entry is in [-1, 1], else its
    `np.clip`, which keeps each matrix skew and leaves an entry in range
    as it is. Each matrix with an entry out of range, or NaN, is logged.
    """
    if forecasts.max() <= 1.0:
        return forecasts
    out = np.clip(forecasts, -1.0, 1.0)
    k = forecasts.shape[1]
    # each pair is counted twice; NaN != NaN counts as clamped
    changed = np.count_nonzero(out != forecasts, axis=(1, 2))
    for n_changed in changed[changed > 0].tolist():
        log.debug("clamp_forecasts clamped %d of %d predictions into [-1, 1]",
                  n_changed // 2, k * (k - 1) // 2)
    return out


def skew_complete(forecast) -> PreferenceMatrix:
    """The preference matrix of an oracle's K x K skew forecast.

    The forecast must be exactly skew with a zero diagonal, as every
    oracle's `predict_matrix` returns it; only its shape is checked. It is
    clamped as `clamp_forecasts` clamps a stack of one. A forecast already
    in [-1, 1] is wrapped as a read-only view, not copied.
    """
    m = _as_square(forecast)
    return PreferenceMatrix._unchecked(clamp_forecasts(m[None])[0])


def sample_outcome(p_value: float, rng: RngHandle) -> int:
    """Draw +1 with probability (p_value + 1) / 2, else -1."""
    if not math.isfinite(p_value) or abs(p_value) > 1.0:
        raise RangeViolation(f"win-signal {p_value!r} outside [-1, 1]")
    return 1 if rng.random() < (p_value + 1.0) / 2.0 else -1


def _draw_categorical(cumulative, rng: RngHandle) -> int:
    """An index drawn from running sums, a list of floats or an array."""
    # inverse-CDF draw; independent of numpy's choice() internals. The
    # cumulative sums never decrease, so bisect_right finds the index
    # np.searchsorted(side="right") would, without a numpy call.
    u = rng.random() * cumulative[-1]
    return min(bisect_right(cumulative, u), len(cumulative) - 1)


def sample_pair(dist: ActionDistribution, rng: RngHandle) -> tuple[int, int]:
    """Two iid draws from the same marginal (product measure p x p)."""
    cum = dist._cumulative
    if cum is None:
        # as floats, the bits of `cumsum`, which adds one by one too
        cum = dist._cumulative = list(accumulate(dist.weights.tolist()))
    return _draw_categorical(cum, rng), _draw_categorical(cum, rng)


def sample_joint(joint: JointActionDistribution, rng: RngHandle) -> tuple[int, int]:
    """One draw of an ordered pair from the joint."""
    idx = _draw_categorical(joint.weights.cumsum(), rng)  # row-major
    return divmod(idx, joint.weights.shape[0])


def product_joint(dist: ActionDistribution) -> JointActionDistribution:
    """The exact product measure p x p as a joint distribution."""
    w = dist.weights
    return JointActionDistribution._unchecked(w[:, None] * w)  # np.outer

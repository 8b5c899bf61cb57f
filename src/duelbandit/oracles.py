"""Online square-loss regression oracles with predict-then-update semantics.

Every oracle answers two calls. `predict_matrix(context)` returns the K x K
skew matrix of its forecasts for every pair of the context and changes no
state. `update(context, a, b, y)` folds in the label y of the pair (a, b).
Labels are the raw duel outcomes in {-1, +1}, whose conditional mean is
exactly the ground-truth preference entry, so no recentering is applied.
A finite-class context is an integer id; a linear context is the
(K, K, d) tensor of pair features.

Implemented: weighted-average exponential aggregation over a finite class,
the ridge forecaster that folds the current input into its design before
predicting, and projected online gradient descent. Generalized-linear,
kernel and Banach-space oracles are declared unsupported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import pair_indices
from .errors import DimensionMismatch, UnsupportedOracle

EXP_WEIGHTS_ETA = 0.125  # square loss on [-1,1] predictions is 1/8-exp-concave

_UNSUPPORTED_KINDS = ("glm", "glmtron", "rkhs", "kernel", "banach")


@dataclass(frozen=True)
class RegretBudget:
    """Known upper bound T -> RegSq(T) on an oracle's square-loss regret."""

    bound_fn: Callable[[float], float]

    def __call__(self, horizon: float) -> float:
        return float(self.bound_fn(horizon))


def regret_budget(
    oracle_kind: str,
    *,
    class_size: int | None = None,
    dim: int | None = None,
    ridge: float = 1.0,
    radius: float = 1.0,
) -> RegretBudget:
    """The regret bound the harness uses to tune the exploration rate.

    finite: 8 ln|F| (the 1/8-exp-concavity constant for the [-1,1] loss
    range; a tighter constant holds only for [0,1]-range conventions).
    vaw: d ln(1 + T/d) + ridge * radius^2. ogd: radius * L * sqrt(T).
    """
    kind = oracle_kind.lower()
    if kind in _UNSUPPORTED_KINDS:
        raise UnsupportedOracle(f"oracle kind {oracle_kind!r} is out of scope")
    if kind == "finite":
        if not class_size or class_size < 1:
            raise ValueError("finite-class budget needs class_size >= 1")
        const = 8.0 * np.log(max(class_size, 2))
        return RegretBudget(lambda t: const)
    if kind == "vaw":
        if not dim or dim < 1:
            raise ValueError("vaw budget needs dim >= 1")
        c0 = ridge * radius * radius
        return RegretBudget(lambda t: dim * np.log(1.0 + t / dim) + c0)
    if kind == "ogd":
        if not dim or dim < 1:
            raise ValueError("ogd budget needs dim >= 1")
        scale = radius * (2.0 * (radius + 1.0))
        return RegretBudget(lambda t: scale * np.sqrt(t))
    raise UnsupportedOracle(f"unknown oracle kind {oracle_kind!r}")


class FiniteClassAggregator:
    """Exponentially weighted average over a finite set of hypotheses.

    Hypotheses are precomputed prediction tables of shape
    (|F|, n_contexts, K, K); contexts are integer ids. The forecast is the
    weight-weighted mean of hypothesis predictions.
    """

    def __init__(self, tables: np.ndarray):
        tables = np.asarray(tables, dtype=np.float64)
        if tables.ndim != 4:
            raise ValueError("tables must have shape (|F|, n_contexts, K, K)")
        self.tables = tables
        self.log_weights = np.zeros(tables.shape[0])
        self._n_updates = 0

    @property
    def class_size(self) -> int:
        return self.tables.shape[0]

    @property
    def weights(self) -> np.ndarray:
        w = np.exp(self.log_weights - self.log_weights.max())
        return w / w.sum()

    def _context(self, context) -> int:
        x = int(context)
        if not 0 <= x < self.tables.shape[1]:
            raise DimensionMismatch(f"context id {x} outside table")
        return x

    def predict_matrix(self, context) -> np.ndarray:
        return np.einsum("f,fij->ij", self.weights,
                         self.tables[:, self._context(context)])

    def update(self, context, a: int, b: int, y: float) -> None:
        preds = self.tables[:, self._context(context), a, b]
        self.log_weights = self.log_weights - EXP_WEIGHTS_ETA * (preds - y) ** 2
        self._n_updates += 1
        if self._n_updates % 512 == 0:
            self.log_weights -= self.log_weights.max()  # drift guard

    def regret_budget(self) -> RegretBudget:
        return regret_budget("finite", class_size=self.class_size)


def _features(context, dim: int) -> np.ndarray:
    """A linear context: the (K, K, dim) tensor of pair features."""
    x = np.asarray(context, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != dim:
        raise DimensionMismatch(
            f"context has shape {x.shape}, expected (K, K, {dim})")
    return x


def _skew_forecasts(context, dim: int, forecast) -> np.ndarray:
    """The K x K skew matrix of `forecast` over a linear context's pairs.

    `forecast` runs on the pair rows x[a, b], a < b, only; its values are
    copied into the upper triangle and negated into the lower one, so each
    entry has the bits of its pair row's forecast.
    """
    x = _features(context, dim)
    k = x.shape[0]
    triu = pair_indices(k)
    m = np.zeros((k, k))
    m[triu] = forecast(x[triu])
    m -= m.T
    return m


class _RidgeState:
    """Regularized least squares: the gram matrix A = ridge*I + sum x x^T,
    the moment vector b = sum y x, and A^{-1}, held by Sherman-Morrison and
    recomputed from A every `RESYNC_EVERY` updates to shed rank-one drift."""

    RESYNC_EVERY = 1024

    def __init__(self, dim: int, ridge: float):
        if not ridge > 0.0:
            raise ValueError(f"ridge must be > 0, got {ridge!r}")
        self.gram = np.eye(dim) * ridge
        self.moment = np.zeros(dim)
        self._inv = np.eye(dim) / ridge
        self._updates = 0

    def add(self, x: np.ndarray, y: float) -> None:
        self.gram += x[:, None] * x  # the outer product
        self.moment += y * x
        v = self._inv @ x
        self._inv -= v[:, None] * v / (1.0 + x @ v)
        self._updates += 1
        if self._updates % self.RESYNC_EVERY == 0:
            self._inv = np.linalg.inv(self.gram)

    def predict(self, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each row x of `feats`: the ridge mean b^T A^{-1} x and the
        quadratic form x^T A^{-1} x."""
        v = self._inv @ feats.T                      # (d, n)
        return self.moment @ v, np.sum(feats.T * v, axis=0)


class VawForecaster:
    """Ridge forecaster whose design includes the input being predicted.

    State is the ridge state (A, b); the forecast at x is
    b^T (A + x x^T)^{-1} x = b^T A^{-1} x / (1 + x^T A^{-1} x).
    """

    def __init__(self, dim: int, ridge: float = 1.0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)
        self.ridge = float(ridge)
        self.state = _RidgeState(self.dim, self.ridge)

    def _forecast(self, feats: np.ndarray) -> np.ndarray:
        """Batched forecasts; rank-one identity avoids per-row solves."""
        mean, quad = self.state.predict(feats)
        return mean / (1.0 + quad)

    def predict_matrix(self, context) -> np.ndarray:
        return _skew_forecasts(context, self.dim, self._forecast)

    def update(self, context, a: int, b: int, y: float) -> None:
        self.state.add(_features(context, self.dim)[a, b], y)

    def regret_budget(self) -> RegretBudget:
        return regret_budget("vaw", dim=self.dim, ridge=self.ridge)


class OgdForecaster:
    """Projected online gradient descent on the square loss.

    Step size radius / (L sqrt(T)) with gradient bound
    L = 2 (radius + 1) for features of norm at most 1; iterates projected
    onto the L2 ball of the given radius.
    """

    def __init__(self, dim: int, horizon: int, radius: float = 1.0):
        if dim < 1 or horizon < 1:
            raise ValueError("dim and horizon must be >= 1")
        if not radius > 0.0:
            raise ValueError(f"radius must be > 0, got {radius!r}")
        self.dim = int(dim)
        self.radius = float(radius)
        lip = 2.0 * (radius + 1.0)
        self.step = radius / (lip * np.sqrt(horizon))
        self.theta = np.zeros(dim)

    def predict_matrix(self, context) -> np.ndarray:
        return _skew_forecasts(context, self.dim, lambda feats: feats @ self.theta)

    def update(self, context, a: int, b: int, y: float) -> None:
        x = _features(context, self.dim)[a, b]
        grad = 2.0 * (self.theta @ x - y) * x
        theta = self.theta - self.step * grad
        norm = np.linalg.norm(theta)
        if norm > self.radius:
            theta *= self.radius / norm
        self.theta = theta

    def regret_budget(self) -> RegretBudget:
        return regret_budget("ogd", dim=self.dim, radius=self.radius)

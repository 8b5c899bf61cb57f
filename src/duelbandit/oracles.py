"""Online square-loss regression oracles with predict-then-update semantics.

Every oracle answers two calls. `predict_matrix(context)` returns the K x K
skew matrix of its forecasts for every pair of the context and changes no
state. `update(context, a, b, y)` folds in the label y of the pair (a, b).
A forecast is exactly skew with a zero diagonal, and callers must not
write to it: the finite-class oracle memoizes it read-only per context
until its next `update`, which is how its stacked `prepare_forecasts`
hands each forecast to `predict_matrix`. The linear oracles build a fresh
array on every call.
Labels are the raw duel outcomes in {-1, +1}, whose conditional mean is
exactly the ground-truth preference entry, so no recentering is applied.
A finite-class context is an integer id; a linear context is the
(K, K, d) tensor of pair features.

Implemented: weighted-average exponential aggregation over a finite class,
the ridge forecaster that folds the current input into its design before
predicting, and projected online gradient descent. The linear oracles and
their regret budgets are fixed at ridge RIDGE = 1 and weight-ball radius
RADIUS = 1; these take no setting. Any other oracle kind (generalized-linear,
kernel, Banach-space) is unsupported.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import pair_indices
from .errors import DimensionMismatch, UnsupportedOracle

EXP_WEIGHTS_ETA = 0.125  # square loss on [-1,1] predictions is 1/8-exp-concave
RIDGE = 1.0   # the linear oracles' regularizer lambda
RADIUS = 1.0  # the L2 ball of linear weights the budgets compete with


def regret_budget(
    kind: str,
    *,
    class_size: int | None = None,
    dim: int | None = None,
) -> Callable[[float], float]:
    """The bound T -> RegSq(T) the harness uses to tune the exploration rate.

    finite: 8 ln|F| (the 1/8-exp-concavity constant for the [-1,1] loss
    range; a tighter constant holds only for [0,1]-range conventions).
    vaw: d ln(1 + T/d) + RIDGE * RADIUS^2. ogd: RADIUS * L * sqrt(T).
    Any other kind raises UnsupportedOracle.
    """
    if kind == "finite":
        if not class_size or class_size < 1:
            raise ValueError("finite-class budget needs class_size >= 1")
        const = float(8.0 * np.log(max(class_size, 2)))
        return lambda t: const
    if kind not in ("vaw", "ogd"):
        raise UnsupportedOracle(f"oracle kind {kind!r} is out of scope")
    if not dim or dim < 1:
        raise ValueError(f"{kind} budget needs dim >= 1")
    if kind == "vaw":
        c0 = RIDGE * RADIUS * RADIUS
        return lambda t: float(dim * np.log(1.0 + t / dim) + c0)
    scale = RADIUS * (2.0 * (RADIUS + 1.0))
    return lambda t: float(scale * np.sqrt(t))


def exp_weights(log_weights: np.ndarray) -> np.ndarray:
    """The normalized exponential weights of each row of an (S, |F|) stack
    of log-weights; a row's max and sum run along it alone, so it gets the
    bits it gets as a stack of one."""
    w = log_weights - log_weights.max(axis=1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=1, keepdims=True)
    return w


class FiniteClassAggregator:
    """Exponentially weighted average over a finite set of hypotheses.

    Hypotheses are precomputed prediction tables of shape
    (|F|, n_contexts, K, K), held as a private copy; contexts are integer
    ids. The forecast is the weight-weighted mean of hypothesis
    predictions, computed once per context between updates and held
    read-only. `prepare_forecasts` computes the missing forecasts of many
    aggregators in one stacked pass.
    """

    def __init__(self, tables: np.ndarray):
        self.tables = np.array(tables, dtype=np.float64)
        if self.tables.ndim != 4:
            raise ValueError("tables must have shape (|F|, n_contexts, K, K)")
        self.log_weights = np.zeros(self.class_size)
        self._n_updates = 0
        self._forecasts: dict[int, np.ndarray] = {}  # context id -> forecast
        # (context id, a, b, y) -> the scaled losses of an update with a
        # label in {-1, +1}: at most twice the tables
        self._losses: dict[tuple, np.ndarray] = {}

    @property
    def class_size(self) -> int:
        return self.tables.shape[0]

    @property
    def weights(self) -> np.ndarray:
        return exp_weights(self.log_weights[None])[0]

    def _context(self, context) -> int:
        x = int(context)
        if not 0 <= x < self.tables.shape[1]:
            raise DimensionMismatch(f"context id {x} outside table")
        return x

    @classmethod
    def prepare_forecasts(cls, oracles: list, contexts: list) -> None:
        """Hold each oracle's forecast for its context, computing those it
        does not hold in one stacked pass.

        A forecast is `einsum("sf,sfij->sij")` of the weights and the
        gathered `tables[:, x]`: each entry sums over f in the same order as
        one oracle's `einsum("f,fij->ij")`, so an oracle gets the same bits
        in any stack. The tables are exactly skew, so the mean is too.
        """
        missing, ids = [], []
        for oracle, context in zip(oracles, contexts):
            x = oracle._context(context)
            if x not in oracle._forecasts:
                missing.append(oracle)
                ids.append(x)
        if not missing:
            return
        weights = exp_weights(np.array([oracle.log_weights
                                        for oracle in missing]))
        tables = np.array([oracle.tables[:, x]
                           for oracle, x in zip(missing, ids)])
        forecasts = np.einsum("sf,sfij->sij", weights, tables)
        forecasts.flags.writeable = False
        for oracle, x, forecast in zip(missing, ids, forecasts):
            oracle._forecasts[x] = forecast

    def predict_matrix(self, context) -> np.ndarray:
        x = self._context(context)
        m = self._forecasts.get(x)
        if m is None:
            self.prepare_forecasts([self], [x])
            m = self._forecasts[x]
        return m

    def update(self, context, a: int, b: int, y: float) -> None:
        key = (self._context(context), a, b, y)
        loss = self._losses.get(key)
        if loss is None:
            preds = self.tables[:, key[0], a, b]
            loss = EXP_WEIGHTS_ETA * (preds - y) ** 2
            if y in (-1.0, 1.0):  # the labels a duel gives
                self._losses[key] = loss
        self.log_weights = self.log_weights - loss
        self._forecasts = {}
        self._n_updates += 1
        if self._n_updates % 512 == 0:
            self.log_weights -= self.log_weights.max()  # drift guard

    def regret_budget(self) -> Callable[[float], float]:
        return regret_budget("finite", class_size=self.class_size)


def _features(context, dim: int) -> np.ndarray:
    """A linear context as its (K, K, dim) tensor, or DimensionMismatch."""
    x = np.asarray(context, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] != x.shape[0] or x.shape[2] != dim:
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
    """Regularized least squares: the gram matrix A = RIDGE*I + sum x x^T,
    the moment vector b = sum y x, and A^{-1}, held by Sherman-Morrison and
    recomputed from A every `RESYNC_EVERY` updates to shed rank-one drift."""

    RESYNC_EVERY = 1024

    def __init__(self, dim: int):
        self.gram = np.eye(dim) * RIDGE
        self.moment = np.zeros(dim)
        self._inv = np.eye(dim) / RIDGE
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

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)
        self.state = _RidgeState(self.dim)

    def _forecast(self, feats: np.ndarray) -> np.ndarray:
        """Batched forecasts; rank-one identity avoids per-row solves."""
        mean, quad = self.state.predict(feats)
        return mean / (1.0 + quad)

    def predict_matrix(self, context) -> np.ndarray:
        return _skew_forecasts(context, self.dim, self._forecast)

    def update(self, context, a: int, b: int, y: float) -> None:
        self.state.add(_features(context, self.dim)[a, b], y)

    def regret_budget(self) -> Callable[[float], float]:
        return regret_budget("vaw", dim=self.dim)


class OgdForecaster:
    """Projected online gradient descent on the square loss.

    Step size RADIUS / (L sqrt(T)) with gradient bound
    L = 2 (RADIUS + 1) for features of norm at most 1; iterates projected
    onto the L2 ball of radius RADIUS.
    """

    def __init__(self, dim: int, horizon: int):
        if dim < 1 or horizon < 1:
            raise ValueError("dim and horizon must be >= 1")
        self.dim = int(dim)
        lip = 2.0 * (RADIUS + 1.0)
        self.step = RADIUS / (lip * np.sqrt(horizon))
        self.theta = np.zeros(dim)

    def predict_matrix(self, context) -> np.ndarray:
        return _skew_forecasts(context, self.dim, lambda feats: feats @ self.theta)

    def update(self, context, a: int, b: int, y: float) -> None:
        x = _features(context, self.dim)[a, b]
        grad = 2.0 * (self.theta @ x - y) * x
        theta = self.theta - self.step * grad
        norm = np.linalg.norm(theta)
        if norm > RADIUS:
            theta *= RADIUS / norm
        self.theta = theta

    def regret_budget(self) -> Callable[[float], float]:
        return regret_budget("ogd", dim=self.dim)

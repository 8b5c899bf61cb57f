"""The three learners as explicit step machines.

Each exposes select(context, rng) -> (joint distribution, sampled duel) and
observe(context, duel, outcome) -> state update. Production select/observe
never see the ground truth; the harness runs its diagnostics from read-only
snapshots the learners publish (last confidence matrix, last marginal, ...).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import (
    product_joint,
    sample_joint,
    sample_pair,
    skew_complete,
)
from .errors import GammaTooSmall, HorizonTooShort
from .games import (
    minmax_slack,
    minmax_violation,
    solve_cce,
    solve_minmax_feasibility,
    zero_pivot_cces,
)
from .oracles import RIDGE, _RidgeState
from .rng import RngHandle

UNEXPLORED_WIDTH_CAP = 2.0  # diameter of the payoff range [-1, 1]


def default_gamma(k: int, horizon: int,
                  budget: Callable[[float], float]) -> float:
    """Exploration rate sqrt(20 K T / RegSq(T)).

    Valid only for T >= 4K RegSq(T); below that the main guarantee is
    silent and HorizonTooShort is raised.
    """
    reg = budget(horizon)
    if reg <= 0:
        raise ValueError(f"degenerate regret budget {reg!r}")
    if horizon < 4.0 * k * reg:
        raise HorizonTooShort(
            f"T={horizon} below 4K*RegSq(T)={4.0 * k * reg:.1f}"
        )
    return float(np.sqrt(20.0 * k * horizon / reg))


def _publish_cce(learner, mean: np.ndarray, width: np.ndarray,
                 upper: np.ndarray, report, rng: RngHandle):
    """The CCE learners' common round tail: publishes the round's snapshot
    on `learner` and samples a duel from the joint of `report`."""
    joint = report.point
    learner.last_mean = mean
    learner.last_confidence = width
    learner.last_upper = upper
    learner.last_iterations = report.iterations
    return joint, sample_joint(joint, rng)


class CceDb:
    """Count-based learner: empirical preference estimates, per-pair
    confidence widths, and a coarse correlated equilibrium of the upper
    confidence matrix each round, at confidence level delta = 1/T.

    `prepare_round` computes a round's statistics and the solves that need
    no simplex pivot for many learners at once; `select` uses what it left
    and runs as a batch of one when it left nothing.
    """

    kind = "ccedb"
    gamma = None

    def __init__(self, k: int, horizon: int):
        self.k = int(k)
        self.delta = 1.0 / horizon
        self.wins = np.zeros((k, k))
        self.t = 1
        self.last_mean: np.ndarray | None = None
        self.last_confidence: np.ndarray | None = None
        self.last_upper: np.ndarray | None = None
        self.last_iterations = 0
        self._basis: list[int] = []  # the last CCE solve's simplex basis
        self._row = 0  # the row of the stack that `wins` is a view of
        self._prepared = None  # this round's (mean, width, upper, report)

    def counts(self) -> np.ndarray:
        return self.wins + self.wins.T

    @staticmethod
    def _stacked_wins(learners: list) -> np.ndarray:
        """The learners' win counts as one (S, K, K) array whose rows their
        `wins` are views of; stacked again only when the learners are not
        the rows of the last call's stack, in order."""
        stack = learners[0].wins.base
        if stack is None or len(stack) != len(learners) or not all(
                learner.wins.base is stack and learner._row == row
                for row, learner in enumerate(learners)):
            stack = np.stack([learner.wins for learner in learners])
            for row, learner in enumerate(learners):
                learner.wins = stack[row]
                learner._row = row
        return stack

    @classmethod
    def prepare_round(cls, learners: list) -> None:
        """Give every learner (all of one K) its round's mean, width and
        upper matrices and the CCE solve that needs no pivot, if there is
        one, in one stacked pass; each learner's next `select` uses them.

        A pair duelled n > 0 times has mean 2 wins / n - 1 and width
        sqrt(log_term / n); an unexplored pair has mean 0 and width
        min(CAP, sqrt(log_term / 2)). Both come from quotients by one
        matrix h, with the exact bits of those formulas:

        - on an explored pair h = n / 2. Halving is exact, so wins / h is
          exactly 2 (wins / n), and (log_term / 2) / h is log_term / n;
        - on an unexplored pair wins is 0 and h = max(1, (log_term / 2) /
          CAP^2), so (log_term / 2) / h is exactly CAP^2 or log_term / 2,
          because CAP = 2 is a power of two.

        Subtracting the boolean `explored` takes 1 off the explored means.
        Every operation acts on each learner's K x K block alone, so a
        learner gets the same bits in any batch. Each round's arrays are
        new, so a published snapshot is never overwritten.
        """
        wins = cls._stacked_wins(learners)
        n = wins + wins.transpose(0, 2, 1)
        explored = n > 0
        log_term = np.log([learner.k * learner.k * learner.t * learner.t
                           / learner.delta for learner in learners])
        half_log = (0.5 * log_term)[:, None, None]
        half_n = np.where(explored, 0.5 * n, np.maximum(
            1.0, half_log / UNEXPLORED_WIDTH_CAP ** 2))
        mean = np.subtract(wins / half_n, explored)
        width = np.sqrt(half_log / half_n)
        upper = mean + width
        k = wins.shape[1]
        upper.reshape(len(learners), k * k)[:, ::k + 1] = 0.0  # diagonals
        reports = zero_pivot_cces(upper,
                                  [learner._basis for learner in learners])
        for learner, *prepared in zip(learners, mean, width, upper, reports):
            learner._prepared = prepared

    def select(self, context, rng: RngHandle):
        """Solve the CCE of the current upper matrix and sample a duel."""
        if self._prepared is None:
            self.prepare_round([self])
        (mean, width, upper, report), self._prepared = self._prepared, None
        if report is None:
            # neither the pure point nor the previous round's basis (which
            # usually still gives a CCE, since the upper matrix moves
            # little) serves: pivot from scratch, without trying the basis
            # again
            self._basis.clear()
            report = solve_cce(upper, warm_start=self._basis)
        return _publish_cce(self, mean, width, upper, report, rng)

    def observe(self, context, duel: tuple[int, int], outcome: int) -> None:
        if outcome not in (-1, 1):
            raise ValueError(f"outcome must be -1 or +1, got {outcome}")
        a, b = duel
        win = (outcome + 1) / 2.0
        self.wins[a, b] += win
        self.wins[b, a] += 1.0 - win
        self.t += 1


class CceLinDb:
    """Ridge-regression learner for feature-tensor contexts: linear point
    estimates and ellipsoidal confidence widths from one product with the
    ridge state's held inverse, CCE of the upper matrix. The widths scale by
    the OFUL multiplier sqrt(d ln((1 + T/RIDGE) / delta)) + sqrt(RIDGE) at
    delta = 1/T."""

    kind = "ccelindb"
    gamma = None

    def __init__(self, dim: int, horizon: int):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)
        self.state = _RidgeState(self.dim)
        delta = 1.0 / horizon
        self.width_multiplier = float(
            np.sqrt(dim * np.log((1.0 + horizon / RIDGE) / delta))
            + np.sqrt(RIDGE)
        )
        self.last_mean: np.ndarray | None = None
        self.last_confidence: np.ndarray | None = None
        self.last_upper: np.ndarray | None = None
        self.last_iterations = 0

    def select(self, context, rng: RngHandle):
        x = np.asarray(context, dtype=np.float64)
        k = x.shape[0]
        if x.ndim != 3 or x.shape[2] != self.dim:
            raise ValueError(f"context must be (K, K, {self.dim}) features")
        mean, quad = self.state.predict(x.reshape(k * k, self.dim))
        mean = mean.reshape(k, k)
        width = np.sqrt(np.maximum(quad, 0.0, out=quad), out=quad).reshape(k, k)
        width *= self.width_multiplier  # the width the upper matrix adds
        upper = mean + width
        upper.flat[::k + 1] = 0.0  # the diagonal
        return _publish_cce(self, mean, width, upper, solve_cce(upper), rng)

    def observe(self, context, duel: tuple[int, int], outcome: int) -> None:
        if outcome not in (-1, 1):
            raise ValueError(f"outcome must be -1 or +1, got {outcome}")
        x = np.asarray(context, dtype=np.float64)[duel[0], duel[1]]
        self.state.add(x, float(outcome))


class MinMaxDb:
    """Oracle-based learner: query all-pairs predictions, assemble them into
    a skew matrix, solve the inverse-gap feasibility program, and duel two
    iid draws from the resulting marginal."""

    kind = "minmaxdb"

    def __init__(self, k: int, gamma: float, oracle):
        if not 2.0 * k <= gamma < np.inf:
            raise GammaTooSmall(f"gamma={gamma} below 2K={2 * k} or not finite")
        self.k = int(k)
        self.gamma = float(gamma)
        self.oracle = oracle
        self._stop_violation = minmax_slack(self.k, self.gamma) / 2.0
        self._forecast = None    # the oracle forecast last seen
        self._solved = None      # the held (marginal, joint)
        self.last_prediction = None
        self.last_marginal: np.ndarray | None = None
        self.last_violation = np.inf  # the held marginal's, last forecast
        self.last_iterations = 0

    def select(self, context, rng: RngHandle):
        """Play a marginal that meets the inverse-gap program of the forecast.

        Any marginal within the descent's stop test serves the round, so
        the held marginal is kept while it meets that test under the
        current forecast, and solved again, warm-started from itself, only
        when it misses. Its violation is what a solve finds at iteration 0
        (the held marginal lies on the floored simplex, so the solve's
        projection copies it), and a solve that meets the test there
        returns it after 0 iterations: keeping it gives the bits of solving
        every round. The violation is computed once per forecast object,
        so an unchanged object (the finite oracle hands it back until an
        update or a change of context) reuses it. A NaN violation fails
        the test, and the solver raises NotConverged.
        """
        forecast = self.oracle.predict_matrix(context)
        if forecast is not self._forecast:
            y_hat = skew_complete(forecast)
            self._forecast = forecast
            self.last_prediction = y_hat
            if self.last_marginal is not None:
                self.last_violation = minmax_violation(
                    y_hat, self.gamma, self.last_marginal)
        if self.last_violation <= self._stop_violation:
            self.last_iterations = 0
        else:
            report = solve_minmax_feasibility(
                self.last_prediction, self.gamma,
                warm_start=self.last_marginal,
            )
            p = report.point
            self._solved = p, product_joint(p)
            self.last_marginal = p.weights
            self.last_violation = report.max_violation
            self.last_iterations = report.iterations
        p, joint = self._solved
        return joint, sample_pair(p, rng)

    def observe(self, context, duel: tuple[int, int], outcome: int) -> None:
        if outcome not in (-1, 1):
            raise ValueError(f"outcome must be -1 or +1, got {outcome}")
        a, b = duel
        if a != b:
            # canonical pair order; the target is skew, so flip the label
            if a > b:
                a, b, outcome = b, a, -outcome
            self.oracle.update(context, a, b, float(outcome))

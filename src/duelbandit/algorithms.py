"""The three learners as explicit step machines.

A round is `select(context, rng) -> (joint, duel)`, then `observe(context,
duel, outcome)`; neither sees the truth. `select` publishes a `last_*`
snapshot, which `check_round(truth, joint)` tests against the truth in
diagnostic runs; `regret_scale(k, t)` normalizes the regret. The
classmethod `prepare_round(learners, contexts)` of `CceDb` and `MinMaxDb`
does a lockstep group's round up to the per-seed solve in one stacked pass
gathered from each learner's own state, with the bits each learner gets
alone; a group's learners are built from one config. `CceLinDb` has none.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import (
    PreferenceMatrix,
    clamp_forecasts,
    product_joint,
    sample_joint,
    sample_pair,
)
# no learner calls `skew_complete` since MinMaxDb clamps in stacks, but
# perfbench wraps it by this name in this module
from .core import skew_complete  # noqa: F401
from .errors import DiagnosticFailure, GammaTooSmall, HorizonTooShort
from .evaluation import exposure
from .games import (
    minmax_rhs,
    minmax_stop_violation,
    minmax_violations,
    solve_cce,
    solve_minmax_feasibility,
    zero_pivot_cces,
)
from .oracles import RIDGE, _features, _RidgeState
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


class _CceLearner:
    """The CCE learners' round tail, per-round check and regret scale; the
    upper matrix is a skew `last_mean` plus a symmetric `last_confidence`."""

    gamma = None
    last_mean = last_confidence = last_upper = None
    last_iterations = 0

    def _publish(self, mean: np.ndarray, width: np.ndarray,
                 upper: np.ndarray, report, rng: RngHandle):
        """Publish the snapshot; sample a duel from the joint of `report`."""
        joint = report.point
        self.last_mean = mean
        self.last_confidence = width
        self.last_upper = upper
        self.last_iterations = report.iterations
        return joint, sample_joint(joint, rng)

    def check_round(self, truth, joint) -> bool:
        """Whether the confidence set covers `truth`; if it does, regret
        above 2 sum p * width raises DiagnosticFailure."""
        mean, width = self.last_mean, self.last_confidence
        covered = bool((np.abs(truth.entries - mean) <= width + 1e-12).all())
        if covered:
            lhs = float((truth.entries @ exposure(joint)).max())
            c_eff = width.copy()
            np.fill_diagonal(c_eff, 0.0)
            rhs = 2.0 * float(np.sum(joint.weights * c_eff))
            if lhs > rhs + 1e-8:
                raise DiagnosticFailure("instantaneous-regret bound broken: "
                                        f"{lhs:.6g} > {rhs:.6g}")
        return covered

    @staticmethod
    def regret_scale(k: int, t: int) -> float:
        """K log(KT) sqrt(T)."""
        return k * np.log(k * t) * np.sqrt(t)


class CceDb(_CceLearner):
    """Count-based learner: empirical preference estimates, per-pair
    confidence widths, and a coarse correlated equilibrium of the upper
    confidence matrix each round, at confidence level delta = 1/T.

    `prepare_round` computes a round's statistics and the solves that need
    no simplex pivot for many learners at once; `select` uses what it left
    and runs as a batch of one when it left nothing.
    """

    kind = "ccedb"

    def __init__(self, k: int, horizon: int):
        self.k = int(k)
        self.delta = 1.0 / horizon
        self.wins = np.zeros((k, k))
        self.t = 1
        self._basis = ()  # the last CCE solve's simplex basis
        self._prepared = None  # this round's (mean, width, upper, report)

    def counts(self) -> np.ndarray:
        return self.wins + self.wins.T

    @classmethod
    def prepare_round(cls, learners: list, contexts: list) -> None:
        """Give every learner (all of one K) its round's mean, width and
        upper matrices and the CCE solve that needs no pivot, if there is
        one, in one stacked pass; each learner's next `select` uses them.
        The count learner reads no context, so `contexts` goes unused.

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
        The pass stacks each learner's own `wins` afresh and acts on each
        K x K block alone, so a learner gets the same bits in any batch.
        Each round's arrays are new, so a published snapshot is never
        overwritten.
        """
        wins = np.array([learner.wins for learner in learners])
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
            self.prepare_round([self], [context])
        (mean, width, upper, report), self._prepared = self._prepared, None
        if report is None:
            report = solve_cce(upper)
        self._basis = report.basis
        return self._publish(mean, width, upper, report, rng)

    def observe(self, context, duel: tuple[int, int], outcome: int) -> None:
        if outcome not in (-1, 1):
            raise ValueError(f"outcome must be -1 or +1, got {outcome}")
        a, b = duel
        win = (outcome + 1) / 2.0
        self.wins[a, b] += win
        self.wins[b, a] += 1.0 - win
        self.t += 1


class CceLinDb(_CceLearner):
    """Ridge-regression learner for feature-tensor contexts: linear point
    estimates and ellipsoidal confidence widths from one product with the
    ridge state's held inverse, CCE of the upper matrix. The widths scale by
    the OFUL multiplier sqrt(d ln((1 + T/RIDGE) / delta)) + sqrt(RIDGE) at
    delta = 1/T."""

    kind = "ccelindb"

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

    def select(self, context, rng: RngHandle):
        x = _features(context, self.dim)
        k = x.shape[0]
        mean, quad = self.state.predict(x.reshape(k * k, self.dim))
        mean = mean.reshape(k, k)
        width = np.sqrt(np.maximum(quad, 0.0, out=quad), out=quad).reshape(k, k)
        width *= self.width_multiplier  # the width the upper matrix adds
        upper = mean + width
        upper.flat[::k + 1] = 0.0  # the diagonal
        return self._publish(mean, width, upper, solve_cce(upper), rng)

    def observe(self, context, duel: tuple[int, int], outcome: int) -> None:
        if outcome not in (-1, 1):
            raise ValueError(f"outcome must be -1 or +1, got {outcome}")
        x = _features(context, self.dim)[duel[0], duel[1]]
        self.state.add(x, float(outcome))


class MinMaxDb:
    """Oracle-based learner: query all-pairs predictions, assemble them into
    a skew matrix, solve the inverse-gap feasibility program, and duel two
    iid draws from the resulting marginal.

    The held marginal starts uniform. `prepare_round` asks the oracles for
    a round's forecasts and tests the held marginals against them for many
    learners at once; `select` uses what it left and runs as a batch of
    one when it left nothing.
    """

    kind = "minmaxdb"

    def __init__(self, k: int, gamma: float, oracle):
        if not 2.0 * k <= gamma < np.inf:
            raise GammaTooSmall(f"gamma={gamma} below 2K={2 * k} or not finite")
        self.k = int(k)
        self.gamma = float(gamma)
        self.oracle = oracle
        self._stop_violation = minmax_stop_violation(self.k, self.gamma)
        self._solved = None      # the last solve's (point, product joint)
        self._prepared = False   # whether this round's forecast is in
        self.last_prediction = None
        self.last_marginal = np.full(self.k, 1.0 / self.k)
        self.last_violation = np.inf  # the held marginal's, last forecast
        self.last_iterations = 0

    @classmethod
    def prepare_round(cls, learners: list, contexts: list) -> None:
        """Give every learner (all of one K and one gamma) its clamped
        forecast of its context and the held marginal's violation under
        it, in one stacked pass; each learner's next `select` uses them.

        An oracle class with a stacked `prepare_forecasts` (the finite
        class) computes the forecasts it does not hold in one pass first;
        then each oracle's `predict_matrix` is asked once. The forecasts
        are stacked for `clamp_forecasts`, each learner's prediction is a
        read-only view of its row, and the violations are
        `minmax_violations`, whose rows have the bits of a stack of one,
        so a learner gets the same bits in any batch.
        """
        prepare_forecasts = getattr(type(learners[0].oracle),
                                    "prepare_forecasts", None)
        if prepare_forecasts is not None:
            prepare_forecasts([learner.oracle for learner in learners],
                              contexts)
        y_hats = clamp_forecasts(np.array([
            learner.oracle.predict_matrix(x)
            for learner, x in zip(learners, contexts)]))
        violations = minmax_violations(
            y_hats, np.array([learner.last_marginal for learner in learners]),
            learners[0].gamma)
        for learner, y_hat, violation in zip(learners, y_hats,
                                             violations.tolist()):
            learner.last_prediction = PreferenceMatrix._unchecked(y_hat)
            learner.last_violation = violation
            learner._prepared = True

    def select(self, context, rng: RngHandle):
        """Play a marginal that meets the inverse-gap program of the forecast.

        Any marginal within the solver's stop test serves the round, so
        the held marginal of the last solve is kept while it meets that
        test under the current forecast, and solved again, warm-started
        from itself, only when it misses. Its violation is what a solve
        finds at step 0, and a solve that meets the test there returns it
        as it is after 0 iterations: keeping it gives the bits of solving
        every round. The first round solves from the uniform marginal,
        where a cold solve starts. A NaN violation fails the test, and the
        solver raises NotConverged.
        """
        if not self._prepared:
            self.prepare_round([self], [context])
        self._prepared = False
        if (self._solved is not None
                and self.last_violation <= self._stop_violation):
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

    def check_round(self, truth, joint) -> bool:
        """The inverse-gap program's per-round inequality, or DiagnosticFailure;
        True, as the oracle learner has no coverage event to count."""
        p = self.last_marginal
        y_hat = self.last_prediction.entries
        f = truth.entries
        lhs = float((f @ p).max())
        sq = float(p @ ((f - y_hat) ** 2) @ p)
        rhs = (0.5 * self.gamma * sq + minmax_rhs(self.k, self.gamma)
               + max(self.last_violation, 0.0))
        if lhs > rhs + 1e-9:
            raise DiagnosticFailure(
                f"per-round inequality broken: {lhs:.6g} > {rhs:.6g}")
        return True

    def regret_scale(self, k: int, t: int) -> float:
        """sqrt(K T RegSq(T)), with the oracle's declared budget."""
        return np.sqrt(k * t * max(self.oracle.regret_budget()(t), 1e-12))

    def observe(self, context, duel: tuple[int, int], outcome: int) -> None:
        if outcome not in (-1, 1):
            raise ValueError(f"outcome must be -1 or +1, got {outcome}")
        a, b = duel
        if a != b:
            # canonical pair order; the target is skew, so flip the label
            if a > b:
                a, b, outcome = b, a, -outcome
            self.oracle.update(context, a, b, float(outcome))

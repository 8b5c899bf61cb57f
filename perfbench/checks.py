"""Output checks: what every seed run must satisfy, recomputed from scratch.

A `Recorder` wraps the learner class's `select` and copies, each round,
the joint it returned and the snapshot it published (`last_upper` for the
CCE learners; `last_prediction` and `last_marginal` for `MinMaxDb`).
After a batch, `check_seed` recomputes every round's best-response step
from the logged joint and a ground truth the benchmark built, and tests the
paper's per-round properties on the logged values. No check compares
against stored output.
"""

from __future__ import annotations

import math

import numpy as np

EPS = np.finfo(np.float64).eps
STEP_TOLERANCE = 1e-12     # recomputed BR step vs the ledger's, and fb <= br
CCE_TOLERANCE = 1e-8       # D p <= this, the solver's violation tolerance


class RoundLog:
    """One seed's per-round copies, in arrays allocated at its first round."""

    def __init__(self, learner, horizon: int, with_context: bool):
        self.learner = learner
        self.horizon = horizon
        self.with_context = with_context
        self.rounds = 0
        self.joint = self.upper = self.context = None
        self.prediction = self.marginal = None

    def _allocate(self, joint, context) -> None:
        shape = (self.horizon,) + joint.weights.shape
        self.joint = np.empty(shape)
        if self.learner.kind == "minmaxdb":
            self.prediction = np.empty(shape)
            self.marginal = np.empty(shape[:2])
        else:
            self.upper = np.empty(shape)
        if self.with_context:
            self.context = np.empty((self.horizon,) + np.shape(context))

    def add(self, joint, context) -> None:
        t = self.rounds
        if t == 0:
            self._allocate(joint, context)
        self.joint[t] = joint.weights
        learner = self.learner
        if self.upper is not None:
            self.upper[t] = learner.last_upper
        else:
            self.prediction[t] = learner.last_prediction.entries
            self.marginal[t] = learner.last_marginal
        if self.context is not None:
            self.context[t] = context
        self.rounds = t + 1


class Recorder:
    """Logs what one learner class publishes, one RoundLog per seed.

    The seed is read from the learner's random stream, which the harness
    derives from the run seed.
    """

    def __init__(self, horizon: int, with_context: bool):
        self.horizon = horizon
        self.with_context = with_context
        self.logs: dict[int, RoundLog] = {}

    def capture(self, learner, joint, context, seed: int) -> None:
        log = self.logs.get(seed)
        if log is None:
            log = self.logs[seed] = RoundLog(learner, self.horizon,
                                             self.with_context)
        log.add(joint, context)

    def take(self) -> dict[int, RoundLog]:
        logs, self.logs = self.logs, {}
        return logs

    def install(self, learner_cls, capture=None):
        """Wrap `learner_cls.select`; returns a function that undoes it."""
        original = learner_cls.__dict__["select"]
        capture = capture or self.capture

        def select(learner, context, rng):
            joint, duel = original(learner, context, rng)
            capture(learner, joint, context, rng.seed)
            return joint, duel

        learner_cls.select = select

        def uninstall():
            learner_cls.select = original
        return uninstall


def recomputed_br_steps(truth: np.ndarray, joint: np.ndarray,
                        context: np.ndarray | None) -> np.ndarray:
    """0.5 * max_i (F_t @ exposure_t)_i for every round t.

    `truth` is a fixed K x K matrix, or (with `context`) the weight vector
    of a linear environment, in which case F_t = context_t @ truth.
    """
    expo = joint.sum(axis=2) + joint.sum(axis=1)
    if context is None:
        values = expo @ truth.T
    else:
        f = context @ truth
        values = np.einsum("tij,tj->ti", f, expo)
    return 0.5 * values.max(axis=1)


def worst_cce_gain(joint: np.ndarray, upper: np.ndarray) -> float:
    """Largest deviation gain, max over t of max(D_t p_t), from upper_t.

    Row player: deviating to a* against the column marginal gains
    (U q)_a* - sum_ab p_ab U_ab. Column player: deviating to b* against
    the row marginal gains (U r)_b* - sum_ab p_ab U_ba.
    """
    col = joint.sum(axis=1)
    row = joint.sum(axis=2)
    value_row = np.einsum("tab,tab->t", joint, upper)
    value_col = np.einsum("tab,tba->t", joint, upper)
    gain_row = np.einsum("tij,tj->ti", upper, col) - value_row[:, None]
    gain_col = np.einsum("tij,tj->ti", upper, row) - value_col[:, None]
    return float(max(gain_row.max(), gain_col.max()))


def worst_minmax_excess(prediction: np.ndarray, marginal: np.ndarray,
                        gamma: float) -> float:
    """max over t, i of (Y_t p_t)_i + (2/gamma)/p_t,i - (5K/gamma + K/gamma)."""
    k = marginal.shape[1]
    g = np.einsum("tij,tj->ti", prediction, marginal) + (2.0 / gamma) / marginal
    return float(g.max() - (5.0 * k / gamma + k / gamma))


def check_csv(path: str, seed: int, horizon: int) -> list[str]:
    """T rows for this seed, and br_cum the running sum of br_step."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    cols = [header.index(c) for c in ("seed", "t", "br_step", "br_cum")]
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols, ndmin=2)
    if data.shape[0] != horizon:
        return [f"{path}: {data.shape[0]} rows, expected {horizon}"]
    problems = []
    if not (data[:, 0] == seed).all():
        problems.append(f"{path}: seed column is not {seed}")
    if not (data[:, 1] == np.arange(1, horizon + 1)).all():
        problems.append(f"{path}: t column is not 1..{horizon}")
    running = np.cumsum(data[:, 2])
    # naive and compensated running sums of t non-negative terms differ by
    # at most (t + 2) eps times the sum
    tol = (np.arange(1, horizon + 1) + 2) * EPS * running
    gap = np.abs(running - data[:, 3]) - tol
    if gap.max() > 0:
        t = int(gap.argmax()) + 1
        problems.append(f"{path}: br_cum is not the running sum of br_step "
                        f"at t={t}")
    return problems


def check_seed(workload, truth, summary, ledger: dict, log: RoundLog | None,
               csv_path: str | None) -> list[str]:
    """Every per-seed check; returns the problems found (empty if none)."""
    seed, horizon = summary.seed, workload.horizon
    where = f"seed {seed}"
    if summary.status != "ok":
        return [f"{where}: status {summary.status}"]
    br = np.asarray(ledger["br_steps"])
    fb = np.asarray(ledger["fb_steps"])
    logged = 0 if log is None else log.rounds
    if br.size != horizon or logged != horizon:
        return [f"{where}: {br.size} ledger rounds and {logged} logged "
                f"rounds, expected {horizon}"]
    problems = []
    expected = recomputed_br_steps(truth, log.joint, log.context)
    worst = int(np.abs(expected - br).argmax())
    if abs(expected[worst] - br[worst]) > STEP_TOLERANCE:
        problems.append(f"{where}: br_step {float(br[worst])!r} at t={worst + 1} vs "
                        f"recomputed {float(expected[worst])!r}")
    if br.min() < -STEP_TOLERANCE or br.max() > 1.0 + STEP_TOLERANCE:
        problems.append(f"{where}: br_step outside [0, 1]")
    if (fb - br).max() > STEP_TOLERANCE:
        problems.append(f"{where}: fb_step > br_step at "
                        f"t={int((fb - br).argmax()) + 1}")
    total = math.fsum(br)
    if abs(summary.final_br - total) > 4.0 * EPS * total:
        problems.append(f"{where}: final regret {summary.final_br!r} vs "
                        f"fsum of steps {total!r}")
    if log.upper is not None:
        gain = worst_cce_gain(log.joint, log.upper)
        if gain > CCE_TOLERANCE:
            problems.append(f"{where}: CCE deviation gain {gain:.3e}")
    if log.marginal is not None:
        excess = worst_minmax_excess(log.prediction, log.marginal,
                                     log.learner.gamma)
        if excess > 0.0:
            problems.append(f"{where}: inverse-gap constraint exceeded by "
                            f"{excess:.3e}")
    if csv_path is not None:
        problems += check_csv(csv_path, seed, horizon)
    return problems

"""Ground-truth regret accounting.

Best-response regret is computed in closed form from the learner's logged
joint distribution (the expectation form), never by Monte-Carlo: the max
over response distributions is attained at a pure arm because the objective
is linear in the response. Policy regret, by its definition, uses the
realized duels. Cumulative sums are compensated (Kahan) so acceptance
tolerances hold at long horizons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ActionDistribution, JointActionDistribution, PreferenceMatrix
from .errors import DimensionMismatch


def _check_k(f_star: PreferenceMatrix, joint: JointActionDistribution):
    if f_star.k != joint.k:
        raise DimensionMismatch(
            f"matrix k={f_star.k} vs joint k={joint.k}"
        )


def _check_q_star(f_star: PreferenceMatrix, q_star: ActionDistribution):
    if q_star.k != f_star.k:
        raise DimensionMismatch(f"q_star k={q_star.k} vs matrix k={f_star.k}")


def exposure(joint: JointActionDistribution) -> np.ndarray:
    """Sum of the two duel marginals (each arm's chance of appearing)."""
    w = joint.weights
    return w.sum(axis=1) + w.sum(axis=0)


def br_regret_step(f_star: PreferenceMatrix, joint: JointActionDistribution) -> float:
    """Best pure response value against the learner's duel distribution."""
    _check_k(f_star, joint)
    return float(0.5 * (f_star.entries @ exposure(joint)).max())


def fb_regret_step(
    f_star: PreferenceMatrix,
    joint: JointActionDistribution,
    q_star: ActionDistribution,
) -> float:
    """Fixed-benchmark value of q_star against the learner's distribution."""
    _check_k(f_star, joint)
    _check_q_star(f_star, q_star)
    return float(0.5 * q_star.weights @ (f_star.entries @ exposure(joint)))


class _KahanSum:
    """Compensated accumulator; exposes the running total."""

    __slots__ = ("total", "_c")

    def __init__(self):
        self.total = 0.0
        self._c = 0.0

    def add(self, value: float) -> float:
        y = value - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t
        return self.total

    def extend(self, values: list[float]) -> list[float]:
        """`add` each value in turn; returns the running totals."""
        total, c = self.total, self._c
        totals = []
        for value in values:
            y = value - c
            t = total + y
            c = (t - total) - y
            total = t
            totals.append(t)
        self.total, self._c = total, c
        return totals


# rounds queued between flushes
_FLUSH_ROUNDS = 256
# rows of RegretLedger._table
_BR, _BR_CUM, _FB, _FB_CUM, _POLICY_CUM = range(5)


class RegretLedger:
    """Per-round regret arrays for one run.

    Tracks best-response and fixed-benchmark steps plus one column per
    policy (policy regret is the max column sum). Step arrays and exact
    prefix sums are exposed for the dominance checks.

    `record` checks a round and queues it: the index of its (truth, joint)
    pair among the chunk's distinct pairs, its duel and, with policies,
    each policy's arm for the round's context. A round whose truth and
    joint arrays (both frozen) are the very objects of the round before
    takes that round's index; otherwise its pair is new. Every 256 rounds,
    and before any result is read, the queue is flushed: a few stacked
    numpy calls over the distinct pairs give the chunk's steps with the
    bits of `br_regret_step`, `fb_regret_step` and the scalar policy step,
    gathered per round, and one scalar `_KahanSum` pass per column adds
    them up in round order. Results are held in float64 arrays; those the
    properties return are read-only views.
    """

    def __init__(self, q_star: ActionDistribution | None = None,
                 policies: list | None = None):
        self.q_star = q_star
        self.policies = list(policies) if policies else []
        # the fixed-benchmark dot is (0.5 * q) @ values, as in fb_regret_step
        self._half_q = None if q_star is None else 0.5 * q_star.weights
        # the chunk's distinct (truth, joint) pairs, and each round's index
        self._truths: list[np.ndarray] = []
        self._joints: list[np.ndarray] = []
        self._pairs: list[int] = []
        # with policies, per round: arm a, arm b, then each policy's arm
        self._picks: list[int] = []
        self._table = np.empty((5, _FLUSH_ROUNDS))
        self._done = 0
        self._br_acc = _KahanSum()
        self._fb_acc = _KahanSum()
        self._policy_accs = [_KahanSum() for _ in self.policies]

    @property
    def rounds(self) -> int:
        return self._done + len(self._pairs)

    def record(self, f_star: PreferenceMatrix, context,
               joint: JointActionDistribution, duel: tuple[int, int]) -> None:
        """Check one round and queue it; a round that fails a check is not
        booked. Calls every policy on `context` now. The checks are
        `_check_k`'s and `_check_q_star`'s, read off the array shapes; a
        repeated pair passed them when it was first queued."""
        truth, weights = f_star.entries, joint.weights
        k = truth.shape[0]
        new = not (self._joints and weights is self._joints[-1]
                   and truth is self._truths[-1])
        if new:
            if weights.shape[0] != k:
                raise DimensionMismatch(
                    f"matrix k={k} vs joint k={weights.shape[0]}")
            if self._half_q is not None and self._half_q.shape[0] != k:
                raise DimensionMismatch(
                    f"q_star k={self._half_q.shape[0]} vs matrix k={k}")
        if self.policies:
            a, b = duel
            if not (0 <= a < k and 0 <= b < k):
                raise DimensionMismatch(f"duel {duel} out of range for k={k}")
            self._picks += [a, b] + [policy(context) for policy in self.policies]
        if new:
            self._truths.append(truth)
            self._joints.append(weights)
        self._pairs.append(len(self._joints) - 1)
        if len(self._pairs) == _FLUSH_ROUNDS:
            self._flush()

    def _flush(self) -> None:
        """Book the queued rounds."""
        n = len(self._pairs)
        if not n:
            return
        f = np.array(self._truths)
        w = np.array(self._joints)
        pairs = np.array(self._pairs)
        # stacked forms that give exposure(joint)'s and F @ e's bits per pair
        expo = w.sum(axis=2) + w.sum(axis=1)
        values = np.matmul(f, expo[:, :, None])[:, :, 0]
        start, end = self._done, self._done + n
        if end > self._table.shape[1]:
            grown = np.empty((5, max(2 * self._table.shape[1], end)))
            grown[:, :start] = self._table[:, :start]
            self._table = grown
        table = self._table[:, start:end]
        table[_BR] = (0.5 * values.max(axis=1))[pairs]
        table[_BR_CUM] = self._br_acc.extend(table[_BR].tolist())
        if self._half_q is None:
            table[_FB] = 0.0
            table[_FB_CUM] = 0.0
        else:
            # one (1, K) @ (K, 1) product per pair: the bits of the 1-D dot
            table[_FB] = np.matmul(values[:, None, :],
                                   self._half_q[:, None])[pairs, 0, 0]
            table[_FB_CUM] = self._fb_acc.extend(table[_FB].tolist())
        if self.policies:
            picks = np.array(self._picks).reshape(n, -1)
            arms = picks[:, 2:]
            steps = 0.5 * (f[pairs[:, None], arms, picks[:, :1]]
                           + f[pairs[:, None], arms, picks[:, 1:2]])
            totals = [acc.extend(column)
                      for acc, column in zip(self._policy_accs, steps.T.tolist())]
            table[_POLICY_CUM] = np.max(totals, axis=0)
        else:
            table[_POLICY_CUM] = 0.0
        self._done = end
        self._truths, self._joints, self._pairs, self._picks = [], [], [], []

    def _column(self, row: int) -> np.ndarray:
        self._flush()
        view = self._table[row, :self._done]
        view.flags.writeable = False
        return view

    @property
    def br_steps(self) -> np.ndarray:
        return self._column(_BR)

    @property
    def br_cum(self) -> np.ndarray:
        return self._column(_BR_CUM)

    @property
    def fb_steps(self) -> np.ndarray:
        return self._column(_FB)

    @property
    def fb_cum(self) -> np.ndarray:
        return self._column(_FB_CUM)

    @property
    def policy_cum(self) -> np.ndarray:
        """The running policy regret: the max of the policies' running sums
        after each round, 0.0 without policies."""
        return self._column(_POLICY_CUM)

    @property
    def final_br(self) -> float:
        self._flush()
        return self._br_acc.total

    @property
    def final_fb(self) -> float:
        self._flush()
        return self._fb_acc.total

    @property
    def policy_totals(self) -> np.ndarray:
        self._flush()
        return np.array([acc.total for acc in self._policy_accs])

    @property
    def final_policy(self) -> float:
        totals = self.policy_totals
        return float(totals.max()) if totals.size else 0.0


@dataclass(frozen=True)
class DominanceReport:
    """Cross-notion checks on a completed run.

    fb_le_br is exact (per-round); the policy bound is a high-probability
    inequality, so its flag may legitimately fail in a small fraction of
    seeds.
    """

    fb_le_br: bool
    worst_fb_gap: float
    policy_within_bound: bool
    policy_bound: float
    final_br: float
    final_fb: float
    final_policy: float


def dominance_report(ledger: RegretLedger) -> DominanceReport:
    br = np.asarray(ledger.br_steps)
    fb = np.asarray(ledger.fb_steps)
    worst = float((fb - br).max()) if br.size else 0.0
    fb_ok = worst <= 1e-12
    t = ledger.rounds
    n_pol = max(len(ledger.policies), 1)
    bound = ledger.final_br + np.sqrt(max(t, 1) * np.log(n_pol * max(t, 1)))
    pol_ok = ledger.final_policy <= bound + 1e-9
    return DominanceReport(
        fb_le_br=fb_ok,
        worst_fb_gap=worst,
        policy_within_bound=pol_ok,
        policy_bound=float(bound),
        final_br=ledger.final_br,
        final_fb=ledger.final_fb,
        final_policy=ledger.final_policy,
    )

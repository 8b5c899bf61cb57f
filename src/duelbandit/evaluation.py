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


class RegretLedger:
    """Per-round regret arrays for one run.

    Tracks best-response and fixed-benchmark steps plus one column per
    policy (policy regret is the max column sum). Step arrays and exact
    prefix sums are exposed for the dominance checks.
    """

    def __init__(self, q_star: ActionDistribution | None = None,
                 policies: list | None = None):
        self.q_star = q_star
        self.policies = list(policies) if policies else []
        self.br_steps: list[float] = []
        self.fb_steps: list[float] = []
        self.br_cum: list[float] = []
        self.fb_cum: list[float] = []
        self._br_acc = _KahanSum()
        self._fb_acc = _KahanSum()
        self._policy_accs = [_KahanSum() for _ in self.policies]

    @property
    def rounds(self) -> int:
        return len(self.br_steps)

    def record(self, f_star: PreferenceMatrix, context,
               joint: JointActionDistribution, duel: tuple[int, int]) -> None:
        """One round: closed-form BR/FB steps plus realized-duel policy steps.

        The steps are `br_regret_step` and `fb_regret_step`, sharing one
        product `F @ exposure(joint)`.
        """
        _check_k(f_star, joint)
        values = f_star.entries @ exposure(joint)
        br = float(0.5 * values.max())
        self.br_steps.append(br)
        self.br_cum.append(self._br_acc.add(br))
        q_star = self.q_star
        if q_star is not None:
            _check_q_star(f_star, q_star)
            fb = float(0.5 * q_star.weights @ values)
        else:
            fb = 0.0
        self.fb_steps.append(fb)
        self.fb_cum.append(self._fb_acc.add(fb))
        if self.policies:
            policy_regret_accumulate(self, f_star, context, duel)

    @property
    def final_br(self) -> float:
        return self.br_cum[-1] if self.br_cum else 0.0

    @property
    def final_fb(self) -> float:
        return self.fb_cum[-1] if self.fb_cum else 0.0

    @property
    def policy_totals(self) -> np.ndarray:
        return np.array([acc.total for acc in self._policy_accs])

    @property
    def final_policy(self) -> float:
        totals = self.policy_totals
        return float(totals.max()) if totals.size else 0.0


def policy_regret_accumulate(
    ledger: RegretLedger, f_star: PreferenceMatrix, context,
    duel: tuple[int, int],
) -> RegretLedger:
    """Add one realized-duel step to every policy column of the ledger."""
    a, b = duel
    f = f_star.entries
    k = f_star.k
    if not (0 <= a < k and 0 <= b < k):
        raise DimensionMismatch(f"duel {duel} out of range for k={k}")
    for acc, policy in zip(ledger._policy_accs, ledger.policies):
        arm = policy(context)
        acc.add(0.5 * (f.item(arm, a) + f.item(arm, b)))
    return ledger


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

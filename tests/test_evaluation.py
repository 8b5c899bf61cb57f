import numpy as np
import pytest

from duelbandit.core import (
    ActionDistribution,
    JointActionDistribution,
    PreferenceMatrix,
    product_joint,
)
from duelbandit.environments import condorcet, hardness, rps3
from duelbandit.errors import DimensionMismatch
from duelbandit.evaluation import (
    RegretLedger,
    br_regret_step,
    dominance_report,
    _KahanSum,
    fb_regret_step,
)
from duelbandit.games import solve_zero_sum_nash


def point_joint(k, a, b):
    w = np.zeros((k, k))
    w[a, b] = 1.0
    return JointActionDistribution(w)


def uniform_joint(k):
    return JointActionDistribution(np.full((k, k), 1.0 / (k * k)))


class TestBrRegretStep:
    def test_zero_matrix(self):
        f = PreferenceMatrix(np.zeros((3, 3)))
        assert br_regret_step(f, uniform_joint(3)) == 0.0

    def test_rps_uniform_is_zero(self):
        assert br_regret_step(rps3(), uniform_joint(3)) == pytest.approx(0.0, abs=1e-15)

    def test_hardness_worst_column(self):
        # point mass on (c, c): best response reads the third column
        assert br_regret_step(hardness(0.2), point_joint(3, 2, 2)) == pytest.approx(0.2)

    def test_vertex_attainment_vs_random_sample(self, make_skew):
        gen = np.random.default_rng(0)
        for _ in range(20):
            k = int(gen.integers(2, 7))
            f = PreferenceMatrix(make_skew(k, gen))
            w = gen.uniform(0, 1, (k, k))
            joint = JointActionDistribution(w / w.sum())
            vertex = br_regret_step(f, joint)
            qs = gen.dirichlet(np.ones(k), size=10_000)
            s = joint.weights.sum(1) + joint.weights.sum(0)
            sampled = (qs @ (f.entries @ s)).max() / 2
            assert vertex >= sampled - 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            br_regret_step(rps3(), uniform_joint(4))


class TestFbRegretStep:
    def test_maximizing_vertex_equals_br(self, make_skew):
        gen = np.random.default_rng(1)
        for _ in range(20):
            k = int(gen.integers(2, 6))
            f = PreferenceMatrix(make_skew(k, gen))
            w = gen.uniform(0, 1, (k, k))
            joint = JointActionDistribution(w / w.sum())
            s = joint.weights.sum(1) + joint.weights.sum(0)
            best = int(np.argmax(f.entries @ s))
            q = np.zeros(k)
            q[best] = 1.0
            assert fb_regret_step(f, joint, ActionDistribution(q)) == \
                pytest.approx(br_regret_step(f, joint))

    def test_condorcet_uniform_hand_value(self):
        # each losing arm carries 1/3 on both sides: 0.5 * 2 * 0.4 * (2/3)
        f = condorcet(3, 0.4)
        q = ActionDistribution([1.0, 0.0, 0.0])
        val = fb_regret_step(f, uniform_joint(3), q)
        assert val == pytest.approx(0.4 * 2 / 3, abs=1e-12)

    def test_zero_matrix_any_benchmark(self):
        f = PreferenceMatrix(np.zeros((2, 2)))
        assert fb_regret_step(f, uniform_joint(2), ActionDistribution([0.3, 0.7])) == 0.0

    def test_fact1_per_round_dominance_random(self, make_skew):
        gen = np.random.default_rng(2)
        for _ in range(1000):
            k = int(gen.integers(2, 6))
            f = PreferenceMatrix(make_skew(k, gen))
            w = gen.uniform(0, 1, (k, k))
            joint = JointActionDistribution(w / w.sum())
            q = ActionDistribution(gen.dirichlet(np.ones(k)))
            assert fb_regret_step(f, joint, q) <= br_regret_step(f, joint) + 1e-12


class TestPolicyRegret:
    def test_diagonal_duel_with_played_arm_is_zero(self):
        f = condorcet(3, 0.4)
        led = RegretLedger(policies=[lambda x: 0])
        led.record(f, 0, uniform_joint(3), (0, 0))
        assert led.final_policy == 0.0

    def test_condorcet_loser_duel(self):
        f = condorcet(3, 0.4)
        led = RegretLedger(policies=[lambda x: 0])
        led.record(f, 0, uniform_joint(3), (1, 2))
        assert led.final_policy == pytest.approx(0.4)

    def test_left_arm_policy_halves_entry(self, make_skew):
        gen = np.random.default_rng(3)
        f = PreferenceMatrix(make_skew(4, gen))
        led = RegretLedger(policies=[lambda x: 1])
        led.record(f, 0, uniform_joint(4), (1, 3))
        assert led.policy_totals[0] == pytest.approx(f.entries[1, 3] / 2)

    def test_out_of_range_duel(self):
        f = condorcet(3, 0.4)
        led = RegretLedger(policies=[lambda x: 0])
        with pytest.raises(DimensionMismatch):
            led.record(f, 0, uniform_joint(3), (0, 5))
        assert led.rounds == 0


class TestLedgerAndDominance:
    def test_empty_ledger_report(self):
        report = dominance_report(RegretLedger())
        assert report.fb_le_br and report.policy_within_bound
        assert report.final_br == report.final_fb == report.final_policy == 0.0

    def test_prefix_sums_match_steps(self, make_skew):
        gen = np.random.default_rng(4)
        f = PreferenceMatrix(make_skew(3, gen))
        led = RegretLedger(q_star=ActionDistribution([1, 0, 0]),
                           policies=[lambda x: 0, lambda x: 1])
        for _ in range(500):
            w = gen.uniform(0, 1, (3, 3))
            joint = JointActionDistribution(w / w.sum())
            led.record(f, 0, joint, (int(gen.integers(3)), int(gen.integers(3))))
        br_cum = np.array(led.br_cum)
        assert np.allclose(br_cum, np.cumsum(led.br_steps), rtol=1e-12, atol=1e-12)
        assert len(led.fb_cum) == led.rounds == 500

    def test_report_on_real_run(self, make_skew):
        gen = np.random.default_rng(5)
        f = PreferenceMatrix(make_skew(3, gen))
        led = RegretLedger(q_star=ActionDistribution([0, 1, 0]),
                           policies=[lambda x: 2])
        for _ in range(100):
            w = gen.uniform(0, 1, (3, 3))
            led.record(f, 0, JointActionDistribution(w / w.sum()), (0, 1))
        report = dominance_report(led)
        assert report.fb_le_br
        assert report.worst_fb_gap <= 1e-12
        assert report.final_policy <= report.policy_bound + 1e-9

    def test_zero_regret_nash_certificate(self, make_skew):
        gen = np.random.default_rng(6)
        for _ in range(25):
            k = int(gen.integers(2, 8))
            f = PreferenceMatrix(make_skew(k, gen))
            q = solve_zero_sum_nash(f).point
            assert br_regret_step(f, product_joint(q)) <= 1e-6


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestLedgerSteps:
    """`RegretLedger.record` computes both steps from one product
    `F @ exposure(joint)`; they must be the step functions' bits."""

    @pytest.mark.parametrize("k", [2, 3, 5, 20])
    def test_same_bits_as_the_step_functions(self, k, make_skew):
        gen = np.random.default_rng(k)
        f = PreferenceMatrix(make_skew(k, gen))
        q = ActionDistribution(gen.dirichlet(np.ones(k)))
        ledger, plain = RegretLedger(q_star=q), RegretLedger()
        for _ in range(100):
            w = gen.uniform(0, 1, (k, k)) * (gen.random((k, k)) < 0.4)
            w[gen.integers(k), gen.integers(k)] += 0.1
            joint = JointActionDistribution(w / w.sum())
            ledger.record(f, 0, joint, (0, 1))
            plain.record(f, 0, joint, (0, 1))
            assert same_bits(ledger.br_steps[-1], br_regret_step(f, joint))
            assert same_bits(ledger.fb_steps[-1], fb_regret_step(f, joint, q))
            assert same_bits(plain.br_steps[-1], ledger.br_steps[-1])
            assert plain.fb_steps[-1] == 0.0

    def test_dimension_checks_kept(self):
        ledger = RegretLedger(q_star=ActionDistribution([0.5, 0.5]))
        with pytest.raises(DimensionMismatch):
            ledger.record(rps3(), 0, uniform_joint(4), (0, 1))
        with pytest.raises(DimensionMismatch, match="q_star"):
            ledger.record(rps3(), 0, uniform_joint(3), (0, 1))
        # a round that fails a check is not booked
        assert ledger.rounds == 0
        assert ledger.br_steps.size == ledger.fb_steps.size == 0

    @pytest.mark.parametrize("truth_moves", [False, True],
                             ids=["fixed-truth", "moving-truth"])
    @pytest.mark.parametrize("k", [2, 3, 5, 20])
    def test_flushed_chunks_match_a_scalar_replay(self, k, truth_moves,
                                                   make_skew):
        """Rounds are queued and booked in chunks of 256, and on a read.
        Whether read at random rounds and around 256 and 512, or read
        rarely so that whole chunks fill, the ledger must show the step
        functions' bits and a scalar `_KahanSum` replay's sums."""
        gen = np.random.default_rng(100 + k)
        rounds = 700
        q = ActionDistribution(gen.dirichlet(np.ones(k)))
        policies = [lambda x: x % k, lambda x: (3 * x + 1) % k]
        dense_reads = {1, 255, 256, 257, 511, 512, 513, rounds}
        dense_reads |= set(gen.integers(2, rounds, 6).tolist())
        ledgers = [  # (ledger, rounds it is read at, has q_star and policies)
            (RegretLedger(q_star=q, policies=policies), dense_reads, True),
            (RegretLedger(q_star=q, policies=policies), {300, rounds}, True),
            (RegretLedger(), {rounds}, False),
        ]
        f = PreferenceMatrix(make_skew(k, gen))
        br, fb, policy_steps = [], [], []
        for t in range(1, rounds + 1):
            if truth_moves:
                f = PreferenceMatrix(make_skew(k, gen))
            w = gen.uniform(0, 1, (k, k)) * (gen.random((k, k)) < 0.4)
            w[gen.integers(k), gen.integers(k)] += 0.1
            joint = JointActionDistribution(w / w.sum())
            a, b = int(gen.integers(k)), int(gen.integers(k))
            br.append(br_regret_step(f, joint))
            fb.append(fb_regret_step(f, joint, q))
            arms = [policy(t) for policy in policies]
            policy_steps.append([0.5 * (f.entries.item(arm, a)
                                        + f.entries.item(arm, b))
                                 for arm in arms])
            for ledger, reads, benchmarked in ledgers:
                ledger.record(f, t, joint, (a, b))
                assert ledger.rounds == t
                if t not in reads:
                    continue
                if benchmarked:
                    self._check_against_replay(ledger, br, fb, policy_steps)
                else:
                    self._check_against_replay(ledger, br, [0.0] * t,
                                               [[]] * t)

    @staticmethod
    def _check_against_replay(ledger, br, fb, policy_steps):
        def running(steps):
            acc = _KahanSum()
            return [acc.add(step) for step in steps]

        def bits(values):
            return np.asarray(values, dtype=np.float64).tobytes()

        policy_sums = [running(column) for column in zip(*policy_steps)]
        policy_cum = ([max(sums) for sums in zip(*policy_sums)]
                      if policy_sums else [0.0] * len(br))
        assert bits(ledger.br_steps) == bits(br)
        assert bits(ledger.br_cum) == bits(running(br))
        assert bits(ledger.fb_steps) == bits(fb)
        assert bits(ledger.fb_cum) == bits(running(fb))
        assert bits(ledger.policy_cum) == bits(policy_cum)
        assert bits(ledger.policy_totals) == bits([s[-1] for s in policy_sums])
        assert same_bits(ledger.final_br, running(br)[-1])
        assert same_bits(ledger.final_fb, running(fb)[-1])
        assert same_bits(ledger.final_policy, policy_cum[-1])

import numpy as np
import pytest

import duelbandit.games as games
from duelbandit.algorithms import CceDb, CceLinDb, MinMaxDb, default_gamma
from duelbandit.core import (
    SIMPLEX_TOLERANCE,
    PreferenceMatrix,
    product_joint,
    sample_outcome,
    sample_pair,
    skew_complete,
)
from duelbandit.errors import (
    DimensionMismatch,
    GammaTooSmall,
    HorizonTooShort,
    NotConverged,
)
from duelbandit.games import (
    cce_deviation_matrix,
    cce_violation,
    minmax_stop_violation,
    minmax_violations,
    solve_minmax_feasibility,
)
from duelbandit.harness import build_environment, build_learner
from duelbandit.oracles import (
    FiniteClassAggregator,
    VawForecaster,
    exp_weights,
)
from duelbandit.rng import RngHandle


class TestCceDb:
    def test_first_round_statistics(self, rng):
        k, horizon = 3, 10
        learner = CceDb(k, horizon)
        joint, duel = learner.select(None, rng)
        assert (learner.last_mean == 0).all()
        default = min(2.0, np.sqrt(0.5 * np.log(k * k * horizon)))
        off = ~np.eye(k, dtype=bool)
        assert np.allclose(learner.last_confidence[off], default)
        assert (np.diagonal(learner.last_upper) == 0).all()
        assert cce_violation(learner.last_upper, joint) <= 1e-8
        assert 0 <= duel[0] < k and 0 <= duel[1] < k

    def test_formula_example(self, rng):
        # W[0,1]=3, N[0,1]=4, t=10, K=5, delta=1/T=0.1
        learner = CceDb(5, 10)
        learner.wins[0, 1] = 3
        learner.wins[1, 0] = 1
        learner.t = 10
        learner.select(None, rng)
        assert learner.last_mean[0, 1] == pytest.approx(0.5)
        expected_c = np.sqrt(np.log(25 * 100 / 0.1) / 4)
        assert expected_c == pytest.approx(1.5912, abs=5e-4)
        assert learner.last_confidence[0, 1] == pytest.approx(expected_c)
        assert learner.last_upper[0, 1] == pytest.approx(0.5 + expected_c)

    @pytest.mark.parametrize("k, delta, t", [
        (2, 0.999, 1),      # log term below 8: the unexplored width is
        (3, 0.1, 10),       # sqrt(log_term / 2), under the cap
        (5, 1 / 2000, 1),
        (5, 1 / 2000, 300),
        (20, 1e-3, 5000),
    ])
    def test_statistics_same_bits_as_the_formulas(self, k, delta, t, rng):
        # the statistics read the wins, t and delta: set all three
        learner = CceDb(k, 10)
        gen = np.random.default_rng(k)
        learner.wins = (gen.integers(0, 5, (k, k))
                        * (gen.random((k, k)) < 0.6)).astype(float)
        learner.t = t
        learner.delta = delta
        learner.select(None, rng)
        n = learner.wins + learner.wins.T
        explored = n > 0
        safe_n = np.where(explored, n, 1.0)
        log_term = np.log(k * k * t * t / delta)
        mean = np.where(explored, 2.0 * (learner.wins / safe_n) - 1.0, 0.0)
        width = np.where(explored, np.sqrt(log_term / safe_n),
                         min(2.0, np.sqrt(0.5 * log_term)))
        upper = mean + width
        np.fill_diagonal(upper, 0.0)
        assert (~explored).any()
        assert learner.last_mean.tobytes() == mean.tobytes()
        assert learner.last_confidence.tobytes() == width.tobytes()
        assert learner.last_upper.tobytes() == upper.tobytes()

    def test_resolved_matrix_concentrates_on_winner(self, rng):
        # huge counts, clear gap: the CCE must put almost all duel mass on
        # arm 0; cross-checked against a brute-force grid on the limit matrix
        learner = CceDb(2, 100)
        n = 10**6
        learner.wins[0, 1] = 0.8 * n
        learner.wins[1, 0] = 0.2 * n
        learner.t = n
        joint, _ = learner.select(None, rng)
        left, right = joint.left_marginal(), joint.right_marginal()
        assert left.weights[0] >= 0.99
        assert right.weights[0] >= 0.99
        limit = np.array([[0.0, 0.6], [-0.6, 0.0]])  # C -> 0 limit of U
        dev = cce_deviation_matrix(limit)
        best_loser_mass = -1.0
        grid = 100
        for i in range(grid + 1):
            for j in range(grid + 1 - i):
                for l in range(grid + 1 - i - j):
                    p = np.array([i, j, l, grid - i - j - l]) / grid
                    if (dev @ p).max() <= 1e-12:
                        best_loser_mass = max(best_loser_mass, p[1] + p[2] + 2 * p[3])
        assert 0.0 <= best_loser_mass <= 1e-9  # only pure (0,0) survives

    def test_observe_updates(self):
        learner = CceDb(3, 10)
        learner.observe(None, (0, 1), +1)
        assert learner.wins[0, 1] == 1 and learner.wins[1, 0] == 0
        learner.observe(None, (0, 1), -1)
        assert learner.wins[0, 1] == 1 and learner.wins[1, 0] == 1
        learner.observe(None, (2, 2), +1)
        assert learner.wins[2, 2] == 1
        assert learner.t == 4
        assert learner.counts()[0, 1] == 2

    def test_upper_matrix_identity(self, rng):
        # U[a,b] + U[b,a] == 2 C[a,b] exactly for explored off-diagonal pairs
        learner = CceDb(4, 20)
        gen = np.random.default_rng(0)
        for _ in range(200):
            a, b = gen.integers(0, 4, 2)
            learner.observe(None, (int(a), int(b)), int(gen.choice([-1, 1])))
        learner.select(None, rng)
        n = learner.counts()
        u, c = learner.last_upper, learner.last_confidence
        for a in range(4):
            for b in range(4):
                if a != b and n[a, b] > 0:
                    assert u[a, b] + u[b, a] == pytest.approx(2 * c[a, b], abs=1e-12)

    def test_bad_outcome(self):
        learner = CceDb(3, 10)
        with pytest.raises(ValueError):
            learner.observe(None, (0, 1), 0)

    def test_numpy_warm_start_mostly_needs_no_pivot(self):
        env = build_environment({"kind": "fixed", "fixture": "condorcet",
                                 "k": 5, "margin": 0.4})
        learner = build_learner({"kind": "ccedb"}, env, horizon=2000)
        root = RngHandle(1)
        env_rng, learner_rng, outcome_rng = (
            root.substream(name) for name in ("environment", "learner", "outcome"))
        zero_pivot = 0
        for t in range(2000):
            x, truth = env.sample_round(env_rng)
            joint, duel = learner.select(x, learner_rng)
            assert cce_violation(learner.last_upper, joint) <= 1e-8, t
            zero_pivot += learner.last_iterations == 0
            learner.observe(x, duel, sample_outcome(truth.entries[duel],
                                                    outcome_rng))
        assert zero_pivot >= 0.75 * 2000

    def test_prepared_batch_solves_once_and_select_never(self, monkeypatch):
        # one stacked warm-vertex solve per round for the whole batch; a
        # learner whose warm vertex failed pivots cold without solving its
        # basis system again
        env = build_environment({"kind": "fixed", "fixture": "condorcet",
                                 "k": 5, "margin": 0.4})
        learners = [build_learner({"kind": "ccedb"}, env, horizon=2000)
                    for _ in range(4)]
        streams = [[RngHandle(seed).substream(name) for name in
                    ("environment", "learner", "outcome")]
                   for seed in range(4)]
        calls = []
        solve = np.linalg.solve

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counted)
        stacked_rounds = cold = 0
        for t in range(400):
            calls.clear()
            CceDb.prepare_round(learners, [None] * len(learners))
            assert len(calls) <= 1, t
            stacked_rounds += len(calls)
            calls.clear()
            for learner, (env_rng, learner_rng, outcome_rng) in zip(
                    learners, streams):
                x, truth = env.sample_round(env_rng)
                _joint, duel = learner.select(x, learner_rng)
                cold += learner.last_iterations > 0
                learner.observe(x, duel, sample_outcome(
                    truth.entries[duel], outcome_rng))
            assert calls == [], t
        assert stacked_rounds >= 300 and cold >= 20

    def test_bits_do_not_depend_on_the_group(self):
        # the groups change order and membership between rounds: [a, b],
        # [b, a], b alone (a prepares itself in its select) and [a, b, c],
        # which c joins fresh; each learner gets the bits it gets alone
        env = build_environment({"kind": "fixed", "fixture": "condorcet",
                                 "k": 5, "margin": 0.4})

        def streams(seed):
            return [RngHandle(seed).substream(name) for name in
                    ("environment", "learner", "outcome")]

        def play(learner, rngs):
            env_rng, learner_rng, outcome_rng = rngs
            x, truth = env.sample_round(env_rng)
            joint, duel = learner.select(x, learner_rng)
            learner.observe(x, duel, sample_outcome(truth.entries[duel],
                                                    outcome_rng))
            return (joint.weights.tobytes(), duel,
                    learner.last_upper.tobytes(), learner.last_iterations)

        learners = {"a": (CceDb(5, 2000), streams(0)),
                    "b": (CceDb(5, 2000), streams(1))}
        got = {"a": [], "b": [], "c": []}
        for t in range(120):
            group = [["a", "b"], ["b", "a"], ["b"], ["a", "b", "c"]][t % 4]
            if "c" in group and "c" not in learners:
                learners["c"] = (CceDb(5, 2000), streams(2))
            CceDb.prepare_round([learners[name][0] for name in group],
                                [None] * len(group))
            for name, (learner, rngs) in learners.items():
                got[name].append(play(learner, rngs))
        iterations = [r[3] for rounds in got.values() for r in rounds]
        assert 0 in iterations and max(iterations) > 0  # warm and cold
        for seed, name in enumerate("abc"):
            learner, rngs = CceDb(5, 2000), streams(seed)
            alone = [play(learner, rngs) for _ in got[name]]
            assert got[name] == alone, name

    def test_published_snapshots_stay_as_published(self, rng):
        learners = [CceDb(4, 50) for _ in range(3)]
        kept = []
        for t in range(30):
            CceDb.prepare_round(learners, [None] * len(learners))
            for i, learner in enumerate(learners):
                _joint, duel = learner.select(None, rng)
                snapshot = (learner.last_mean, learner.last_confidence,
                            learner.last_upper)
                kept.append((snapshot, [a.copy() for a in snapshot]))
                learner.observe(None, duel, 1 if (t + i) % 3 else -1)
        for published, copies in kept:
            for array, copy in zip(published, copies):
                assert array.tobytes() == copy.tobytes()


class TestCceLinDb:
    def test_no_history_unit_features(self, rng):
        learner = CceLinDb(3, horizon=100)
        learner.width_multiplier = 1.0
        gen = np.random.default_rng(1)
        x = gen.normal(size=(2, 2, 3))
        x -= x.transpose(1, 0, 2)
        norms = np.linalg.norm(x, axis=2, keepdims=True)
        x = np.divide(x, norms, out=np.zeros_like(x), where=norms > 0)
        learner.select(x, rng)
        assert np.allclose(learner.last_mean, 0.0)
        off = ~np.eye(2, dtype=bool)
        assert np.allclose(learner.last_confidence[off], 1.0)

    def test_one_observation_ridge_arithmetic(self, rng):
        # d=1: one observation (x=1, y=1), ridge=1 -> w_hat = 0.5
        learner = CceLinDb(1, horizon=100)
        learner.width_multiplier = 2.0
        x = np.zeros((2, 2, 1))
        x[0, 1, 0] = 1.0
        x[1, 0, 0] = -1.0
        learner.observe(x, (0, 1), +1)
        learner.select(x, rng)
        assert learner.last_mean[0, 1] == pytest.approx(0.5)
        # the confidence is the width the upper matrix adds
        assert learner.last_confidence[0, 1] == pytest.approx(2 * np.sqrt(0.5))
        assert learner.last_upper[0, 1] == pytest.approx(0.5 + 2 * np.sqrt(0.5))

    def test_width_shrinks_along_observed_direction(self, rng):
        learner = CceLinDb(2, horizon=10**4)
        learner.width_multiplier = 1.0
        x = np.zeros((2, 2, 2))
        x[0, 1] = [1.0, 0.0]
        x[1, 0] = [-1.0, 0.0]
        y = np.zeros((2, 2, 2))
        y[0, 1] = [0.0, 1.0]
        y[1, 0] = [0.0, -1.0]
        for i in range(10**4):
            learner.observe(x, (0, 1), 1 if i % 2 else -1)
        learner.select(x, rng)
        assert learner.last_confidence[0, 1] <= np.sqrt(1.0 / (1.0 + 10**4)) + 1e-12
        learner.select(y, rng)  # the unobserved direction keeps the prior width
        assert learner.last_confidence[0, 1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k, dim", [(2, 1), (5, 4), (4, 8), (3, 12)])
    def test_statistics_same_bits_as_the_formulas(self, k, dim, rng):
        # mean b^T A^-1 x and confidence c sqrt(x^T A^-1 x) from the held
        # inverse; the upper matrix is their sum, which the diagnostic
        # coverage check needs as a skew mean plus a symmetric confidence
        learner = CceLinDb(dim, horizon=1000)
        gen = np.random.default_rng(dim)
        off = ~np.eye(k, dtype=bool)
        for _ in range(40):
            raw = gen.uniform(-1, 1, (k, k, dim))
            x = (raw - raw.transpose(1, 0, 2)) / 2
            learner.select(x, rng)
            flat = x.reshape(k * k, dim)
            v = learner.state._inv @ flat.T
            mean = (learner.state.moment @ v).reshape(k, k)
            quad = np.sum(flat.T * v, axis=0).reshape(k, k)
            conf = learner.width_multiplier * np.sqrt(np.maximum(quad, 0.0))
            assert learner.last_mean.tobytes() == mean.tobytes()
            assert learner.last_confidence.tobytes() == conf.tobytes()
            assert np.array_equal(mean, -mean.T)
            assert np.array_equal(conf, conf.T)
            assert np.array_equal(learner.last_upper[off], (mean + conf)[off])
            assert (np.diagonal(learner.last_upper) == 0).all()
            a, b = gen.integers(0, k, 2)
            learner.observe(x, (int(a), int(b)), int(gen.choice([-1, 1])))

    def test_gram_identity(self):
        # the ridge state's gram is the running sum of outer products
        gen = np.random.default_rng(2)
        learner = CceLinDb(3, horizon=100)
        expected = np.eye(3)
        for _ in range(50):
            x = gen.uniform(-1, 1, (2, 2, 3))
            x = (x - x.transpose(1, 0, 2)) / 2
            learner.observe(x, (0, 1), int(gen.choice([-1, 1])))
            expected += np.outer(x[0, 1], x[0, 1])
        assert np.array_equal(learner.state.gram, expected)

    def test_width_multiplier_is_oful_at_ridge_one_delta_one_over_t(self):
        # sqrt(d ln((1 + T/ridge) / delta)) + sqrt(ridge), ridge 1, delta 1/T
        expected = float(np.sqrt(4 * np.log((1.0 + 2000 / 1.0) / (1.0 / 2000)))
                         + np.sqrt(1.0))
        assert CceLinDb(4, horizon=2000).width_multiplier == expected

    def test_malformed_context(self, bad_linear_context, rng):
        learner = CceLinDb(2, horizon=100)
        with pytest.raises(DimensionMismatch):
            learner.select(bad_linear_context, rng)
        with pytest.raises(DimensionMismatch):
            learner.observe(bad_linear_context, (0, 1), 1)
        assert np.array_equal(learner.state.gram, np.eye(2))


class TestMinMaxDb:
    def _zero_oracle(self, k):
        tabs = np.zeros((1, 1, k, k))
        return FiniteClassAggregator(tabs)

    def test_zero_predictions_product_joint(self, rng):
        k = 4
        learner = MinMaxDb(k, 16.0, self._zero_oracle(k))
        joint, duel = learner.select(0, rng)
        p = learner.last_marginal
        assert np.array_equal(joint.weights, np.outer(p, p))
        assert minmax_violations(learner.last_prediction.entries[None],
                                 joint.left_marginal().weights[None],
                                 16.0)[0] <= k / 16.0
        assert np.abs(joint.weights - np.outer(p, p)).max() <= 1e-12

    def test_unit_gap_predictions_satisfy_program(self, rng):
        tabs = np.zeros((1, 1, 2, 2))
        tabs[0, 0, 0, 1] = 1.0
        tabs[0, 0, 1, 0] = -1.0
        learner = MinMaxDb(2, 10.0, FiniteClassAggregator(tabs))
        learner.select(0, rng)
        p = learner.last_marginal
        y = learner.last_prediction.entries
        g = y @ p + (2.0 / 10.0) / p
        assert (g <= 5 * 2 / 10.0 + 2 / 10.0 + 1e-9).all()

    def test_gamma_floor(self):
        for gamma in (3.0, np.nan, np.inf):  # below 2K, or not finite
            with pytest.raises(GammaTooSmall):
                MinMaxDb(3, gamma, self._zero_oracle(3))

    def test_observe_feeds_oracle_canonically(self):
        class Recorder:
            def __init__(self):
                self.calls = []

            def update(self, context, a, b, y):
                self.calls.append((a, b, y))

            def predict_matrix(self, context):
                return np.zeros((3, 3))

        rec = Recorder()
        learner = MinMaxDb(3, 10.0, rec)
        learner.observe(0, (0, 1), +1)
        learner.observe(0, (1, 0), +1)  # same pair, flipped label
        learner.observe(0, (2, 2), +1)  # diagonal: no oracle update
        assert rec.calls == [(0, 1, 1.0), (0, 1, -1.0)]

    def test_flipped_duel_drives_same_posterior(self):
        tabs = np.zeros((2, 1, 2, 2))
        tabs[0, 0, 0, 1], tabs[0, 0, 1, 0] = 0.5, -0.5
        tabs[1, 0, 0, 1], tabs[1, 0, 1, 0] = -0.5, 0.5
        a = MinMaxDb(2, 10.0, FiniteClassAggregator(tabs))
        b = MinMaxDb(2, 10.0, FiniteClassAggregator(tabs))
        a.observe(0, (0, 1), +1)
        b.observe(0, (1, 0), -1)
        assert np.allclose(a.oracle.weights, b.oracle.weights)

    @pytest.mark.parametrize("environment, oracle", [
        ({"kind": "finite_class", "k": 3, "n_contexts": 2, "class_size": 16,
          "class_seed": 11}, {"kind": "finite"}),
        ({"kind": "linear", "k": 3, "dim": 2, "weight_seed": 1},
         {"kind": "vaw"}),
    ], ids=["finite-ctx2", "vaw"])
    def test_bits_do_not_depend_on_the_group(self, environment, oracle):
        # the groups change order and membership between rounds: [a, b],
        # [b, a], b alone (a prepares itself in its select) and [a, b, c],
        # which c joins fresh among held marginals; each learner gets the
        # bits it gets alone. Each seed has its own environment, as in a
        # run: an environment draws ahead in blocks from one handle
        algorithm = {"kind": "minmaxdb", "gamma": "auto", "oracle": oracle}

        def fresh(seed):
            env = build_environment(environment)
            return env, build_learner(algorithm, env, 400), [
                RngHandle(seed).substream(name)
                for name in ("environment", "learner", "outcome")]

        def play(learner, rngs, x, truth):
            joint, duel = learner.select(x, rngs[1])
            played = (joint.weights.tobytes(), duel,
                      learner.last_prediction.entries.tobytes(),
                      learner.last_marginal.tobytes(), learner.last_violation,
                      learner.last_iterations)
            learner.observe(x, duel, sample_outcome(truth.entries.item(*duel),
                                                    rngs[2]))
            return played

        runs = {"a": fresh(0), "b": fresh(1)}
        got = {"a": [], "b": [], "c": []}
        for t in range(120):
            group = [["a", "b"], ["b", "a"], ["b"], ["a", "b", "c"]][t % 4]
            if "c" in group and "c" not in runs:
                runs["c"] = fresh(2)
            drawn = {name: env.sample_round(rngs[0])
                     for name, (env, _, rngs) in runs.items()}
            MinMaxDb.prepare_round([runs[name][1] for name in group],
                                   [drawn[name][0] for name in group])
            for name, (_, learner, rngs) in runs.items():
                got[name].append(play(learner, rngs, *drawn[name]))
        iterations = [r[-1] for rounds in got.values() for r in rounds]
        assert 0 in iterations and max(iterations) > 0  # held and solved
        for seed, name in enumerate("abc"):
            env, learner, rngs = fresh(seed)
            alone = [play(learner, rngs, *env.sample_round(rngs[0]))
                     for _ in got[name]]
            assert got[name] == alone, name

    def test_select_with_vaw_oracle(self, rng):
        gen = np.random.default_rng(3)
        k, d = 3, 2
        x = gen.uniform(-1, 1, (k, k, d))
        x = (x - x.transpose(1, 0, 2)) / 2
        learner = MinMaxDb(k, 12.0, VawForecaster(d))
        joint, duel = learner.select(x, rng)
        assert joint.k == k
        learner.observe(x, duel, +1 if duel[0] != duel[1] else 1)


class _Scripted:
    """An oracle that hands out the given forecasts in turn, each as a new
    array, the way the linear oracles do."""

    def __init__(self, *forecasts):
        self.forecasts = list(forecasts)

    def predict_matrix(self, context):
        return np.array(self.forecasts.pop(0), dtype=np.float64)

    def update(self, context, a, b, y):
        pass


def _solve_every_round(oracle, gamma, marginal, x, rng):
    """One reference round: complete, solve from `marginal`, sample."""
    y_hat = skew_complete(oracle.predict_matrix(x))
    report = solve_minmax_feasibility(y_hat, gamma, warm_start=marginal)
    return y_hat, report, product_joint(report.point), \
        sample_pair(report.point, rng)


class TestMinMaxDbReuse:
    """MinMaxDb keeps its held marginal while that marginal meets the
    solver's stop test under each forecast; round by round it must give
    the bits of a loop that solves every round, warm-started from the
    previous marginal."""

    HORIZON = 2500

    def _run_against_solving_every_round(self, environment, oracle, seed):
        """Run MinMaxDb and the reference loop in lockstep, asserting every
        round's bits equal; returns the rounds on which MinMaxDb kept its
        held joint and those on which the solver stepped."""
        env = build_environment(environment)
        algorithm = {"kind": "minmaxdb", "gamma": "auto", "oracle": oracle}
        learner = build_learner(algorithm, env, self.HORIZON)
        reference = build_learner(algorithm, env, self.HORIZON).oracle
        root = RngHandle(seed)
        env_rng, outcome_rng = (root.substream(name)
                                for name in ("environment", "outcome"))
        learner_rng, reference_rng = (RngHandle(seed).substream("learner")
                                      for _ in range(2))
        marginal = joint = None
        kept = solved = 0
        for t in range(1, self.HORIZON + 1):
            x, truth = env.sample_round(env_rng)
            last_joint = joint
            joint, duel = learner.select(x, learner_rng)
            y_hat, report, ref_joint, ref_duel = _solve_every_round(
                reference, learner.gamma, marginal, x, reference_rng)
            marginal = report.point.weights
            kept += joint is last_joint
            solved += report.iterations > 0
            assert duel == ref_duel, t
            assert np.array_equal(joint.weights, ref_joint.weights), t
            assert np.array_equal(learner.last_marginal, marginal), t
            assert np.array_equal(learner.last_prediction.entries,
                                  y_hat.entries), t
            assert learner.last_violation == report.max_violation, t
            assert learner.last_iterations == report.iterations, t
            outcome = sample_outcome(truth.entries.item(*duel), outcome_rng)
            learner.observe(x, duel, outcome)
            a, b = duel
            if a != b:
                if a > b:
                    a, b, outcome = b, a, -outcome
                reference.update(x, a, b, float(outcome))
        return kept, solved

    @pytest.mark.parametrize("n_contexts", [1, 2])
    @pytest.mark.parametrize("seed", range(4))
    def test_reuse_gives_the_bits_of_a_new_solve(self, n_contexts, seed):
        kept, solved = self._run_against_solving_every_round(
            {"kind": "finite_class", "k": 3, "n_contexts": n_contexts,
             "class_size": 8, "class_seed": 3}, {"kind": "finite"}, seed)
        # both branches run: the held joint is kept on 93-99.9% of the
        # rounds, and the solver steps on some of the others
        assert kept >= 0.9 * self.HORIZON
        assert solved > 0
        # a solve's least move keeps the one held marginal where both
        # contexts' tests can accept it, so few rounds solve (6-20 here);
        # Newton steps alone, which go on toward the current context's
        # equalizer, ping-pong between the contexts (32-164)
        assert solved <= 30

    @pytest.mark.parametrize("seed", range(4))
    def test_vaw_reuse_gives_the_bits_of_a_new_solve(self, seed):
        # every vaw forecast is a new array, so each kept round is a held
        # marginal that met a new forecast (16-19% of the rounds)
        kept, solved = self._run_against_solving_every_round(
            {"kind": "linear", "k": 3, "dim": 2, "weight_seed": 1},
            {"kind": "vaw"}, seed)
        assert kept >= self.HORIZON / 8
        assert solved > 0

    def test_a_solve_that_missed_the_stop_test_is_not_reused(self, rng,
                                                             monkeypatch):
        # with one step per solve, the first solve's least move on this
        # forecast ends above the stop test, so the same forecast is solved
        # again, from the point it ended at, and one more step meets it
        tabs = np.zeros((1, 1, 3, 3))
        tabs[0, 0, 0, 1:], tabs[0, 0, 1:, 0] = 0.9, -0.9
        monkeypatch.setattr(games, "MAX_ITERATIONS", 1)
        learner = MinMaxDb(3, 48.0, FiniteClassAggregator(tabs))
        reference = FiniteClassAggregator(tabs)
        reference_rng = RngHandle(12345)
        stop = minmax_stop_violation(3, 48.0)
        marginal = None
        joints, iterations, violations = [], [], []
        for _ in range(3):
            joint, duel = learner.select(0, rng)
            _, report, ref_joint, ref_duel = _solve_every_round(
                reference, 48.0, marginal, 0, reference_rng)
            marginal = report.point.weights
            assert duel == ref_duel
            assert np.array_equal(joint.weights, ref_joint.weights)
            assert learner.last_iterations == report.iterations
            joints.append(joint)
            iterations.append(learner.last_iterations)
            violations.append(learner.last_violation)
        assert violations[0] > stop >= violations[1] == violations[2]
        assert iterations == [1, 1, 0]
        assert joints[1] is not joints[0] and joints[2] is joints[1]

    def test_new_forecast_the_held_marginal_meets_keeps_it(self, rng):
        zero = np.zeros((3, 3))
        near = np.zeros((3, 3))
        near[0, 1], near[1, 0] = 0.01, -0.01
        learner = MinMaxDb(3, 12.0, _Scripted(zero, near))
        first, _ = learner.select(0, rng)
        second, _ = learner.select(0, rng)
        assert second is first
        assert learner.last_iterations == 0
        assert np.array_equal(learner.last_prediction.entries, near)
        assert learner.last_violation == minmax_violations(
            near[None], learner.last_marginal[None], 12.0)[0]
        assert learner.last_violation <= minmax_stop_violation(3, 12.0)

    def test_new_forecast_the_held_marginal_misses_is_solved(self, rng):
        zero = np.zeros((3, 3))
        far = np.zeros((3, 3))
        far[0, 1:], far[1:, 0] = 0.9, -0.9
        learner = MinMaxDb(3, 24.0, _Scripted(zero, far))
        first, _ = learner.select(0, rng)
        held = learner.last_marginal
        assert minmax_violations(far[None], held[None], 24.0)[0] \
            > minmax_stop_violation(3, 24.0)
        second, _ = learner.select(0, rng)
        report = solve_minmax_feasibility(skew_complete(far), 24.0,
                                          warm_start=held)
        assert second is not first
        assert learner.last_iterations == report.iterations > 0
        assert np.array_equal(learner.last_marginal, report.point.weights)
        assert learner.last_violation == report.max_violation

    @pytest.mark.parametrize("held", [False, True])
    def test_nan_forecast_raises_not_converged(self, held, rng, monkeypatch):
        bad = np.zeros((3, 3))
        bad[0, 1], bad[1, 0] = np.nan, np.nan
        forecasts = [np.zeros((3, 3)), bad] if held else [bad]
        monkeypatch.setattr(games, "MAX_ITERATIONS", 20)
        learner = MinMaxDb(3, 12.0, _Scripted(*forecasts))
        if held:
            learner.select(0, rng)
        with pytest.raises(NotConverged):
            learner.select(0, rng)


def _record_minmax_rounds(oracle, environment, seeds, rounds):
    """Run MinMaxDb, gamma "auto" for T=400, on each seed for `rounds`
    rounds; returns the environment, gamma and, per round, what the
    round's `prepare_round` read: the oracle's log-weights (a copy; None
    for a linear oracle), the context, the held marginal (None at the
    first round, where a fresh learner holds uniform) and the oracle's
    forecast, asked for again after `select`."""
    env = build_environment(environment)
    algorithm = {"kind": "minmaxdb", "gamma": "auto", "oracle": oracle}
    recorded = []
    for seed in seeds:
        learner = build_learner(algorithm, env, 400)
        root = RngHandle(seed)
        env_rng, learner_rng, outcome_rng = (
            root.substream(name) for name in ("environment", "learner", "outcome"))
        for t in range(rounds):
            x, truth = env.sample_round(env_rng)
            log_weights = getattr(learner.oracle, "log_weights", None)
            held = learner.last_marginal if t else None
            _joint, duel = learner.select(x, learner_rng)
            recorded.append((None if log_weights is None else log_weights.copy(),
                             x, held, learner.oracle.predict_matrix(x)))
            learner.observe(x, duel, sample_outcome(truth.entries.item(*duel),
                                                    outcome_rng))
    return env, learner.gamma, recorded


def _stacks(recorded, seed):
    """The recorded rounds, shuffled, in stacks of 1 to 8."""
    gen = np.random.default_rng(seed)
    order = gen.permutation(len(recorded)).tolist()
    while order:
        size = int(gen.integers(1, 9))
        yield [recorded[i] for i in order[:size]]
        order = order[size:]


class TestMinMaxDbStackedPass:
    """`MinMaxDb.prepare_round` on stacks of recorded rounds gives each
    learner what an independent per-seed reference gives, bit for bit: the
    exponential weights of its log-weights and their `einsum` with its
    context's tables, the forecast clipped into [-1, 1] when its maximum is
    not <= 1, and the held marginal's violation from a (K, K) @ (K,)
    product; a fresh learner's held marginal is uniform."""

    @staticmethod
    def _fresh(k, gamma, oracle, held):
        learner = MinMaxDb(k, gamma, oracle)
        if held is not None:
            learner.last_marginal = held
        return learner

    @staticmethod
    def _assert_prediction_and_violation(learner, forecast, held, gamma):
        k = forecast.shape[0]
        y = forecast if forecast.max() <= 1.0 else np.clip(forecast, -1.0, 1.0)
        assert learner.last_prediction.entries.tobytes() == y.tobytes()
        p = np.full(k, 1.0 / k) if held is None else held
        g = y @ p + (2.0 / gamma) / p
        violation = float(g.max() - 5.0 * k / gamma)
        assert learner.last_violation == violation or (
            np.isnan(learner.last_violation) and np.isnan(violation))

    @pytest.mark.parametrize("n_contexts", [1, 2])
    def test_finite_class_stacks_match_the_reference(self, n_contexts):
        env, gamma, recorded = _record_minmax_rounds(
            {"kind": "finite"},
            {"kind": "finite_class", "k": 3, "n_contexts": n_contexts,
             "class_size": 16, "class_seed": 11}, range(3), 300)
        tables = env.tables
        for stack in _stacks(recorded, n_contexts):
            learners, memos = [], []
            for s, (log_weights, x, held, _) in enumerate(stack):
                oracle = FiniteClassAggregator(tables)
                oracle.log_weights = log_weights.copy()
                # one in three holds its forecast already: the stacked pass
                # computes none for it and reads the one it holds
                memos.append(oracle.predict_matrix(x) if s % 3 == 2 else None)
                learners.append(self._fresh(3, gamma, oracle, held))
            MinMaxDb.prepare_round(learners, [x for _, x, _, _ in stack])
            weights = exp_weights(np.stack([lw for lw, _, _, _ in stack]))
            for learner, memo, w, (log_weights, x, held, seen) in zip(
                    learners, memos, weights, stack):
                reference = np.exp(log_weights - log_weights.max())
                reference = reference / reference.sum()
                assert w.tobytes() == reference.tobytes()
                forecast = np.einsum("f,fij->ij", reference, tables[:, x])
                held_forecast = learner.oracle.predict_matrix(x)
                assert held_forecast.tobytes() == forecast.tobytes()
                assert memo is None or held_forecast is memo
                assert seen.tobytes() == forecast.tobytes()
                self._assert_prediction_and_violation(learner, forecast, held,
                                                      gamma)

    def test_linear_forecasts_match_the_reference(self):
        # vaw overshoots [-1, 1] on 16 of seed 0's 400 rounds here (and
        # on none of seeds 1-2's); one forecast is made NaN, which takes
        # the clamp too
        env, gamma, recorded = _record_minmax_rounds(
            {"kind": "vaw"},
            {"kind": "linear", "k": 5, "dim": 4, "weight_seed": 5},
            range(3), 400)
        assert sum(seen.max() > 1.0 for *_, seen in recorded) == 16
        nan = recorded[5][3].copy()
        nan[0, 1], nan[1, 0] = np.nan, np.nan
        recorded[5] = recorded[5][:3] + (nan,)
        for stack in _stacks(recorded, 0):
            learners = [self._fresh(5, gamma, _Scripted(seen), held)
                        for _, _, held, seen in stack]
            MinMaxDb.prepare_round(learners, [x for _, x, _, _ in stack])
            for learner, (_, _, held, seen) in zip(learners, stack):
                self._assert_prediction_and_violation(learner, seen, held,
                                                      gamma)


class TestDefaultGamma:
    def test_formula(self):
        assert default_gamma(2, 8000, lambda t: 10.0) == pytest.approx(np.sqrt(32000))

    def test_degenerate_budget(self):
        with pytest.raises(ValueError):
            default_gamma(2, 100, lambda t: 0.0)

    def test_horizon_too_short(self):
        with pytest.raises(HorizonTooShort):
            default_gamma(5, 100, lambda t: 10.0)


class TestInteriorValuesNeedNoChecks:
    """The learners' own joints and prediction matrices are built without
    the public constructors' checks, so the properties those checks enforce
    are asserted here on what the learners actually produce, round by
    round."""

    ROUNDS = 200
    SPECS = {
        "ccedb": ({"kind": "ccedb"},
                  {"kind": "fixed", "fixture": "condorcet", "k": 5,
                   "margin": 0.4}),
        "ccelindb": ({"kind": "ccelindb"},
                     {"kind": "linear", "k": 5, "dim": 4, "weight_seed": 5}),
        "minmaxdb": ({"kind": "minmaxdb", "gamma": "auto",
                      "oracle": {"kind": "finite"}},
                     {"kind": "finite_class", "k": 3, "n_contexts": 2,
                      "class_size": 16, "class_seed": 11}),
    }

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_joints_and_predictions(self, kind):
        algorithm, environment = self.SPECS[kind]
        env = build_environment(environment)
        # a horizon long enough for gamma "auto"; only ROUNDS of it run
        learner = build_learner(algorithm, env, horizon=2500)
        root = RngHandle(7)
        env_rng, learner_rng, outcome_rng = (
            root.substream(name) for name in ("environment", "learner", "outcome"))
        for t in range(1, self.ROUNDS + 1):
            x, truth = env.sample_round(env_rng)
            joint, duel = learner.select(x, learner_rng)
            w = joint.weights
            assert w.min() >= 0.0, t
            assert abs(w.sum() - 1.0) <= SIMPLEX_TOLERANCE, t
            assert not w.flags.writeable, t
            if kind == "minmaxdb":
                y = learner.last_prediction.entries
                assert np.array_equal(y, -y.T), t
                assert (np.diagonal(y) == 0.0).all(), t
            outcome = sample_outcome(truth.entries[duel], outcome_rng)
            learner.observe(x, duel, outcome)

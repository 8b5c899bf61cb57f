import numpy as np
import pytest

from duelbandit.environments import make_finite_class
from duelbandit.errors import DimensionMismatch, UnsupportedOracle
from duelbandit.oracles import (
    FiniteClassAggregator,
    OgdForecaster,
    VawForecaster,
    _RidgeState,
    regret_budget,
)
from duelbandit.rng import RngHandle


def constant_tables(values, k=2):
    """One constant-matrix hypothesis per value, single context."""
    tabs = np.zeros((len(values), 1, k, k))
    for i, v in enumerate(values):
        tabs[i, 0, 0, 1] = v
        tabs[i, 0, 1, 0] = -v
    return tabs


def pair_context(x):
    """The (2, 2, d) feature tensor of two arms whose pair (0, 1) has
    features x."""
    x = np.asarray(x, dtype=np.float64)
    tensor = np.zeros((2, 2, x.size))
    tensor[0, 1], tensor[1, 0] = x, -x
    return tensor


def antisymmetric_features(gen, k, d):
    x = gen.uniform(-1, 1, (k, k, d))
    return (x - x.transpose(1, 0, 2)) / 2


class TestFiniteClassAggregator:
    def test_single_hypothesis_is_constant(self):
        oracle = FiniteClassAggregator(constant_tables([0.4]))
        assert oracle.predict_matrix(0)[0, 1] == pytest.approx(0.4)
        oracle.update(0, 0, 1, -1.0)
        assert oracle.predict_matrix(0)[0, 1] == pytest.approx(0.4)

    def test_update_shifts_weight_toward_better_hypothesis(self):
        oracle = FiniteClassAggregator(constant_tables([-1.0, 1.0]))
        before = oracle.weights.copy()
        oracle.update(0, 0, 1, 1.0)  # losses: 4 vs 0
        after = oracle.weights
        assert before[1] == pytest.approx(0.5)
        assert after[1] > after[0]

    def test_prediction_is_pure(self):
        oracle = FiniteClassAggregator(constant_tables([-0.5, 0.5, 0.1]))
        assert np.array_equal(oracle.predict_matrix(0), oracle.predict_matrix(0))

    def test_predict_matrix_is_the_weighted_mean_of_the_tables(self):
        # sum_f w_f tables[f, x], written out hypothesis by hypothesis, on
        # the context asked for and after updates that make w non-uniform
        gen = np.random.default_rng(0)
        raw = gen.uniform(-0.8, 0.8, (5, 2, 3, 3))
        tabs = np.triu(raw, 1) - np.triu(raw, 1).transpose(0, 1, 3, 2)
        oracle = FiniteClassAggregator(tabs)
        for a, b, y in [(0, 2, 1.0), (1, 2, -1.0), (0, 1, 1.0)]:
            oracle.update(1, a, b, y)
        w = oracle.weights
        assert np.ptp(w) > 0.01
        for x in (0, 1):
            expected = sum(w[f] * tabs[f, x] for f in range(5))
            assert np.abs(oracle.predict_matrix(x) - expected).max() <= 1e-12

    @pytest.mark.parametrize("k", [2, 3, 5, 20])
    @pytest.mark.parametrize("class_size", [1, 16, 257])
    def test_forecast_is_exactly_skew(self, k, class_size):
        # the forecast goes to MinMaxDb as it is: no triangle is rebuilt
        rng = RngHandle(k * 1000 + class_size).substream("cls")
        tables = make_finite_class(2, k, class_size, rng).tables
        oracle = FiniteClassAggregator(tables)
        gen = rng.generator
        for _ in range(50):
            a, b = sorted(gen.choice(k, 2, replace=False))
            oracle.update(int(gen.integers(0, 2)), a, b,
                          float(gen.choice([-1.0, 1.0])))
        for x in (0, 1):
            m = oracle.predict_matrix(x)
            assert (m == -m.T).all()
            assert (np.diagonal(m) == 0.0).all()

    def test_forecast_is_held_read_only_until_update(self):
        gen = np.random.default_rng(1)
        raw = gen.uniform(-0.8, 0.8, (4, 2, 3, 3))
        tabs = np.triu(raw, 1) - np.triu(raw, 1).transpose(0, 1, 3, 2)
        oracle = FiniteClassAggregator(tabs)
        first = [oracle.predict_matrix(x) for x in (0, 1)]
        for x, m in enumerate(first):
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0, 1] = 0.0
            assert oracle.predict_matrix(x) is m
        assert first[0] is not first[1]
        oracle.update(1, 0, 2, 1.0)
        after = [oracle.predict_matrix(x) for x in (0, 1)]
        assert after[0] is not first[0] and after[1] is not first[1]
        assert not np.array_equal(after[0], first[0])
        assert oracle.predict_matrix(0) is after[0]

    def test_context_out_of_range(self):
        oracle = FiniteClassAggregator(constant_tables([0.0]))
        with pytest.raises(DimensionMismatch):
            oracle.predict_matrix(3)

    @pytest.mark.parametrize("context", [-1, 2])
    def test_predict_and_update_check_the_context_id(self, context):
        tabs = np.zeros((3, 2, 2, 2))
        oracle = FiniteClassAggregator(tabs)
        with pytest.raises(DimensionMismatch):
            oracle.predict_matrix(context)
        with pytest.raises(DimensionMismatch):
            oracle.update(context, 0, 1, 1.0)

    def test_weights_stay_normalized_over_long_streams(self):
        oracle = FiniteClassAggregator(constant_tables([-0.9, 0.0, 0.9]))
        for _ in range(2000):
            oracle.update(0, 0, 1, 1.0)
        assert np.isfinite(oracle.log_weights).all()
        assert oracle.weights.sum() == pytest.approx(1.0)


class TestVawForecaster:
    def test_zero_prior_predicts_zero(self):
        oracle = VawForecaster(1)
        assert oracle.predict_matrix(pair_context([1.0]))[0, 1] == 0.0

    def test_one_observation_closed_form(self):
        # d=1, ridge=1, history {(x=1, y=1)}: (1 + 1 + 1)^-1 * 1 = 1/3
        oracle = VawForecaster(1)
        z = pair_context([1.0])
        oracle.update(z, 0, 1, 1.0)
        assert oracle.predict_matrix(z)[0, 1] == pytest.approx(1.0 / 3.0)

    def test_repeated_observations_approach_one(self):
        oracle = VawForecaster(1)
        z = pair_context([1.0])
        prev = 0.0
        for n in range(1, 30):
            oracle.update(z, 0, 1, 1.0)
            pred = oracle.predict_matrix(z)[0, 1]
            assert pred == pytest.approx(n / (n + 2.0))
            assert pred > prev
            prev = pred

    def test_gram_matrix_stays_positive_definite(self):
        gen = np.random.default_rng(1)
        oracle = VawForecaster(3)
        for _ in range(200):
            z = pair_context(gen.uniform(-1, 1, 3))
            oracle.update(z, 0, 1, float(gen.choice([-1.0, 1.0])))
        eigs = np.linalg.eigvalsh(oracle.state.gram)
        assert eigs.min() >= 1.0 - 1e-9  # the ridge

    def test_matches_direct_solve_oracle(self):
        # independent route: explicit solve of (A + x x^T) w = b per query
        gen = np.random.default_rng(2)
        d = 4
        oracle = VawForecaster(d)
        gram = np.eye(d)
        moment = np.zeros(d)
        for _ in range(300):
            x = gen.uniform(-1, 1, d)
            expected = moment @ np.linalg.solve(gram + np.outer(x, x), x)
            got = oracle.predict_matrix(pair_context(x))[0, 1]
            assert got == pytest.approx(expected, abs=1e-9)
            y = float(gen.choice([-1.0, 1.0]))
            oracle.update(pair_context(x), 0, 1, y)
            gram += np.outer(x, x)
            moment += y * x

    def test_prediction_is_pure(self):
        gen = np.random.default_rng(9)
        oracle = VawForecaster(2)
        oracle.update(pair_context(gen.uniform(-1, 1, 2)), 0, 1, 1.0)
        z = antisymmetric_features(gen, 4, 2)
        assert np.array_equal(oracle.predict_matrix(z), oracle.predict_matrix(z))

    def test_dimension_mismatch(self):
        oracle = VawForecaster(2)
        with pytest.raises(DimensionMismatch):
            oracle.predict_matrix(pair_context([1.0, 2.0, 3.0]))
        with pytest.raises(DimensionMismatch):
            oracle.update(pair_context([1.0, 2.0, 3.0]), 0, 1, 1.0)

    def test_malformed_context(self, bad_linear_context):
        oracle = VawForecaster(2)
        with pytest.raises(DimensionMismatch):
            oracle.predict_matrix(bad_linear_context)
        with pytest.raises(DimensionMismatch):
            oracle.update(bad_linear_context, 0, 1, 1.0)

    def test_predict_matrix_is_skew_with_the_pair_row_bits(self):
        # the upper triangle is mean / (1 + quad) computed on the pair rows
        # x[triu] alone, the lower one its exact negation
        gen = np.random.default_rng(4)
        k, d = 5, 3
        oracle = VawForecaster(d)
        triu = np.triu_indices(k, 1)
        for _ in range(20):
            x = antisymmetric_features(gen, k, d)
            m = oracle.predict_matrix(x)
            mean, quad = oracle.state.predict(x[triu])
            assert m[triu].tobytes() == (mean / (1.0 + quad)).tobytes()
            assert np.array_equal(m, -m.T)
            assert (np.diagonal(m) == 0.0).all()
            oracle.update(x, 0, 2, float(gen.choice([-1.0, 1.0])))


class TestRidgeState:
    @pytest.mark.parametrize("dim", [1, 4, 8, 16])
    def test_held_inverse_matches_a_solve_across_resyncs(self, dim):
        # the Sherman-Morrison inverse against a fresh factorization of the
        # gram, checked around each re-sync and through T=10000 updates
        gen = np.random.default_rng(dim)
        state = _RidgeState(dim)
        every = _RidgeState.RESYNC_EVERY
        checks = {1, 2, 9999, 10000} | {
            m * every + off for m in range(1, 10) for off in (-1, 0, 1)}
        worst_mean = worst_quad = 0.0
        for t in range(1, 10001):
            state.add(gen.uniform(-1, 1, dim), float(gen.choice([-1.0, 1.0])))
            if t in checks or t % 250 == 0:
                feats = gen.uniform(-1, 1, (25, dim))
                mean, quad = state.predict(feats)
                solved = np.linalg.solve(state.gram, feats.T)
                worst_mean = max(worst_mean,
                                 np.abs(mean - state.moment @ solved).max())
                worst_quad = max(worst_quad, np.abs(
                    quad - np.sum(feats.T * solved, axis=0)).max())
        assert worst_mean <= 1e-12
        assert worst_quad <= 1e-12

    def test_inverse_recomputed_from_the_gram_at_each_resync(self):
        gen = np.random.default_rng(3)
        state = _RidgeState(4)
        for _ in range(2 * _RidgeState.RESYNC_EVERY):
            state.add(gen.uniform(-1, 1, 4), 1.0)
        assert np.array_equal(state._inv, np.linalg.inv(state.gram))


class TestOgdForecaster:
    def test_single_step_arithmetic(self):
        oracle = OgdForecaster(2, horizon=16)
        oracle.step = 0.25
        oracle.update(pair_context([1.0, 0.0]), 0, 1, 1.0)
        assert np.allclose(oracle.theta, [0.5, 0.0])

    def test_predict_matrix_is_skew_with_the_pair_row_bits(self):
        # at d=8 numpy's matmul bits depend on the row count, so forecasts
        # over all K^2 rows would differ from these
        gen = np.random.default_rng(6)
        k, d = 5, 8
        oracle = OgdForecaster(d, horizon=100)
        triu = np.triu_indices(k, 1)
        for _ in range(20):
            oracle.theta = gen.uniform(-0.5, 0.5, d)
            x = antisymmetric_features(gen, k, d)
            m = oracle.predict_matrix(x)
            assert m[triu].tobytes() == (x[triu] @ oracle.theta).tobytes()
            assert np.array_equal(m, -m.T)
            assert (np.diagonal(m) == 0.0).all()

    def test_dimension_mismatch(self):
        oracle = OgdForecaster(2, horizon=16)
        with pytest.raises(DimensionMismatch):
            oracle.predict_matrix(pair_context([1.0, 2.0, 3.0]))
        with pytest.raises(DimensionMismatch):
            oracle.update(pair_context([1.0, 2.0, 3.0]), 0, 1, 1.0)

    def test_malformed_context(self, bad_linear_context):
        oracle = OgdForecaster(2, horizon=16)
        with pytest.raises(DimensionMismatch):
            oracle.predict_matrix(bad_linear_context)
        with pytest.raises(DimensionMismatch):
            oracle.update(bad_linear_context, 0, 1, 1.0)

    def test_iterates_stay_in_ball(self):
        gen = np.random.default_rng(3)
        oracle = OgdForecaster(3, horizon=100)
        oracle.step = 0.5  # large enough that the projection acts
        norms = []
        for _ in range(500):
            x = gen.uniform(-1, 1, 3)
            oracle.update(pair_context(x), 0, 1, float(gen.choice([-1.0, 1.0])))
            norms.append(np.linalg.norm(oracle.theta))
        assert max(norms) <= 1.0 + 1e-12  # the radius
        assert max(norms) == pytest.approx(1.0)


class TestRegretBudget:
    def test_finite_class_constant(self):
        b = regret_budget("finite", class_size=16)
        assert b(1) == b(10**6) == pytest.approx(8 * np.log(16))

    def test_vaw_form(self):
        b = regret_budget("vaw", dim=4)
        assert b(5000) == pytest.approx(4 * np.log(1 + 5000 / 4) + 1.0)

    def test_ogd_form(self):
        # radius 1, gradient bound L = 2 (1 + 1): 4 sqrt(T)
        assert regret_budget("ogd", dim=3)(100) == 40.0

    def test_nondecreasing(self):
        for kind, kw in [("finite", {"class_size": 8}), ("vaw", {"dim": 3}),
                         ("ogd", {"dim": 3})]:
            b = regret_budget(kind, **kw)
            vals = [b(t) for t in (1, 10, 100, 1000, 10000)]
            assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))

    @pytest.mark.parametrize("kind", ["glm", "glmtron", "rkhs", "banach",
                                      "kernel", "Finite", "ridge"])
    def test_out_of_scope_kinds(self, kind):
        with pytest.raises(UnsupportedOracle, match=kind):
            regret_budget(kind, dim=3)

    def test_degenerate_params(self):
        with pytest.raises(ValueError):
            regret_budget("finite", class_size=0)


def _realizable_linear_stream(oracle_factory, seed, d=3, horizon=2000):
    rng = RngHandle(seed).substream("stream")
    gen = rng.generator
    w = gen.uniform(-1, 1, d)
    w /= max(1.0, float(np.linalg.norm(w)))
    oracle = oracle_factory(d)
    err = 0.0
    for _ in range(horizon):
        x = gen.uniform(-1, 1, d)
        x /= max(1.0, abs(float(w @ x)))
        target = float(w @ x)
        z = pair_context(x)
        err += (oracle.predict_matrix(z)[0, 1] - target) ** 2
        y = 1.0 if gen.random() < (target + 1) / 2 else -1.0
        oracle.update(z, 0, 1, y)
    return err, oracle


class TestRealizableStreams:
    """Cumulative estimation error stays within 4x the declared budget;
    the literal (1x) budget comparison is reported alongside."""

    @pytest.mark.parametrize("seed", range(3))
    def test_vaw_estimation_error(self, seed):
        horizon, d = 2000, 3
        err, oracle = _realizable_linear_stream(VawForecaster, seed, d, horizon)
        literal = oracle.regret_budget()(horizon)
        print(f"vaw seed={seed}: err={err:.2f} literal={literal:.2f} 4x={4 * literal:.2f}")
        assert err <= 4 * literal

    @pytest.mark.parametrize("seed", range(3))
    def test_ogd_estimation_error(self, seed):
        horizon, d = 2000, 3
        err, oracle = _realizable_linear_stream(
            lambda dim: OgdForecaster(dim, horizon=horizon), seed, d, horizon
        )
        literal = oracle.regret_budget()(horizon)
        print(f"ogd seed={seed}: err={err:.2f} literal={literal:.2f} 4x={4 * literal:.2f}")
        assert err <= 4 * literal

    @pytest.mark.parametrize("seed", range(3))
    def test_finite_estimation_error(self, seed):
        gen = RngHandle(100 + seed).substream("fs").generator
        raw = gen.uniform(-0.8, 0.8, (16, 1, 3, 3))
        tabs = np.triu(raw, 1) - np.triu(raw, 1).transpose(0, 1, 3, 2)
        truth = int(gen.integers(0, 16))
        oracle = FiniteClassAggregator(tabs)
        pairs = [(0, 1), (0, 2), (1, 2)]
        err = 0.0
        for _ in range(2000):
            a, b = pairs[int(gen.integers(0, 3))]
            target = tabs[truth, 0, a, b]
            err += (oracle.predict_matrix(0)[a, b] - target) ** 2
            y = 1.0 if gen.random() < (target + 1) / 2 else -1.0
            oracle.update(0, a, b, y)
        literal = oracle.regret_budget()(2000)
        print(f"finite seed={seed}: err={err:.2f} literal={literal:.2f}")
        assert err <= 4 * literal


class TestRegretVersusOfflineBest:
    def test_finite_class_adversarial_stream(self):
        # alternating labels; compare to the best single hypothesis in hindsight
        tabs = constant_tables([-0.5, 0.0, 0.5, 0.9])
        oracle = FiniteClassAggregator(tabs)
        horizon = 1000
        labels = [1.0 if t % 3 else -1.0 for t in range(horizon)]
        online = 0.0
        for y in labels:
            online += (oracle.predict_matrix(0)[0, 1] - y) ** 2
            oracle.update(0, 0, 1, y)
        values = tabs[:, 0, 0, 1]
        offline = min(((v - np.array(labels)) ** 2).sum() for v in values)
        assert online - offline <= oracle.regret_budget()(horizon) + 1.0

    def test_vaw_adversarial_stream(self):
        gen = np.random.default_rng(5)
        d, horizon = 3, 1000
        oracle = VawForecaster(d)
        xs, ys = [], []
        online = 0.0
        for t in range(horizon):
            x = gen.uniform(-1, 1, d)
            y = 1.0 if (t // 7) % 2 else -1.0
            z = pair_context(x)
            online += (oracle.predict_matrix(z)[0, 1] - y) ** 2
            oracle.update(z, 0, 1, y)
            xs.append(x)
            ys.append(y)
        xs = np.array(xs)
        ys = np.array(ys)
        # offline comparator: ridge solution at the same regularizer
        w = np.linalg.solve(xs.T @ xs + np.eye(d), xs.T @ ys)
        offline = ((xs @ w - ys) ** 2).sum()
        assert online - offline <= oracle.regret_budget()(horizon) + 1.0

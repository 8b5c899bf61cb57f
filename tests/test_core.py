import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duelbandit.core import (
    ActionDistribution,
    JointActionDistribution,
    PreferenceMatrix,
    product_joint,
    sample_joint,
    sample_outcome,
    sample_pair,
    skew_complete,
)
from duelbandit.errors import (
    DiagonalViolation,
    RangeViolation,
    SkewSymmetryViolation,
)
from duelbandit.rng import DRAW_AHEAD, RngHandle

RPS = [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]


class TestValidatePreferenceMatrix:
    def test_zero_matrix_accepted(self):
        m = PreferenceMatrix(np.zeros((4, 4)))
        assert m.k == 4
        assert (m.entries == 0).all()

    def test_rps_accepted(self):
        m = PreferenceMatrix(RPS)
        assert np.array_equal(m.entries, np.array(RPS, dtype=float))

    def test_symmetric_rejected_with_index(self):
        with pytest.raises(SkewSymmetryViolation) as exc:
            PreferenceMatrix([[0, 1], [1, 0]])
        assert exc.value.pair == (0, 1)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(DiagonalViolation):
            PreferenceMatrix([[0.5, 0], [0, 0]])

    def test_out_of_range_rejected(self):
        with pytest.raises(RangeViolation):
            PreferenceMatrix([[0, 1.5], [-1.5, 0]])

    def test_single_arm_rejected(self):
        with pytest.raises(ValueError):
            PreferenceMatrix([[0.0]])

    def test_storage_exactly_antisymmetric(self):
        # tiny asymmetry below tolerance is absorbed exactly
        eps = 1e-13
        m = PreferenceMatrix([[0, 0.5], [-0.5 + eps, 0]])
        assert m.entries[0, 1] == -m.entries[1, 0]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1))
    def test_random_skew_completion_always_validates(self, k, seed):
        gen = np.random.default_rng(seed)
        upper = np.triu(gen.uniform(-1, 1, (k, k)), 1)
        m = skew_complete(upper - upper.T)
        again = PreferenceMatrix(m.entries)
        assert np.array_equal(again.entries, m.entries)


class TestSkewComplete:
    def test_two_arm_direct(self):
        m = skew_complete([[0, 0.3], [-0.3, 0]])
        assert np.array_equal(m.entries, [[0, 0.3], [-0.3, 0]])

    def test_zero_values_give_zero_matrix(self):
        m = skew_complete(np.zeros((3, 3)))
        assert (m.entries == 0).all()

    def test_out_of_range_clamped_and_logged(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="duelbandit.core"):
            m = skew_complete([[0, 1.7], [-1.7, 0]])
        assert np.array_equal(m.entries, [[0, 1], [-1, 0]])
        assert [r.getMessage() for r in caplog.records] == [
            "skew_complete clamped 1 of 1 predictions into [-1, 1]"]

    def test_clamp_count_is_per_pair(self, caplog):
        forecast = np.zeros((4, 4))
        forecast[0, 1], forecast[1, 3], forecast[2, 3] = 1.5, -2.0, 0.5
        forecast -= forecast.T
        with caplog.at_level(logging.DEBUG, logger="duelbandit.core"):
            skew_complete(forecast)
        assert [r.getMessage() for r in caplog.records] == [
            "skew_complete clamped 2 of 6 predictions into [-1, 1]"]

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_clamp_keeps_the_matrix_skew(self, k):
        gen = np.random.default_rng(k)
        upper = np.triu(gen.uniform(-3, 3, (k, k)), 1)
        forecast = upper - upper.T
        m = skew_complete(forecast).entries
        assert np.array_equal(m, np.clip(forecast, -1, 1))
        assert np.array_equal(m, -m.T)
        assert np.abs(m).max() <= 1.0 and (np.abs(m) == 1.0).any()
        assert not m.flags.writeable

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_in_range_forecast_is_a_read_only_view(self, k, caplog):
        gen = np.random.default_rng(k)
        upper = np.triu(gen.uniform(-1, 1, (k, k)), 1)
        upper[0, -1] = -1.0  # the bounds themselves are in range
        upper[-2, -1] = 1.0
        forecast = upper - upper.T
        with caplog.at_level(logging.DEBUG, logger="duelbandit.core"):
            m = skew_complete(forecast).entries
        assert m.tobytes() == np.clip(forecast, -1, 1).tobytes()
        assert np.shares_memory(m, forecast)
        assert not m.flags.writeable
        assert forecast.flags.writeable
        assert caplog.records == []

    def test_nan_takes_the_clamp_and_is_logged(self, caplog):
        forecast = np.zeros((3, 3))
        forecast[0, 1], forecast[1, 0] = np.nan, np.nan
        with caplog.at_level(logging.DEBUG, logger="duelbandit.core"):
            m = skew_complete(forecast).entries
        assert m.tobytes() == np.clip(forecast, -1, 1).tobytes()
        assert not np.shares_memory(m, forecast)
        assert [r.getMessage() for r in caplog.records] == [
            "skew_complete clamped 1 of 3 predictions into [-1, 1]"]

    def test_non_square_rejected(self):
        for shape in [(3,), (2, 3), (1, 2, 2)]:
            with pytest.raises(ValueError, match="square"):
                skew_complete(np.zeros(shape))


class TestMarginals:
    def test_uniform_joint(self):
        j = JointActionDistribution(np.full((2, 2), 0.25))
        left, right = j.left_marginal(), j.right_marginal()
        assert np.allclose(left.weights, [0.5, 0.5])
        assert np.allclose(right.weights, [0.5, 0.5])

    def test_point_mass(self):
        w = np.zeros((2, 2))
        w[0, 1] = 1.0
        j = JointActionDistribution(w)
        left, right = j.left_marginal(), j.right_marginal()
        assert np.array_equal(left.weights, [1, 0])
        assert np.array_equal(right.weights, [0, 1])

    def test_hand_computed_sums(self):
        j = JointActionDistribution([[0.1, 0.2], [0.3, 0.4]])
        left, right = j.left_marginal(), j.right_marginal()
        assert np.allclose(left.weights, [0.3, 0.7])
        assert np.allclose(right.weights, [0.4, 0.6])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_marginals_are_simplex_points(self, k, seed):
        gen = np.random.default_rng(seed)
        w = gen.uniform(0, 1, (k, k))
        j = JointActionDistribution(w / w.sum())
        left, right = j.left_marginal(), j.right_marginal()
        assert abs(left.weights.sum() - 1) <= 1e-9
        assert abs(right.weights.sum() - 1) <= 1e-9


class TestDistributions:
    def test_small_drift_renormalized(self):
        d = ActionDistribution([0.5, 0.5 + 3e-8])
        assert abs(d.weights.sum() - 1.0) <= 1e-9

    def test_large_drift_rejected(self):
        with pytest.raises(ValueError):
            ActionDistribution([0.5, 0.6])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            ActionDistribution([1.1, -0.1])

    def test_product_joint_is_exact_outer(self):
        d = ActionDistribution([0.3, 0.7])
        j = product_joint(d)
        assert np.array_equal(j.weights, np.outer([0.3, 0.7], [0.3, 0.7]))


class TestSampling:
    def test_outcome_sure_win(self, rng):
        assert all(sample_outcome(1.0, rng) == 1 for _ in range(200))

    def test_outcome_sure_loss(self, rng):
        assert all(sample_outcome(-1.0, rng) == -1 for _ in range(200))

    def test_outcome_fair_frequency(self, rng):
        draws = [sample_outcome(0.0, rng) for _ in range(10_000)]
        freq = sum(1 for d in draws if d == 1) / len(draws)
        assert abs(freq - 0.5) <= 0.02

    def test_outcome_out_of_range(self, rng):
        with pytest.raises(RangeViolation):
            sample_outcome(1.2, rng)

    @pytest.mark.parametrize("p_value", [-0.8, 0.0, 0.5])
    def test_outcome_mean_converges(self, p_value):
        n = 40_000
        rng = RngHandle(99).substream(f"mc-{p_value}")
        mean = np.mean([sample_outcome(p_value, rng) for _ in range(n)])
        assert abs(mean - p_value) <= 3.0 * np.sqrt(1.0 / n) * 2.0

    def test_pair_point_mass(self, rng):
        d = ActionDistribution([0, 0, 1.0])
        assert all(sample_pair(d, rng) == (2, 2) for _ in range(50))

    def test_pair_product_frequencies(self, rng):
        d = ActionDistribution([0.5, 0.5])
        counts = np.zeros((2, 2))
        n = 10_000
        for _ in range(n):
            a, b = sample_pair(d, rng)
            counts[a, b] += 1
        assert (np.abs(counts / n - 0.25) <= 0.02).all()

    def test_joint_point_mass(self, rng):
        w = np.zeros((2, 2))
        w[0, 1] = 1.0
        j = JointActionDistribution(w)
        assert all(sample_joint(j, rng) == (0, 1) for _ in range(50))


def _searchsorted_draw(weights, rng):
    """The inverse-CDF draw by np.cumsum and np.searchsorted."""
    cum = np.cumsum(weights)
    u = rng.random() * cum[-1]
    return min(int(np.searchsorted(cum, u, side="right")), cum.size - 1)


class _Fixed:
    """Stands in for a random stream: returns the given uniforms in turn."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestSamplingSameDraws:
    """`sample_joint` and `sample_pair` must draw the indices of the
    searchsorted formula from the same uniforms."""

    @pytest.mark.parametrize("k", [2, 3, 5, 20])
    def test_twin_streams(self, k):
        gen = np.random.default_rng(k)
        ours, twin = RngHandle(k), RngHandle(k)
        for trial in range(200):
            w = gen.uniform(0, 1, (k, k)) * (gen.random((k, k)) < 0.5)
            if trial % 3 == 0:
                w[k // 2:] = 0.0  # a zero-weight tail
            w[0, gen.integers(k)] += 0.1
            joint = JointActionDistribution(w / w.sum())
            idx = _searchsorted_draw(joint.weights.ravel(), twin)
            assert sample_joint(joint, ours) == divmod(idx, k)
            p = ActionDistribution(joint.weights.sum(axis=0))
            want = (_searchsorted_draw(p.weights, twin),
                    _searchsorted_draw(p.weights, twin))
            assert sample_pair(p, ours) == want

    @pytest.mark.parametrize("weights, uniforms", [
        ([0.25, 0.0, 0.25, 0.5], [0.0, 0.25, 0.5, 0.999999]),
        ([0.0, 0.5, 0.5, 0.0], [0.0, 0.5, 1 - 2 ** -53]),
        ([0.5, 0.5, 0.0, 0.0], [0.5, 1 - 2 ** -53]),
    ])
    def test_draws_on_cumulative_boundaries(self, weights, uniforms):
        # a uniform landing on a cumulative sum skips the zero-weight cells
        # after it, as side="right" does
        p = ActionDistribution(weights)
        for u in uniforms:
            want = _searchsorted_draw(p.weights, _Fixed([u]))
            assert sample_pair(p, _Fixed([u, u])) == (want, want)
            joint = JointActionDistribution(np.reshape(weights, (2, 2)))
            assert sample_joint(joint, _Fixed([u])) == divmod(want, 2)


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a = RngHandle(7)
        b = RngHandle(7)
        assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]

    def test_substreams_independent_of_creation_order(self):
        r1 = RngHandle(7)
        x = r1.substream("x").random()
        r2 = RngHandle(7)
        _ = r2.substream("y").random()
        assert r2.substream("x").random() == x

    def test_named_substreams_differ(self):
        r = RngHandle(7)
        assert r.substream("a").random() != r.substream("b").random()


class TestDrawAhead:
    """`random()` serves uniforms from blocks; the bits are those of
    scalar draws, and a handle that drew ahead refuses direct draws."""

    def test_uniforms_match_scalar_draws(self):
        ours = RngHandle(7).substream("u")
        twin = RngHandle(7).substream("u").generator
        n = 800   # more than three refills
        assert n > 3 * DRAW_AHEAD
        assert [ours.random() for _ in range(n)] == \
            [float(twin.random()) for _ in range(n)]

    def test_direct_draws_refused_after_drawing_ahead(self):
        handle = RngHandle(7).substream("u")
        handle.random()
        name = re.escape(f"seed=7, path={handle.path!r}")
        with pytest.raises(RuntimeError, match=name):
            handle.generator
        with pytest.raises(RuntimeError, match=name):
            handle.integers(0, 10)

    def test_direct_draws_work_before_drawing_ahead(self):
        handle, twin = RngHandle(7), RngHandle(7).generator
        assert handle.integers(0, 1000) == int(twin.integers(0, 1000))
        assert handle.generator.random() == twin.random()
        assert handle.random() == float(twin.random())

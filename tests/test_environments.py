import numpy as np
import pytest

from duelbandit.core import PreferenceMatrix
from duelbandit.environments import (
    DRAW_AHEAD_ROUNDS,
    FiniteClassEnvironment,
    FixedMatrixEnvironment,
    LinearRealizableEnvironment,
    condorcet,
    hardness,
    make_finite_class,
    make_linear_environment,
    named_fixture,
    rps3,
)
from duelbandit.errors import UnknownContext
from duelbandit.harness import build_environment
from duelbandit.rng import RngHandle


class TestFixtures:
    def test_rps3_matrix(self):
        m = rps3()
        assert np.array_equal(m.entries, [[0, 1, -1], [-1, 0, 1], [1, -1, 0]])

    def test_hardness_matrix(self):
        m = hardness(0.2)
        assert np.array_equal(m.entries, [[0, 1, 0], [-1, 0, 0.2], [0, -0.2, 0]])

    def test_condorcet_structure(self):
        m = condorcet(5, 0.4)
        assert (m.entries[0, 1:] == 0.4).all()
        assert (m.entries[1:, 0] == -0.4).all()
        assert (m.entries[1:, 1:] == 0).all()

    def test_named_fixture_lookup(self):
        m = named_fixture("condorcet", k=3, margin=0.5)
        assert np.array_equal(m.entries, condorcet(3, 0.5).entries)
        with pytest.raises(ValueError):
            named_fixture("unknown")

    def test_fixtures_validate(self):
        for m in (rps3(), condorcet(4, 0.3), hardness(0.7)):
            PreferenceMatrix(m.entries)


class TestFixedMatrixEnvironment:
    def test_round_and_truth(self, rng):
        env = FixedMatrixEnvironment(rps3())
        x, truth = env.sample_round(rng)
        assert x == 0
        assert truth is env.matrix
        assert env.ground_truth(0) is env.matrix
        with pytest.raises(UnknownContext):
            env.ground_truth(1)


class TestFiniteClassEnvironment:
    def test_make_finite_class_realizable(self):
        rng = RngHandle(1).substream("cls")
        env = make_finite_class(4, 3, 16, rng)
        tables = env.tables
        assert tables.shape == (16, 4, 3, 3)
        truth = tables[env.truth_index]
        for c in range(4):
            assert np.array_equal(env.ground_truth(c).entries, truth[c])
            PreferenceMatrix(truth[c])
        assert np.abs(tables).max() <= 0.8

    def test_single_hypothesis_class(self):
        rng = RngHandle(2).substream("cls")
        env = make_finite_class(1, 3, 1, rng)
        assert env.truth_index == 0

    def test_context_sampling_uniform(self):
        rng = RngHandle(3).substream("cls")
        env = make_finite_class(4, 2, 4, rng)
        draw_rng = RngHandle(3).substream("draws")
        xs = [env.sample_round(draw_rng)[0] for _ in range(4000)]
        counts = np.bincount(xs, minlength=4) / len(xs)
        assert (np.abs(counts - 0.25) <= 0.03).all()

    def test_one_context_draws_take_no_bits(self):
        env = make_finite_class(1, 3, 4, RngHandle(6).substream("cls"))
        draw_rng = RngHandle(6).substream("draws")
        rounds = [env.sample_round(draw_rng) for _ in range(100)]
        assert all(x == 0 and truth is env.ground_truth(0)
                   for x, truth in rounds)
        fresh = RngHandle(6).substream("draws")
        assert draw_rng.random() == fresh.random()

    def test_unknown_context(self):
        rng = RngHandle(4).substream("cls")
        env = make_finite_class(2, 2, 3, rng)
        with pytest.raises(UnknownContext):
            env.ground_truth(5)

    def test_empty_context_grid_rejected(self):
        with pytest.raises(ValueError, match="n_contexts >= 1"):
            FiniteClassEnvironment(np.zeros((2, 0, 3, 3)), 0)
        with pytest.raises(ValueError, match="n_contexts >= 1"):
            make_finite_class(0, 3, 4, RngHandle(5).substream("cls"))


class TestLinearRealizableEnvironment:
    def test_zero_weight_gives_zero_truth(self, rng):
        env = LinearRealizableEnvironment(3, np.zeros(4))
        x, truth = env.sample_round(rng)
        assert (truth.entries == 0).all()

    def test_features_antisymmetric_and_truth_linear(self, rng):
        env = make_linear_environment(4, 3, RngHandle(5).substream("w"))
        for _ in range(20):
            x, truth = env.sample_round(rng)
            assert np.array_equal(truth.entries, env.ground_truth(x).entries)
            assert np.array_equal(x, -x.transpose(1, 0, 2))
            assert np.allclose(truth.entries, x @ env.weight)
            PreferenceMatrix(truth.entries)
            assert np.abs(truth.entries).max() <= 1.0

    def test_truth_requires_right_shape(self, rng):
        env = LinearRealizableEnvironment(3, np.ones(2) * 0.5)
        with pytest.raises(UnknownContext):
            env.ground_truth(np.zeros((2, 2, 2)))

    def test_weight_range_validated(self):
        with pytest.raises(ValueError):
            LinearRealizableEnvironment(3, np.array([1.5, 0.0]))

    def test_fewer_than_two_arms_rejected(self):
        with pytest.raises(ValueError, match="k >= 2"):
            LinearRealizableEnvironment(1, np.array([0.5, 0.0]))

    def test_empty_weight_rejected(self):
        with pytest.raises(ValueError, match="dim >= 1"):
            LinearRealizableEnvironment(3, np.zeros(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            LinearRealizableEnvironment(3, np.array([bad, 0.5]))

    def test_weight_is_a_frozen_copy(self, rng):
        weight = np.array([0.5, -0.25])
        env = LinearRealizableEnvironment(3, weight)
        weight[0] = np.nan
        assert env.weight.tolist() == [0.5, -0.25]
        assert not env.weight.flags.writeable
        env.sample_round(rng)

    @pytest.mark.parametrize("k, dim, weight_seed, draws, min_rescaled", [
        (5, 4, 5, 300, 0),     # the ccelindb-linear5 benchmark's weight
        (4, 8, 3, 300, 150),   # most draws take the rescaling branch
    ])
    def test_sampled_truth_is_the_validated_truth(self, k, dim, weight_seed,
                                                  draws, min_rescaled):
        env = build_environment({"kind": "linear", "k": k, "dim": dim,
                                 "weight_seed": weight_seed})
        rng = RngHandle(0)
        rescaled = 0
        for _ in range(draws):
            x, truth = env.sample_round(rng)
            f = truth.entries
            assert f.tobytes() == env.ground_truth(x).entries.tobytes()
            assert np.array_equal(f, -f.T)
            assert (np.diagonal(f) == 0.0).all()
            assert np.abs(f).max() <= 1.0
            rescaled += bool(np.abs(x @ env.weight).max() > 1.0 - 1e-8)
        assert rescaled >= min_rescaled


def _reference_round(env, rng):
    """One linear round drawn on its own, as before rounds were drawn
    ahead: the formula the block draw must reproduce bit for bit."""
    k, d = env.k, env.dim
    raw = rng.generator.uniform(-1.0, 1.0, (k, k, d))
    feats = (raw - raw.transpose(1, 0, 2)) / 2.0
    vals = feats @ env.weight
    peak = np.abs(vals).max()
    if peak > 1.0 - 1e-9:
        feats *= (1.0 - 1e-9) / peak
        vals = feats @ env.weight
    upper = np.where(np.triu(np.ones((k, k), dtype=bool), 1), vals, 0.0)
    return feats, upper - upper.T


class TestLinearDrawAhead:
    """Contexts come from blocks of DRAW_AHEAD_ROUNDS rounds; each round
    must have the bits of the per-round formula, served read-only."""

    @pytest.mark.parametrize("k, dim, weight_seed, min_rescaled", [
        (5, 4, 5, 0),     # the ccelindb-linear5 benchmark's weight
        (4, 8, 3, 300),   # most draws take the rescaling branch
    ])
    def test_rounds_have_the_per_round_bits(self, k, dim, weight_seed,
                                            min_rescaled):
        env = build_environment({"kind": "linear", "k": k, "dim": dim,
                                 "weight_seed": weight_seed})
        rng, twin = (RngHandle(0).substream("env") for _ in range(2))
        previous = None
        rescaled = 0
        rounds = 600
        assert rounds > 2 * DRAW_AHEAD_ROUNDS   # crosses two block boundaries
        for t in range(rounds):
            x, truth = env.sample_round(rng)
            want_x, want_truth = _reference_round(env, twin)
            assert x.tobytes() == want_x.tobytes(), t
            assert truth.entries.tobytes() == want_truth.tobytes(), t
            assert not x.flags.writeable and not truth.entries.flags.writeable
            if previous is not None:
                assert not np.shares_memory(x, previous[0]), t
                assert not np.shares_memory(truth.entries, previous[1]), t
            previous = x, truth.entries
            rescaled += bool(np.abs(x @ env.weight).max() > 1.0 - 1e-8)
        assert rescaled >= min_rescaled

    def test_another_handle_starts_a_new_block(self):
        env = build_environment({"kind": "linear", "k": 4, "dim": 8,
                                 "weight_seed": 3})
        first = RngHandle(1).substream("env")
        for _ in range(10):
            env.sample_round(first)
        x, truth = env.sample_round(RngHandle(2).substream("env"))
        want_x, want_truth = _reference_round(env,
                                              RngHandle(2).substream("env"))
        assert x.tobytes() == want_x.tobytes()
        assert truth.entries.tobytes() == want_truth.tobytes()


class TestExplicitTournamentClass:
    def test_sign_pattern_class_with_condorcet_truth(self):
        # all 8 orientations of a 3-arm tournament at margin 0.4, truth the
        # arm-0-dominant pattern: the environment accepts explicit tables
        # and realizability holds by membership
        margin = 0.4
        tables = []
        for bits in range(8):
            m = np.zeros((3, 3))
            signs = [1 if bits & (1 << i) else -1 for i in range(3)]
            m[0, 1], m[1, 0] = signs[0] * margin, -signs[0] * margin
            m[0, 2], m[2, 0] = signs[1] * margin, -signs[1] * margin
            m[1, 2], m[2, 1] = signs[2] * margin, -signs[2] * margin
            tables.append(m[None])
        tables = np.stack(tables)
        truth = 0b011  # arm 0 beats both others
        env = FiniteClassEnvironment(tables, truth)
        t = env.ground_truth(0).entries
        assert t[0, 1] == t[0, 2] == margin
        assert any(np.array_equal(tables[f, 0], t) for f in range(8))


class TestConditionalMeanConsistency:
    @pytest.mark.parametrize("builder", [
        lambda: FixedMatrixEnvironment(condorcet(3, 0.4)),
        lambda: make_finite_class(2, 3, 8, RngHandle(6).substream("cls")),
    ])
    def test_outcome_mean_matches_truth(self, builder):
        env = builder()
        rng = RngHandle(7).substream("mc")
        x, drawn_truth = env.sample_round(rng)
        assert drawn_truth is env.ground_truth(x)
        truth = drawn_truth.entries[0, 1]
        n = 100_000
        draws = np.where(rng.generator.random(n) < (truth + 1) / 2, 1.0, -1.0)
        assert abs(draws.mean() - truth) <= 3 * np.sqrt(1 / n) * 2

    def test_learner_facing_api_excludes_truth(self):
        # the learner contract receives context and outcome only
        import inspect

        from duelbandit.algorithms import CceDb, MinMaxDb

        for cls in (CceDb, MinMaxDb):
            sel = inspect.signature(cls.select)
            obs = inspect.signature(cls.observe)
            assert list(sel.parameters) == ["self", "context", "rng"]
            assert list(obs.parameters) == ["self", "context", "duel", "outcome"]

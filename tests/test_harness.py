import concurrent.futures
import json
import os
from pathlib import Path

import numpy as np
import pytest

import duelbandit.games as games
from duelbandit import harness
from duelbandit.harness import (
    CSV_HEADER,
    ExperimentConfig,
    RunSummary,
    aggregate,
    build_environment,
    build_learner,
    check_config,
    resolve_q_star,
    run_experiment,
    run_seeds,
    run_single_seed,
)
from duelbandit.algorithms import CceDb, MinMaxDb
from duelbandit.environments import condorcet
from duelbandit.errors import RangeViolation


def base_config(**overrides):
    raw = {
        "algorithm": {"kind": "ccedb"},
        "environment": {"kind": "fixed", "fixture": "condorcet",
                        "k": 3, "margin": 0.4},
        "horizon": 120,
        "seeds": [0],
        "benchmark": {"q_star": "condorcet", "policy_count": 2},
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


class TestConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("horizon", True), ("horizon", 2.5), ("horizon", "10"),
        ("horizon", 0),
        ("seeds", [True]), ("seeds", [-1]), ("seeds", []), ("seeds", (0,)),
        ("seeds", "0"), ("seeds", [3, 1, 3]),
        ("diagnostic", "no"), ("diagnostic", 1), ("diagnostic", None),
        ("output_dir", 5), ("output_dir", ""), ("output_dir", True),
        ("algorithm", "ccedb"),
        ("environment", [["kind", "fixed"]]),
        ("benchmark", [["q_star", None]]),
    ], ids=str)
    def test_bad_field_rejected_by_both_entry_points(self, field, value):
        raw = {"algorithm": {"kind": "ccedb"},
               "environment": {"kind": "fixed", "fixture": "rps3"},
               "horizon": 20, "seeds": [0], field: value}
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**raw)
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_dict(raw)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"algorithm": {}, "environment": {},
                                        "horizon": 5, "seeds": [1], "typo": 1})

    def test_roundtrip_dict(self):
        cfg = base_config()
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_readme_example_config_is_valid(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Running experiments", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        check_config(ExperimentConfig.from_dict(json.loads(block)))


class TestBuilders:
    def test_unknown_kinds(self):
        with pytest.raises(ValueError):
            build_environment({"kind": "nope"})
        env = build_environment({"kind": "fixed", "fixture": "rps3"})
        with pytest.raises(ValueError):
            build_learner({"kind": "nope"}, env, 10)

    def test_q_star_rules(self):
        env = build_environment({"kind": "fixed", "fixture": "condorcet",
                                 "k": 3, "margin": 0.4})
        q = resolve_q_star({"q_star": "condorcet"}, env)
        assert np.array_equal(q.weights, [1, 0, 0])
        q = resolve_q_star({"q_star": "nash"}, env)
        assert (q.weights @ env.matrix.entries).min() >= -1e-8
        q = resolve_q_star({"q_star": [0.2, 0.3, 0.5]}, env)
        assert np.allclose(q.weights, [0.2, 0.3, 0.5])

    def test_condorcet_rule_requires_winner(self):
        env = build_environment({"kind": "fixed", "fixture": "rps3"})
        with pytest.raises(ValueError):
            resolve_q_star({"q_star": "condorcet"}, env)

    def test_contextual_benchmark_needs_explicit_vector(self):
        env = build_environment({"kind": "finite_class", "k": 3,
                                 "n_contexts": 4, "class_size": 4})
        with pytest.raises(ValueError):
            resolve_q_star({"q_star": "nash"}, env)


class TestRunExperiment:
    def test_singleton_class_regret_is_pure_exploration(self):
        # a one-hypothesis oracle predicts the truth exactly, so per-round
        # best-response regret is at most the program budget plus slack
        cfg = ExperimentConfig.from_dict({
            "algorithm": {"kind": "minmaxdb", "gamma": 30.0,
                          "oracle": {"kind": "finite"}},
            "environment": {"kind": "finite_class", "k": 3, "n_contexts": 1,
                            "class_size": 1, "class_seed": 2},
            "horizon": 400, "seeds": [0],
            "benchmark": {"q_star": None, "policy_count": 0},
        })
        summaries, ledgers = run_experiment(cfg, keep_ledgers=True)
        assert summaries[0].status == "ok"
        k, gamma = 3, 30.0
        per_round_cap = 5 * k / gamma + k / gamma + 1e-9
        assert max(ledgers[0]["br_steps"]) <= per_round_cap
        assert summaries[0].final_br <= 400 * per_round_cap

    def test_ccedb_cycle_fixture_bound(self):
        # cyclic 3-arm fixture: final best-response regret stays within
        # 4 K log(KT) sqrt(T)
        cfg = ExperimentConfig.from_dict({
            "algorithm": {"kind": "ccedb"},
            "environment": {"kind": "fixed", "fixture": "rps3"},
            "horizon": 5000, "seeds": [0, 1],
            "benchmark": {"q_star": "nash", "policy_count": 0},
        })
        summaries, _ = run_experiment(cfg)
        bound = 4 * 3 * np.log(3 * 5000) * np.sqrt(5000)
        for s in summaries:
            assert s.status == "ok"
            assert s.final_br <= bound

    def test_ccedb_condorcet20_runs_clean(self):
        # every round's upper matrix at K=20 has a CCE the simplex must find
        cfg = ExperimentConfig.from_dict({
            "algorithm": {"kind": "ccedb"},
            "environment": {"kind": "fixed", "fixture": "condorcet",
                            "k": 20, "margin": 0.4},
            "horizon": 1000, "seeds": [0, 1, 2, 3, 4],
            "benchmark": {"q_star": "condorcet", "policy_count": 0},
        })
        summaries, _ = run_experiment(cfg)
        assert [s.status for s in summaries] == ["ok"] * 5

    def test_csv_round_trip(self, tmp_path):
        cfg = base_config(output_dir=str(tmp_path), seeds=[3])
        run_experiment(cfg)
        path = tmp_path / "rounds_seed3.csv"
        text = path.read_text().splitlines()
        assert text[0] == CSV_HEADER
        rows = [line.split(",") for line in text[1:]]
        assert len(rows) == 120
        br_steps = np.array([float(r[5]) for r in rows])
        br_cum = np.array([float(r[6]) for r in rows])
        assert np.allclose(np.cumsum(br_steps), br_cum, rtol=1e-12, atol=1e-12)
        fb_steps = np.array([float(r[7]) for r in rows])
        assert (fb_steps <= br_steps + 1e-12).all()
        assert (tmp_path / "summary.csv").exists()
        resolved = json.loads((tmp_path / "resolved_config.json").read_text())
        assert resolved["horizon"] == 120

    def test_replay_identical(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        run_experiment(base_config(output_dir=out1, seeds=[1, 2]))
        run_experiment(base_config(output_dir=out2, seeds=[1, 2]))
        for name in sorted(os.listdir(out1)):
            if name.endswith(".csv"):
                with open(os.path.join(out1, name), "rb") as f1, \
                        open(os.path.join(out2, name), "rb") as f2:
                    assert f1.read() == f2.read(), name

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        serial = str(tmp_path / "serial")
        monkeypatch.delenv("DUELBANDIT_THREADS", raising=False)
        run_experiment(base_config(output_dir=serial, seeds=[0, 1, 2]))
        names = sorted(n for n in os.listdir(serial) if n.endswith(".csv"))
        assert "summary.csv" in names and "rounds_seed2.csv" in names
        for threads in ("2", "3"):  # fewer workers than seeds, and as many
            par = str(tmp_path / threads)
            monkeypatch.setenv("DUELBANDIT_THREADS", threads)
            run_experiment(base_config(output_dir=par, seeds=[0, 1, 2]))
            for name in names:
                with open(os.path.join(serial, name), "rb") as f1, \
                        open(os.path.join(par, name), "rb") as f2:
                    assert f1.read() == f2.read(), (threads, name)

    def test_pool_never_outnumbers_the_seeds(self, monkeypatch):
        started = []

        class SerialPool:
            """Records the pool size asked for and maps in-process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # run_experiment imports the pool class from here when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        monkeypatch.setenv("DUELBANDIT_THREADS", "64")
        summaries, _ = run_experiment(base_config(seeds=[0, 1]))
        assert started == [2]
        assert [s.status for s in summaries] == ["ok", "ok"]
        run_experiment(base_config(seeds=[0]))
        assert started == [2]

    def test_worker_count_defaults_to_one(self, monkeypatch):
        monkeypatch.delenv("DUELBANDIT_THREADS", raising=False)
        assert harness.worker_count() == 1
        monkeypatch.setenv("DUELBANDIT_THREADS", "2")
        assert harness.worker_count() == 2

    @pytest.mark.parametrize("raw", ["abc", "0", "-2", ""])
    def test_malformed_worker_count_raises(self, monkeypatch, raw):
        monkeypatch.setenv("DUELBANDIT_THREADS", raw)
        with pytest.raises(ValueError, match="DUELBANDIT_THREADS") as info:
            harness.worker_count()
        assert repr(raw) in str(info.value)

    def test_diagnostic_mode_counts_coverage(self):
        cfg = base_config(diagnostic=True, horizon=200)
        summaries, _ = run_experiment(cfg)
        assert summaries[0].confidence_violations is not None
        assert summaries[0].status == "ok"

    def test_diagnostic_mode_minmaxdb(self):
        cfg = ExperimentConfig.from_dict({
            "algorithm": {"kind": "minmaxdb", "gamma": "auto",
                          "oracle": {"kind": "finite"}},
            "environment": {"kind": "finite_class", "k": 3, "n_contexts": 2,
                            "class_size": 8, "class_seed": 5},
            "horizon": 400, "seeds": [0], "diagnostic": True,
            "benchmark": {"q_star": None, "policy_count": 0},
        })
        summaries, _ = run_experiment(cfg)
        assert summaries[0].status == "ok"

    @pytest.mark.parametrize("width_multiplier", [None, 1e-3])
    def test_diagnostic_mode_ccelindb(self, width_multiplier, monkeypatch):
        if width_multiplier is not None:  # no config key sets the width
            build = harness.build_learner

            def narrow(spec, env, horizon):
                learner = build(spec, env, horizon)
                learner.width_multiplier = width_multiplier
                return learner
            monkeypatch.setattr(harness, "build_learner", narrow)
        cfg = ExperimentConfig.from_dict({
            "algorithm": {"kind": "ccelindb"},
            "environment": {"kind": "linear", "k": 5, "dim": 4,
                            "weight_seed": 5},
            "horizon": 300, "seeds": [0, 1], "diagnostic": True,
            "benchmark": {"q_star": None, "policy_count": 0},
        })
        summaries, _ = run_experiment(cfg)
        violations = [s.confidence_violations for s in summaries]
        assert [s.status for s in summaries] == ["ok", "ok"]
        if width_multiplier is None:
            assert violations == [0, 0]
        else:  # widths this narrow miss the truth: the check must see it
            assert min(violations) > 0

    @pytest.mark.parametrize("algorithm", [
        {"kind": "ccelindb"},
        {"kind": "minmaxdb", "gamma": 50.0, "oracle": {"kind": "vaw"}},
        {"kind": "minmaxdb", "gamma": 50.0, "oracle": {"kind": "ogd"}},
    ], ids=["ccelindb", "minmaxdb-vaw", "minmaxdb-ogd"])
    def test_linear_learners_run_on_read_only_contexts(self, algorithm):
        # contexts are read-only views into a block of rounds drawn ahead,
        # so a learner or oracle writing to one would raise; T=300 crosses
        # a block boundary
        cfg = ExperimentConfig.from_dict({
            "algorithm": algorithm,
            "environment": {"kind": "linear", "k": 4, "dim": 3,
                            "weight_seed": 5},
            "horizon": 300, "seeds": [0, 1],
            "benchmark": {"q_star": None, "policy_count": 2},
        })
        summaries, _ = run_experiment(cfg)
        assert [s.status for s in summaries] == ["ok", "ok"]

    def test_normalized_statistic_finite(self):
        summaries, _ = run_experiment(base_config())
        assert np.isfinite(summaries[0].normalized_br)
        assert summaries[0].normalized_br >= 0


class TestPolicyBoundBatch:
    def test_policy_bound_holds_in_most_seeds(self):
        # high-probability inequality: realized-duel policy regret within
        # br_cum + sqrt(T ln(|policies| T)) in at least 95 of 100 seeds
        cfg = ExperimentConfig.from_dict({
            "algorithm": {"kind": "ccedb"},
            "environment": {"kind": "fixed", "fixture": "condorcet",
                            "k": 3, "margin": 0.4},
            "horizon": 300, "seeds": list(range(100)),
            "benchmark": {"q_star": "condorcet", "policy_count": 3},
        })
        summaries, _ = run_experiment(cfg)
        holds = 0
        for s in summaries:
            bound = s.final_br + np.sqrt(300 * np.log(3 * 300))
            holds += s.final_policy <= bound + 1e-9
        assert holds >= 95


class TestAggregate:
    def test_single_summary_passthrough(self):
        s = RunSummary(seed=0, horizon=100, final_br=5.0)
        report = aggregate([s])
        assert report["n_runs"] == 1
        assert report["horizons"][100]["br_median"] == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_scaling_ratio_on_paired_horizons(self):
        sums = []
        for seed in range(10):
            sums.append(RunSummary(seed=seed, horizon=1000, final_br=100.0 + seed))
            sums.append(RunSummary(seed=seed, horizon=4000, final_br=200.0 + seed))
        report = aggregate(sums)
        pair = report["scaling_ratios"]["1000->4000"]
        assert pair["ratio"] == pytest.approx(204.5 / 104.5)
        assert pair["ci95"][0] <= pair["ratio"] <= pair["ci95"][1]

    @pytest.mark.parametrize("lower, want", [
        # a lower median of 0: no ratio and no interval
        ([0.0, 0.0, 0.0], {"ratio": None, "ci95": None}),
        # some resamples of the lower horizon have median 0: no interval
        ([0.0, 1.0, 2.0], {"ratio": 2.0, "ci95": None}),
    ])
    def test_ratio_over_a_zero_median_is_null(self, lower, want):
        sums = [RunSummary(seed=seed, horizon=horizon, final_br=br)
                for horizon, brs in ((100, lower), (400, [1.0, 2.0, 3.0]))
                for seed, br in enumerate(brs)]
        report = aggregate(sums)
        json.dumps(report, allow_nan=False)
        assert report["scaling_ratios"]["100->400"] == want


class TestSingleSeedFailurePath:
    def test_solver_failure_recorded_not_raised(self, monkeypatch):
        cfg = base_config()
        summary, ledger, lines = run_single_seed(cfg, 0)
        assert summary.status == "ok"
        # force an unreachable iteration cap: the singleton class makes the
        # oracle predict the full-margin matrix exactly from round one, so
        # the program genuinely needs iterations it is not allowed
        monkeypatch.setattr(games, "MAX_ITERATIONS", 1)
        cfg2 = ExperimentConfig.from_dict({
            "algorithm": {"kind": "minmaxdb", "gamma": 600.0,
                          "oracle": {"kind": "finite", "class_size": 1}},
            "environment": {"kind": "fixed", "fixture": "condorcet",
                            "k": 10, "margin": 1.0},
            "horizon": 10, "seeds": [0],
            "benchmark": {"q_star": None, "policy_count": 0},
        })
        summary, _, _ = run_single_seed(cfg2, 0)
        assert summary.status.startswith("failed: NotConverged at round 1: ")

    def test_cce_failure_names_round_and_pivots(self, tmp_path, monkeypatch):
        # one pivot is not enough for every round's cold simplex
        cfg = base_config(horizon=50, output_dir=str(tmp_path))
        monkeypatch.setattr(games, "MAX_ITERATIONS", 1)
        summary, _, lines = run_single_seed(cfg, 0)
        assert 0 < len(lines) < 50  # the rounds before the failing one
        assert summary.status.startswith(
            f"failed: NotConverged at round {len(lines) + 1}: CCE solve")
        assert "after 1 pivots" in summary.status


def _ccedb_config(**overrides):
    """CceDb on Condorcet(5, 0.4): T=300 crosses the ledger's chunk of 256
    and about one round in eight pivots cold."""
    return base_config(**{
        "environment": {"kind": "fixed", "fixture": "condorcet",
                        "k": 5, "margin": 0.4},
        "horizon": 300, **overrides})


def _run_bytes(result):
    """What one seed's run leaves: its ledger steps' bytes, its round CSV
    lines and its summary without the wall time."""
    summary, ledger, lines = result
    fields = {**summary.__dict__, "wall_clock_s": None}
    return (ledger.br_steps.tobytes(), ledger.fb_steps.tobytes(), lines,
            fields)


# MinMaxDb with gamma "auto" at T=400 (the finite class needs T >= 267):
# the finite-class workload's instance, whose held marginal always meets the
# stop test; its two-context form, where the descent iterates; and `vaw` on
# the linear K=5, d=4 instance, whose forecasts are new arrays every round
# and take the clamp on 14 of seed 0's rounds
MINMAXDB_INSTANCES = {
    "finite-1ctx": ({"kind": "finite"},
                    {"kind": "finite_class", "k": 3, "n_contexts": 1,
                     "class_size": 16, "class_seed": 11},
                    {"q_star": "nash", "policy_count": 3}),
    "finite-2ctx": ({"kind": "finite"},
                    {"kind": "finite_class", "k": 3, "n_contexts": 2,
                     "class_size": 16, "class_seed": 11},
                    {"q_star": None, "policy_count": 0}),
    "vaw": ({"kind": "vaw"},
            {"kind": "linear", "k": 5, "dim": 4, "weight_seed": 5},
            {"q_star": None, "policy_count": 0}),
}


def _minmaxdb_config(instance, **overrides):
    oracle, environment, benchmark = MINMAXDB_INSTANCES[instance]
    return base_config(**{
        "algorithm": {"kind": "minmaxdb", "gamma": "auto", "oracle": oracle},
        "environment": environment, "benchmark": benchmark,
        "horizon": 400, **overrides})


class TestLockstep:
    """`run_seeds` runs a group's seeds round by round, with one stacked
    `CceDb.prepare_round` or `MinMaxDb.prepare_round` per round; each seed
    must get the bits it gets alone."""

    SEEDS = [0, 1, 2, 3]

    @pytest.mark.parametrize("diagnostic", [False, True],
                             ids=["plain", "diagnostic"])
    @pytest.mark.parametrize("with_csv", [False, True],
                             ids=["no-csv", "csv"])
    def test_group_gives_each_seed_its_bytes_alone(self, tmp_path,
                                                   diagnostic, with_csv):
        config = _ccedb_config(
            diagnostic=diagnostic,
            output_dir=str(tmp_path) if with_csv else None)
        together = run_seeds(config, self.SEEDS)
        assert [r[0].seed for r in together] == self.SEEDS
        for seed, result in zip(self.SEEDS, together):
            alone = run_seeds(config, [seed])[0]
            assert _run_bytes(result) == _run_bytes(alone), seed
            assert result[0].status == "ok"
            assert len(result[2]) == (300 if with_csv else 0)

    def test_group_larger_than_lockstep_cap(self, monkeypatch):
        config = _ccedb_config(horizon=60)
        monkeypatch.setattr(harness, "LOCKSTEP_SEEDS", 3)
        capped = run_seeds(config, list(range(7)))
        monkeypatch.setattr(harness, "LOCKSTEP_SEEDS", 50)
        whole = run_seeds(config, list(range(7)))
        assert [_run_bytes(r) for r in capped] == [_run_bytes(r)
                                                    for r in whole]

    def test_failing_seed_drops_out_alone(self, tmp_path, monkeypatch):
        config = _ccedb_config(output_dir=str(tmp_path))
        full = run_seeds(config, self.SEEDS)
        failing, round_ = 2, 137
        draws = []
        sample_outcome = harness.sample_outcome

        def faulty(p_value, rng):
            if rng.seed == failing:
                draws.append(rng)
                if len(draws) == round_:
                    raise RangeViolation("injected")
            return sample_outcome(p_value, rng)

        monkeypatch.setattr(harness, "sample_outcome", faulty)
        cut = run_seeds(config, self.SEEDS)
        for seed, before, after in zip(self.SEEDS, full, cut):
            if seed != failing:
                assert _run_bytes(after) == _run_bytes(before), seed
                continue
            assert after[0].status == (
                f"failed: RangeViolation at round {round_}: injected")
            assert len(after[2]) == round_ - 1
            kept = "\n".join(after[2]).encode()
            assert "\n".join(before[2]).encode().startswith(kept)
            assert after[1].br_steps.tobytes() == \
                before[1].br_steps[:round_ - 1].tobytes()

    def test_seeds_failing_in_the_solver_fail_as_alone(self, tmp_path,
                                                       monkeypatch):
        # one pivot is not enough for a cold simplex: each seed fails at
        # its own first round that pivots more than once
        monkeypatch.setattr(games, "MAX_ITERATIONS", 1)
        config = _ccedb_config(output_dir=str(tmp_path))
        together = run_seeds(config, self.SEEDS)
        rounds = set()
        for seed, result in zip(self.SEEDS, together):
            alone = run_seeds(config, [seed])[0]
            assert _run_bytes(result) == _run_bytes(alone), seed
            assert result[0].status.startswith("failed: NotConverged at round")
            rounds.add(len(result[2]))
        assert len(rounds) > 1  # the seeds drop out at different rounds

    def test_learner_without_batched_step_runs_alone(self, monkeypatch):
        # CceLinDb has no prepare_round: its seeds run one after another,
        # each group its own wall time
        config = ExperimentConfig.from_dict({
            "algorithm": {"kind": "ccelindb"},
            "environment": {"kind": "linear", "k": 3, "dim": 2,
                            "weight_seed": 1},
            "horizon": 50, "seeds": [0, 1],
            "benchmark": {"q_star": None, "policy_count": 0},
        })
        built = []
        build = harness.build_learner

        def record(spec, env, horizon):
            built.append(len(built))
            return build(spec, env, horizon)

        monkeypatch.setattr(harness, "build_learner", record)
        plays = []
        play = harness._SeedRun.play

        def count(run):
            plays.append((len(built), run.seed))
            return play(run)

        monkeypatch.setattr(harness._SeedRun, "play", count)
        results = run_seeds(config, [0, 1])
        # seed 1 is built only after seed 0 has played all its rounds
        assert plays == [(1, 0)] * 50 + [(2, 1)] * 50
        assert [r[0].status for r in results] == ["ok", "ok"]

    @pytest.mark.parametrize("with_csv", [False, True],
                             ids=["no-csv", "csv"])
    @pytest.mark.parametrize("instance", sorted(MINMAXDB_INSTANCES))
    def test_minmaxdb_group_gives_each_seed_its_bytes_alone(
            self, tmp_path, monkeypatch, instance, with_csv):
        config = _minmaxdb_config(
            instance, output_dir=str(tmp_path) if with_csv else None)
        groups = []
        prepare = MinMaxDb.prepare_round.__func__

        def record(cls, learners, contexts):
            groups.append(len(learners))
            return prepare(cls, learners, contexts)

        monkeypatch.setattr(MinMaxDb, "prepare_round", classmethod(record))
        together = run_seeds(config, self.SEEDS)
        # one stacked step per round, for the whole group
        assert groups == [4] * 400
        assert [r[0].seed for r in together] == self.SEEDS
        iterations = 0
        for seed, result in zip(self.SEEDS, together):
            alone = run_seeds(config, [seed])[0]
            assert _run_bytes(result) == _run_bytes(alone), seed
            assert result[0].status == "ok"
            assert len(result[2]) == (400 if with_csv else 0)
            iterations += result[0].solver_iterations
        assert (iterations > 0) == (instance != "finite-1ctx")

    @pytest.mark.parametrize("where", ["draw", "outcome"])
    @pytest.mark.parametrize("instance", sorted(MINMAXDB_INSTANCES))
    def test_minmaxdb_failing_seed_drops_out_alone(self, tmp_path,
                                                   monkeypatch, instance,
                                                   where):
        # a failed draw counts as its seed's round, as a failed duel does
        config = _minmaxdb_config(instance, output_dir=str(tmp_path))
        full = run_seeds(config, self.SEEDS)
        failing, round_ = 2, 137
        calls = []
        if where == "draw":
            env_cls = type(build_environment(config.environment))
            owner, name = env_cls, "sample_round"
            original = env_cls.sample_round

            def faulty(env, rng):
                if rng.seed == failing:
                    calls.append(rng)
                    if len(calls) == round_:
                        raise RangeViolation("injected")
                return original(env, rng)
        else:
            owner, name = harness, "sample_outcome"
            original = harness.sample_outcome

            def faulty(p_value, rng):
                if rng.seed == failing:
                    calls.append(rng)
                    if len(calls) == round_:
                        raise RangeViolation("injected")
                return original(p_value, rng)

        monkeypatch.setattr(owner, name, faulty)
        cut = run_seeds(config, self.SEEDS)
        for seed, before, after in zip(self.SEEDS, full, cut):
            if seed != failing:
                assert _run_bytes(after) == _run_bytes(before), seed
                continue
            assert after[0].status == (
                f"failed: RangeViolation at round {round_}: injected")
            assert len(after[2]) == round_ - 1
            assert after[2] == before[2][:round_ - 1]
            assert after[1].br_steps.tobytes() == \
                before[1].br_steps[:round_ - 1].tobytes()

    def test_group_summaries_report_the_group_wall_time(self):
        results = run_seeds(_ccedb_config(horizon=20), self.SEEDS)
        walls = {r[0].wall_clock_s for r in results}
        assert len(walls) == 1 and walls.pop() > 0.0


class TestDiagnosticMovesNoBit:
    def test_criterion_4_config_same_bytes_either_way(self, tmp_path):
        # criterion 4's config, seeds 0-3: a batch run with diagnostics
        # must be the batch run without them, byte for byte
        runs = {}
        for diagnostic in (False, True):
            out = str(tmp_path / str(diagnostic))
            config = ExperimentConfig.from_dict({
                "algorithm": {"kind": "ccedb"},
                "environment": {"kind": "fixed", "fixture": "condorcet",
                                "k": 5, "margin": 0.4},
                "horizon": 2000, "seeds": [0, 1, 2, 3],
                "diagnostic": diagnostic, "output_dir": out,
                "benchmark": {"q_star": "condorcet", "policy_count": 0},
            })
            summaries, ledgers = run_experiment(config, keep_ledgers=True)
            assert [s.status for s in summaries] == ["ok"] * 4
            csvs = [(Path(out) / f"rounds_seed{seed}.csv").read_bytes()
                    for seed in range(4)]
            steps = [(ledger["br_steps"].tobytes(),
                      ledger["fb_steps"].tobytes()) for ledger in ledgers]
            runs[diagnostic] = csvs, steps
        assert runs[True] == runs[False]


def _break_cce_snapshot(learner):
    """Exact means and zero widths: covered, so the regret bound is 0."""
    truth = condorcet(5, 0.4).entries
    learner.last_mean = truth
    learner.last_confidence = np.zeros_like(truth)


def _break_minmax_snapshot(learner):
    """A point mass on arm 1, which arm 0 beats by 0.4, far above 5K/gamma
    with the forecast exact."""
    learner.last_marginal = np.array([0.0, 1.0, 0.0])


class TestDiagnosticFailure:
    """A snapshot that breaks the learner's per-round inequality stops its
    seed at that round with DiagnosticFailure; the other seeds run on."""

    SEEDS = [0, 1, 2, 3]

    @pytest.mark.parametrize("kind", ["ccedb", "minmaxdb"])
    def test_broken_snapshot_fails_its_seed_alone(self, tmp_path,
                                                  monkeypatch, kind):
        if kind == "ccedb":
            learner_cls, breaks = CceDb, _break_cce_snapshot
            config = _ccedb_config(diagnostic=True, output_dir=str(tmp_path))
            message = "instantaneous-regret bound broken: "
        else:  # the one-hypothesis class forecasts the truth exactly
            learner_cls, breaks = MinMaxDb, _break_minmax_snapshot
            config = ExperimentConfig.from_dict({
                "algorithm": {"kind": "minmaxdb", "gamma": 600.0,
                              "oracle": {"kind": "finite", "class_size": 1}},
                "environment": {"kind": "fixed", "fixture": "condorcet",
                                "k": 3, "margin": 0.4},
                "horizon": 300, "seeds": self.SEEDS, "diagnostic": True,
                "output_dir": str(tmp_path),
                "benchmark": {"q_star": None, "policy_count": 0},
            })
            message = "per-round inequality broken: "
        full = run_seeds(config, self.SEEDS)
        assert [r[0].status for r in full] == ["ok"] * 4
        failing, round_ = 2, 137
        calls = []
        select = learner_cls.select

        def broken(learner, context, rng):
            out = select(learner, context, rng)
            if rng.seed == failing:
                calls.append(rng)
                if len(calls) == round_:
                    breaks(learner)
            return out

        monkeypatch.setattr(learner_cls, "select", broken)
        cut = run_seeds(config, self.SEEDS)
        for seed, before, after in zip(self.SEEDS, full, cut):
            if seed != failing:
                assert _run_bytes(after) == _run_bytes(before), seed
                continue
            assert after[0].status.startswith(
                f"failed: DiagnosticFailure at round {round_}: {message}")
            assert len(after[2]) == round_ - 1
            kept = "\n".join(after[2]).encode()
            assert "\n".join(before[2]).encode().startswith(kept)

"""Experiment runner: seeded (algorithm x environment x horizon) runs.

Every seed owns its learner, environment substreams and ledger. Seeds run
in lockstep groups of at most LOCKSTEP_SEEDS, round by round: when the
learner class has a batched `prepare_round`, every live seed of the group
draws its context, then one stacked call per round does the learners'
work up to the per-seed solve (`CceDb`'s statistics and zero-pivot
simplex checks, `MinMaxDb`'s oracle forecasts and held-marginal tests);
`CceLinDb` runs one seed at a time. A seed gets the same bits in any
group. Chunks of seeds fan out across processes when
DUELBANDIT_THREADS > 1 and results merge in seed order, so output is
deterministic either way. Round CSVs carry full-precision floats and
reproduce byte-identically for a fixed config; a summary's wall time is
its group's.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .algorithms import CceDb, CceLinDb, MinMaxDb, default_gamma
from .core import ActionDistribution, PreferenceMatrix, sample_outcome
from .environments import (
    Environment,
    FiniteClassEnvironment,
    FixedMatrixEnvironment,
    LinearRealizableEnvironment,
    make_finite_class,
    make_linear_environment,
    named_fixture,
)
from .errors import DiagnosticFailure, DuelBanditError
from .evaluation import RegretLedger
from .games import solve_zero_sum_nash
from .oracles import FiniteClassAggregator, OgdForecaster, VawForecaster
from .rng import RngHandle

CSV_HEADER = ("seed,t,arm_a,arm_b,outcome,br_step,br_cum,"
              "fb_step,fb_cum,policy_cum,gamma,solver_iters")
SUMMARY_HEADER = ("seed,horizon,final_br,final_fb,final_policy,"
                  "normalized_br,solver_iterations,confidence_violations,status")

# Seeds one lockstep group runs at most: where the stacked solve's cost per
# seed stops falling, and a bound on the round CSV rows held at once.
LOCKSTEP_SEEDS = 50


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    """Resolved experiment description. Every field is checked on
    construction, so `ExperimentConfig(...)` and `from_dict` raise the same
    ValueError naming the field; `check_config` checks the specs inside."""

    algorithm: dict
    environment: dict
    horizon: int
    seeds: list[int]
    output_dir: str | None = None
    diagnostic: bool = False
    benchmark: dict = field(default_factory=dict)

    def __post_init__(self):
        if not _is_int(self.horizon):
            raise ValueError(f"horizon must be an integer, got {self.horizon!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not isinstance(self.seeds, list) or not self.seeds or not all(
                _is_int(s) and s >= 0 for s in self.seeds):
            raise ValueError("seeds must be a non-empty list of integers >= 0, "
                             f"got {self.seeds!r}")
        self.seeds = list(self.seeds)
        if len(set(self.seeds)) < len(self.seeds):
            seed = next(s for s in self.seeds if self.seeds.count(s) > 1)
            raise ValueError(f"seeds must not repeat: seed {seed} is repeated")
        if not isinstance(self.diagnostic, bool):
            raise ValueError(
                f"diagnostic must be true or false, got {self.diagnostic!r}")
        if self.output_dir is not None and not (
                isinstance(self.output_dir, str) and self.output_dir):
            raise ValueError("output_dir must be null or a non-empty string, "
                             f"got {self.output_dir!r}")
        for name in ("algorithm", "environment", "benchmark"):
            value = getattr(self, name)
            if not isinstance(value, dict):
                raise ValueError(
                    f"{name} must be a JSON object (a dict), got {value!r}")
            setattr(self, name, dict(value))
        benchmark = self.benchmark
        self.benchmark = {"q_star": benchmark.pop("q_star", "nash"),
                          "policy_count": benchmark.pop("policy_count", 0)}
        if benchmark:
            raise ValueError(f"benchmark does not use keys {sorted(benchmark)}")
        count = self.benchmark["policy_count"]
        if not _is_int(count) or count < 0:
            raise ValueError("benchmark policy_count must be an integer >= 0, "
                             f"got {count!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "algorithm" not in raw or "environment" not in raw:
            raise ValueError("config needs 'algorithm' and 'environment'")
        return cls(**{"horizon": 0, "seeds": [], **raw})

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunSummary:
    """One seed's outcome. `wall_clock_s` is the wall time of the lockstep
    group the seed ran in, building included, so every seed of a group
    reports the same time."""

    seed: int
    horizon: int
    final_br: float = 0.0
    final_fb: float = 0.0
    final_policy: float = 0.0
    normalized_br: float = 0.0
    wall_clock_s: float = 0.0
    solver_iterations: int = 0
    confidence_violations: int | None = None
    status: str = "ok"

    def csv_row(self) -> str:
        cv = "" if self.confidence_violations is None else str(self.confidence_violations)
        status = self.status.replace(",", ";").replace("\n", " ")
        return ",".join([
            str(self.seed), str(self.horizon), _fmt(self.final_br),
            _fmt(self.final_fb), _fmt(self.final_policy),
            _fmt(self.normalized_br), str(self.solver_iterations), cv,
            status,
        ])


def _reject_unused(spec: dict, what: str, kind) -> None:
    """Reject the keys left in a spec after its builder popped those it reads."""
    if spec:
        raise ValueError(f"{what} kind {kind!r} does not use keys {sorted(spec)}")


_REQUIRED = object()


def _pop_int(spec: dict, key: str, default=_REQUIRED, minimum=0) -> int:
    """Pop the integer `key` from a spec, or `default` if it is absent; a
    missing required key, a value that is not an int or is a bool, or one
    below `minimum` raises ValueError naming the key."""
    if default is _REQUIRED and key not in spec:
        raise ValueError(f"missing required key {key!r}")
    value = spec.pop(key, default)
    if not _is_int(value):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{key} out of range: need {key} >= {minimum}, "
                         f"got {value}")
    return value


def build_environment(spec: dict) -> Environment:
    spec = dict(spec)
    kind = spec.pop("kind", "fixed")
    if kind == "fixed":
        if "matrix" in spec:
            entries = spec.pop("matrix")
            _reject_unused(spec, "environment", kind)
            matrix = PreferenceMatrix(np.asarray(entries, dtype=np.float64))
        elif "fixture" in spec:
            name = spec.pop("fixture")
            if "k" in spec:  # the arm count of `condorcet`
                spec["k"] = _pop_int(spec, "k", minimum=2)
            # the rest of the spec is the fixture's parameters
            matrix = named_fixture(name, **spec)
        else:
            raise ValueError(
                "fixed environment needs a 'matrix' or a 'fixture'")
        return FixedMatrixEnvironment(matrix)
    if kind == "finite_class":
        class_seed = _pop_int(spec, "class_seed", 0)
        n_contexts = _pop_int(spec, "n_contexts", 1, minimum=1)
        k = _pop_int(spec, "k", minimum=2)
        class_size = _pop_int(spec, "class_size", 16)
        _reject_unused(spec, "environment", kind)
        class_rng = RngHandle(class_seed).substream("class")
        return make_finite_class(n_contexts, k, class_size, class_rng)
    if kind == "linear":
        k = _pop_int(spec, "k", minimum=2)
        dim = _pop_int(spec, "dim", minimum=1)
        weight_seed = _pop_int(spec, "weight_seed", 0)
        _reject_unused(spec, "environment", kind)
        weight_rng = RngHandle(weight_seed).substream("weight")
        return make_linear_environment(k, dim, weight_rng)
    raise ValueError(f"unknown environment kind {kind!r}")


def _build_oracle(spec: dict, env: Environment, horizon: int):
    spec = dict(spec)
    kind = spec.pop("kind", "finite")
    if kind == "finite":
        # a fixed environment's class is drawn here; a finite_class
        # environment hands over its own
        if isinstance(env, FixedMatrixEnvironment):
            class_seed = _pop_int(spec, "class_seed", 0)
            class_size = _pop_int(spec, "class_size", 16)
        _reject_unused(spec, "oracle", kind)
        if isinstance(env, FiniteClassEnvironment):
            return FiniteClassAggregator(env.tables)
        if not isinstance(env, FixedMatrixEnvironment):
            raise ValueError(
                "finite oracle needs a finite-class or fixed environment")
        rng = RngHandle(class_seed).substream("oracle-class")
        drawn = make_finite_class(1, env.k, class_size, rng)
        drawn.tables[drawn.truth_index, 0] = env.matrix.entries
        return FiniteClassAggregator(drawn.tables)
    if kind not in ("vaw", "ogd"):
        raise ValueError(f"unknown oracle kind {kind!r}")
    _reject_unused(spec, "oracle", kind)
    if not isinstance(env, LinearRealizableEnvironment):
        raise ValueError(f"{kind} oracle needs a linear environment")
    if kind == "vaw":
        return VawForecaster(env.dim)
    return OgdForecaster(env.dim, horizon)


def build_learner(spec: dict, env: Environment, horizon: int):
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind not in ("ccedb", "ccelindb", "minmaxdb"):
        raise ValueError(f"unknown algorithm kind {kind!r}")
    if kind == "minmaxdb":
        oracle_spec = spec.pop("oracle", {"kind": "finite"})
        gamma = spec.pop("gamma", "auto")
        _reject_unused(spec, "algorithm", kind)
        oracle = _build_oracle(oracle_spec, env, horizon)
        if gamma == "auto":
            gamma = default_gamma(env.k, horizon, oracle.regret_budget())
        elif isinstance(gamma, bool) or not isinstance(gamma, (int, float)):
            raise ValueError(f"gamma must be 'auto' or a number, got {gamma!r}")
        return MinMaxDb(env.k, float(gamma), oracle)
    _reject_unused(spec, "algorithm", kind)
    if kind == "ccedb":
        return CceDb(env.k, horizon)
    if not isinstance(env, LinearRealizableEnvironment):
        raise ValueError("ccelindb needs a linear environment")
    return CceLinDb(env.dim, horizon)


def _truth_matrix_for_benchmark(env: Environment) -> PreferenceMatrix:
    if isinstance(env, FixedMatrixEnvironment):
        return env.matrix
    if isinstance(env, FiniteClassEnvironment) and env.n_contexts == 1:
        return env.ground_truth(0)
    raise ValueError(
        "condorcet/nash benchmarks need an effectively non-contextual "
        "environment; pass an explicit q_star vector instead"
    )


def resolve_q_star(benchmark: dict, env: Environment):
    rule = benchmark.get("q_star", "nash")
    if isinstance(rule, (list, tuple, np.ndarray)):
        q = ActionDistribution(np.asarray(rule, dtype=np.float64))
        if q.k != env.k:
            raise ValueError(f"q_star has {q.k} entries, expected k={env.k}")
        return q
    if rule == "nash":
        truth = _truth_matrix_for_benchmark(env)
        return solve_zero_sum_nash(truth).point
    if rule == "condorcet":
        truth = _truth_matrix_for_benchmark(env)
        ent = truth.entries
        off = ent + np.eye(env.k)  # ignore the zero diagonal
        winners = np.nonzero((off > 0).all(axis=1))[0]
        if winners.size == 0:
            raise ValueError("no Condorcet winner in the benchmark matrix")
        q = np.zeros(env.k)
        q[winners[0]] = 1.0
        return ActionDistribution(q)
    raise ValueError(f"unknown q_star rule {rule!r}")


def check_config(config: ExperimentConfig) -> None:
    """Build what every seed run builds first, so that a config no seed can
    run fails once, before any seed does: the environment, the learner and
    the benchmark's q_star. Raises what those builders raise, what
    `worker_count` raises on a malformed DUELBANDIT_THREADS, and
    ValueError for an output_dir that cannot be a directory because it, or
    the nearest part of its path that exists, is not one."""
    worker_count()
    if config.output_dir is not None:
        existing = os.path.abspath(config.output_dir)
        while not os.path.exists(existing):
            existing = os.path.dirname(existing)
        if not os.path.isdir(existing):
            raise ValueError(f"output_dir {config.output_dir!r} cannot be a "
                             f"directory: {existing!r} is not one")
    env = build_environment(config.environment)
    build_learner(config.algorithm, env, config.horizon)
    if config.benchmark["q_star"] is not None:
        resolve_q_star(config.benchmark, env)


def _make_policies(count: int, k: int) -> list:
    return [(lambda x, arm=j % k: arm) for j in range(count)]


class _SeedRun:
    """One seed of a lockstep group: its environment, learner, ledger and
    random substreams, and what its rounds have booked so far."""

    def __init__(self, config: ExperimentConfig, seed: int):
        self.seed = seed
        self.env = build_environment(config.environment)
        self.learner = build_learner(config.algorithm, self.env, config.horizon)
        q_star = resolve_q_star(config.benchmark, self.env) \
            if config.benchmark["q_star"] is not None else None
        policies = _make_policies(config.benchmark["policy_count"], self.env.k)
        self.ledger = RegretLedger(q_star=q_star, policies=policies)
        root = RngHandle(seed)
        self.env_rng = root.substream("environment")
        self.learner_rng = root.substream("learner")
        self.outcome_rng = root.substream("outcome")
        self.violations = 0 if config.diagnostic else None
        self.solver_iters = 0
        # arm_a, arm_b, outcome and solver_iters of each booked round, flat
        self.rows = array("q") if config.output_dir is not None else None
        self.status = "ok"
        self.context = self.truth = None  # the round's draw

    def draw(self) -> None:
        """The first step of a round: draw its context and truth."""
        self.context, self.truth = self.env.sample_round(self.env_rng)

    def play(self) -> None:
        """The rest of a round on its draw: select, duel, check, observe,
        book."""
        learner, x, truth = self.learner, self.context, self.truth
        joint, duel = learner.select(x, self.learner_rng)
        a, b = duel
        outcome = sample_outcome(truth.entries.item(a, b), self.outcome_rng)
        if self.violations is not None and not learner.check_round(
                truth, joint):
            self.violations += 1
        learner.observe(x, duel, outcome)
        self.ledger.record(truth, x, joint, duel)
        iters = learner.last_iterations
        self.solver_iters += iters
        if self.rows is not None:
            self.rows.fromlist([a, b, outcome, iters])

    def result(self, config: ExperimentConfig, wall_clock_s: float):
        """(RunSummary, RegretLedger, csv lines) of the rounds played; the
        round rows are released once formatted."""
        learner, ledger = self.learner, self.ledger
        lines = [] if self.rows is None else _round_lines(
            self.seed, learner.gamma, self.rows, ledger)
        self.rows = None
        summary = RunSummary(
            seed=self.seed, horizon=config.horizon,
            final_br=ledger.final_br, final_fb=ledger.final_fb,
            final_policy=ledger.final_policy,
            normalized_br=float(ledger.final_br / learner.regret_scale(
                self.env.k, max(ledger.rounds, 1))),
            wall_clock_s=wall_clock_s, solver_iterations=self.solver_iters,
            confidence_violations=self.violations,
            status=self.status)
        return summary, ledger, lines


def run_seeds(config: ExperimentConfig, seeds: list[int]) -> list:
    """Run `seeds` round by round in lockstep; returns one
    (RunSummary, RegretLedger, csv lines) per seed, in seed order.

    Seeds run in groups of at most LOCKSTEP_SEEDS when the learner class
    has a batched `prepare_round` (`CceDb`, `MinMaxDb`), which each round
    takes every live seed's drawn context and does the learners' work up to
    the per-seed solve in one stacked pass; otherwise one at a time. Each
    seed keeps its own substreams, so it gets the bits it gets alone. A
    seed that raises DuelBanditError or DiagnosticFailure, in its draw or
    in the rest of its round, stops at that round and the others run on.
    Every summary of a group reports the group's wall time.
    """
    return list(_lockstep_groups(config, seeds))


def _lockstep_groups(config: ExperimentConfig, seeds: list[int]):
    """Yield each seed's result, a group's seeds in turn as soon as the
    group has run, so that one seed's round CSV lines are held at a time."""
    rest = list(seeds)
    while rest:
        t_start = time.perf_counter()
        runs = [_SeedRun(config, rest[0])]
        prepare = getattr(type(runs[0].learner), "prepare_round", None)
        size = 1 if prepare is None else LOCKSTEP_SEEDS
        runs += [_SeedRun(config, seed) for seed in rest[1:size]]
        rest = rest[size:]
        live = runs
        for t in range(1, config.horizon + 1):
            live = _stage(live, t, _SeedRun.draw)
            if prepare is not None and live:
                prepare([run.learner for run in live],
                        [run.context for run in live])
            live = _stage(live, t, _SeedRun.play)
            if not live:
                break
        wall = time.perf_counter() - t_start
        for run in runs:
            yield run.result(config, wall)


def _stage(runs: list, t: int, step) -> list:
    """Run `step` of round t on each run; returns the runs that did not
    fail in it. A run that raises DuelBanditError or DiagnosticFailure
    records where it failed."""
    failed = False
    for run in runs:
        try:
            step(run)
        except (DuelBanditError, DiagnosticFailure) as exc:
            run.status = f"failed: {type(exc).__name__} at round {t}: {exc}"
            failed = True
    return [run for run in runs if run.status == "ok"] if failed else runs


def run_single_seed(config: ExperimentConfig, seed: int):
    """One seeded run, a lockstep group of one; returns (RunSummary,
    RegretLedger, csv lines)."""
    return run_seeds(config, [seed])[0]


def _round_lines(seed: int, gamma: float | None, rows: array,
                 ledger: RegretLedger) -> list[str]:
    """The round CSV's rows, one per booked round and each ending in a
    newline, formatted after the run from the flat (arm_a, arm_b, outcome,
    solver_iters) `rows`.

    Each float goes through "%.17g", the format `_fmt` applies; integers
    through str. The step columns repeat from round to round, so each
    distinct step is formatted once (`_step_strings`).
    """
    template = (f"{seed},%s,%s,%s,%s,%s,%.17g,%s,%.17g,%.17g,"
                f"{_fmt(0.0 if gamma is None else gamma)},%s\n")
    columns = zip(range(1, len(rows) // 4 + 1), zip(*[iter(rows)] * 4),
                  _step_strings(ledger.br_steps), ledger.br_cum.tolist(),
                  _step_strings(ledger.fb_steps), ledger.fb_cum.tolist(),
                  ledger.policy_cum.tolist())
    return [template % (t, a, b, outcome, br, br_cum, fb, fb_cum, policy,
                        iters)
            for t, (a, b, outcome, iters), br, br_cum, fb, fb_cum, policy
            in columns]


def _step_strings(steps: np.ndarray) -> list[str]:
    """Each step's "%.17g" string, formatted once per distinct value.
    Values are told apart by their bits, so -0.0 and 0.0 keep their own
    strings."""
    bits, index = np.unique(steps.view(np.int64), return_inverse=True)
    strings = ["%.17g" % value for value in bits.view(np.float64).tolist()]
    return [strings[i] for i in index.tolist()]


def _run_and_write_seeds(config: ExperimentConfig, seeds: list[int]) -> list:
    """Run `seeds` and write their round CSVs; returns (summary, ledger
    dict) per seed, in seed order.

    The one path, taken in-process and by pool workers alike.
    """
    out = []
    for summary, ledger, lines in _lockstep_groups(config, seeds):
        _write_rounds(config, summary.seed, lines)
        del lines  # not held while the next seed's lines are formatted
        out.append((summary, {"br_steps": ledger.br_steps,
                              "fb_steps": ledger.fb_steps}))
    return out


def _write_rounds(config: ExperimentConfig, seed: int, lines: list[str]) -> None:
    if config.output_dir is None:
        return
    os.makedirs(config.output_dir, exist_ok=True)
    path = os.path.join(config.output_dir, f"rounds_seed{seed}.csv")
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        # line by line: the joined file is never held in memory
        fh.writelines(lines)


def worker_count() -> int:
    """Worker processes for the seeds: DUELBANDIT_THREADS, or 1 when unset.

    A value that is not a positive integer raises ValueError.
    """
    raw = os.environ.get("DUELBANDIT_THREADS")
    if raw is None:
        return 1
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(
            f"DUELBANDIT_THREADS must be a positive integer, got {raw!r}")
    return count


def run_experiment(config: ExperimentConfig, keep_ledgers: bool = False):
    """Execute every seed; returns (summaries, ledgers-or-None).

    A kept ledger is a dict of one seed's per-round `br_steps` and
    `fb_steps` arrays; ledgers merge in seed order regardless of worker
    completion order.
    """
    seeds = config.seeds
    # fork starts every worker at once: never more than there are seeds
    workers = min(worker_count(), len(seeds))
    # one chunk per worker, and none larger than a lockstep group, so that
    # no more than a group's round CSV rows are held at once
    size = min(LOCKSTEP_SEEDS, -(-len(seeds) // workers))
    chunks = [seeds[i:i + size] for i in range(0, len(seeds), size)]
    run = functools.partial(_run_and_write_seeds, config)
    if workers > 1:
        # imported here: the pool's modules cost a single-worker run time
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = [r for chunk in pool.map(run, chunks) for r in chunk]
    else:
        results = [r for chunk in map(run, chunks) for r in chunk]
    summaries = [summary for summary, _ in results]
    ledgers = [ledger for _, ledger in results] if keep_ledgers else None

    if config.output_dir is not None:
        os.makedirs(config.output_dir, exist_ok=True)
        with open(os.path.join(config.output_dir, "summary.csv"), "w") as fh:
            fh.write(SUMMARY_HEADER + "\n")
            for s in summaries:
                fh.write(s.csv_row() + "\n")
        with open(os.path.join(config.output_dir, "resolved_config.json"), "w") as fh:
            json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return summaries, ledgers


def aggregate(summaries: list[RunSummary]) -> dict:
    """Batch statistics plus the sqrt-scaling ratio for (T, 4T) horizon pairs."""
    if not summaries:
        raise ValueError("aggregate needs at least one summary")
    by_horizon: dict[int, list[RunSummary]] = {}
    for s in summaries:
        by_horizon.setdefault(s.horizon, []).append(s)
    report: dict = {"n_runs": len(summaries), "horizons": {}}
    for horizon, group in sorted(by_horizon.items()):
        br = np.array([g.final_br for g in group])
        report["horizons"][horizon] = {
            "n": len(group),
            "br_mean": float(br.mean()),
            "br_median": float(np.median(br)),
            "br_p95": float(np.percentile(br, 95)),
            "failed": sum(1 for g in group if g.status != "ok"),
        }
    report["scaling_ratios"] = {}
    rng = np.random.default_rng(0)
    for horizon in sorted(by_horizon):
        upper = 4 * horizon
        if upper not in by_horizon:
            continue
        lo = np.array([g.final_br for g in by_horizon[horizon]])
        hi = np.array([g.final_br for g in by_horizon[upper]])
        lo_median = np.median(lo)  # a ratio over 0 is reported as null
        ratio = float(np.median(hi) / lo_median) if lo_median else None
        boots = []
        for _ in range(1000):
            bl = rng.choice(lo, lo.size, replace=True)
            bh = rng.choice(hi, hi.size, replace=True)
            boots.append((np.median(bl), np.median(bh)))
        boot_lo, boot_hi = np.array(boots).T
        ci95 = (np.percentile(boot_hi / boot_lo, [2.5, 97.5]).tolist()
                if boot_lo.all() else None)
        report["scaling_ratios"][f"{horizon}->{upper}"] = {
            "ratio": ratio, "ci95": ci95}
    return report

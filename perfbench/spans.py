"""Span tracing from outside the program, and the per-layer split.

`Tracer.wrap` returns a function that records one span per call: name,
start, end, parent and an optional value taken from the result (the pivot
count of a simplex call, the iteration count of a mirror descent). Spans
stay in memory, in flat arrays, and are written out when the run ends.

`instrument` wraps each layer's entry points where the caller looks them
up: module globals of the calling module (`duelbandit.algorithms` finds
`solve_cce` in its own namespace, the harness finds `_fmt` in its own),
methods on the class the harness calls through, constructors through the
class's `__init__`, and the kernel module through
`duelbandit.games.get_kernels`. Every patch is undone by
the function `instrument` returns.

A span's self time is its duration minus the durations of its direct
children; children are nested inside their parent, so self times of all
spans add up to the root spans' durations exactly. Spans under a `build.*`
span (environment, learner, q_star and ledger construction) are set-up and
are kept out of the per-round figures.
"""

from __future__ import annotations

import math
import time
from array import array
from types import SimpleNamespace

import numpy as np

import duelbandit.algorithms as algorithms
import duelbandit.core as core
import duelbandit.evaluation as evaluation
import duelbandit.games as games
import duelbandit.harness as harness


class Tracer:
    """In-memory span recorder; span i's parent is an earlier span or -1."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.value = array("d")
        self._open: list[int] = []

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def wrap(self, name: str, fn, value=None):
        code = self.code(name)
        names, parents, starts, ends, values = (
            self.name, self.parent, self.start, self.end, self.value)
        stack = self._open
        clock = time.perf_counter_ns
        nan = math.nan

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            values.append(nan)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if value is not None:
                values[i] = value(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "value": np.frombuffer(self.value, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())


def _iterations(out) -> float:
    return float(out[2])


def instrument(tracer: Tracer, learner_cls, env_cls, oracle_cls=None):
    """Wrap every layer's entry points; returns a function that undoes it."""
    spans = [
        (harness, "run_experiment", "harness.run_experiment"),
        (harness, "run_single_seed", "harness.run_single_seed"),
        (harness, "build_environment", "build.environment"),
        (harness, "build_learner", "build.learner"),
        (harness, "resolve_q_star", "build.q_star"),
        (evaluation.RegretLedger, "__init__", "build.ledger"),
        (harness, "_fmt", "harness.write_csv"),
        (harness, "_write_rounds", "harness.write_csv"),
        (env_cls, "sample_round", "environments.sample_round"),
        (env_cls, "ground_truth", "environments.ground_truth"),
        (learner_cls, "select", "algorithms.select"),
        (learner_cls, "observe", "algorithms.observe"),
        (algorithms, "solve_cce", "games.solve_cce"),
        (algorithms, "solve_minmax_feasibility", "games.solve_minmax"),
        (algorithms, "skew_complete", "core.skew_complete"),
        (algorithms, "sample_joint", "core.sample"),
        (algorithms, "sample_pair", "core.sample"),
        (harness, "sample_outcome", "core.sample"),
        (core.PreferenceMatrix, "__init__", "core.validate"),
        (core.JointActionDistribution, "__init__", "core.validate"),
        (core.ActionDistribution, "__init__", "core.validate"),
        (evaluation.RegretLedger, "record", "evaluation.ledger_record"),
    ]
    if oracle_cls is not None:
        spans += [
            (oracle_cls, "predict_matrix", "oracles.predict"),
            (oracle_cls, "update", "oracles.update"),
        ]
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    for owner, attr, name in spans:
        patch(owner, attr, tracer.wrap(name, vars(owner)[attr]))

    get_kernels = vars(games)["get_kernels"]
    kernels = get_kernels()
    traced_kernels = SimpleNamespace(
        BACKEND_NAME=kernels.BACKEND_NAME,
        epigraph_simplex=tracer.wrap("games.epigraph_simplex",
                                     kernels.epigraph_simplex, _iterations),
        minmax_descent=tracer.wrap("games.minmax_descent",
                                   kernels.minmax_descent, _iterations),
    )
    patch(games, "get_kernels",
          lambda name=None: traced_kernels if name is None else get_kernels(name))

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return undo


PER_LAYER = {
    # name: unit
    "harness.loop_self_us": "us/round",
    "harness.write_csv_us": "us/round",
    "harness.build_ms": "ms/seed",
    "environments.sample_round_us": "us/round",
    "environments.ground_truth_us": "us/round",
    "environments.ground_truth_calls": "calls/round",
    "algorithms.select_self_us": "us/round",
    "algorithms.observe_self_us": "us/round",
    "oracles.predict_us": "us/round",
    "oracles.update_us": "us/round",
    "games.solve_cce_self_us": "us/round",
    "games.epigraph_simplex_us": "us/round",
    "games.epigraph_simplex_call_us_p50": "us/call",
    "games.epigraph_simplex_call_us_p99": "us/call",
    "games.solve_minmax_self_us": "us/round",
    "games.minmax_descent_us": "us/round",
    "games.cce_pivots_mean": "pivots/call",
    "games.cce_pivots_max": "pivots",
    "games.cce_zero_pivot_share": "share",
    "games.minmax_iters_mean": "iters/call",
    "core.validate_us": "us/round",
    "core.validate_calls": "calls/round",
    "core.skew_complete_self_us": "us/round",
    "core.sample_us": "us/round",
    "evaluation.ledger_record_us": "us/round",
}


class SpanTable:
    """Self times and set-up membership of a tracer's spans."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(a["names"])
        self.name = a["name"]
        self.value = a["value"]
        parent = a["parent"]
        self.duration = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=self.duration[nested],
                               minlength=self.name.size)
        self.self_time = self.duration - children
        is_build = np.isin(self.name, self.codes("build."))
        under = np.zeros_like(is_build)      # strictly inside a build span
        while True:
            grown = np.zeros_like(under)
            grown[nested] = (is_build | under)[parent[nested]]
            if (grown == under).all():
                break
            under = grown
        self.build_root = is_build & ~under
        self.loop = ~is_build & ~under
        roots = self.mask("harness.run_experiment")
        self.root_ns = float(self.duration[roots].sum())

    def codes(self, prefix: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n.startswith(prefix)]

    def mask(self, *names: str) -> np.ndarray:
        codes = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, codes) & self.loop


def layer_metrics(table: SpanTable, rounds: int, seeds: int) -> dict[str, float]:
    """The per-layer figures: self time per round unless the name says so."""

    def per_round_us(*names: str) -> float:
        return float(table.self_time[table.mask(*names)].sum()) / rounds / 1e3

    def calls(name: str) -> float:
        return float(table.mask(name).sum()) / rounds

    simplex = table.mask("games.epigraph_simplex")
    call_us = table.duration[simplex] / 1e3
    pivots = table.value[simplex]
    iters = table.value[table.mask("games.minmax_descent")]
    return {
        "harness.loop_self_us": per_round_us("harness.run_experiment",
                                             "harness.run_single_seed"),
        "harness.write_csv_us": per_round_us("harness.write_csv"),
        "harness.build_ms": float(table.duration[table.build_root].sum())
        / seeds / 1e6,
        "environments.sample_round_us": per_round_us("environments.sample_round"),
        "environments.ground_truth_us": per_round_us("environments.ground_truth"),
        "environments.ground_truth_calls": calls("environments.ground_truth"),
        "algorithms.select_self_us": per_round_us("algorithms.select"),
        "algorithms.observe_self_us": per_round_us("algorithms.observe"),
        "oracles.predict_us": per_round_us("oracles.predict"),
        "oracles.update_us": per_round_us("oracles.update"),
        "games.solve_cce_self_us": per_round_us("games.solve_cce"),
        "games.epigraph_simplex_us": per_round_us("games.epigraph_simplex"),
        "games.epigraph_simplex_call_us_p50":
            float(np.percentile(call_us, 50)) if call_us.size else 0.0,
        "games.epigraph_simplex_call_us_p99":
            float(np.percentile(call_us, 99)) if call_us.size else 0.0,
        "games.solve_minmax_self_us": per_round_us("games.solve_minmax"),
        "games.minmax_descent_us": per_round_us("games.minmax_descent"),
        "games.cce_pivots_mean": float(pivots.mean()) if pivots.size else 0.0,
        "games.cce_pivots_max": float(pivots.max()) if pivots.size else 0.0,
        "games.cce_zero_pivot_share":
            float((pivots == 0).mean()) if pivots.size else 0.0,
        "games.minmax_iters_mean": float(iters.mean()) if iters.size else 0.0,
        "core.validate_us": per_round_us("core.validate"),
        "core.validate_calls": calls("core.validate"),
        "core.skew_complete_self_us": per_round_us("core.skew_complete"),
        "core.sample_us": per_round_us("core.sample"),
        "evaluation.ledger_record_us": per_round_us("evaluation.ledger_record"),
    }

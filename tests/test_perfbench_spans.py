"""perfbench's span tracing fits the program it traces.

`perfbench/spans.py` wraps the entry points of every layer by name, on the
learner, environment and oracle classes of each benchmark workload. The
checks run `instrument` on those pairings, and on `MinMaxDb` with each
linear oracle, for a short run each: the spans of the learner and its
solver, and of the simplex kernel under a CCE learner, must fire, and the
undo must put back every attribute it replaced. A name that perfbench patches and the program renames or deletes
fails here. They run in a fresh interpreter, so a patch that `instrument`
or its undo leaves behind cannot leak into the other tests.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json
import sys
import tempfile

from spans import Tracer, instrument
from workloads import WORKLOADS

import duelbandit.algorithms as algorithms
import duelbandit.core as core
import duelbandit.evaluation as evaluation
import duelbandit.games as games
import duelbandit.harness as harness
from duelbandit.algorithms import CceDb, CceLinDb, MinMaxDb
from duelbandit.environments import (FiniteClassEnvironment,
                                     FixedMatrixEnvironment,
                                     LinearRealizableEnvironment)
from duelbandit.harness import ExperimentConfig
from duelbandit.oracles import (FiniteClassAggregator, OgdForecaster,
                                VawForecaster)

HORIZON = int(sys.argv[1])
linear = {"kind": "linear", "k": 3, "dim": 2, "weight_seed": 1}
runs = {
    name: (classes, dict(WORKLOADS[name].config, horizon=HORIZON),
           WORKLOADS[name].writes_csv)
    for name, classes in (
        ("ccedb-condorcet5", (CceDb, FixedMatrixEnvironment, None)),
        ("minmaxdb-finite3-csv",
         (MinMaxDb, FiniteClassEnvironment, FiniteClassAggregator)),
        ("ccelindb-linear5", (CceLinDb, LinearRealizableEnvironment, None)),
    )
}
for kind, oracle_cls in (("vaw", VawForecaster), ("ogd", OgdForecaster)):
    runs[kind] = (
        (MinMaxDb, LinearRealizableEnvironment, oracle_cls),
        {"algorithm": {"kind": "minmaxdb", "gamma": 12,
                       "oracle": {"kind": kind}},
         "environment": linear, "horizon": HORIZON,
         "benchmark": {"q_star": None}}, False)

owners = [harness, algorithms, games, core.PreferenceMatrix,
          core.JointActionDistribution, core.ActionDistribution,
          evaluation.RegretLedger]
report = {}
for name, ((learner_cls, env_cls, oracle_cls), config, csv) in runs.items():
    classes = [learner_cls, env_cls] + ([oracle_cls] if oracle_cls else [])
    before = [dict(vars(owner)) for owner in owners + classes]
    tracer = Tracer()
    undo = instrument(tracer, learner_cls, env_cls, oracle_cls)
    try:
        with tempfile.TemporaryDirectory() as out:
            summaries, _ = harness.run_experiment(
                ExperimentConfig.from_dict(dict(
                    config, seeds=[0, 1], output_dir=out if csv else None)))
    finally:
        undo()
    names = [tracer.names[code] for code in tracer.name]
    values = {}  # summed per span; a span that records no value holds NaN
    for span, v in zip(names, tracer.value):
        if v == v:
            values[span] = values.get(span, 0.0) + v
    report[name] = {
        "status": [s.status for s in summaries],
        "spans": {n: names.count(n) for n in set(names)},
        "values": values,
        "solver_iterations": sum(s.solver_iterations for s in summaries),
        "restored": [vars(owner).keys() == was.keys() and all(
                         vars(owner)[key] is value
                         for key, value in was.items())
                     for owner, was in zip(owners + classes, before)],
    }
print(json.dumps(report))
"""

HORIZON = 300  # MinMaxDb's finite-class workload needs T >= 267 for gamma
WORKLOAD_NAMES = ("ccedb-condorcet5", "minmaxdb-finite3-csv",
                  "ccelindb-linear5")


@pytest.fixture(scope="module")
def traced_runs():
    env = dict(os.environ, DUELBANDIT_THREADS="1", PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(HORIZON)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_fires_and_restores(name, run):
    spans = run["spans"]
    rounds = 2 * HORIZON  # two seeds
    assert run["status"] == ["ok", "ok"], (name, run)
    assert all(run["restored"]), (name, run["restored"])
    for span in ("harness.run_experiment", "build.environment",
                 "build.learner", "environments.sample_round",
                 "algorithms.observe", "core.sample"):
        assert spans.get(span, 0) > 0, (name, span, spans)
    assert spans["algorithms.select"] == rounds, (name, spans)
    if name.startswith("cce"):
        assert 0 < spans["games.solve_cce"] <= rounds, (name, spans)
        assert 0 < spans["games.epigraph_simplex"] <= rounds, (name, spans)
    else:
        assert spans["games.solve_minmax"] > 0, (name, spans)
        assert spans["oracles.predict"] == rounds, (name, spans)
        assert 0 < spans["oracles.update"] <= rounds, (name, spans)


def test_traced_workloads_fire_every_layer_and_undo_restores_it(traced_runs):
    for name in WORKLOAD_NAMES:
        _assert_fires_and_restores(name, traced_runs[name])
    assert traced_runs["minmaxdb-finite3-csv"]["spans"]["harness.write_csv"] > 0


def test_traced_minmaxdb_runs_with_each_linear_oracle(traced_runs):
    for kind in ("vaw", "ogd"):
        _assert_fires_and_restores(kind, traced_runs[kind])


def test_traced_solver_values_are_the_solver_iterations(traced_runs):
    # the tracer reads a kernel's iteration count at index 2 of what it
    # returns; summed over a run, the learners' solver spans give the
    # summaries' count. A MinMaxDb run builds its nash q_star with the
    # simplex too, so only its descent spans are summed.
    for name, run in traced_runs.items():
        span = ("games.epigraph_simplex" if name.startswith("cce")
                else "games.minmax_descent")
        assert run["values"].get(span, 0.0) == run["solver_iterations"], (
            name, run["values"], run["solver_iterations"])
    assert traced_runs["ccedb-condorcet5"]["solver_iterations"] > 0
    assert traced_runs["ccelindb-linear5"]["solver_iterations"] > 0

"""perfbench's span tracing sees every oracle through the one interface.

`perfbench/spans.py` wraps `predict_matrix` and `update` on the oracle
class of a `MinMaxDb` run. The check runs in a fresh interpreter, so a
patch that `instrument` or its undo leaves behind cannot leak into the
other tests.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json

from spans import Tracer, instrument

import duelbandit.harness as harness
from duelbandit.environments import LinearRealizableEnvironment
from duelbandit.harness import ExperimentConfig
from duelbandit.algorithms import MinMaxDb
from duelbandit.oracles import OgdForecaster, VawForecaster

report = {}
for oracle_cls, kind in ((VawForecaster, "vaw"), (OgdForecaster, "ogd")):
    tracer = Tracer()
    undo = instrument(tracer, MinMaxDb, LinearRealizableEnvironment,
                      oracle_cls)
    try:
        config = ExperimentConfig(
            algorithm={"kind": "minmaxdb", "gamma": 12,
                       "oracle": {"kind": kind}},
            environment={"kind": "linear", "k": 3, "dim": 2,
                         "weight_seed": 1},
            horizon=50, seeds=[0], benchmark={"q_star": None})
        summaries, _ = harness.run_experiment(config)
    finally:
        undo()
    names = [tracer.names[code] for code in tracer.name]
    report[kind] = {
        "status": summaries[0].status,
        "predict": names.count("oracles.predict"),
        "update": names.count("oracles.update"),
        "select": names.count("algorithms.select"),
    }
report["restored"] = [
    harness.run_experiment.__name__,
    "__wrapped__" in vars(VawForecaster)["predict_matrix"].__dict__,
    "__wrapped__" in vars(OgdForecaster)["update"].__dict__,
]
print(json.dumps(report))
"""


def test_traced_minmaxdb_runs_with_each_linear_oracle():
    env = dict(os.environ, DUELBANDIT_THREADS="1", PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    for kind in ("vaw", "ogd"):
        run = report[kind]
        assert run["status"] == "ok", (kind, run)
        assert run["select"] == 50, (kind, run)
        assert run["predict"] == 50, (kind, run)  # one span per round
        assert 0 < run["update"] <= 50, (kind, run)
    assert report["restored"] == ["run_experiment", False, False]

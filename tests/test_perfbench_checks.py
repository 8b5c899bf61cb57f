"""perfbench's output checks pass on the program's own runs.

`perfbench/checks.py` wraps each learner class's `select` with a `Recorder`
that copies the joint and the published snapshot every round, and
`check_seed` recomputes from those copies what every seed run must
satisfy: the best-response steps against the ledger, `fb <= br`, CCE
validity of `last_upper` or the inverse-gap constraints of
`last_prediction` and `last_marginal`, and the round CSV. The check runs
the three benchmark workloads at T=300 with seeds 0 and 1, in a fresh
interpreter so that the wrapped `select` cannot leak into other tests. A
snapshot name the Recorder reads that the program renames or stops
publishing fails here, and a logged joint the run did not play must be
caught.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import dataclasses
import json
import os
import sys
import tempfile

from checks import Recorder, check_seed
from workloads import WORKLOADS, ground_truth

from duelbandit import harness
from duelbandit.algorithms import CceDb, CceLinDb, MinMaxDb

HORIZON = int(sys.argv[1])
classes = {"ccedb": CceDb, "ccelindb": CceLinDb, "minmaxdb": MinMaxDb}
report = {}
for name in sys.argv[2:]:
    w = WORKLOADS[name]
    w = dataclasses.replace(w, config=dict(w.config, horizon=HORIZON))
    truth = ground_truth(w)
    recorder = Recorder(HORIZON, with_context=w.learner_kind == "ccelindb")
    undo = recorder.install(classes[w.learner_kind])
    problems, caught = [], []
    try:
        with tempfile.TemporaryDirectory() as out:
            out = out if w.writes_csv else None
            summaries, ledgers = harness.run_experiment(
                harness.ExperimentConfig.from_dict(
                    dict(w.config, seeds=[0, 1], output_dir=out)),
                keep_ledgers=True)
            logs = recorder.take()
            for summary, ledger in zip(summaries, ledgers):
                csv = None if out is None else os.path.join(
                    out, f"rounds_seed{summary.seed}.csv")
                log = logs.get(summary.seed)
                problems += check_seed(w, truth, summary, ledger, log, csv)
                # round 1 logged as a point mass on the last pair
                log.joint[0] = 0.0
                log.joint[0, -1, -1] = 1.0
                caught.append(bool(check_seed(w, truth, summary, ledger,
                                              log, None)))
    finally:
        undo()
    report[name] = {"problems": problems, "caught": caught,
                    "rounds": [log.rounds for log in logs.values()]}
print(json.dumps(report))
"""

HORIZON = 300  # MinMaxDb's finite-class workload needs T >= 267 for gamma
WORKLOAD_NAMES = ("ccedb-condorcet5", "minmaxdb-finite3-csv",
                  "ccelindb-linear5")


@pytest.fixture(scope="module")
def checked_runs():
    env = dict(os.environ, DUELBANDIT_THREADS="1", PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(HORIZON), *WORKLOAD_NAMES],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_recorded_runs_pass_every_output_check(checked_runs, name):
    run = checked_runs[name]
    assert run["rounds"] == [HORIZON, HORIZON], run
    assert run["problems"] == [], run["problems"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_a_joint_the_run_did_not_play_is_caught(checked_runs, name):
    assert checked_runs[name]["caught"] == [True, True]

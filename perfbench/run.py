#!/usr/bin/env python3
"""duelbandit simulation benchmark: one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload ccedb-condorcet5 --seed 1 \
        --seconds 20 --trace 0

The package is imported from `src/` of the same checkout; nothing is
installed. Seeds run one at a time in this process (DUELBANDIT_THREADS=1)
through the public entry points `ExperimentConfig` and `run_experiment`;
`build_environment`, `build_learner` and `resolve_q_star` are timed on
their own for the set-up figure. Every seed run is checked (see
`checks.py`); a run whose status is not "ok" or that fails a check counts
as failed.

`--trace 0` reports the end-to-end metrics, measured untraced. The host
these runs share drifts in speed, so a short fixed reference loop runs
every few rounds inside the timed calls (`calibrate.py`); its time is taken
out of the loop's, and each batch's round rate is scaled by how much slower
than nominal the host ran the reference meanwhile. `setup_s` times the
package import in fresh interpreters, several times, each scaled by how
much slower than nominal numpy's own import ran there, and takes the
median.
`--trace 1` first runs batch 0 untraced, then runs batches with every
layer wrapped (see `spans.py`), checks that both runs of batch 0 give the
same final regrets seed for seed, and reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. A result
file (and, traced, a span file) goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import ExitStack
from pathlib import Path

from workloads import WORKLOADS, ground_truth

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

CALIBRATE_EVERY = 25  # rounds between reference slices, untraced
IMPORT_PROBES = 5   # fresh-interpreter imports timed for setup_s
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy; "
                "u = time.perf_counter(); import duelbandit; "
                "print(u - t, time.perf_counter() - t, duelbandit.__file__)")

END_TO_END = {
    "rounds_per_s": "rounds/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "br_regret_median": "regret",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class BatchRunner:
    """Runs batches of one workload and checks every seed run."""

    def __init__(self, workload, base_seed: int, recorder, truth):
        self.workload = workload
        self.base_seed = base_seed
        self.recorder = recorder
        self.truth = truth
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_batch(self, batch: int):
        """One run_experiment call; returns (summaries, rounds, wall seconds)."""
        from duelbandit import harness
        from checks import check_seed

        w = self.workload
        seeds = w.seeds(self.base_seed, batch)
        with ExitStack() as stack:
            out_dir = None
            if w.writes_csv:
                out_dir = stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="rounds-", dir=RESULTS))
            config = harness.ExperimentConfig.from_dict(
                {**w.config, "seeds": seeds, "output_dir": out_dir})
            start = time.perf_counter()
            summaries, ledgers = harness.run_experiment(config, keep_ledgers=True)
            wall = time.perf_counter() - start
            logs = self.recorder.take()
            for summary, ledger in zip(summaries, ledgers):
                csv_path = None if out_dir is None else os.path.join(
                    out_dir, f"rounds_seed{summary.seed}.csv")
                found = check_seed(w, self.truth, summary, ledger,
                                   logs.get(summary.seed), csv_path)
                self.attempted += 1
                if found:
                    self.failed += 1
                    self.problems += found
        return summaries, sum(len(x["br_steps"]) for x in ledgers), wall


def time_setup(workload) -> float:
    """Build environment, learner, q_star and ledger for one batch's seeds."""
    from duelbandit.evaluation import RegretLedger
    from duelbandit.harness import (build_environment, build_learner,
                                    resolve_q_star)

    cfg = workload.config
    bench = cfg["benchmark"]
    start = time.perf_counter()
    for _ in range(workload.batch_seeds):
        env = build_environment(cfg["environment"])
        build_learner(cfg["algorithm"], env, workload.horizon)
        q_star = (None if bench.get("q_star") is None
                  else resolve_q_star(bench, env))
        policies = [(lambda x, arm=j % env.k: arm)
                    for j in range(int(bench.get("policy_count", 0)))]
        RegretLedger(q_star=q_star, policies=policies)
    return time.perf_counter() - start


def time_imports(count: int) -> list[tuple[float, float]]:
    """Import numpy, then duelbandit, `count` times, each in a fresh interpreter.

    Returns (seconds for numpy alone, seconds for both) per import.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        numpy_s, both_s, where = out.stdout.strip().split(maxsplit=2)
        if Path(where).resolve().parent != SRC / "duelbandit":
            raise RuntimeError(f"import probe found duelbandit at {where}")
        times.append((float(numpy_s), float(both_s)))
    return times


def run_untraced(runner: BatchRunner, seconds: float, import_s: float,
                 calibrator):
    from calibrate import NOMINAL_NUMPY_IMPORT_S, host_factor

    w = runner.workload
    probes = time_imports(IMPORT_PROBES)
    # numpy's import is the reference: no change to duelbandit changes it
    imports = [both * NOMINAL_NUMPY_IMPORT_S / numpy_s
               for numpy_s, both in probes]
    start = time.perf_counter()
    setups, rates, raw_rates, hosts, regrets = [], [], [], [], []
    batch = 0
    while batch < w.regret_batches or time.perf_counter() - start < seconds:
        setups.append(time_setup(w))
        summaries, rounds, wall = runner.run_batch(batch)
        slices = calibrator.take()
        # the slices ran inside the timed call; their time is not the loop's
        raw = rounds / (wall - sum(slices))
        host = host_factor(slices)
        raw_rates.append(raw)
        hosts.append(host)
        rates.append(raw * host)
        if batch < w.regret_batches:
            regrets += [s.final_br for s in summaries]
        batch += 1
    median = statistics.median(regrets)
    bound = w.regret_bound()
    correct = bool(bound is None or median <= bound)
    if not correct:
        runner.problems.append(f"median regret {median:.1f} above bound "
                               f"{bound:.1f}")
    metrics = {
        "rounds_per_s": statistics.median(rates),
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "br_regret_median": median,
    }
    info = {"batches": batch,
            "raw_rounds_per_s": statistics.median(raw_rates),
            "host_factor": statistics.median(hosts),
            "batch_rounds_per_s": rates, "batch_raw_rounds_per_s": raw_rates,
            "batch_host_factor": hosts, "in_process_import_s": import_s,
            "raw_import_s": statistics.median(both for _, both in probes),
            "import_probes_s": probes, "batch_setup_s": setups,
            "regret_seeds": len(regrets), "regret_bound": bound}
    return correct, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, info


def run_traced(runner: BatchRunner, seconds: float, learner_cls, env_cls,
               oracle_cls, span_path: Path):
    from spans import PER_LAYER, SpanTable, Tracer, instrument, layer_metrics

    w = runner.workload
    start = time.perf_counter()
    with ExitStack() as stack:
        stack.callback(runner.recorder.install(learner_cls))
        reference, ref_rounds, ref_wall = runner.run_batch(0)
    tracer = Tracer()
    walls, finals, rounds = [], [], 0
    with ExitStack() as stack:
        stack.callback(instrument(tracer, learner_cls, env_cls, oracle_cls))
        capture = tracer.wrap("bench.capture", runner.recorder.capture)
        stack.callback(runner.recorder.install(learner_cls, capture))
        batch = 0
        while batch < 1 or time.perf_counter() - start < seconds:
            summaries, batch_rounds, wall = runner.run_batch(batch)
            rounds += batch_rounds
            walls.append(wall)
            finals.append([s.final_br for s in summaries])
            batch += 1
    correct = True
    ref_finals = [s.final_br for s in reference]
    if finals[0] != ref_finals:
        correct = False
        runner.problems.append(f"traced regrets {finals[0]} differ from "
                                f"untraced {ref_finals}")
    seeds = batch * w.batch_seeds
    table = SpanTable(tracer)
    rounds = max(rounds, 1)    # every seed failing at its first round
    metrics = layer_metrics(table, rounds, seeds)
    capture_us = float(table.self_time[table.mask("bench.capture")].sum()
                       ) / rounds / 1e3
    info = {
        "batches": batch, "spans": int(table.name.size),
        "traced_rounds_per_s": rounds / sum(walls),
        "batch0_untraced_rounds_per_s": ref_rounds / ref_wall,
        "batch0_tracing_overhead": walls[0] / ref_wall - 1.0,
        "span_coverage_of_wall": table.root_ns / 1e9 / sum(walls),
        "bench_capture_us_per_round": capture_us,
        "traced_us_per_round": sum(walls) / rounds * 1e6,
    }
    tracer.save(str(span_path))
    return correct, {k: (v, PER_LAYER[k]) for k, v in metrics.items()}, info


def machine(numpy_version: str, backend: str) -> dict:
    return {
        "backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "duelbandit" / "__init__.py").is_file():
        print(f"perfbench: no duelbandit sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["DUELBANDIT_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import numpy
    import duelbandit
    import_s = time.perf_counter() - start
    if Path(duelbandit.__file__).resolve().parent != SRC / "duelbandit":
        print(f"perfbench: imported duelbandit from {duelbandit.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    from duelbandit import CceDb, CceLinDb, MinMaxDb
    from duelbandit.games import backend_name
    from duelbandit.harness import build_environment, build_learner
    from checks import Recorder

    w = WORKLOADS[args.workload]
    env = build_environment(w.config["environment"])
    learner = build_learner(w.config["algorithm"], env, w.horizon)
    learner_cls = {"ccedb": CceDb, "ccelindb": CceLinDb,
                   "minmaxdb": MinMaxDb}[w.learner_kind]
    oracle_cls = type(learner.oracle) if w.learner_kind == "minmaxdb" else None
    recorder = Recorder(w.horizon, with_context=w.learner_kind == "ccelindb")
    runner = BatchRunner(w, args.seed, recorder, ground_truth(w))

    RESULTS.mkdir(exist_ok=True)
    stem = f"{w.name}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        correct, metrics, info = run_traced(
            runner, args.seconds, learner_cls, type(env), oracle_cls,
            RESULTS / f"{stem}.spans.npz")
    else:
        from calibrate import Calibrator
        calibrator = Calibrator(CALIBRATE_EVERY)
        with ExitStack() as stack:
            stack.callback(recorder.install(
                learner_cls, calibrator.wrap(recorder.capture)))
            correct, metrics, info = run_untraced(runner, args.seconds,
                                                  import_s, calibrator)

    host = machine(numpy.__version__, backend_name())
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  "
          f"backend {host['backend']}  nproc {host['nproc']}  "
          f"python {host['python']}  numpy {host['numpy']}")
    print(f"seed runs attempted {runner.attempted}  failed {runner.failed}")
    for problem in runner.problems[:20]:
        print(f"check failed: {problem}")
    if len(runner.problems) > 20:
        print(f"check failed: ... {len(runner.problems) - 20} more in the "
              f"result file")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    for name, value in info.items():
        if isinstance(value, float):
            print(f"  {name} {value:.6g}")
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump({"workload": w.name, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "machine": host, **result, "info": info,
                   "problems": runner.problems}, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

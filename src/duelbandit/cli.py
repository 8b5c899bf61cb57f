"""Command-line interface.

Subcommands: run (seeded experiments from a JSON config), solve-cce and
solve-igw (debug solves on a matrix file), accept (named acceptance
criteria), aggregate (batch statistics over summary files).

Exit codes: 0 success, 1 config error, 2 solver failure in any seed,
3 acceptance-suite failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .core import PreferenceMatrix
from .errors import DuelBanditError, GammaTooSmall
from .games import (
    backend_name,
    cce_violation,
    minmax_rhs,
    minmax_slack,
    solve_cce,
    solve_minmax_feasibility,
)
from .harness import (
    SUMMARY_HEADER,
    ExperimentConfig,
    RunSummary,
    aggregate,
    check_config,
    run_experiment,
)

# what bad input raises; json.JSONDecodeError is a ValueError, and a value
# of the wrong type (a string where a number belongs, a null) a TypeError
_INPUT_ERRORS = (OSError, ValueError, KeyError, TypeError, DuelBanditError)


def load_matrix(path: str) -> np.ndarray:
    """Matrix from a JSON file ({"entries": [[...]]}) or whitespace text."""
    if path.endswith(".json"):
        with open(path) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict):
            if "entries" not in doc:
                raise ValueError(f"{path}: a matrix object needs the key "
                                 "'entries'")
            doc = doc["entries"]
        return np.asarray(doc, dtype=np.float64)
    return np.atleast_2d(np.loadtxt(path))


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
        if args.seeds:
            try:
                raw["seeds"] = [int(s) for s in args.seeds.split(",")]
            except ValueError:
                raise ValueError("--seeds takes comma-separated integers, "
                                 f"got {args.seeds!r}") from None
        if args.out:
            raw["output_dir"] = args.out
        if args.diagnostic:
            raw["diagnostic"] = True
        config = ExperimentConfig.from_dict(raw)
        check_config(config)
    except _INPUT_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    summaries, _ = run_experiment(config)
    failed = 0
    # a seed's wall time is that of the lockstep group it ran in
    for s in summaries:
        print(f"seed {s.seed}: BR={s.final_br:.6g} FB={s.final_fb:.6g} "
              f"policy={s.final_policy:.6g} [{s.wall_clock_s:.2f}s] {s.status}")
        if s.status != "ok":
            failed += 1
    print(json.dumps(aggregate(summaries), indent=2))
    return 2 if failed else 0


def _cmd_solve_cce(args) -> int:
    try:
        u = load_matrix(args.matrix)
        # solve_cce rejects a non-square or non-finite matrix with ValueError
        report = solve_cce(u)
    except DuelBanditError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    joint = report.point
    print(f"backend: {backend_name()}")
    print(f"iterations: {report.iterations}")
    print(f"max violation (solver): {report.max_violation:.3e}")
    print(f"max violation (direct): {cce_violation(u, joint):.3e}")
    print("joint distribution:")
    for row in joint.weights:
        print("  " + " ".join(f"{v:.6f}" for v in row))
    left, right = joint.left_marginal(), joint.right_marginal()
    print("left marginal: ", " ".join(f"{v:.6f}" for v in left.weights))
    print("right marginal:", " ".join(f"{v:.6f}" for v in right.weights))
    return 0


def _cmd_solve_igw(args) -> int:
    try:
        y = PreferenceMatrix(load_matrix(args.matrix))
    except _INPUT_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        report = solve_minmax_feasibility(y, args.gamma)
    except GammaTooSmall as exc:  # the gamma given is input, not a fault
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DuelBanditError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    k = y.k
    print(f"backend: {backend_name()}")
    print(f"iterations: {report.iterations}")
    print(f"budget 5K/gamma: {minmax_rhs(k, args.gamma):.6f} "
          f"slack K/gamma: {minmax_slack(k, args.gamma):.6f}")
    print(f"max violation beyond budget: {report.max_violation:.3e}")
    print("marginal:", " ".join(f"{v:.6f}" for v in report.point.weights))
    return 0


def _cmd_accept(args) -> int:
    from .acceptance import run_criterion, suite_numbers

    try:
        numbers = suite_numbers(args.suite)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    any_failed = False
    for number in numbers:
        res = run_criterion(number)
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] criterion {res.number} ({res.name}) "
              f"[{res.seconds:.1f}s] {res.detail}")
        any_failed |= not res.passed
    return 3 if any_failed else 0


# the summary.csv columns a RunSummary is read from, with their parsers
_SUMMARY_COLUMNS = (
    ("seed", int), ("horizon", int), ("final_br", float), ("final_fb", float),
    ("final_policy", float), ("normalized_br", float),
    ("solver_iterations", int),
    ("confidence_violations", lambda v: int(v) if v else None),
)


def _parse_summary_csv(path: str) -> list[RunSummary]:
    """The summaries of a summary.csv, skipping blank lines; a short or
    unparsable row raises ValueError naming its line and column."""
    out = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        missing = [name for name, _ in _SUMMARY_COLUMNS if name not in header]
        if missing:
            raise ValueError(f"header lacks the columns {missing}")
        for number, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(",")
            if len(parts) < len(header):
                name = header[len(parts)]
                raise ValueError(f"line {number}, column {name!r}: the row "
                                 "ends before it")
            row = dict(zip(header, parts))
            fields = {"status": row.get("status", "ok")}
            for name, parse in _SUMMARY_COLUMNS:
                try:
                    fields[name] = parse(row[name])
                except ValueError as exc:
                    raise ValueError(f"line {number}, column {name!r}: "
                                     f"{exc}") from None
            out.append(RunSummary(**fields))
    return out


def _cmd_aggregate(args) -> int:
    # in path order: the bootstrap ci95 depends on the summaries' order
    paths = sorted(os.path.join(root, "summary.csv")
                   for root, _dirs, files in os.walk(args.input)
                   if "summary.csv" in files)
    summaries = []
    for path in paths:
        try:
            summaries.extend(_parse_summary_csv(path))
        except _INPUT_ERRORS as exc:
            print(f"config error: {path}: {exc}", file=sys.stderr)
            return 1
    if not summaries:
        print(f"config error: no summary.csv under {args.input}", file=sys.stderr)
        return 1
    print(json.dumps(aggregate(summaries), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duelbandit",
        description="Contextual dueling-bandit simulation laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a seeded experiment config")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--seeds", help="comma-separated seed override")
    p.add_argument("--out", help="output directory override")
    p.add_argument("--diagnostic", action="store_true",
                   help="enable per-round ground-truth assertions")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("solve-cce", help="CCE of a matrix from file")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=_cmd_solve_cce)

    p = sub.add_parser("solve-igw", help="inverse-gap feasibility solve")
    p.add_argument("--matrix", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(func=_cmd_solve_igw)

    p = sub.add_parser("accept", help="run named acceptance criteria")
    p.add_argument("--suite", default="all",
                   help="criterion number, name, or 'all'")
    p.set_defaults(func=_cmd_accept)

    p = sub.add_parser("aggregate", help="aggregate summary.csv files")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=_cmd_aggregate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

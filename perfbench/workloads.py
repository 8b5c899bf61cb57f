"""The benchmark's workloads: one experiment config each, run in seed batches.

Every workload runs whole batches of seeds through `run_experiment`. The
seeds of batch `b` under `--seed n` are fixed by (n, b), so the same
`--seed` gives the same inputs. The first `regret_batches` batches always
run, whatever `--seconds` says: their seeds form the regret set whose
median final best-response regret is reported, so that figure depends on
the version and the seed only, never on how fast the machine is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Importing this module imports neither numpy nor duelbandit, so that the
# command line can be checked before the timed package import.

SEED_STRIDE = 100_000  # seeds of one --seed never meet those of another


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict            # ExperimentConfig fields other than seeds/output_dir
    batch_seeds: int        # seeds per run_experiment call
    regret_batches: int     # batches that always run and form the regret set
    writes_csv: bool        # give each batch a temporary output_dir

    @property
    def horizon(self) -> int:
        return int(self.config["horizon"])

    @property
    def learner_kind(self) -> str:
        return self.config["algorithm"]["kind"]

    def seeds(self, base_seed: int, batch: int) -> list[int]:
        first = base_seed * SEED_STRIDE + batch * self.batch_seeds
        return list(range(first, first + self.batch_seeds))

    def regret_bound(self) -> float | None:
        """Criterion 5's or 6's bound on the median regret, if one applies."""
        from duelbandit.oracles import regret_budget

        k, t = int(self.config["environment"]["k"]), self.horizon
        if self.learner_kind == "ccedb":
            return 4.0 * k * math.log(k * t) * math.sqrt(t)
        if self.learner_kind == "minmaxdb":
            class_size = int(self.config["environment"]["class_size"])
            reg = regret_budget("finite", class_size=class_size)(0)
            return 4.0 * math.sqrt(5.0 * k * t * reg)
        return None


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ccedb-condorcet5",
        config={
            "algorithm": {"kind": "ccedb"},
            "environment": {"kind": "fixed", "fixture": "condorcet",
                            "k": 5, "margin": 0.4},
            "horizon": 2000,
            "benchmark": {"q_star": "condorcet", "policy_count": 0},
        },
        batch_seeds=4,
        regret_batches=6,
        writes_csv=False,
    ),
    Workload(
        name="minmaxdb-finite3-csv",
        config={
            "algorithm": {"kind": "minmaxdb", "gamma": "auto",
                          "oracle": {"kind": "finite"}},
            "environment": {"kind": "finite_class", "k": 3, "n_contexts": 1,
                            "class_size": 16, "class_seed": 11},
            "horizon": 2500,
            "benchmark": {"q_star": "nash", "policy_count": 3},
        },
        batch_seeds=4,
        regret_batches=2,
        writes_csv=True,
    ),
    Workload(
        name="ccelindb-linear5",
        config={
            "algorithm": {"kind": "ccelindb"},
            "environment": {"kind": "linear", "k": 5, "dim": 4,
                            "weight_seed": 5},
            "horizon": 10_000,
            "benchmark": {"q_star": None, "policy_count": 0},
        },
        batch_seeds=1,
        regret_batches=3,
        writes_csv=False,
    ),
)}


def ground_truth(workload: Workload):
    """What the round checks compare against, built by the benchmark.

    Returns the fixed K x K truth matrix, or for the linear workload the
    weight vector that maps a round's feature tensor to its truth.
    """
    import numpy as np
    from duelbandit.harness import build_environment

    spec = workload.config["environment"]
    if spec["kind"] == "fixed":
        k, margin = int(spec["k"]), float(spec["margin"])
        truth = np.zeros((k, k))
        truth[0, 1:] = margin
        truth[1:, 0] = -margin
        return truth
    env = build_environment(spec)
    if spec["kind"] == "finite_class":
        return np.array(env.tables[env.truth_index, 0])
    return np.array(env.weight)

"""Contextual dueling-bandit simulation laboratory.

Learners (round-by-round step machines), the equilibrium / feasibility
solvers they rely on, online square-loss regression oracles, synthetic
preference environments, ground-truth regret accounting, and a seeded
experiment harness with a CLI.
"""

from .algorithms import CceDb, CceLinDb, MinMaxDb, default_gamma
from .core import (
    ActionDistribution,
    JointActionDistribution,
    PreferenceMatrix,
    product_joint,
    sample_joint,
    sample_outcome,
    sample_pair,
    skew_complete,
)
from .environments import (
    FiniteClassEnvironment,
    FixedMatrixEnvironment,
    LinearRealizableEnvironment,
    condorcet,
    hardness,
    make_finite_class,
    named_fixture,
    rps3,
)
from .evaluation import (
    RegretLedger,
    br_regret_step,
    dominance_report,
    fb_regret_step,
)
from .games import (
    FeasibilityReport,
    solve_cce,
    solve_minmax_feasibility,
    solve_zero_sum_nash,
)
from .harness import ExperimentConfig, RunSummary, aggregate, run_experiment
from .oracles import (
    FiniteClassAggregator,
    OgdForecaster,
    VawForecaster,
    regret_budget,
)
from .rng import RngHandle

__version__ = "0.1.0"

__all__ = [
    "ActionDistribution",
    "CceDb",
    "CceLinDb",
    "ExperimentConfig",
    "FeasibilityReport",
    "FiniteClassAggregator",
    "FiniteClassEnvironment",
    "FixedMatrixEnvironment",
    "JointActionDistribution",
    "LinearRealizableEnvironment",
    "MinMaxDb",
    "OgdForecaster",
    "PreferenceMatrix",
    "RegretLedger",
    "RngHandle",
    "RunSummary",
    "VawForecaster",
    "aggregate",
    "br_regret_step",
    "condorcet",
    "default_gamma",
    "dominance_report",
    "fb_regret_step",
    "hardness",
    "make_finite_class",
    "named_fixture",
    "product_joint",
    "regret_budget",
    "rps3",
    "run_experiment",
    "sample_joint",
    "sample_outcome",
    "sample_pair",
    "skew_complete",
    "solve_cce",
    "solve_minmax_feasibility",
    "solve_zero_sum_nash",
    "__version__",
]

"""Named acceptance suites: scaled-down statistical checks plus exact
property suites, runnable from the CLI (`duelbandit accept`) and asserted
one-to-one by tests/test_acceptance.py.

Suites that share expensive simulation batches draw them from one table,
`_BATCHES`, through one memoized runner, `_batch`, so each batch runs once
per process regardless of invocation order. Every batch runs seeds 0-49.
The Condorcet(5, 0.4) T=2000 batch runs with diagnostics and serves
criteria 4, 5 and 8, so criterion 4 simulates only seeds 50-199 itself:
diagnostic mode moves no bit of a run.

The paper's guarantee for the count-based learner is a worst-case upper
bound, so criterion 5 asserts that bound, and a growth cap it implies, on
every instance it runs. The paper gives no lower bound for a single
instance: on a fixed gap an optimistic learner's regret grows like
K log T / gap, far slower than sqrt(T). The sqrt-T rate is promised only in
the minimax regime, where the gap shrinks like 1/sqrt(T); there regret of
order K log T / gap or gap * T both scale as sqrt(T) up to log factors.
Criterion 5 therefore applies the two-sided window [1.4, 2.8] to the
horizon-scaled family Condorcet(5, 0.4 * sqrt(2000 / T)) only.
"""

from __future__ import annotations

import filecmp
import functools
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .core import JointActionDistribution, PreferenceMatrix, product_joint
from .environments import hardness, make_finite_class
from .evaluation import RegretLedger, br_regret_step
from .games import (
    cce_violation,
    minmax_rhs,
    solve_cce,
    solve_minmax_feasibility,
    solve_zero_sum_nash,
)
from .games.grid_oracle import cce_grid_min_violation
from .harness import ExperimentConfig, run_experiment
from .oracles import FiniteClassAggregator, VawForecaster, regret_budget
from .rng import RngHandle


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _random_skew(k: int, gen: np.random.Generator, cap: float = 1.0) -> np.ndarray:
    raw = gen.uniform(-cap, cap, (k, k))
    upper = np.triu(raw, 1)
    return upper - upper.T


# Condorcet(5, 0.4 * sqrt(2000 / T)) at T=8000 (see the module docstring).
_GAP_SCALED_MARGIN = 0.4 * float(np.sqrt(2000 / 8000))


def _ccedb_config(margin: float) -> dict:
    return {
        "algorithm": {"kind": "ccedb"},
        "environment": {"kind": "fixed", "fixture": "condorcet",
                        "k": 5, "margin": margin},
        "benchmark": {"q_star": "condorcet", "policy_count": 0},
    }


_MINMAXDB_CONFIG = {
    "algorithm": {"kind": "minmaxdb", "gamma": "auto",
                  "oracle": {"kind": "finite"}},
    "environment": {"kind": "finite_class", "k": 3, "n_contexts": 1,
                    "class_size": 16, "class_seed": 11},
    "benchmark": {"q_star": "nash", "policy_count": 0},
}

# (name, horizon) -> config of each cached batch; at T=2000 the gap-scaled
# instance is the fixed one, so "ccedb-gap-scaled" has T=8000 only
_BATCHES = {
    ("ccedb", 2000): {**_ccedb_config(0.4), "diagnostic": True},
    ("ccedb", 8000): _ccedb_config(0.4),
    ("ccedb-gap-scaled", 8000): _ccedb_config(_GAP_SCALED_MARGIN),
    ("minmaxdb", 2500): _MINMAXDB_CONFIG,
    ("minmaxdb", 10000): _MINMAXDB_CONFIG,
}


def _config(name: str, horizon: int, seeds) -> ExperimentConfig:
    raw = {**_BATCHES[name, horizon], "horizon": horizon, "seeds": list(seeds)}
    return ExperimentConfig.from_dict(raw)


@functools.cache
def _batch(name: str, horizon: int):
    """``run_experiment`` output, ledgers kept, of a table entry's seeds 0-49."""
    return run_experiment(_config(name, horizon, range(50)), keep_ledgers=True)


@functools.cache
def _criterion_1_solutions():
    """Criterion 1's solves: (solutions, failures, worst excess)."""
    gen = np.random.default_rng(101)
    ks = (2, 3, 5, 10)
    factors = (2.0, 4.0, 10.0)
    solutions = []
    worst = -np.inf
    failures = 0
    for i in range(1000):
        k = ks[i % 4]
        gamma = factors[i % 3] * k
        y = _random_skew(k, gen)
        report = solve_minmax_feasibility(PreferenceMatrix(y), gamma)
        excess = report.max_violation - k / gamma
        worst = max(worst, excess)
        if excess > 1e-6:
            failures += 1
        solutions.append((y, gamma, report.point.weights))
    return solutions, failures, worst


def criterion_1() -> tuple[bool, str]:
    """Inverse-gap feasibility: 1000 random targets, all K/gamma grids."""
    _solutions, failures, worst = _criterion_1_solutions()
    ok = failures == 0
    return ok, f"failures={failures}/1000, worst excess over K/gamma={worst:.3e}"


def criterion_2() -> tuple[bool, str]:
    """Per-round inequality for every feasible point from criterion 1."""
    solutions, _failures, _worst = _criterion_1_solutions()
    gen = np.random.default_rng(202)
    violations = 0
    worst = -np.inf
    for y, gamma, p in solutions:
        k = p.shape[0]
        f = np.stack([_random_skew(k, gen) for _ in range(100)])
        q = gen.dirichlet(np.ones(k), size=100)
        lhs = np.einsum("nij,ni,j->n", f, q, p)
        sq = np.einsum("i,nij,j->n", p, (f - y) ** 2, p)
        rhs = 0.5 * gamma * sq + minmax_rhs(k, gamma) + k / gamma + 1e-9
        gap = lhs - rhs
        worst = max(worst, float(gap.max()))
        violations += int((gap > 0).sum())
    ok = violations == 0
    return ok, f"violations={violations}/100000, worst margin={worst:.3e}"


def criterion_3() -> tuple[bool, str]:
    """CCE validity on 1000 general-sum matrices + K=2 grid cross-check."""
    gen = np.random.default_rng(303)
    worst = -np.inf
    failures = 0
    grid_mismatches = 0
    n_grid = 0
    # grid resolution 1e-3; constraint rows are 2 max|U| Lipschitz in L1 and
    # the nearest grid point is within 6h in L1, so a true CCE guarantees a
    # grid point within this violation:
    grid_threshold = 2.0 * 3.0 * 6.0 * 1e-3 + 1e-9
    for i in range(1000):
        k = 2 + (i % 9)
        u = gen.uniform(-3.0, 3.0, (k, k))
        report = solve_cce(u)
        viol = cce_violation(u, report.point)
        worst = max(worst, viol)
        if viol > 1e-8:
            failures += 1
        if k == 2:
            n_grid += 1
            grid_min = cce_grid_min_violation(u, 1e-3)
            if not grid_min <= grid_threshold:
                grid_mismatches += 1
    ok = failures == 0 and grid_mismatches == 0
    return ok, (f"violations>{1e-8:g}: {failures}/1000, worst={worst:.3e}; "
                f"grid verdict mismatches: {grid_mismatches}/{n_grid}")


def criterion_4() -> tuple[bool, str]:
    """Confidence coverage: violating seeds <= 5% of 200, 0-49 cached."""
    summaries = (_batch("ccedb", 2000)[0]
                 + run_experiment(_config("ccedb", 2000, range(50, 200)))[0])
    failed_runs = [s for s in summaries if s.status != "ok"]
    violating = sum(1 for s in summaries if (s.confidence_violations or 0) > 0)
    ok = violating <= 10 and not failed_runs
    return ok, (f"violating seeds: {violating}/200 (allowed 10); "
                f"failed runs: {len(failed_runs)}")


def criterion_5() -> tuple[bool, str]:
    """Count-based learner scaling (see the module docstring).

    Fixed Condorcet(5, 0.4): median within the worst-case bound at T=2000
    and T=8000, and growth ratio median(8000)/median(2000) <= 2.8.
    Horizon-scaled Condorcet(5, 0.4 * sqrt(2000 / T)): median within the
    bound at T=8000, and growth ratio in the sqrt-T window [1.4, 2.8].
    """
    k = 5
    batches = (  # (margin, name, horizon); the first is shared by both ratios
        (0.4, "ccedb", 2000),
        (0.4, "ccedb", 8000),
        (_GAP_SCALED_MARGIN, "ccedb-gap-scaled", 8000),
    )
    medians = []
    bounds_ok = True
    detail = []
    not_ok = []
    for margin, name, horizon in batches:
        summaries, _ledgers = _batch(name, horizon)
        not_ok += [f"margin={margin:g} T={horizon} seed {s.seed} {s.status}"
                   for s in summaries if s.status != "ok"]
        med = float(np.median([s.final_br for s in summaries]))
        bound = 4.0 * k * np.log(k * horizon) * np.sqrt(horizon)
        medians.append(med)
        bounds_ok &= med <= bound
        detail.append(f"margin={margin:g} T={horizon}: median={med:.1f} "
                      f"bound={bound:.0f}")
    fixed_ratio = medians[1] / medians[0]
    scaled_ratio = medians[2] / medians[0]
    ok = (bounds_ok and fixed_ratio <= 2.8 and 1.4 <= scaled_ratio <= 2.8
          and not not_ok)
    detail.append(f"fixed ratio={fixed_ratio:.3f} cap 2.8")
    detail.append(f"gap-scaled ratio={scaled_ratio:.3f} target [1.4, 2.8]")
    return ok, "; ".join(detail + not_ok)


def criterion_6() -> tuple[bool, str]:
    """Oracle-based learner scaling: median bound and sqrt-T ratio window."""
    k, class_size = 3, 16
    reg = regret_budget("finite", class_size=class_size)(0)
    medians = {}
    bounds_ok = True
    detail = []
    not_ok = []
    for horizon in (2500, 10000):
        summaries, _ledgers = _batch("minmaxdb", horizon)
        not_ok += [f"T={horizon} seed {s.seed} {s.status}"
                   for s in summaries if s.status != "ok"]
        med = float(np.median([s.final_br for s in summaries]))
        bound = 4.0 * np.sqrt(5.0 * k * horizon * reg)
        medians[horizon] = med
        bounds_ok &= med <= bound
        detail.append(f"T={horizon}: median={med:.1f} bound={bound:.0f}")
    ratio = medians[10000] / medians[2500]
    ratio_ok = 1.4 <= ratio <= 2.8
    detail.append(f"ratio={ratio:.3f} target [1.4, 2.8]")
    return bounds_ok and ratio_ok and not not_ok, "; ".join(detail + not_ok)


def criterion_7() -> tuple[bool, str]:
    """Oracle estimation-error budgets on realizable streams."""
    worst_vaw = 0.0
    d, horizon = 4, 5000
    vaw_budget = 4.0 * d * np.log(1.0 + horizon / d)
    for seed in range(20):
        rng = RngHandle(seed).substream("vaw-stream")
        gen = rng.generator
        w = gen.uniform(-1.0, 1.0, d)
        w /= max(1.0, float(np.linalg.norm(w)))
        oracle = VawForecaster(d)
        pair = np.zeros((2, 2, d))  # the features of the pair (0, 1)
        err = 0.0
        for _ in range(horizon):
            x = gen.uniform(-1.0, 1.0, d)
            x /= max(1.0, abs(float(w @ x)))
            target = float(w @ x)
            pair[0, 1], pair[1, 0] = x, -x
            err += (oracle.predict_matrix(pair)[0, 1] - target) ** 2
            label = 1.0 if gen.random() < (target + 1.0) / 2.0 else -1.0
            oracle.update(pair, 0, 1, label)
        worst_vaw = max(worst_vaw, err)
    vaw_ok = worst_vaw <= vaw_budget

    worst_fin = 0.0
    class_size, k = 16, 3
    fin_budget = 4.0 * 8.0 * np.log(class_size)
    pairs = [(0, 1), (0, 2), (1, 2)]
    for seed in range(20):
        rng = RngHandle(1000 + seed).substream("finite-stream")
        env = make_finite_class(1, k, class_size, rng)
        tables, truth, gen = env.tables, env.truth_index, rng.generator
        oracle = FiniteClassAggregator(tables)
        err = 0.0
        for _ in range(horizon):
            a, b = pairs[int(gen.integers(0, 3))]
            target = tables[truth, 0, a, b]
            err += (oracle.predict_matrix(0)[a, b] - target) ** 2
            label = 1.0 if gen.random() < (target + 1.0) / 2.0 else -1.0
            oracle.update(0, a, b, label)
        worst_fin = max(worst_fin, err)
    fin_ok = worst_fin <= fin_budget
    return vaw_ok and fin_ok, (
        f"vaw worst={worst_vaw:.1f} budget={vaw_budget:.1f}; "
        f"finite worst={worst_fin:.1f} budget={fin_budget:.1f}"
    )


def criterion_8() -> tuple[bool, str]:
    """Per-round dominance fb <= br across every cached batch."""
    worst = -np.inf
    rounds = 0
    for key in _BATCHES:
        for led in _batch(*key)[1]:
            fb = np.asarray(led["fb_steps"])
            br = np.asarray(led["br_steps"])
            rounds += fb.size
            worst = max(worst, float((fb - br).max()))
    ok = worst <= 1e-12
    return ok, f"worst fb-br gap={worst:.3e} over {rounds} rounds"


def criterion_9() -> tuple[bool, str]:
    """Nash product joints certify (near) zero best-response regret."""
    gen = np.random.default_rng(909)
    worst = -np.inf
    for i in range(100):
        k = 2 + (i % 9)
        p = PreferenceMatrix(_random_skew(k, gen))
        q = solve_zero_sum_nash(p).point
        step = br_regret_step(p, product_joint(q))
        worst = max(worst, step)
    ok = worst <= 1e-6
    return ok, f"worst nash-product br step={worst:.3e}"


def criterion_10() -> tuple[bool, str]:
    """Hardness fixture closed forms: (c,c) forever costs eps*T; (a,a) zero."""
    eps, horizon = 0.2, 2000
    f = hardness(eps)
    k = f.k
    cc = np.zeros((k, k))
    cc[2, 2] = 1.0
    aa = np.zeros((k, k))
    aa[0, 0] = 1.0
    led_cc, led_aa = RegretLedger(), RegretLedger()
    j_cc, j_aa = JointActionDistribution(cc), JointActionDistribution(aa)
    for _ in range(horizon):
        led_cc.record(f, 0, j_cc, (2, 2))
        led_aa.record(f, 0, j_aa, (0, 0))
    cc_err = abs(led_cc.final_br - eps * horizon)
    ok = cc_err <= 1e-9 * horizon and led_aa.final_br == 0.0
    return ok, (f"(c,c) total={led_cc.final_br!r} vs eps*T={eps * horizon!r}; "
                f"(a,a) total={led_aa.final_br!r}")


def criterion_11() -> tuple[bool, str]:
    """Byte-identical CSV replay for each learner kind."""
    specs = {
        "ccedb": {
            **_ccedb_config(0.4), "horizon": 250, "seeds": [0, 1],
            "benchmark": {"q_star": "condorcet", "policy_count": 2},
        },
        "minmaxdb": {
            "algorithm": {"kind": "minmaxdb", "gamma": "auto",
                          "oracle": {"kind": "finite"}},
            "environment": {"kind": "finite_class", "k": 3, "n_contexts": 2,
                            "class_size": 8, "class_seed": 3},
            "horizon": 250, "seeds": [0, 1],
            "benchmark": {"q_star": None, "policy_count": 2},
        },
        "ccelindb": {
            "algorithm": {"kind": "ccelindb"},
            "environment": {"kind": "linear", "k": 4, "dim": 3,
                            "weight_seed": 5},
            "horizon": 150, "seeds": [0],
            "benchmark": {"q_star": None, "policy_count": 0},
        },
    }
    mismatches = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, raw in specs.items():
            paths = []
            for rep in ("a", "b"):
                out = os.path.join(tmp, f"{name}_{rep}")
                config = ExperimentConfig.from_dict({**raw, "output_dir": out})
                run_experiment(config)
                paths.append(out)
            for fname in sorted(os.listdir(paths[0])):
                if not fname.endswith(".csv"):
                    continue
                if not filecmp.cmp(os.path.join(paths[0], fname),
                                   os.path.join(paths[1], fname),
                                   shallow=False):
                    mismatches.append(f"{name}/{fname}")
    ok = not mismatches
    return ok, ("all round and summary CSVs byte-identical"
                if ok else f"mismatched: {mismatches}")


CRITERIA = {
    1: ("feasibility-program-total", criterion_1),
    2: ("per-round-inequality", criterion_2),
    3: ("cce-validity", criterion_3),
    4: ("confidence-coverage", criterion_4),
    5: ("ccedb-scaling", criterion_5),
    6: ("minmaxdb-scaling", criterion_6),
    7: ("oracle-budgets", criterion_7),
    8: ("fact1-dominance", criterion_8),
    9: ("nash-zero-regret", criterion_9),
    10: ("hardness-sanity", criterion_10),
    11: ("determinism", criterion_11),
}

_BY_NAME = {name: num for num, (name, _fn) in CRITERIA.items()}


def suite_numbers(selector: str) -> list[int]:
    """The criteria `accept --suite` names: all, one number or one name."""
    if selector == "all":
        return sorted(CRITERIA)
    number = (int(selector) if selector.isascii() and selector.isdigit()
              else _BY_NAME.get(selector))
    if number not in CRITERIA:
        raise ValueError(
            f"unknown suite {selector!r}: give all, a number 1-{len(CRITERIA)}"
            f" or a name ({', '.join(_BY_NAME)})")
    return [number]


def run_criterion(number: int) -> CriterionResult:
    name, fn = CRITERIA[number]
    start = time.perf_counter()
    passed, detail = fn()
    return CriterionResult(number, name, passed, detail,
                           time.perf_counter() - start)

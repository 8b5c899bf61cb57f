"""Acceptance gate: one test per named criterion, each printing a
pass/fail line with its measured detail, asserted at the stated tolerance
and runtime budget.

Criterion 5 checks the count-based learner against what the paper promises.
Its guarantee is a worst-case upper bound, so on the fixed Condorcet(5, 0.4)
instance the median best-response regret must stay within
4 K log(KT) sqrt(T) at T=2000 and T=8000, and the 8000/2000 median ratio must
not exceed 2.8 (a learner that never learns grows linearly, ratio ~4). On a
fixed gap the regret saturates like K log T / gap, so no lower rate is
asserted there: the paper gives no single-instance lower bound. The sqrt-T
window [1.4, 2.8] applies to the horizon-scaled instance
Condorcet(5, 0.4 * sqrt(2000 / T)) (margin 0.2 at T=8000), the minimax regime
in which regret of order K log T / gap or gap * T both grow like sqrt(T)
up to log factors; the bound is asserted there at T=8000 too.
"""

import functools

import numpy as np
import pytest

from duelbandit import acceptance
from duelbandit.acceptance import run_criterion
from duelbandit.harness import RunSummary

BUDGETS = {
    1: 60.0,
    2: 60.0,
    3: 120.0,
    4: 300.0,
    5: 600.0,
    6: 600.0,
    7: 120.0,
    8: None,
    9: None,
    10: 1.0,
    11: None,
}


def _run_and_report(number):
    res = run_criterion(number)
    status = "PASS" if res.passed else "FAIL"
    print(f"[{status}] criterion {res.number} ({res.name}) "
          f"[{res.seconds:.1f}s] {res.detail}")
    budget = BUDGETS[number]
    if budget is not None:
        assert res.seconds < budget, (
            f"criterion {number} exceeded its runtime budget: "
            f"{res.seconds:.1f}s >= {budget:.0f}s"
        )
    return res


def test_criterion_01_feasibility_program_total():
    res = _run_and_report(1)
    assert res.passed, res.detail


def test_criterion_02_per_round_inequality():
    res = _run_and_report(2)
    assert res.passed, res.detail


def test_criterion_03_cce_validity_and_grid_oracle():
    res = _run_and_report(3)
    assert res.passed, res.detail


def test_criterion_04_confidence_coverage():
    res = _run_and_report(4)
    assert res.passed, res.detail


def test_criterion_05_count_learner_scaling():
    res = _run_and_report(5)
    assert res.passed, (
        f"{res.detail} -- expected: median regret within the worst-case bound "
        "on every batch, fixed-instance growth ratio <= 2.8, and a sqrt-T "
        "growth ratio in [1.4, 2.8] on the horizon-scaled instance "
        "(see module docstring)"
    )


def test_criterion_06_oracle_learner_scaling():
    res = _run_and_report(6)
    assert res.passed, res.detail


def test_criterion_07_oracle_budgets():
    res = _run_and_report(7)
    assert res.passed, res.detail


def test_criterion_08_per_round_dominance():
    res = _run_and_report(8)
    assert res.passed, res.detail


def test_criterion_09_nash_zero_regret():
    res = _run_and_report(9)
    assert res.passed, res.detail


def test_criterion_10_hardness_closed_forms():
    res = _run_and_report(10)
    assert res.passed, res.detail


def test_criterion_11_byte_identical_replay():
    res = _run_and_report(11)
    assert res.passed, res.detail


# Stubbed batches: a fake `run_experiment` records each call and returns one
# summary per requested seed, with a final regret that passes criteria 5 and
# 6, and ledgers that pass criterion 8. Each test swaps in a fresh memo, so the
# batches the real criteria above share are never cleared or filled.
_STUB_BR = {(0.4, 2000): 100.0, (0.4, 8000): 110.0, (0.2, 8000): 220.0,
            (None, 2500): 100.0, (None, 10000): 200.0}


@pytest.fixture
def stub_batches(monkeypatch):
    calls = []
    failing = {}  # (horizon, seed) -> status

    def run_experiment(config, keep_ledgers=False):
        margin = config.environment.get("margin")
        calls.append((margin, config.seeds, config.horizon, config.diagnostic))
        br = _STUB_BR[margin, config.horizon]
        summaries = [
            RunSummary(seed=seed, horizon=config.horizon, final_br=br,
                       confidence_violations=0,
                       status=failing.get((config.horizon, seed), "ok"))
            for seed in config.seeds]
        ledgers = [{"br_steps": np.ones(config.horizon),
                    "fb_steps": np.zeros(config.horizon)}
                   for _ in config.seeds] if keep_ledgers else None
        return summaries, ledgers

    monkeypatch.setattr(acceptance, "run_experiment", run_experiment)
    monkeypatch.setattr(acceptance, "_batch",
                        functools.cache(acceptance._batch.__wrapped__))
    return calls, failing


def test_criteria_4_5_8_share_one_diagnostic_batch(stub_batches):
    calls, _failing = stub_batches
    for number in (4, 5, 8):
        res = run_criterion(number)
        assert res.passed, res.detail
    at_2000 = [call for call in calls if call[2] == 2000]
    assert at_2000 == [(0.4, list(range(50)), 2000, True),
                       (0.4, list(range(50, 200)), 2000, True)]
    # every other batch runs once, seeds 0-49, without diagnostics
    others = [call for call in calls if call[2] != 2000]
    assert len(others) == 4
    assert all(seeds == list(range(50)) and not diagnostic
               for _margin, seeds, _horizon, diagnostic in others)


@pytest.mark.parametrize("number, horizon, where", [
    (5, 2000, "margin=0.4 T=2000 seed 7"),
    (5, 8000, "T=8000 seed 7"),
    (6, 10000, "T=10000 seed 7"),
])
def test_a_seed_not_ok_fails_the_scaling_criteria(stub_batches, number,
                                                  horizon, where):
    _calls, failing = stub_batches
    res = run_criterion(number)
    assert res.passed and "seed" not in res.detail, res.detail
    assert res.detail.count("; ") == (4 if number == 5 else 2)

    acceptance._batch.cache_clear()  # the fresh memo of this test
    status = "failed: NotConverged at round 12: no CCE"
    failing[horizon, 7] = status
    res = run_criterion(number)
    assert not res.passed
    assert f"{where} {status}" in res.detail

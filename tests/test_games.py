import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import duelbandit.games as games
from duelbandit.algorithms import MinMaxDb
from duelbandit.core import (
    ActionDistribution,
    PreferenceMatrix,
    product_joint,
    sample_outcome,
)
from duelbandit.errors import GammaTooSmall, NotConverged
from duelbandit.games import (
    FeasibilityReport,
    backend_name,
    cce_deviation_matrix,
    cce_violation,
    get_kernels,
    minmax_rhs,
    minmax_slack,
    minmax_violation,
    minmax_violations,
    solve_cce,
    solve_minmax_feasibility,
    solve_zero_sum_nash,
    zero_pivot_cces,
)
from duelbandit.games._kernels_py import (
    _COST_TOL,
    _PERTURBATION,
    _RATIO_EPS,
    _leaving_row,
)
from duelbandit.games.grid_oracle import (
    cce_grid_min_violation,
    minmax_grid_min_violation,
)
from duelbandit.harness import build_environment, build_learner
from duelbandit.oracles import FiniteClassAggregator
from duelbandit.rng import RngHandle

RPS = np.array([[0.0, 1, -1], [-1, 0, 1], [1, -1, 0]])

LEARNER_SPECS = {
    "ccedb": ({"kind": "ccedb"},
              {"kind": "fixed", "fixture": "condorcet", "k": 5, "margin": 0.4}),
    "ccelindb": ({"kind": "ccelindb"},
                 {"kind": "linear", "k": 5, "dim": 4, "weight_seed": 5}),
}


def _learner_uppers(algorithm, environment, seed, rounds, horizon):
    """The upper confidence matrices a CCE learner solves in the first
    `rounds` rounds of a run seeded as the harness seeds it."""
    env = build_environment(environment)
    learner = build_learner(algorithm, env, horizon=horizon)
    root = RngHandle(seed)
    env_rng, learner_rng, outcome_rng = (
        root.substream(name) for name in ("environment", "learner", "outcome"))
    uppers = []
    for _ in range(rounds):
        x, truth = env.sample_round(env_rng)
        _joint, duel = learner.select(x, learner_rng)
        uppers.append(learner.last_upper)
        learner.observe(x, duel, sample_outcome(truth.entries[duel],
                                                outcome_rng))
    return uppers


@pytest.fixture(scope="module")
def learner_matrices():
    """The deviation matrices a short seeded run of each CCE learner hands
    to the simplex kernel, one per round."""
    return {
        kind: [cce_deviation_matrix(u) for u in
               _learner_uppers(algorithm, environment, 3, 150, 2000)]
        for kind, (algorithm, environment) in LEARNER_SPECS.items()
    }


def _zero_one(seed, m, n, density):
    return (np.random.default_rng(seed).random((m, n)) < density).astype(float)


def _drawn_zero_one():
    """A 45x40 0/1 matrix whose shape and density are drawn too."""
    rng = np.random.default_rng(5207)
    m, n = rng.integers(2, 50), rng.integers(2, 50)
    return (rng.random((m, n)) < rng.uniform(0.3, 0.95)).astype(float)


# Degenerate 0/1 epigraph programs: ties at every column maximum and in
# most ratio tests.
DEGENERATE_CASES = {
    "45x40": _drawn_zero_one,
    "60x30": lambda: _zero_one(30, 60, 30, 0.8),
}


def _reference_epigraph_simplex(D, stop_at, max_iter):
    """Dense reference for the numpy kernel: the same pivot rule on the
    same perturbed right-hand side, carrying the true one along, with the
    reduced costs recomputed as c - c_B T and the basis searched for s at
    every pivot. Returns the kernel's (x, max_violation, pivots, status,
    basis)."""
    D = np.ascontiguousarray(D, dtype=np.float64)
    m, n = D.shape
    col_max = D.max(axis=0)
    j0 = int(np.argmin(col_max))
    if col_max[j0] <= stop_at:
        x = np.zeros(n)
        x[j0] = 1.0
        return x, float(col_max[j0]), 0, 0, (*range(n + 1, n + 1 + m), j0)
    delta = _PERTURBATION * np.arange(1, m + 1) / m
    i0 = int(np.argmax(D[:, j0] - delta))

    ncol = n + 1 + m
    rows = m + 1
    true_rhs = ncol + 1
    T = np.zeros((rows, ncol + 2))
    T[:m, :n] = D
    T[:m, n] = -1.0
    T[:m, n + 1:ncol] = np.eye(m)
    T[m, :n] = 1.0
    T[:m, ncol] = delta
    T[m, ncol] = T[m, true_rhs] = 1.0
    basis = np.arange(n + 1, n + 1 + m, dtype=np.int64)
    basis = np.append(basis, 0)
    basis[m] = j0
    basis[i0] = n

    def pivot(r, c):
        T[r] /= T[r, c]
        col = T[:, c].copy()
        col[r] = 0.0
        T[...] -= np.outer(col, T[r])

    pivot(m, j0)
    pivot(i0, n)

    c_obj = np.zeros(ncol)
    c_obj[n] = 1.0
    it = 0
    status = 1
    while it < max_iter:
        it += 1
        srow = np.nonzero(basis == n)[0]
        sval = float(T[srow[0], ncol]) if srow.size else 0.0
        if sval <= stop_at + 1e-15:
            status = 0
            break
        red = c_obj - c_obj[basis] @ T[:, :ncol]
        e = int(np.argmin(red))
        if red[e] >= -_COST_TOL:
            status = 0
            break
        col = T[:, e]
        pos = col > _RATIO_EPS
        if not pos.any():
            status = 0
            break
        ratios = np.where(pos, T[:, ncol] / np.where(pos, col, 1.0), np.inf)
        r = int(np.argmin(ratios))
        pivot(r, e)
        basis[r] = e

    x = np.zeros(n)
    for r in range(rows):
        if basis[r] < n:
            x[basis[r]] = max(T[r, true_rhs], 0.0)
    total = x.sum()
    if total > 0:
        x /= total
    return x, float((D @ x).max()), it, status, tuple(basis.tolist())


def _linprog_value(D):
    """min s subject to D x <= s 1, sum x = 1, x >= 0, s >= 0, by scipy's
    HiGHS: the value the kernel's point must reach."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    m, n = D.shape
    res = linprog(
        c=np.r_[np.zeros(n), 1.0],
        A_ub=np.c_[D, -np.ones(m)],
        b_ub=np.zeros(m),
        A_eq=np.r_[np.ones(n), 0.0][None, :],
        b_eq=[1.0],
        bounds=[(0, None)] * (n + 1),
    )
    assert res.status == 0
    return res.fun


def _assert_kernel_value(D, value):
    """The kernel solves D to `value`, the optimum of the epigraph program,
    within 1e-9, with status 0 and its point on the simplex."""
    x, viol, _pivots, status, _basis = get_kernels().epigraph_simplex(D, 50_000)
    assert status == 0
    assert x.min() >= 0.0 and abs(x.sum() - 1.0) <= 1e-12
    assert abs(max(viol, 0.0) - value) <= 1e-9


def _assert_same_solve(got, want):
    x, viol, pivots, status, basis = got
    assert x.tobytes() == want[0].tobytes()
    assert np.float64(viol).tobytes() == np.float64(want[1]).tobytes()
    assert (pivots, status, basis) == tuple(want[2:])


class TestDeviationMatrix:
    @pytest.mark.parametrize("k", [2, 3, 5, 20])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_same_bits_as_the_broadcast_formula(self, k, order):
        u = np.asarray(np.random.default_rng(k).uniform(-3, 3, (k, k)),
                       order=order)
        d1 = u[:, None, :] - u[None, :, :]            # [a*, a, b]
        d2 = u[:, :, None] - u.T[None, :, :]          # [b*, a, b]
        want = np.concatenate([d1.reshape(k, k * k), d2.reshape(k, k * k)])
        assert np.array_equal(cce_deviation_matrix(u), want)

    def test_stack_is_the_stack_of_matrices(self):
        us = np.random.default_rng(7).uniform(-3, 3, (6, 5, 5))
        stacked = cce_deviation_matrix(us)
        assert stacked.shape == (6, 10, 25)
        for u, dev in zip(us, stacked):
            assert dev.tobytes() == cce_deviation_matrix(u).tobytes()

    def test_matches_loop_construction(self, make_skew):
        gen = np.random.default_rng(0)
        u = gen.uniform(-3, 3, (4, 4))
        k = 4
        dev = cce_deviation_matrix(u)
        for astar in range(k):
            for a in range(k):
                for b in range(k):
                    assert dev[astar, a * k + b] == u[astar, b] - u[a, b]
        for bstar in range(k):
            for a in range(k):
                for b in range(k):
                    assert dev[k + bstar, a * k + b] == u[bstar, a] - u[b, a]


class TestSolveCce:
    def test_zero_matrix_any_joint_feasible(self):
        report = solve_cce(np.zeros((3, 3)))
        assert cce_violation(np.zeros((3, 3)), report.point) == 0.0

    def test_rps_uniform_product_is_feasible_and_solver_valid(self):
        # the uniform product joint satisfies both families with value 0
        uniform = np.full((3, 3), 1.0 / 9.0)
        from duelbandit.core import JointActionDistribution

        assert cce_violation(RPS, JointActionDistribution(uniform)) <= 1e-15
        report = solve_cce(RPS)
        assert cce_violation(RPS, report.point) <= 1e-8

    def test_spec_two_arm_instance_against_grid_oracle(self):
        u = np.array([[0.0, 0.5], [0.2, 0.0]])
        report = solve_cce(u)
        assert cce_violation(u, report.point) <= 1e-8
        # existence verdict at resolution 1e-3 agrees
        assert cce_grid_min_violation(u, 1e-3) <= 2 * 0.5 * 6e-3

    def test_grid_oracle_is_the_grid_minimum(self):
        # every point of the grid with n = 70, which spans several blocks
        # of the oracle's first coordinate, the last one partial
        n = 70
        i, j, k = np.nonzero(np.add.outer(np.add.outer(np.arange(n + 1),
                                                       np.arange(n + 1)),
                                          np.arange(n + 1)) <= n)
        points = np.stack([i, j, k, n - i - j - k]) / n
        gen = np.random.default_rng(70)
        for _ in range(50):
            u = gen.uniform(-3, 3, (2, 2))
            brute = float((cce_deviation_matrix(u) @ points).max(axis=0).min())
            assert cce_grid_min_violation(u, 1 / n) == pytest.approx(brute, abs=1e-12)

    def test_batch_validity(self):
        gen = np.random.default_rng(42)
        worst = -np.inf
        for i in range(60):
            k = 2 + (i % 9)
            u = gen.uniform(-3, 3, (k, k))
            x, viol, iters, status, _basis = get_kernels().epigraph_simplex(
                cce_deviation_matrix(u), 50_000
            )
            assert status == 0
            worst = max(worst, viol)
            assert abs(x.sum() - 1) <= 1e-9
            assert x.min() >= 0
        assert worst <= 1e-8

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            solve_cce(np.array([[0.0, np.inf], [0.0, 0.0]]))

    def test_non_square_rejected_with_shape(self):
        with pytest.raises(ValueError, match=r"\(2, 3\)"):
            solve_cce(np.zeros((2, 3)))

    def test_report_shape(self):
        report = solve_cce(np.zeros((2, 2)))
        assert isinstance(report, FeasibilityReport)
        assert report.point.k == 2
        assert report.iterations >= 0


class TestSolveCceAgainstScipy:
    def test_linprog_cross_check(self):
        gen = np.random.default_rng(3)
        for i in range(20):
            k = 2 + (i % 5)
            u = gen.uniform(-3, 3, (k, k))
            report = solve_cce(u)
            assert cce_violation(u, report.point) <= 1e-8
            # independent LP: the min max-violation over the joint simplex is <= 0
            assert _linprog_value(cce_deviation_matrix(u)) <= 1e-9

    def test_ccedb_condorcet20_matrices_warm_and_cold(self):
        # CceDb's own K=20 matrices, one by one: the solve it makes from
        # the basis it holds and a cold solve both reach a CCE, and the LP
        # optimum they must reach is 0
        kp = get_kernels()
        algorithm, environment = LEARNER_SPECS["ccedb"]
        uppers = _learner_uppers(algorithm, {**environment, "k": 20}, 0,
                                 150, 1000)
        basis = ()
        warm_hits = pivoted = 0
        for u in uppers:
            dev = cce_deviation_matrix(u)
            warm = _ccedb_solve(kp, dev, basis)
            basis = warm[4]
            cold = kp.epigraph_simplex(dev, 50_000)
            # a held basis's vertex, not the pure-point exit
            warm_hits += warm[2] == 0 and dev.max(axis=0).min() > 0.0
            pivoted += cold[2] > 0
            for x, _viol, _pivots, status, _basis in (warm, cold):
                assert status == 0
                assert x.min() >= 0.0 and abs(x.sum() - 1.0) <= 1e-12
                assert (dev @ x).max() <= 1e-8
            assert _linprog_value(dev) <= 1e-9
        assert warm_hits >= 10 and pivoted >= 30

    @pytest.mark.parametrize("case", sorted(DEGENERATE_CASES))
    def test_kernel_value_on_degenerate_instances(self, case):
        D = DEGENERATE_CASES[case]()
        _assert_kernel_value(D, _linprog_value(D))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(2, 60), st.integers(2, 60),
           st.sampled_from([(0, 1), (0, 2), (-2, 2)]),
           st.floats(0.5, 0.95), st.integers(0, 2**32 - 1))
    def test_kernel_value_on_drawn_degenerate_matrices(self, m, n, levels,
                                                       density, seed):
        # integer entries, mostly the top level: ties at the column maxima
        # and in the ratio tests
        low, top = levels
        gen = np.random.default_rng(seed)
        D = np.where(gen.random((m, n)) < density, top,
                     gen.integers(low, top, (m, n))).astype(float)
        _assert_kernel_value(D, _linprog_value(D))


class TestSolveZeroSumNash:
    def test_rps_gives_uniform(self):
        report = solve_zero_sum_nash(PreferenceMatrix(RPS))
        assert np.allclose(report.point.weights, 1.0 / 3.0, atol=1e-9)

    def test_strict_condorcet_winner_is_point_mass(self):
        p = np.zeros((3, 3))
        p[0, 1] = p[0, 2] = 0.4
        p[1, 0] = p[2, 0] = -0.4
        p[1, 2] = 0.1
        p[2, 1] = -0.1
        report = solve_zero_sum_nash(PreferenceMatrix(p))
        q = report.point.weights
        assert np.allclose(q, [1, 0, 0], atol=1e-9)
        assert np.allclose(q @ p, [0, 0.4, 0.4], atol=1e-9)

    def test_two_arm_dominant(self):
        p = np.array([[0.0, 0.6], [-0.6, 0.0]])
        report = solve_zero_sum_nash(PreferenceMatrix(p))
        assert np.allclose(report.point.weights, [1, 0], atol=1e-9)

    def test_maximin_property_random(self, make_skew):
        gen = np.random.default_rng(11)
        for _ in range(50):
            k = int(gen.integers(2, 9))
            p = make_skew(k, gen)
            q = solve_zero_sum_nash(PreferenceMatrix(p)).point.weights
            assert (q @ p).min() >= -1e-8
            # skew-symmetry identity: the game value at (q, q) is exactly 0
            assert q @ p @ q == pytest.approx(0.0, abs=1e-12)

    def test_requires_skew_input(self):
        with pytest.raises(Exception):
            solve_zero_sum_nash(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestSolveMinmaxFeasibility:
    def test_zero_matrix_uniform_is_feasible_by_hand(self):
        # K=4, gamma=16: at uniform, each constraint is 0 + (2/16)/0.25 = 0.5
        # against budget 5*4/16 = 1.25
        y = PreferenceMatrix(np.zeros((4, 4)))
        report = solve_minmax_feasibility(y, 16.0)
        uniform = ActionDistribution(np.full(4, 0.25))
        assert minmax_violation(y, 16.0, uniform) == pytest.approx(0.5 - 1.25)
        assert report.max_violation <= 4.0 / 16.0 / 2.0

    def test_two_arm_unit_gap_against_grid_oracle(self):
        # spec-style check: (0.8, 0.2) is feasible by hand; the solver's
        # point and the grid oracle must both certify feasibility
        y = np.array([[0.0, 1.0], [-1.0, 0.0]])
        hand = ActionDistribution([0.8, 0.2])
        assert minmax_violation(y, 10.0, hand) <= 0.0
        report = solve_minmax_feasibility(PreferenceMatrix(y), 10.0)
        assert minmax_violation(y, 10.0, report.point) <= 2.0 / 10.0 + 1e-12
        assert minmax_grid_min_violation(y, 10.0, 1e-3) <= 0.0

    def test_gamma_below_threshold_rejected(self):
        y = PreferenceMatrix(np.zeros((3, 3)))
        for gamma in (5.0, np.nan, np.inf):  # below 2K, or not finite
            with pytest.raises(GammaTooSmall):
                solve_minmax_feasibility(y, gamma)

    def test_stacked_violations_have_the_bits_of_each_row(self, make_skew):
        gen = np.random.default_rng(11)
        for k in (2, 3, 5, 10):
            for gamma in (2.0 * k, 4.0 * k, 10.0 * k):
                ys = np.array([make_skew(k, gen) for _ in range(6)])
                ps = gen.dirichlet(np.ones(k), 6)
                rows = minmax_violations(ys, ps, gamma).tolist()
                for y, p, row in zip(ys, ps, rows):
                    g = y @ p + (2.0 / gamma) / p
                    assert row == float(g.max() - 5.0 * k / gamma)
                    assert minmax_violation(y, gamma, p) == row

    @pytest.mark.parametrize("gap", [0.0, 0.9],
                             ids=["uniform-meets", "uniform-misses"])
    def test_a_fresh_learner_solves_as_a_cold_solve(self, gap):
        # a fresh MinMaxDb solves from its uniform held marginal, which is
        # where a solve with no warm start begins
        k, gamma = 3, 24.0
        tables = np.zeros((1, 1, k, k))
        tables[0, 0, 0, 1:], tables[0, 0, 1:, 0] = gap, -gap
        y = PreferenceMatrix(tables[0, 0])
        meets = minmax_violation(y, gamma, np.full(k, 1.0 / k)) \
            <= minmax_slack(k, gamma) / 2.0
        assert meets == (gap == 0.0)
        learner = MinMaxDb(k, gamma, FiniteClassAggregator(tables))
        joint, _ = learner.select(0, RngHandle(0))
        report = solve_minmax_feasibility(y, gamma)
        assert (report.iterations == 0) == meets
        assert learner.last_marginal.tobytes() == \
            report.point.weights.tobytes()
        assert learner.last_violation == report.max_violation
        assert learner.last_iterations == report.iterations
        assert joint.weights.tobytes() == \
            product_joint(report.point).weights.tobytes()

    def test_feasibility_totality_random_grid(self, make_skew):
        gen = np.random.default_rng(7)
        for i in range(120):
            k = (2, 3, 5, 10)[i % 4]
            gamma = (2.0, 4.0, 10.0)[i % 3] * k
            y = make_skew(k, gen)
            p, viol, iters, status = get_kernels().minmax_descent(
                y, gamma, 1.0 / (4 * gamma), minmax_rhs(k, gamma),
                0.5 * k / gamma, 1.0 / (gamma * k), 50_000, None,
            )
            assert status == 0
            assert viol <= k / gamma + 1e-6
            assert p.min() >= 1.0 / (4 * gamma) - 1e-12
            assert abs(p.sum() - 1) <= 1e-9

    def test_per_round_inequality_random(self, make_skew):
        gen = np.random.default_rng(8)
        for _ in range(30):
            k = int(gen.integers(2, 8))
            gamma = float(gen.uniform(2 * k, 12 * k))
            y = make_skew(k, gen)
            report = solve_minmax_feasibility(PreferenceMatrix(y), gamma)
            p = report.point.weights
            slack = max(report.max_violation, 0.0)
            for _ in range(40):
                f = make_skew(k, gen)
                q = gen.dirichlet(np.ones(k))
                lhs = q @ f @ p
                rhs = (0.5 * gamma * (p @ ((f - y) ** 2) @ p)
                       + minmax_rhs(k, gamma) + slack)
                assert lhs <= rhs + 1e-9

    def test_warm_start_feasible_and_floored(self, make_skew):
        gen = np.random.default_rng(9)
        y = make_skew(3, gen)
        first = solve_minmax_feasibility(PreferenceMatrix(y), 30.0)
        second = solve_minmax_feasibility(
            PreferenceMatrix(y), 30.0, warm_start=first.point.weights
        )
        assert second.iterations <= first.iterations

    def test_not_converged_raises(self, monkeypatch):
        y = np.zeros((10, 10))
        y[0, 1:] = 1.0
        y[1:, 0] = -1.0
        monkeypatch.setattr(games, "MAX_ITERATIONS", 1)
        with pytest.raises(NotConverged):
            solve_minmax_feasibility(PreferenceMatrix(y), 600.0)


class TestNumpyKernelMatchesReference:
    """The numpy simplex reads its reduced costs off the epigraph row and
    updates the tableau in preallocated buffers; it must take the pivots of
    the dense reference and return the same bits."""

    @pytest.mark.parametrize("kind", sorted(LEARNER_SPECS))
    def test_learner_matrices(self, kind, learner_matrices):
        kp = get_kernels()
        pivots = 0
        for dev in learner_matrices[kind]:
            want = _reference_epigraph_simplex(dev, 0.0, 50_000)
            _assert_same_solve(kp.epigraph_simplex(dev, 50_000), want)
            pivots += want[2]
        assert pivots > 0

    def test_zero_pivot_exit(self):
        kp = get_kernels()
        dev = cce_deviation_matrix(np.zeros((3, 3)))
        want = _reference_epigraph_simplex(dev, 0.0, 50_000)
        assert want[2] == 0
        _assert_same_solve(kp.epigraph_simplex(dev, 50_000), want)

    def test_degenerate_instance(self):
        # ties at every column maximum make the first pivots degenerate
        dev = _zero_one(0, 40, 40, 0.7)
        want = _reference_epigraph_simplex(dev, 0.0, 50_000)
        got = get_kernels().epigraph_simplex(dev, 50_000)
        _assert_same_solve(got, want)
        _assert_kernel_value(dev, _linprog_value(dev))

    @pytest.mark.parametrize("case", sorted(DEGENERATE_CASES))
    def test_degenerate_cases(self, case):
        dev = DEGENERATE_CASES[case]()
        want = _reference_epigraph_simplex(dev, 0.0, 50_000)
        assert want[2] > 2
        _assert_same_solve(get_kernels().epigraph_simplex(dev, 50_000), want)

    def test_late_ccelindb_matrices(self):
        """Rounds 2000-2149 of a T=10000 CceLinDb run: more of their cold
        solves pivot, and for longer, than in the run's first 150 rounds."""
        algorithm, environment = LEARNER_SPECS["ccelindb"]
        uppers = _learner_uppers(algorithm, environment, 3, 2150, 10_000)
        kp = get_kernels()
        pivots = {}
        for first in (0, 2000):
            pivots[first] = 0
            for u in uppers[first:first + 150]:
                dev = cce_deviation_matrix(u)
                want = _reference_epigraph_simplex(dev, 0.0, 50_000)
                _assert_same_solve(kp.epigraph_simplex(dev, 50_000), want)
                pivots[first] += want[2]
        assert pivots[2000] > 2 * pivots[0] > 0


class TestLeavingRow:
    """The ratio test: the first row with the smallest rhs / column among
    the entries above _RATIO_EPS, or -1 if there is none."""

    def test_a_tie_gives_the_first_row(self):
        assert _leaving_row([0.5, 1.0, 2.0, 1.0], [3.0, 1.0, 2.0, 1.0]) == 1

    def test_an_entry_at_the_tolerance_is_excluded(self):
        assert _leaving_row([_RATIO_EPS, 1.0], [0.0, 1.0]) == 1
        assert _leaving_row([_RATIO_EPS], [0.0]) == -1

    def test_no_admissible_entry_gives_minus_one(self):
        assert _leaving_row([0.0, -0.0, -1.0], [1.0, 1.0, 1.0]) == -1
        assert _leaving_row([], []) == -1

    def test_a_nan_ratio_is_skipped(self):
        assert _leaving_row([1.0, 1.0], [np.nan, 2.0]) == 1
        assert _leaving_row([1.0], [np.nan]) == -1


def _ccedb_solve(kp, dev, basis):
    """The solve CceDb makes of `dev` from the basis it holds: stage one
    (`zero_pivot_solves`), then the cold simplex on a miss. The solve's
    basis is the one CceDb holds in the next round."""
    solve = kp.zero_pivot_solves(dev[None], [basis])[0]
    return kp.epigraph_simplex(dev, 50_000) if solve is None else solve


@pytest.fixture(scope="module")
def ccedb_rounds(learner_matrices):
    """(D, held basis) for each round of the `learner_matrices` CceDb run,
    the basis being the one CceDb holds as the round starts."""
    kp = get_kernels()
    basis, rounds = (), []
    for dev in learner_matrices["ccedb"]:
        rounds.append((dev, basis))
        basis = _ccedb_solve(kp, dev, basis)[4]
    return rounds


@pytest.fixture(scope="module")
def warm_cases(ccedb_rounds):
    """The (D, held basis) rounds with a full basis and no pure-point exit:
    those whose stage one solves the held basis."""
    return [(dev, basis) for dev, basis in ccedb_rounds
            if basis and dev.max(axis=0).min() > 0.0]


class TestWarmStart:
    """CceDb's warm start: stage one returns the held basis's vertex with 0
    pivots when it is still a CCE; on a miss the cold simplex runs."""

    def test_warm_returns_are_cce_points(self, learner_matrices):
        kp = get_kernels()
        basis = ()
        warm = 0
        for dev in learner_matrices["ccedb"]:
            x, viol, pivots, status, basis = _ccedb_solve(kp, dev, basis)
            assert status == 0
            assert len(basis) == dev.shape[0] + 1
            if pivots == 0 and dev.max(axis=0).min() > 0.0:
                warm += 1  # not the pure-point exit: the basis was reused
                assert (dev @ x).max() <= 1e-12
                assert viol <= 1e-12
                assert x.min() >= 0.0
                assert abs(x.sum() - 1.0) <= 1e-12
        assert warm >= 40

    def test_stale_basis_gives_the_cold_solve(self, ccedb_rounds):
        # a CceDb run: a round whose held basis stage one rejects plays the
        # cold solve of its upper matrix, bits, pivots and the basis left;
        # the bases it holds are those `ccedb_rounds` rebuilds
        algorithm, environment = LEARNER_SPECS["ccedb"]
        env = build_environment(environment)
        learner = build_learner(algorithm, env, horizon=2000)
        root = RngHandle(3)
        env_rng, learner_rng, outcome_rng = (
            root.substream(name) for name in ("environment", "learner", "outcome"))
        held, misses = [], 0
        for _ in range(len(ccedb_rounds)):
            held.append(learner._basis)
            x, truth = env.sample_round(env_rng)
            joint, duel = learner.select(x, learner_rng)
            upper = learner.last_upper
            if zero_pivot_cces(upper[None], [held[-1]])[0] is None:
                misses += 1
                cold = solve_cce(upper)
                assert joint.weights.tobytes() == cold.point.weights.tobytes()
                assert learner.last_iterations == cold.iterations > 0
                assert learner._basis == cold.basis
            learner.observe(x, duel, sample_outcome(truth.entries[duel],
                                                    outcome_rng))
        assert held == [basis for _, basis in ccedb_rounds]
        assert misses >= 25

    @pytest.mark.parametrize("stale", ["repeated column", "no x column"])
    def test_singular_basis_gives_the_cold_solve(self, stale, learner_matrices):
        kp = get_kernels()
        dev = next(d for d in learner_matrices["ccedb"] if d.max(axis=0).min() > 0)
        m, n = dev.shape
        if stale == "repeated column":
            previous = [0] * (m + 1)
        else:
            previous = list(range(n, n + m + 1))  # s and the slacks
        basis = list(previous)
        assert kp.zero_pivot_solves(dev[None], [basis]) == [None]
        assert basis == previous  # read, not written
        assert kp.epigraph_simplex(dev, 50_000)[2] > 0

    def test_zero_pivot_exit_leaves_a_basis_of_its_point(self):
        u = np.array([[0.0, 0.3, 0.2], [-0.3, 0.0, 0.1], [-0.2, -0.1, 0.0]])
        dev = cce_deviation_matrix(u)
        n = dev.shape[1]
        x, viol, pivots, status, basis = get_kernels().epigraph_simplex(
            dev, 50_000)
        assert (pivots, status) == (0, 0) and x.max() == 1.0
        tableau, rhs = _unpivoted_tableau(dev)
        z = np.linalg.solve(tableau[:, basis], rhs)
        assert z.min() >= 0.0 and n not in basis
        point = np.zeros(n)
        for j, value in zip(basis, z):
            if j < n:
                point[j] = value
        assert np.array_equal(point, x)


def _unpivoted_tableau(D):
    """The epigraph program's tableau, its columns x, then s, then the row
    slacks and its last row sum x = 1, and its true right-hand side."""
    m, n = D.shape
    tableau = np.zeros((m + 1, n + 1 + m))
    tableau[:m, :n] = D
    tableau[:m, n] = -1.0
    tableau[:m, n + 1:] = np.eye(m)
    tableau[m, :n] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    return tableau, rhs


def _reference_warm_vertex(D, basis):
    """The warm-vertex check of one basis, built from scratch: the basis
    columns of the unpivoted tableau, one solve with a 1-D right-hand side,
    then the kernel's acceptance tests. Returns (x, viol) or None."""
    m, n = D.shape
    tableau, rhs = _unpivoted_tableau(D)
    try:
        values = np.linalg.solve(tableau[:, basis], rhs).tolist()
    except np.linalg.LinAlgError:
        return None
    if min(values) < -1e-12:
        return None
    if n in basis and values[basis.index(n)] > 1e-15:
        return None
    x = np.zeros(n)
    for j, value in zip(basis, values):
        if j < n:
            x[j] = 0.0 if value < 0.0 else value
    total = x.sum()
    if total > 0:
        x /= total
    viol = float((D @ x).max())
    if not (total > 0 and viol <= 1e-12):
        return None
    return x, viol


def _assert_basis_of_point(D, solve, cce):
    """The solve's basis is m + 1 distinct tableau columns whose vertex for
    the true right-hand side, clipped at 0 and renormalized, is the solve's
    x within 1e-12; on a CCE matrix that vertex also has s <= 1e-15."""
    m, n = D.shape
    basis = solve[4]
    assert len(set(basis)) == len(basis) == m + 1
    tableau, rhs = _unpivoted_tableau(D)
    values = np.linalg.solve(tableau[:, basis], rhs)
    point = np.zeros(n)
    for j, value in zip(basis, values):
        if j < n:
            point[j] = max(value, 0.0)
    point /= point.sum()
    assert np.abs(point - solve[0]).max() <= 1e-12
    if cce and n in basis:
        assert values[basis.index(n)] <= 1e-15


class TestReturnedBasis:
    """Every basis a simplex solve returns is the basis of its point: the
    basis CceDb holds is the one whose vertex it played."""

    @pytest.mark.parametrize("kind", sorted(LEARNER_SPECS))
    def test_cold_solves_of_learner_matrices(self, kind, learner_matrices):
        kp = get_kernels()
        for dev in learner_matrices[kind]:
            _assert_basis_of_point(dev, kp.epigraph_simplex(dev, 50_000), True)

    def test_solves_of_a_ccedb_run(self, ccedb_rounds):
        # the pure points, held bases and cold solves CceDb makes
        kp = get_kernels()
        kinds = set()
        for dev, held in ccedb_rounds:
            solve = _ccedb_solve(kp, dev, held)
            _assert_basis_of_point(dev, solve, True)
            if solve[2] > 0:
                kinds.add("cold")
            else:
                kinds.add("held" if solve[4] is held else "pure")
        assert kinds == {"pure", "held", "cold"}

    @pytest.mark.parametrize("case", sorted(DEGENERATE_CASES))
    def test_degenerate_instances(self, case):
        D = DEGENERATE_CASES[case]()
        solve = get_kernels().epigraph_simplex(D, 50_000)
        assert solve[2] > 0
        _assert_basis_of_point(D, solve, False)


class TestWarmVertices:
    """`zero_pivot_solves` tests the warm vertices of a stack of held bases
    in one pass; every seed must get what its basis gives alone, bit for
    bit."""

    @staticmethod
    def _assert_matches_reference(got, cases):
        assert len(got) == len(cases)
        for vertex, (dev, basis) in zip(got, cases):
            want = _reference_warm_vertex(dev, basis)
            if want is None:
                assert vertex is None
                continue
            x, viol, pivots, status, held = vertex
            assert x.tobytes() == want[0].tobytes()
            assert np.float64(viol).tobytes() == np.float64(want[1]).tobytes()
            assert (pivots, status) == (0, 0) and held is basis

    @pytest.mark.parametrize("size", [1, 4, 50])
    def test_stacks_match_single_solves(self, warm_cases, size):
        kp = get_kernels()
        accepted = 0
        for start in range(0, len(warm_cases), size):
            chunk = warm_cases[start:start + size]
            got = kp.zero_pivot_solves(np.stack([d for d, _ in chunk]),
                                       [b for _, b in chunk])
            self._assert_matches_reference(got, chunk)
            accepted += sum(v is not None for v in got)
        assert 40 <= accepted < len(warm_cases)  # both verdicts are seen

    def test_singular_basis_in_a_stack(self, warm_cases, ccedb_rounds):
        # a fresh seed and a pure point ahead of the held bases, so a held
        # seed's place in the stack is not its place among the held ones
        kp = get_kernels()
        chunk = list(warm_cases[:6])
        dev, basis = chunk[2]
        chunk[2] = dev, [basis[0]] * len(basis)  # a repeated column
        pure = next(d for d, _ in ccedb_rounds if d.max(axis=0).min() <= 0.0)
        cases = [(chunk[0][0], ()), (pure, warm_cases[0][1]), *chunk]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.stack([np.eye(2), np.zeros((2, 2))]),
                            np.ones((2, 2, 1)))
        got = kp.zero_pivot_solves(np.stack([d for d, _ in cases]),
                                   [b for _, b in cases])
        assert got[0] is None and got[4] is None
        assert got[1][2:4] == (0, 0) and got[1][0].max() == 1.0
        assert sum(v is not None for v in got[2:]) >= 3
        self._assert_matches_reference(got[2:], chunk)
        for (dev, basis), solve in zip(cases, got):
            alone = kp.zero_pivot_solves(dev[None], [basis])[0]
            if alone is None:
                assert solve is None
            else:
                _assert_same_solve(solve, alone)
                assert (solve[4] is basis) == (alone[4] is basis)

    def test_a_vertex_without_mass_is_refused(self, warm_cases, monkeypatch):
        # The sum row makes a basis's x part add up to 1, so only a solve
        # that lost it can give a feasible vertex with no x mass; it must
        # not be played as the zero point, whose D x is 0 everywhere.
        kp = get_kernels()
        chunk = warm_cases[:4]
        Ds = np.stack([d for d, _ in chunk])
        n = Ds.shape[2]
        # x and s at 0, the slacks at 0.5: every other check passes
        massless = np.array([[0.0 if j <= n else 0.5 for j in basis]
                             for _, basis in chunk])[:, :, None]
        monkeypatch.setattr(np.linalg, "solve", lambda B, rhs: massless)
        assert kp.zero_pivot_solves(Ds, [b for _, b in chunk]) == [None] * 4

    def test_zero_pivot_solves_match_epigraph_simplex(self, ccedb_rounds):
        # a run's matrices with the bases CceDb holds as their rounds
        # start, in one stack: pure points, which are epigraph_simplex's
        # 0-pivot exit, warm vertices, which return the held basis itself,
        # and misses
        kp = get_kernels()
        got = kp.zero_pivot_solves(np.stack([d for d, _ in ccedb_rounds]),
                                   [basis for _, basis in ccedb_rounds])
        kinds = set()
        for (dev, held), solve in zip(ccedb_rounds, got):
            if dev.max(axis=0).min() <= 0.0:
                _assert_same_solve(solve, kp.epigraph_simplex(dev, 50_000))
                kinds.add("pure")
                continue
            want = held and _reference_warm_vertex(dev, held)
            if solve is None:
                assert not want
                kinds.add("miss")
                continue
            _assert_same_solve(solve, (*want, 0, 0, held))
            assert solve[4] is held
            kinds.add("warm")
        assert kinds == {"pure", "warm", "miss"}


class TestKlProjectFloored:
    """The early return for a point already on the floored simplex gives
    the bytes the projection loop gives."""

    @staticmethod
    def _loop(w, floor):
        k = w.shape[0]
        if k * floor >= 1.0:
            return np.full(k, 1.0 / k)
        order = np.argsort(w, kind="stable")
        ws = w[order]
        prefix = np.concatenate(([0.0], np.cumsum(ws)))
        res = np.empty(k)
        for f in range(k):
            denom = 1.0 - prefix[f]
            if denom <= 0.0:
                break
            lam = (1.0 - f * floor) / denom
            ok_low = f == 0 or lam * ws[f - 1] <= floor + 1e-15
            ok_high = lam * ws[f] >= floor - 1e-15
            if ok_low and ok_high:
                res[order[:f]] = floor
                res[order[f:]] = ws[f:] * lam
                return res
        return np.full(k, 1.0 / k)

    def test_same_bytes_as_the_loop(self):
        project = get_kernels().kl_project_floored
        env = build_environment({"kind": "finite_class", "k": 3,
                                 "class_size": 16, "class_seed": 11})
        learner = build_learner({"kind": "minmaxdb"}, env, horizon=2500)
        floor = 1.0 / (4.0 * learner.gamma)
        root = RngHandle(5)
        env_rng, learner_rng, outcome_rng = (
            root.substream(name) for name in ("environment", "learner", "outcome"))
        cases = []
        for _ in range(300):
            x, truth = env.sample_round(env_rng)
            _joint, duel = learner.select(x, learner_rng)
            cases.append((learner.last_marginal, floor))
            learner.observe(x, duel, sample_outcome(truth.entries[duel],
                                                    outcome_rng))
        gen = np.random.default_rng(0)
        for _ in range(300):
            k = int(gen.integers(2, 9))
            floor = float(gen.uniform(0.0, 1.0 / k))
            w = gen.dirichlet(np.ones(k))
            cases.append((w, floor))  # often below the floor
            floored = floor + (1.0 - k * floor) * w
            cases.append((floored, floor))
            for below in (1e-16, 1e-13):  # either side of the tolerance
                edge = floored.copy()
                edge[edge.argmin()] = floor - below
                cases.append((edge, floor))
        on_floor = 0
        for w, floor in cases:
            want = self._loop(w, floor)
            assert project(w, floor).tobytes() == want.tobytes()
            on_floor += w.min() >= floor - 1e-15
        assert 300 < on_floor < len(cases)



class TestKernelSeam:
    """The solvers fetch their kernels through `games.get_kernels()` on
    every call, so that a tracer patching it sees the kernel layer."""

    def test_names(self):
        kernels = get_kernels()
        assert backend_name() == kernels.BACKEND_NAME == "python"
        assert callable(kernels.epigraph_simplex)
        assert callable(kernels.minmax_descent)

    def test_every_solver_calls_through(self, monkeypatch):
        kernels = get_kernels()
        calls = []

        def counting():
            calls.append(1)
            return kernels

        monkeypatch.setattr(games, "get_kernels", counting)
        u = np.array([[0.0, 0.5, -0.2], [0.1, 0.0, 0.3], [-0.4, 0.2, 0.0]])
        assert len(solve_cce(u).basis) == 2 * 3 + 1
        assert len(calls) == 1
        with pytest.raises(TypeError):
            solve_cce(u, basis=[])  # the basis is returned, never passed
        assert len(solve_zero_sum_nash(RPS).basis) == 3 + 1
        assert len(calls) == 2
        report = solve_minmax_feasibility(PreferenceMatrix(0.5 * RPS), 10.0)
        assert report.basis == ()
        assert len(calls) == 3

    def test_a_nan_violation_raises(self, monkeypatch):
        """A simplex that reports status 0 with a NaN violation has failed:
        both solvers raise NotConverged rather than pass it on."""
        kernels = get_kernels()

        def nan_simplex(D, max_iter):
            x, _viol, pivots, status, basis = kernels.epigraph_simplex(
                D, max_iter)
            return x, float("nan"), pivots, status, basis

        stub = types.SimpleNamespace(epigraph_simplex=nan_simplex)
        monkeypatch.setattr(games, "get_kernels", lambda: stub)
        u = np.array([[0.0, 0.5, -0.2], [0.1, 0.0, 0.3], [-0.4, 0.2, 0.0]])
        for solve, matrix in ((solve_cce, u), (solve_zero_sum_nash, RPS)):
            with pytest.raises(NotConverged) as raised:
                solve(matrix)
            assert np.isnan(raised.value.max_violation)

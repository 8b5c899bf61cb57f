"""Equilibrium and feasibility solvers.

Three entry points, all pure functions of their input:

  * solve_cce               -- coarse correlated equilibrium of a general-sum
                               K x K matrix, as a joint distribution over pairs;
  * solve_zero_sum_nash     -- maximin strategy of a skew-symmetric game
                               (diagnostic benchmark; the game value is 0);
  * solve_minmax_feasibility -- the smoothed inverse-gap program selecting a
                               marginal whose predicted exposure plus
                               exploration penalty stays within budget.

CCE and Nash reduce to one linear program: minimize the maximum constraint
violation over a simplex. The inverse-gap program is convex (linear exposure
plus 1/p_i penalty) and is solved by entropic mirror descent on a floored
simplex. The hot loops live in the numpy kernels of `_kernels_py`; the
solvers fetch the simplex and the descent through `get_kernels()` at call
time. `zero_pivot_cces`, the only test of a basis an earlier solve
reported, checks many CCE solves at once with one stacked basis solve.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..core import (
    ActionDistribution,
    JointActionDistribution,
    PreferenceMatrix,
    _as_square,
)
from ..errors import GammaTooSmall, NotConverged
from . import _kernels_py

__all__ = [
    "FeasibilityReport",
    "solve_cce",
    "solve_zero_sum_nash",
    "solve_minmax_feasibility",
    "cce_deviation_matrix",
    "cce_violation",
    "zero_pivot_cces",
    "backend_name",
    "get_kernels",
]

# Every solver reads these at call time, so a test can patch them.
MAX_ITERATIONS = 50_000     # pivot or descent budget of one solve
VIOLATION_TOLERANCE = 1e-8  # worst violation a simplex solve may return


def get_kernels():
    """The kernel module the solvers call. They look it up on every solve,
    so tests and tracers can substitute it by patching this function."""
    return _kernels_py


def backend_name() -> str:
    return _kernels_py.BACKEND_NAME


@dataclass(frozen=True)
class FeasibilityReport:
    """Solver output: the point, its worst signed constraint violation
    (<= 0 means strictly feasible), the iterations used and the simplex's
    final basis (empty for the descent). A solver that does not converge
    raises NotConverged instead."""

    point: object
    max_violation: float
    iterations: int
    basis: tuple = ()


def _entries(m) -> np.ndarray:
    if isinstance(m, PreferenceMatrix):
        return m.entries
    return np.asarray(m, dtype=np.float64)


@functools.lru_cache(maxsize=32)
def _deviation_indices(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat cell indices (gain, base), each (2K, K^2), such that
    `cce_deviation_matrix(u) == u.ravel()[gain] - u.ravel()[base]`.
    Read-only."""
    dev, a, b = np.indices((k, k, k))
    gain = np.concatenate([dev * k + b, dev * k + a]).reshape(2 * k, k * k)
    base = np.concatenate([a * k + b, b * k + a]).reshape(2 * k, k * k)
    gain.flags.writeable = False
    base.flags.writeable = False
    return gain, base


def cce_deviation_matrix(u: np.ndarray) -> np.ndarray:
    """Deviation-gain rows for both CCE inequality families.

    Row a* (first K rows) holds, per joint cell (a, b), the gain
    u[a*, b] - u[a, b] of the row player deviating to pure a* against the
    right marginal; row K + b* the mirrored gain u[b*, a] - u[b, a] for the
    other player. A joint p is a CCE iff D p <= 0. A stack of matrices
    (S, K, K) gives the stack of their matrices (S, 2K, K^2).
    """
    gain, base = _deviation_indices(u.shape[-1])
    flat = u.reshape(u.shape[:-2] + (-1,))
    return flat.take(gain, axis=-1) - flat.take(base, axis=-1)


def cce_violation(u, joint) -> float:
    """Worst deviation gain of `joint` in the matrix game `u`.

    Independent arithmetic check (no solver internals): computes both
    inequality families directly from marginals.
    """
    ue = _entries(u)
    w = joint.weights if isinstance(joint, JointActionDistribution) else np.asarray(joint)
    value_row = float(np.sum(w * ue))
    value_col = float(np.sum(w * ue.T))
    right = w.sum(axis=0)
    left = w.sum(axis=1)
    dev_row = float((ue @ right).max())
    dev_col = float((ue @ left).max())
    return max(dev_row - value_row, dev_col - value_col)


def solve_cce(u) -> FeasibilityReport:
    """Find a coarse correlated equilibrium of the general-sum matrix `u`.

    Solved as a linear feasibility problem over the joint simplex (minimize
    the max violation of the 2K deviation constraints). A CCE always exists
    for a finite matrix, so NotConverged signals a solver bug.
    A matrix that is not square or has a non-finite entry raises ValueError.
    Every solve is a cold one; the report holds the simplex's final basis.
    """
    ue = _as_square(_entries(u))
    if not np.isfinite(ue).all():
        raise ValueError("matrix entries must be finite")
    k = ue.shape[0]
    dev = cce_deviation_matrix(ue)
    x, viol, iters, status, basis = get_kernels().epigraph_simplex(
        dev, MAX_ITERATIONS
    )
    if status != 0 or viol > VIOLATION_TOLERANCE:
        raise NotConverged(
            f"CCE solve stopped at violation {viol:.3e} "
            f"(tolerance {VIOLATION_TOLERANCE:.1e}) after {iters} pivots",
            max_violation=viol,
            iterations=iters,
        )
    joint = JointActionDistribution._unchecked(x.reshape(k, k))
    return FeasibilityReport(joint, viol, iters, basis)


def zero_pivot_cces(uppers: np.ndarray, bases: list) -> list:
    """The CCE solves that need no simplex pivot, for a stack of finite
    matrices (S, K, K) at once, each with the basis its caller holds.

    Entry i is the pure-point report `solve_cce` gives, or else the vertex
    of the full basis bases[i] if it is still a CCE within the tolerance,
    reported with that basis; None otherwise, when `solve_cce` pivots.
    This is the only test of a held basis.
    """
    k = uppers.shape[-1]
    solves = _kernels_py.zero_pivot_solves(cce_deviation_matrix(uppers), bases)
    return [None if solve is None else FeasibilityReport(
                JointActionDistribution._unchecked(solve[0].reshape(k, k)),
                solve[1], 0, solve[4])
            for solve in solves]


def solve_zero_sum_nash(p) -> FeasibilityReport:
    """Maximin strategy q of a skew-symmetric game: min_j (q^T P)_j >= -tol.

    The symmetric zero-sum game has value 0, so the maximin strategy makes
    every column payoff nonnegative.
    """
    pe = _entries(p)
    if not isinstance(p, PreferenceMatrix):
        pe = PreferenceMatrix(pe).entries  # validates skew-symmetry
    # (q^T P)_j >= 0 for all j  <=>  (P q)_j <= 0 for all j, by skew-symmetry
    q, viol, iters, status, basis = get_kernels().epigraph_simplex(
        pe.copy(), MAX_ITERATIONS
    )
    if status != 0 or viol > VIOLATION_TOLERANCE:
        raise NotConverged(
            f"zero-sum Nash solve stopped at violation {viol:.3e} "
            f"after {iters} pivots",
            max_violation=viol,
            iterations=iters,
        )
    return FeasibilityReport(ActionDistribution._unchecked(q), viol, iters, basis)


def minmax_rhs(k: int, gamma: float) -> float:
    """Per-constraint budget of the inverse-gap program."""
    return 5.0 * k / gamma


def minmax_slack(k: int, gamma: float) -> float:
    """Numerical-slack allowance beyond the budget (affects constants only)."""
    return k / gamma


def minmax_violations(y_hats: np.ndarray, points: np.ndarray,
                      gamma: float) -> np.ndarray:
    """Signed worst violation of the inverse-gap constraints
    (Y p)_i + (2/gamma) / p_i <= 5K/gamma, for a stack: (S, K, K)
    predictions Y and (S, K) points p give (S,).

    Each matrix-vector product is one (K, K) @ (K, 1) `np.matmul`, which
    gives the bits of the descent's `Y @ p` at its start.
    """
    g = np.matmul(y_hats, points[:, :, None])[:, :, 0]
    g += (2.0 / gamma) / points
    return g.max(axis=1) - minmax_rhs(points.shape[1], gamma)


def minmax_violation(y_hat, gamma: float, point) -> float:
    """Signed worst violation of the inverse-gap constraints at `point`."""
    pw = point.weights if isinstance(point, ActionDistribution) else np.asarray(point)
    return float(minmax_violations(_entries(y_hat)[None], pw[None], gamma)[0])


def solve_minmax_feasibility(
    y_hat,
    gamma: float,
    warm_start: np.ndarray | None = None,
) -> FeasibilityReport:
    """Find p on the floored simplex with, for every arm i,

        (Y p)_i + (2/gamma) / p_i  <=  5K/gamma  (+ slack K/gamma).

    Requires gamma >= 2K, under which a feasible point always exists; the
    solver targets half the slack and reports the violation it achieved.
    """
    ye = _entries(y_hat)
    if not isinstance(y_hat, PreferenceMatrix):
        ye = PreferenceMatrix(ye).entries
    k = ye.shape[0]
    if not 2.0 * k <= gamma < np.inf:
        raise GammaTooSmall(f"gamma={gamma} below 2K={2 * k} or not finite")
    # the floor keeps the feasibility proof's smoothed point, every
    # coordinate of which is >= 1/gamma; gamma >= 2K puts it below 1/K
    floor = 1.0 / (4.0 * gamma)
    rhs = minmax_rhs(k, gamma)
    slack = minmax_slack(k, gamma)
    eta0 = 1.0 / (gamma * k)
    p, viol, iters, status = get_kernels().minmax_descent(
        np.ascontiguousarray(ye),
        float(gamma),
        float(floor),
        float(rhs),
        slack / 2.0,
        eta0,
        MAX_ITERATIONS,
        None if warm_start is None else np.asarray(warm_start, dtype=np.float64),
    )
    if viol > slack:
        raise NotConverged(
            f"inverse-gap solve stopped at violation {viol:.3e} "
            f"(slack {slack:.3e}); feasibility is guaranteed, so this is a bug",
            max_violation=viol,
            iterations=iters,
        )
    return FeasibilityReport(ActionDistribution._unchecked(p), float(viol),
                             iters)

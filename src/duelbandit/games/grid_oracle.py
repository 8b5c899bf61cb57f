"""Brute-force grid oracles for cross-checking the solvers at K = 2.

These deliberately share no code with the solver kernels. The CCE oracle
enumerates the joint simplex exactly at a given resolution by intersecting
per-constraint feasible intervals along the last free coordinate, which is
equivalent to (and vastly cheaper than) visiting every grid point.
"""

from __future__ import annotations

import numpy as np

from . import cce_deviation_matrix, minmax_rhs

_I_BLOCK = 32  # values of the first coordinate enumerated per numpy pass


def cce_grid_min_violation(u: np.ndarray, resolution: float = 1e-3) -> float:
    """Minimum over the Delta_{2x2} grid of the worst CCE deviation gain.

    Only K = 2 is supported; larger K grids are out of reach for an honest
    enumeration and are not needed by the verification suite.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (2, 2):
        raise ValueError("grid oracle supports K = 2 only")
    n = int(round(1.0 / resolution))
    dev = cce_deviation_matrix(u)          # (4, 4): rows = constraints
    slope = (dev[:, 2] - dev[:, 3])[:, None] / n
    steps = np.arange(n + 1)
    best = np.inf
    # p = (i, j, k, n-i-j-k) / n over nonnegative integer compositions, a
    # block of i at a time (small enough to stay in cache) with every j;
    # for fixed (i, j) each constraint is affine in k.
    for i0 in range(0, n + 1, _I_BLOCK):
        i, j = np.nonzero(steps[i0:i0 + _I_BLOCK, None] + steps <= n)
        i += i0
        m = n - i - j                                     # mass left for k and n-i-j-k
        base = (i * dev[:, 0][:, None]
                + j[None, :] * dev[:, 1][:, None]
                + m[None, :] * dev[:, 3][:, None]) / n    # (4, pairs) at k=0
        # minimize over integer k in [0, m] of max_c (base_c + k * slope_c):
        # the max of affine functions is piecewise linear; its minimizer lies
        # at k=0, k=m, or adjacent to a pairwise crossing.
        cand = [np.zeros_like(m), m]
        for c1 in range(4):
            for c2 in range(c1 + 1, 4):
                ds = slope[c1, 0] - slope[c2, 0]
                if ds != 0.0:
                    kc = (base[c2] - base[c1]) / ds
                    kf = np.clip(np.floor(kc), 0, m)
                    cand.append(kf)
                    cand.append(np.clip(kf + 1, 0, m))
        for k in cand:
            vals = (base + k[None, :] * slope).max(axis=0)
            best = min(best, float(vals.min()))
    return best


def minmax_grid_min_violation(
    y: np.ndarray, gamma: float, resolution: float = 1e-3
) -> float:
    """Min over the Delta_2 grid of the worst inverse-gap constraint violation."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (2, 2):
        raise ValueError("grid oracle supports K = 2 only")
    n = int(round(1.0 / resolution))
    p0 = np.arange(1, n) / n              # interior points: 1/p must be finite
    p = np.stack([p0, 1.0 - p0])
    g = y @ p + (2.0 / gamma) / p
    return float(g.max(axis=0).min() - minmax_rhs(2, gamma))

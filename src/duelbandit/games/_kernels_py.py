"""Pure-numpy solver kernels, the hot loops behind the solvers:

  * epigraph_simplex -- minimize max_i (D x)_i over the simplex, the core
    of CCE and zero-sum Nash solves; it writes its first basis in closed
    form, runs its ratio tests on Python floats and returns its final
    basis too,
  * zero_pivot_solves -- the solves that need no pivot, for a stack of
    matrices at once: the pure point, or the warm vertex of a basis held
    from an earlier solve, found and checked in one pass over the held
    bases (the only test of a held basis),
  * minmax_descent   -- entropic mirror descent for the inverse-gap
    feasibility program on the floored simplex.

Status codes: 0 = converged, 1 = iteration budget exhausted.
"""

from __future__ import annotations

import functools
import math

import numpy as np

BACKEND_NAME = "python"

_RATIO_EPS = 1e-12
_COST_TOL = 1e-11
_WARM_TOL = 1e-12  # how far a warm vertex may miss x, s >= 0, D x <= 0
_PERTURBATION = 1e-10  # scale of the constraint rows' right-hand sides


@functools.lru_cache(maxsize=64)
def _tableau_template(m: int, n: int) -> np.ndarray:
    """The data-free part of the epigraph tableau: the -1 column of s, the
    slack identity, the row sum x = 1 and two right-hand sides.

    In the first, which the pivots read, the constraint rows hold the
    distinct positive constants delta_i = 1e-10 i / m rather than 0
    (Charnes 1952, "Optimality and degeneracy in linear programming").
    They break every ratio-test tie, so no basis repeats and Dantzig's rule
    alone terminates. The last column is the true right-hand side, e_m:
    the pivots carry it along, so the final basis's true vertex is read
    off it. Read-only; callers copy it.
    """
    ncol = n + 1 + m  # x vars, epigraph s, row slacks
    T = np.zeros((m + 1, ncol + 2))
    T[:m, n] = -1.0
    T[:m, n + 1:ncol] = np.eye(m)
    T[m, :n] = 1.0
    T[:m, ncol] = _PERTURBATION * np.arange(1, m + 1) / m
    T[m, ncol:] = 1.0
    T.flags.writeable = False
    return T


def _pivot(T: np.ndarray, r: int, c: int, col: np.ndarray,
           outer: np.ndarray) -> None:
    """Gauss-Jordan pivot on (r, c), in place.

    `col` (rows, 1) and `outer` (the tableau's shape) are scratch. The
    pivot row takes the rank-1 update too, with factor 0, which turns its
    -0.0 entries into +0.0; the sign of a zero can reach the returned x.
    """
    prow = T[r]
    prow /= prow.item(c)
    np.copyto(col, T[:, c:c + 1])
    col[r] = 0.0
    np.multiply(col, prow, out=outer)
    np.subtract(T, outer, out=T)


def _leaving_row(column: list, rhs: list) -> int:
    """The ratio test on Python floats: the first row with the smallest
    rhs[i] / column[i] among the entries column[i] > 1e-12, or -1 if there
    is none. A NaN or infinite ratio is never picked."""
    row, best = -1, math.inf
    for i, v in enumerate(column):
        if v > _RATIO_EPS:
            ratio = rhs[i] / v
            if ratio < best:
                row, best = i, ratio
    return row


def _pure_point(j0: int, top: float, m: int, n: int):
    """The pure point e_j0 as a finished solve, when column j0's largest
    entry `top` is the smallest column maximum and is <= 0; its basis is
    the row slacks and j0."""
    x = np.zeros(n)
    x[j0] = 1.0
    return x, top, 0, 0, (*range(n + 1, n + 1 + m), j0)


def zero_pivot_solves(Ds: np.ndarray, bases: list) -> list:
    """The solves that need no pivot, for a stack Ds (S, m, n) and S held
    bases at once; the only test of a held basis. Entry i is
    `epigraph_simplex`'s pure-point exit, or else the vertex of the full
    basis bases[i] in its unpivoted tableau, (x, max_violation, 0, 0,
    bases[i]), or None where seed i's solve needs pivots.

    A held vertex is kept if it is primal feasible within 1e-12 with
    s <= 1e-15, has positive mass and meets max(D_i x) <= 1e-12. The
    basis systems are solved by one stacked `np.linalg.solve`; if one of
    them is singular, each is solved alone and the singular ones fail
    every check. The checks run once over the whole warm stack: a stacked
    solve, row sum or `np.matmul` gives each seed the bits of its own 1-D
    call.
    """
    S, m, n = Ds.shape
    col_max = Ds.max(axis=1)
    j0s = col_max.argmin(axis=1).tolist()
    tops = col_max.min(axis=1).tolist()
    solves = [None] * S
    warm = []
    for i, (j0, top, basis) in enumerate(zip(j0s, tops, bases)):
        if top <= 0.0:
            solves[i] = _pure_point(j0, top, m, n)
        elif len(basis) == m + 1:
            warm.append(i)
    if not warm:
        return solves
    W = len(warm)
    Dw = Ds[warm] if W < S else Ds
    ncol = n + 1 + m
    template = _tableau_template(m, n)
    # the tableaux's columns (x vars, s, slacks) as rows
    columns = np.empty((W, ncol, m + 1))
    columns[:] = template[:, :ncol].T
    columns[:, :n, :m] = Dw.transpose(0, 2, 1)
    picks = np.array([bases[i] for i in warm])
    seed_rows = np.arange(W)[:, None]
    # row c of B^T is the tableau column picks[j][c]
    B = columns.reshape(W * ncol, m + 1).take(
        picks + seed_rows * ncol, axis=0).transpose(0, 2, 1)
    rhs = template[:, -1:]  # the true right-hand side e_m, one column
    try:
        values = np.linalg.solve(B, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        values = np.full((W, m + 1), np.nan)  # NaN rows fail every check
        for j in range(W):
            try:
                values[j] = np.linalg.solve(B[j], rhs[:, 0])
            except np.linalg.LinAlgError:
                pass
    # the basic solution in tableau columns, clipped at 0; its x part is
    # renormalized in place
    basic = np.zeros((W, ncol))
    basic[seed_rows, picks] = np.where(values < 0.0, 0.0, values)
    x = basic[:, :n]
    total = x.sum(axis=1)
    positive = total > 0
    np.divide(x, total[:, None], out=x, where=positive[:, None])
    viol = np.matmul(Dw, x[:, :, None])[:, :, 0].max(axis=1)
    # s is column n; the point itself is checked, so a NaN that reaches x
    # fails here
    held = ((values.min(axis=1) >= -_WARM_TOL) & (basic[:, n] <= 1e-15)
            & positive & (viol <= _WARM_TOL))
    for j in np.flatnonzero(held).tolist():
        i = warm[j]
        solves[i] = x[j], float(viol[j]), 0, 0, bases[i]
    return solves


def epigraph_simplex(D: np.ndarray, max_iter: int):
    """Minimize s subject to D x <= s 1, sum x = 1, x >= 0, s >= 0.

    Dantzig pivoting with first-index tie breaks on the perturbed
    right-hand side of `_tableau_template`; stops once the basic solution
    reaches s <= 1e-15. The returned point is the final basis's
    vertex for the true right-hand side. Returns (x, max_violation, pivots,
    status, basis), the basis a tuple of tableau columns, one per row (x
    vars, then s, then the row slacks).

    The first basis comes from two pivots, on (m, j0) and (i0, s), written
    out in closed form with the bits the rank-1 updates give: the sum row
    holds exact 1s, so the first subtracts column j0 from the x block and
    from both right-hand sides; s holds -1 in every constraint row, so the
    second subtracts row i0 from the others and negates row i0 as 0.0 - row
    (a -0.0 becomes +0.0). The ratio test of every later pivot runs on
    Python floats (`_leaving_row`).
    """
    D = np.ascontiguousarray(D, dtype=np.float64)
    m, n = D.shape
    col_max = D.max(axis=0)
    j0 = int(col_max.argmin())
    top = col_max.item(j0)
    if top <= 0.0:
        return _pure_point(j0, top, m, n)

    ncol = n + 1 + m  # x vars, epigraph s, row slacks
    rows = m + 1
    T = _tableau_template(m, n).copy()
    # pivot (m, j0): x_j0 enters in the sum row
    d0 = D[:, j0:j0 + 1]
    np.subtract(D, d0, out=T[:m, :n])
    T[:m, ncol:] -= d0
    # s enters where delta - D x_j0 is smallest, so the first basis is
    # feasible for the perturbed rows
    i0 = int(T[:m, ncol].argmin())
    # pivot (i0, n): s enters in row i0
    lead = T[i0].copy()
    T[:m] -= lead
    np.subtract(0.0, lead, out=T[i0])

    col = np.empty((rows, 1))
    outer = np.empty((rows, ncol + 2))
    rhs = T[:, ncol]  # perturbed
    basis = [*range(n + 1, n + 1 + m), j0]
    basis[i0] = n
    srow = i0  # the row where s is basic, -1 once it leaves

    it = 0
    status = 1
    while it < max_iter:
        it += 1
        if srow < 0:
            status = 0  # s = 0 is optimal
            break
        sval = T.item(srow, ncol)
        if sval <= 1e-15:
            status = 0
            break
        # The objective is c = e_s, so the reduced cost of column j is
        # -T[srow, j], and 0 for s itself: the entering column is the
        # largest entry of T[srow], if it is above the tolerance, with s's
        # own unit entry set to 0 during the search.
        cost_row = T[srow, :ncol]
        unit = cost_row.item(n)
        cost_row[n] = 0.0
        e = int(cost_row.argmax())
        improving = cost_row.item(e) > _COST_TOL
        cost_row[n] = unit
        if not improving:
            status = 0
            break
        r = _leaving_row(T[:, e].tolist(), rhs.tolist())
        if r < 0:
            # no positive entry: unbounded cannot happen here; treat as
            # optimal
            status = 0
            break
        _pivot(T, r, e, col, outer)
        basis[r] = e
        if r == srow:  # s leaves; it never enters, as its cost reads 0
            srow = -1

    point = [0.0] * n  # the x part, clipped at 0 and renormalized
    for j, value in zip(basis, T[:, -1].tolist()):
        if j < n:
            point[j] = 0.0 if value < 0.0 else value  # max(value, 0.0)
    x = np.array(point)
    total = x.sum()
    if total > 0:
        x /= total
    return x, float((D @ x).max()), it, status, tuple(basis)


def kl_project_floored(w: np.ndarray, floor: float) -> np.ndarray:
    """KL-projection of a simplex point onto {p : p_i >= floor, sum p = 1}."""
    k = w.shape[0]
    if k * floor >= 1.0:
        return np.full(k, 1.0 / k)
    if w.min() >= floor - 1e-15:
        return w.copy()  # what the loop returns at f = 0, where lambda = 1
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


def minmax_descent(Y: np.ndarray, gamma: float, floor: float, rhs: float,
                   stop_viol: float, eta0: float, max_iter: int,
                   warm: np.ndarray | None):
    """Entropic mirror descent on max_i [ (Y p)_i + (2/gamma)/p_i - rhs ].

    Polyak-style step (gap over squared sup-norm of the active subgradient),
    uniform (or warm) start, iterates kept on the floored simplex. Returns
    (best p, best signed violation, iterations, status).
    """
    K = Y.shape[0]
    if warm is not None:
        p = kl_project_floored(np.asarray(warm, dtype=np.float64), floor)
    else:
        p = np.full(K, 1.0 / K)
    inv_budget = 2.0 / gamma
    best_v = np.inf
    best_p = p
    eta_floor = eta0 / 4096.0
    status = 1
    it = 0
    while it <= max_iter:
        g = Y @ p + inv_budget / p
        i = int(g.argmax())
        viol = float(g[i] - rhs)
        if viol < best_v:
            best_v = viol
            best_p = p.copy()
        if best_v <= stop_viol:
            status = 0
            break
        if it == max_iter:
            break
        it += 1
        grad = Y[i].copy()
        grad[i] -= inv_budget / (p[i] * p[i])
        sup = float(np.abs(grad).max())
        gap = max(viol, stop_viol * 0.5)
        eta = gap / max(sup * sup, 1e-300)
        eta = min(max(eta, eta_floor), 1.0)
        z = grad - grad.min()
        w = p * np.exp(-eta * z)
        w /= w.sum()
        p = kl_project_floored(w, floor)
    return best_p, best_v, it, status

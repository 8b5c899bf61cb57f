"""Pure-numpy solver kernels, the hot loops behind the solvers:

  * epigraph_simplex -- minimize max_i (D x)_i over the simplex, i.e. the
    linear feasibility core behind CCE and zero-sum Nash solves,
  * minmax_descent   -- entropic mirror descent for the inverse-gap
    feasibility program on the floored simplex.

Status codes: 0 = converged, 1 = iteration budget exhausted.
"""

from __future__ import annotations

import functools

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

    `col` (rows,) and `outer` (the tableau's shape) are scratch. The pivot
    row takes the rank-1 update too, with factor 0, which turns its -0.0
    entries into +0.0; the sign of a zero can reach the returned x.
    """
    prow = T[r]
    prow /= prow[c]
    np.copyto(col, T[:, c])
    col[r] = 0.0
    np.multiply(col[:, None], prow, out=outer)
    np.subtract(T, outer, out=T)


def _basic_point(basis: list, values: list, n: int):
    """The x part of a basic solution, clipped at 0 and renormalized, and
    its sum before renormalizing."""
    point = [0.0] * n
    for j, value in zip(basis, values):
        if j < n:
            point[j] = 0.0 if value < 0.0 else value  # max(value, 0.0)
    x = np.array(point)
    total = x.sum()
    if total > 0:
        x /= total
    return x, total


def _warm_vertex(D: np.ndarray, T: np.ndarray, basis: list):
    """The vertex of `basis` in the unpivoted tableau `T`, as a finished
    solve, if it is primal feasible with s <= 1e-15 and its point meets
    max(D x) <= 0; otherwise None."""
    n = D.shape[1]
    try:
        values = np.linalg.solve(T.take(basis, axis=1), T[:, -1]).tolist()
    except np.linalg.LinAlgError:
        return None
    if min(values) < -_WARM_TOL:
        return None
    if n in basis and values[basis.index(n)] > 1e-15:
        return None
    x, total = _basic_point(basis, values, n)
    viol = float((D @ x).max())
    # the point itself is checked: a NaN that reaches x fails here
    if not (total > 0 and viol <= _WARM_TOL):
        return None
    return x, viol, 0, 0


def epigraph_simplex(D: np.ndarray, max_iter: int, basis: list | None = None):
    """Minimize s subject to D x <= s 1, sum x = 1, x >= 0, s >= 0.

    Dantzig pivoting with first-index tie breaks on the perturbed
    right-hand side of `_tableau_template`; stops once the basic solution
    reaches s <= 1e-15. The returned point is the final basis's
    vertex for the true right-hand side. Returns
    (x, max_violation, pivots, status).

    `basis`, if given, is a list of tableau columns, one per row (x vars,
    then s, then the row slacks), and holds the final basis on return. When
    it holds a full basis on entry, for instance the previous solve's on a
    nearby D, and that basis's vertex already has s <= 1e-15 and
    max(D x) <= 0, that vertex is returned with 0 pivots. Otherwise
    the solve starts cold, exactly as without a basis.
    """
    D = np.ascontiguousarray(D, dtype=np.float64)
    m, n = D.shape
    if basis is None:
        basis = []
    col_max = D.max(axis=0)
    j0 = int(col_max.argmin())
    if col_max[j0] <= 0.0:
        basis[:] = range(n + 1, n + 1 + m)
        basis.append(j0)
        x = np.zeros(n)
        x[j0] = 1.0
        return x, float(col_max[j0]), 0, 0

    ncol = n + 1 + m  # x vars, epigraph s, row slacks
    rows = m + 1
    template = _tableau_template(m, n)
    T = template.copy()
    T[:m, :n] = D
    if len(basis) == rows:
        warm = _warm_vertex(D, T, basis)
        if warm is not None:
            return warm
    # s enters where D x_j0 - delta is largest, so the first basis is
    # feasible for the perturbed rows
    i0 = int((D[:, j0] - template[:m, ncol]).argmax())
    col = np.empty(rows)
    outer = np.empty((rows, ncol + 2))
    ratios = np.empty(rows)
    pos = np.empty(rows, dtype=bool)
    rhs = T[:, ncol]  # perturbed
    basis[:] = range(n + 1, n + 1 + m)
    basis.append(j0)
    basis[i0] = n
    srow = i0  # the row where s is basic, -1 once it leaves

    _pivot(T, m, j0, col, outer)
    _pivot(T, i0, n, col, outer)

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
        unit = cost_row[n]
        cost_row[n] = 0.0
        e = int(cost_row.argmax())
        improving = cost_row[e] > _COST_TOL
        cost_row[n] = unit
        if not improving:
            status = 0
            break
        entering = T[:, e]
        np.greater(entering, _RATIO_EPS, out=pos)
        ratios.fill(np.inf)
        np.divide(rhs, entering, out=ratios, where=pos)
        r = int(ratios.argmin())
        if not pos[r]:
            # no positive entry, since a finite tableau has finite ratios:
            # unbounded cannot happen here; treat as optimal
            status = 0
            break
        _pivot(T, r, e, col, outer)
        basis[r] = e
        if e == n:
            srow = r
        elif r == srow:
            srow = -1

    x, _ = _basic_point(basis, T[:, -1].tolist(), n)
    return x, float((D @ x).max()), it, status


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

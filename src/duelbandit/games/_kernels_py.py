"""Pure-numpy solver kernels, the hot loops behind the solvers:

  * epigraph_simplex -- minimize max_i (D x)_i over the simplex, i.e. the
    linear feasibility core behind CCE and zero-sum Nash solves,
  * zero_pivot_solves -- its solves that need no pivot (the pure point or a
    held basis's warm vertex) for a stack of matrices at once,
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


def warm_vertices(Ds: np.ndarray, bases: list) -> list:
    """The vertex of each full basis in its unpivoted tableau, as a finished
    solve, for a stack Ds of shape (S, m, n) and S bases of m + 1 columns.

    Seed i gets (x, max_violation, 0, 0) if its vertex is primal feasible
    with s <= 1e-15 and its point meets max(D_i x) <= 0, and None otherwise.
    The basis systems are solved by one stacked `np.linalg.solve`; if one
    of them is singular, each is solved alone and the singular ones get
    None. The checks run on the whole stack too: a stacked solve, row sum
    or `np.matmul` gives each seed the bits of its own 1-D call.
    """
    S, m, n = Ds.shape
    ncol = n + 1 + m
    template = _tableau_template(m, n)
    # the tableaux's columns (x vars, s, slacks) as rows
    columns = np.empty((S, ncol, m + 1))
    columns[:] = template[:, :ncol].T
    columns[:, :n, :m] = Ds.transpose(0, 2, 1)
    picks = np.array(bases)
    seed_rows = np.arange(S)[:, None]
    # row c of B^T is the tableau column bases[i][c]
    B = columns.reshape(S * ncol, m + 1).take(
        picks + seed_rows * ncol, axis=0).transpose(0, 2, 1)
    rhs = template[:, -1:]  # the true right-hand side e_m, one column
    try:
        values = np.linalg.solve(B, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        values = np.full((S, m + 1), np.nan)  # NaN rows fail every check
        for i in range(S):
            try:
                values[i] = np.linalg.solve(B[i], rhs[:, 0])
            except np.linalg.LinAlgError:
                pass
    # the basic solution in tableau columns, clipped at 0
    basic = np.zeros((S, ncol))
    basic[seed_rows, picks] = np.where(values < 0.0, 0.0, values)
    # the seeds whose solution is primal feasible with s (column n) at
    # most 1e-15 go on to have their point checked
    kept = np.flatnonzero((values.min(axis=1) >= -_WARM_TOL)
                          & (basic[:, n] <= 1e-15))
    x = basic[kept, :n]
    total = x.sum(axis=1)
    positive = total > 0
    np.divide(x, total[:, None], out=x, where=positive[:, None])
    viol = np.matmul(Ds[kept], x[:, :, None])[:, :, 0].max(axis=1)
    vertices = [None] * S
    # the point itself is checked: a NaN that reaches x fails here
    for j in np.flatnonzero(positive & (viol <= _WARM_TOL)).tolist():
        vertices[int(kept[j])] = x[j], float(viol[j]), 0, 0
    return vertices


def _pure_point(basis: list, j0: int, top: float, m: int, n: int):
    """The pure point e_j0 as a finished solve, when column j0's largest
    entry `top` is the smallest column maximum and is <= 0; the basis
    becomes the row slacks and j0."""
    basis[:] = range(n + 1, n + 1 + m)
    basis.append(j0)
    x = np.zeros(n)
    x[j0] = 1.0
    return x, top, 0, 0


def zero_pivot_solves(Ds: np.ndarray, bases: list) -> list:
    """What `epigraph_simplex(D, ..., basis)` returns with 0 pivots, for a
    stack Ds (S, m, n) and S basis lists at once: the pure point, or the
    warm vertex of a full basis, checked by one stacked `warm_vertices`.
    Entry i is None where seed i's solve needs pivots; its basis is then
    left as it was."""
    S, m, n = Ds.shape
    col_max = Ds.max(axis=1)
    j0s = col_max.argmin(axis=1).tolist()
    tops = col_max.min(axis=1).tolist()
    solves = [None] * S
    warm = []
    for i, (j0, top, basis) in enumerate(zip(j0s, tops, bases)):
        if top <= 0.0:
            solves[i] = _pure_point(basis, j0, top, m, n)
        elif len(basis) == m + 1:
            warm.append(i)
    if warm:
        vertices = warm_vertices(Ds[warm] if len(warm) < S else Ds,
                                 [bases[i] for i in warm])
        for i, vertex in zip(warm, vertices):
            solves[i] = vertex
    return solves


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
        return _pure_point(basis, j0, float(col_max[j0]), m, n)
    if len(basis) == m + 1:
        warm = warm_vertices(D[None], [basis])[0]
        if warm is not None:
            return warm

    ncol = n + 1 + m  # x vars, epigraph s, row slacks
    rows = m + 1
    template = _tableau_template(m, n)
    T = template.copy()
    T[:m, :n] = D
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

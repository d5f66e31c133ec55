"""Small dense simplex solver.

Maximizes c.x subject to A_eq x = b_eq, A_ub x <= b_ub, x >= 0, using a
two-phase dense tableau with Bland's anti-cycling rule. Problem sizes in
this toolkit stay tiny (tens of variables), so clarity and determinism win
over sparse machinery.

``solve_lp_batch`` runs the same algorithm on a stack of same-shape
problems at once: every entering choice, ratio test and row update is the
scalar one applied per problem, so each result is byte-identical to
``solve_lp`` on that problem alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import LpNumericalFailure

_TOL = 1e-9


@dataclass
class LpResult:
    status: str           # "optimal" | "unbounded" | "infeasible"
    objective: float
    x: np.ndarray         # original variables only


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    for r in range(tab.shape[0]):
        if r != row and abs(tab[r, col]) > 0.0:
            tab[r] -= tab[r, col] * tab[row]
    basis[row] = col


def _bland_iterate(tab: np.ndarray, basis: list[int], cost: np.ndarray,
                   ncols: int, maxiter: int) -> str:
    """Run simplex iterations on the tableau for the given cost row.

    ``cost`` is the current reduced-cost row (to be maximized). Mutates
    tab/basis/cost in place. Returns "optimal" or "unbounded".
    """
    m = tab.shape[0]
    for _ in range(maxiter):
        enter = -1
        for j in range(ncols):
            if cost[j] > _TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        # min ratio, Bland tie-break on basis variable index
        leave, best, best_var = -1, np.inf, -1
        for r in range(m):
            a = tab[r, enter]
            if a > _TOL:
                ratio = tab[r, -1] / a
                if ratio < best - _TOL or (abs(ratio - best) <= _TOL and basis[r] < best_var):
                    leave, best, best_var = r, ratio, basis[r]
        if leave < 0:
            return "unbounded"
        _pivot(tab, basis, leave, enter)
        cost -= cost[enter] * tab[leave]
    raise LpNumericalFailure(
        f"simplex exceeded {maxiter} iterations; basis={basis}"
    )


def solve_lp(
    c: np.ndarray,
    a_eq: np.ndarray | None = None,
    b_eq: np.ndarray | None = None,
    a_ub: np.ndarray | None = None,
    b_ub: np.ndarray | None = None,
) -> LpResult:
    """Maximize c.x with equality/inequality constraints and x >= 0."""
    c = np.asarray(c, dtype=float)
    n = c.size
    rows = []
    rhs = []
    n_slack = 0
    slack_of_row = []
    if a_eq is not None and len(np.atleast_1d(b_eq)) > 0:
        a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
        for i, bi in enumerate(np.atleast_1d(np.asarray(b_eq, dtype=float))):
            rows.append(a_eq[i].copy())
            rhs.append(float(bi))
            slack_of_row.append(-1)
    if a_ub is not None and len(np.atleast_1d(b_ub)) > 0:
        a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
        for i, bi in enumerate(np.atleast_1d(np.asarray(b_ub, dtype=float))):
            rows.append(a_ub[i].copy())
            rhs.append(float(bi))
            slack_of_row.append(n_slack)
            n_slack += 1
    m = len(rows)
    if m == 0:
        # unconstrained beyond x >= 0: bounded only if no positive cost
        if np.any(c > _TOL):
            return LpResult("unbounded", np.inf, np.zeros(n))
        return LpResult("optimal", 0.0, np.zeros(n))

    ncols = n + n_slack
    tab = np.zeros((m, ncols + m + 1))
    basis = [-1] * m
    need_artificial = []
    for r in range(m):
        a = rows[r]
        b = rhs[r]
        sl = slack_of_row[r]
        sign = 1.0
        if b < 0.0:
            sign = -1.0
            b = -b
            a = -a
        tab[r, :n] = a
        if sl >= 0:
            tab[r, n + sl] = sign
        tab[r, -1] = b
        if sl >= 0 and sign > 0:
            basis[r] = n + sl
        else:
            need_artificial.append(r)

    # phase 1: artificial columns for rows lacking a basic variable
    art_cols = []
    for r in need_artificial:
        col = ncols + len(art_cols)
        tab[r, col] = 1.0
        basis[r] = col
        art_cols.append(col)
    total_cols = ncols + len(art_cols)
    work = tab[:, list(range(total_cols)) + [-1]].copy()

    maxiter = 200 * (total_cols + m + 1)
    if art_cols:
        cost1 = np.zeros(total_cols + 1)
        for col in art_cols:
            cost1[col] = -1.0
        for r in range(m):
            if basis[r] in art_cols:
                cost1 += work[r]   # price out the basic artificials
        status = _bland_iterate(work, basis, cost1, ncols, maxiter)
        if status != "optimal" or cost1[-1] > 1e-7:
            return LpResult("infeasible", np.nan, np.full(n, np.nan))
        # drive leftover zero-value artificials out of the basis
        for r in range(m):
            if basis[r] >= ncols:
                for j in range(ncols):
                    if abs(work[r, j]) > _TOL:
                        _pivot(work, basis, r, j)
                        break

    # phase 2
    cost2 = np.zeros(total_cols + 1)
    cost2[:n] = c
    for col in art_cols:
        cost2[col] = -1e18  # never re-enter
    for r in range(m):
        cost2 -= cost2[basis[r]] * work[r]
    status = _bland_iterate(work, basis, cost2, ncols, maxiter)
    if status == "unbounded":
        return LpResult("unbounded", np.inf, np.full(n, np.nan))

    x = np.zeros(total_cols)
    for r in range(m):
        if basis[r] < total_cols:
            x[basis[r]] = work[r, -1]
    return LpResult("optimal", float(c @ x[:n]), x[:n])


# ---------------------------------------------------------------------------
# batched solver
# ---------------------------------------------------------------------------

def _pivot_batch(tab: np.ndarray, basis: np.ndarray, rows: np.ndarray,
                 cols: np.ndarray, active: np.ndarray) -> None:
    """``_pivot`` on the active problems of the stack, problem k at
    (rows[k], cols[k]); the other problems are left untouched."""
    k = np.arange(tab.shape[0])
    prow = tab[k, rows]
    np.divide(prow, prow[k, cols][:, None], out=prow, where=active[:, None])
    tab[k, rows] = prow
    factor = tab[k, :, cols]
    # like the scalar loop, rows with a zero factor are left untouched
    touch = (np.abs(factor) > 0.0) & active[:, None]
    touch[k, rows] = False
    p, r = np.nonzero(touch)
    update = prow[p]
    update *= factor[p, r, None]
    tab[p, r] -= update
    basis[k, rows] = np.where(active, cols, basis[k, rows])


def _bland_iterate_batch(tab: np.ndarray, basis: np.ndarray, cost: np.ndarray,
                         ncols: int, maxiter: np.ndarray) -> np.ndarray:
    """``_bland_iterate`` on a stack of tableaux; True where optimal,
    False where unbounded.

    Finished problems are frozen; once they make up half of the working
    set they are written back and compacted out of it.
    """
    optimal = np.zeros(tab.shape[0], dtype=bool)
    live = np.arange(tab.shape[0])           # stack index of each working problem
    running = np.ones(live.size, dtype=bool)
    t, bas, cst = tab, basis, cost

    def write_back():
        if t is not tab:
            tab[live], basis[live], cost[live] = t, bas, cst

    for it in itertools.count():
        if np.any(maxiter[live[running]] <= it):
            raise LpNumericalFailure(f"simplex exceeded {it} iterations")
        positive = cst[:, :ncols] > _TOL
        has_enter = positive.any(axis=1)
        enter = positive.argmax(axis=1)
        # min ratio, Bland tie-break on basis variable index, row by row as
        # in the scalar loop
        k = np.arange(live.size)
        column = t[k, :, enter]
        eligible = (column > _TOL) & (running & has_enter)[:, None]
        ratios = np.divide(t[:, :, -1], column, out=np.zeros_like(column), where=eligible)
        leave = np.full(live.size, -1)
        best = np.full(live.size, np.inf)
        best_var = np.full(live.size, -1)
        for r in np.flatnonzero(eligible.any(axis=0)):
            ratio, var = ratios[:, r], bas[:, r]
            take = eligible[:, r] & ((ratio < best - _TOL)
                                     | ((np.abs(ratio - best) <= _TOL) & (var < best_var)))
            leave[take] = r
            np.copyto(best, ratio, where=take)
            np.copyto(best_var, var, where=take)
        go = running & has_enter & (leave >= 0)
        done = running & ~go
        optimal[live[done]] = ~has_enter[done]
        running = go
        if not running.any():
            write_back()
            return optimal
        if 2 * np.count_nonzero(running) <= live.size:
            write_back()
            live, t, bas, cst = live[running], t[running], bas[running], cst[running]
            enter, leave, running = enter[go], leave[go], running[go]
            k = np.arange(live.size)
        _pivot_batch(t, bas, leave, enter, running)
        np.subtract(cst, cst[k, enter][:, None] * t[k, leave], out=cst,
                    where=running[:, None])


def solve_lp_batch(
    c: np.ndarray,
    a_eq: np.ndarray | None = None,
    b_eq: np.ndarray | None = None,
    a_ub: np.ndarray | None = None,
    b_ub: np.ndarray | None = None,
) -> list[LpResult]:
    """``solve_lp`` for a stack of same-shape problems.

    Every argument carries a leading batch axis (c: B x n, a_eq: B x m_eq x n,
    b_eq: B x m_eq, and likewise for the inequalities). Result k is
    byte-identical to ``solve_lp`` on problem k alone.
    """
    c = np.asarray(c, dtype=float)
    nb, n = c.shape
    n_eq = np.shape(b_eq)[-1] if a_eq is not None and b_eq is not None else 0
    n_slack = np.shape(b_ub)[-1] if a_ub is not None and b_ub is not None else 0
    m = n_eq + n_slack
    if m == 0:
        return [solve_lp(ci) for ci in c]

    # rows whose rhs is negative are negated; those rows and the equality
    # rows need an artificial variable
    b = np.zeros((nb, m))
    if n_eq:
        b[:, :n_eq] = b_eq
    if n_slack:
        b[:, n_eq:] = b_ub
    neg = b < 0.0
    need_art = neg.copy()
    need_art[:, :n_eq] = True
    # one artificial column per row that needs one in any problem of the
    # stack; the columns keep the row order, as the scalar solver's do
    art_rows = np.flatnonzero(need_art.any(axis=0))
    is_art = need_art[:, art_rows]          # problem uses artificial column i
    slot = np.zeros(m, dtype=int)
    slot[art_rows] = np.arange(art_rows.size)
    ncols = n + n_slack
    rows, slack = np.arange(m), np.arange(n_slack)
    work = np.zeros((nb, m, ncols + art_rows.size + 1))
    if n_eq:
        work[:, :n_eq, :n] = a_eq
    if n_slack:
        work[:, n_eq:, :n] = a_ub
        work[:, n_eq + slack, n + slack] = np.where(neg[:, n_eq:], -1.0, 1.0)
    # (not np.negative(lhs, out=lhs, where=...): numpy 2.4.6 computes masked
    # in-place ufuncs wrong on strided views such as a one-column slice)
    lhs = work[:, :, :n]
    lhs[neg] = -lhs[neg]
    work[:, :, -1] = np.where(neg, -b, b)
    work[:, art_rows, ncols + slot[art_rows]] = is_art
    basis = np.where(need_art, ncols + slot, n - n_eq + rows)
    maxiter = 200 * (ncols + need_art.sum(axis=1) + m + 1)

    # phase 1; a problem without artificial columns has a zero cost row and
    # stops at once, as if the phase were skipped
    cost1 = np.zeros((nb, work.shape[2]))
    cost1[:, ncols:-1] = np.where(is_art, -1.0, 0.0)
    for r in range(m):
        np.add(cost1, work[:, r], out=cost1, where=need_art[:, r, None])
    optimal = _bland_iterate_batch(work, basis, cost1, ncols, maxiter)
    feasible = optimal & ~(cost1[:, -1] > 1e-7)
    # drive leftover zero-value artificials out of the basis
    for r in range(m):
        big = np.abs(work[:, r, :ncols]) > _TOL
        drive = feasible & (basis[:, r] >= ncols) & big.any(axis=1)
        if drive.any():
            _pivot_batch(work, basis, np.full(nb, r), big.argmax(axis=1), drive)

    # phase 2
    p2 = np.flatnonzero(feasible)
    t, bs = (work, basis) if p2.size == nb else (work[p2], basis[p2])
    k = np.arange(p2.size)
    cost2 = np.zeros((p2.size, work.shape[2]))
    cost2[:, :n] = c[p2]
    cost2[:, ncols:-1] = np.where(is_art[p2], -1e18, 0.0)  # never re-enter
    for r in range(m):
        cost2 -= cost2[k, bs[:, r]][:, None] * t[:, r]
    optimal = _bland_iterate_batch(t, bs, cost2, ncols, maxiter[p2])
    x = np.zeros((p2.size, t.shape[2] - 1))
    x[k[:, None], bs] = t[:, :, -1]

    results = [LpResult("infeasible", np.nan, np.full(n, np.nan)) for _ in range(nb)]
    for i, j in enumerate(p2):
        if optimal[i]:
            xi = x[i, :n].copy()
            results[j] = LpResult("optimal", float(c[j] @ xi), xi)
        else:
            results[j] = LpResult("unbounded", np.inf, np.full(n, np.nan))
    return results

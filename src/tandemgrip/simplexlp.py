"""Small dense simplex solver.

Maximizes c.x subject to A_eq x = b_eq, A_ub x <= b_ub, x >= 0, using a
two-phase dense tableau with Bland's anti-cycling rule. Problem sizes in
this toolkit stay tiny (tens of variables), so clarity and determinism win
over sparse machinery.

There is one two-phase driver, a scalar kernel and a stacked kernel. The
driver (``_solve``) builds the tableaux of a stack of same-shape problems,
runs both phases and reads off the results; a kernel is the Bland
iteration and the pivot it runs them with. ``solve_lp`` is the driver on a
stack of one problem with the scalar kernel (``_bland_iterate``,
``_pivot``). ``solve_lp_batch`` runs the stacked kernel: every entering
choice, leaving row and row update is the scalar one applied per problem,
so each result is byte-identical to ``solve_lp`` on that problem alone. Its
ratio test is one min/argmin per iteration over the whole stack; only a
problem whose ratios lie within a few tolerances of each other, where the
scalar scan's row order can matter, is scanned row by row.

A ``WarmStack`` re-solves a stack of problems, kept in ``standard_form``,
each from its last optimal basis (LP sensitivity analysis; Chvatal, *Linear
Programming*, 1983, ch. 10). Its basis kernel accepts a basis that is primal
and dual feasible. The matrix step (``_basis_inverse``) gives the duals and
does not read b; the right-hand-side step (``_rhs_step``) gives the primal
values. A rejected basis restarts (``_restart``); the rest go cold.
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
    # final basic variable of each constraint row (equality rows first):
    # j < n is x[j], n + i is the slack of inequality row i, and a larger
    # index is an artificial, numbered in row order among the rows that
    # needed one
    basis: tuple[int, ...]


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    # one update of every other row with a non-zero factor: the pivot row
    # does not change meanwhile, so each row gets the update it gets alone
    factor = tab[:, col]
    touch = np.abs(factor) > 0.0
    touch[row] = False
    rows = np.flatnonzero(touch)
    tab[rows] -= factor[rows, None] * tab[row]
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


def _iterate_one(tab: np.ndarray, basis: np.ndarray, cost: np.ndarray, ncols: int,
                 maxiter: np.ndarray) -> np.ndarray:
    """``_bland_iterate`` with ``_bland_iterate_batch``'s arguments, on a
    stack of one problem."""
    bas = basis[0].tolist()
    status = _bland_iterate(tab[0], bas, cost[0], ncols, int(maxiter[0]))
    basis[0] = bas
    return np.array([status == "optimal"])


def _pivot_one(tab: np.ndarray, basis: np.ndarray, rows: np.ndarray, cols: np.ndarray,
               active: np.ndarray) -> None:
    """``_pivot`` with ``_pivot_batch``'s arguments, on a stack of one problem."""
    if active[0]:
        _pivot(tab[0], basis[0], int(rows[0]), int(cols[0]))


def _one(*args) -> list:
    """One problem's arguments as a stack of one; None stays None."""
    return [None if v is None else np.asarray(v, dtype=float)[None] for v in args]


def _block(name: str, a, b, nb: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One constraint block (``name``: "eq" or "ub") of a stack of ``nb``
    problems in ``n`` variables as (nb, m, n) rows and (nb, m) right-hand
    sides. A block whose parts are both absent or both empty has no rows; a
    block with rows in one part only, or with rows and right-hand sides of
    different counts, raises ``ValueError``."""
    has_b = b is not None and np.size(b) > 0
    # (with no variables the row count of ``a`` cannot be inferred)
    has_a = a is not None and (np.size(a) > 0 or (n == 0 and has_b))
    if has_a != has_b:
        given, other = ("a", "b") if has_a else ("b", "a")
        raise ValueError(f"{given}_{name} has rows but {other}_{name} has none")
    if not has_b:
        return np.zeros((nb, 0, n)), np.zeros((nb, 0))
    b = np.asarray(b, dtype=float).reshape(nb, -1)
    a = np.asarray(a, dtype=float).reshape(nb, -1, n) if n else np.zeros((nb, b.shape[1], 0))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"a_{name} and b_{name} must have one row count, "
                         f"got {a.shape[1]} and {b.shape[1]}")
    return a, b


def solve_lp(
    c: np.ndarray,
    a_eq: np.ndarray | None = None,
    b_eq: np.ndarray | None = None,
    a_ub: np.ndarray | None = None,
    b_ub: np.ndarray | None = None,
) -> LpResult:
    """Maximize c.x with equality/inequality constraints and x >= 0."""
    return _solve(*_one(c, a_eq, b_eq, a_ub, b_ub), _iterate_one, _pivot_one)[0]


def standard_form(c, a_eq, b_eq, a_ub, b_ub) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stack of problems (``solve_lp_batch``'s arguments) as max cost.x st
    a x = b, x >= 0: a = [A_eq 0; A_ub I], b = [b_eq; b_ub], cost = [c 0]."""
    c = np.asarray(c, dtype=float)
    nb, n = c.shape
    (a_eq, b_eq), (a_ub, b_ub) = _block("eq", a_eq, b_eq, nb, n), _block("ub", a_ub, b_ub, nb, n)
    m_eq, n_slack = b_eq.shape[1], b_ub.shape[1]
    a = np.zeros((nb, m_eq + n_slack, n + n_slack))
    a[:, :m_eq, :n], a[:, m_eq:, :n], a[:, m_eq:, n:] = a_eq, a_ub, np.eye(n_slack)
    return a, np.concatenate([b_eq, b_ub], 1), np.concatenate([c, np.zeros((nb, n_slack))], 1)


def _basis_state(cost, bases, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the matrix step reads of a stack's bases (of ``m`` rows): where each is
    valid, the int basis array (zeros where not) and c_B, the basic columns' costs."""
    nb, ncols = cost.shape
    ok = np.array([len(bk) == m > 0 and 0 <= min(bk) <= max(bk) < ncols for bk in bases], bool)
    bas = np.array([bk if good else [0] * m for bk, good in zip(bases, ok)], int).reshape(nb, m)
    return ok, bas, cost[np.arange(nb)[:, None], bas]


def _basis_inverse(a, cost, state) -> tuple[np.ndarray, np.ndarray]:
    """The basis kernel's matrix step, on a and cost only: where each
    standard-form problem's basis (``state``: the stack's ``_basis_state``) is
    dual feasible, and the basis inverses B^-1.

    With the duals y = c_B B^-1 a basis is dual feasible if every reduced cost
    c - y A <= tol. A basis of another length, with an artificial or with a
    singular B is rejected alone, and its inverse reads NaN. The inverse and
    the matmuls make one problem's LAPACK and BLAS calls per problem, so each
    result is the problem's alone.
    """
    nb, m, ncols = a.shape
    ok, bas, c_b = state
    # a rejected basis reads column 0 and gets B = I: no index out of range, no singular stack
    mat = a[np.arange(nb)[:, None], :, bas].transpose(0, 2, 1)   # the basis columns
    if not ok.all():
        mat[~ok] = np.eye(m)
    try:
        b_inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError:   # a singular B: invert each problem alone
        b_inv = np.empty((nb, m, m))   # C order, as the stacked inverse returns it
        ok = ok.copy()
        for i in range(nb):
            try:
                b_inv[i] = np.linalg.inv(mat[i])
            except np.linalg.LinAlgError:
                ok[i] = False
    if not ok.all():
        b_inv[~ok] = np.nan
    reduced = cost - ((c_b[:, None] @ b_inv) @ a)[:, 0]
    return ok & (reduced <= _TOL).all(axis=1), b_inv   # (NaN fails the test)


def _rhs_step(b, inverse) -> tuple[np.ndarray, np.ndarray]:
    """The basis kernel's right-hand-side step after the matrix step ``inverse``: where
    each basis is optimal (dual feasible, and x_B >= -tol), and x_B = B^-1 b."""
    ok, b_inv = inverse
    x_b = (b_inv @ b[:, :, None])[:, :, 0]
    return ok & (x_b >= -_TOL).all(axis=1), x_b


def _restart(a, b, cost, basis, b_inv: np.ndarray) -> tuple[int, ...] | None:
    """The basis one standard-form problem reaches from a basis the basis
    kernel rejected, on the tableau B^-1 [A | b] and reduced costs d of that
    basis' ``b_inv``; None where it must be solved cold.

    A dual feasible basis runs the dual simplex (Lemke, *Naval Res. Logist.
    Q.* 1(1), 1954) with Bland's rule: the row of the smallest basic index
    with x_B < -tol leaves, and the smallest ratio d_j / T_rj over
    T_rj < -tol enters, ties to the smaller j. A primal feasible one runs
    phase 2 with the scalar kernel. Neither, or an LP found infeasible or
    unbounded, goes cold.
    """
    m, ncols = a.shape
    bas = list(basis)
    tab = b_inv @ np.concatenate([a, b[:, None]], axis=1)
    d = np.append(cost, 0.0) - cost[bas] @ tab
    maxiter = 200 * (ncols + m + 1)
    if np.all(d[:ncols] <= _TOL):
        for _ in range(maxiter):
            short = np.flatnonzero(tab[:, -1] < -_TOL)
            if not short.size:
                return tuple(bas)
            r = min(short, key=bas.__getitem__)
            enter = np.flatnonzero(tab[r, :ncols] < -_TOL)
            if not enter.size:
                return None
            j = int(enter[np.argmin(d[enter] / tab[r, enter])])
            _pivot(tab, bas, r, j)
            d -= d[j] * tab[r]
        raise LpNumericalFailure(f"dual simplex exceeded {maxiter} iterations; basis={bas}")
    if np.all(tab[:, -1] >= -_TOL) and _bland_iterate(tab, bas, d, ncols, maxiter) == "optimal":
        return tuple(bas)
    return None


class WarmStack:
    """A stack of problems (``solve_lp_batch``'s arguments) re-solved from their
    last optimal bases after A or b moved in place in ``lp``, the stack's views
    into its ``standard_form`` (``form``: a, b, cost); c stays. Kept until a basis
    changes: the bases, what the matrix step reads of them and x_j's place in x_B."""

    def __init__(self, c, a_eq, b_eq, a_ub, b_ub, j: int):
        self.form = a, b, cost = standard_form(c, a_eq, b_eq, a_ub, b_ub)
        n = np.shape(c)[1]
        m_eq = a.shape[1] + n - a.shape[2]
        self.lp = cost[:, :n], a[:, :m_eq, :n], b[:, :m_eq], a[:, m_eq:, :n], b[:, m_eq:]
        self.j = range(n)[j]
        self._keep([()] * len(a))

    def _keep(self, bases: list[tuple[int, ...]]) -> None:
        a, _, cost = self.form
        self.bases, self.inverse, self.state = bases, None, _basis_state(cost, bases, a.shape[1])
        hit = self.state[1] == self.j
        self.at = np.arange(len(a)) * a.shape[1] + hit.argmax(axis=1)   # in x_B, flat
        self.basic = hit.any(axis=1).tolist()

    def values(self, matrix_moved: bool) -> list[float]:
        """x_j of every problem at its optimum; the matrix step is kept while the
        bases hold and A did not move (``matrix_moved``). A cold solve that is
        not optimal raises ``LpNumericalFailure``."""
        a, b, cost = self.form
        if self.inverse is None or matrix_moved:
            self.inverse = _basis_inverse(a, cost, self.state)
        ok, x_b = _rhs_step(b, self.inverse)
        out = [v if basic else 0.0 for v, basic in zip(x_b.take(self.at).tolist(), self.basic)]
        if ok.all():
            return out
        bases, b_inv = list(self.bases), self.inverse[1]
        cold, again = np.flatnonzero(~ok).tolist(), []
        for k in cold:   # (a basis the kernel could not invert at all has a NaN inverse)
            new = np.isfinite(b_inv[k]).all() and _restart(a[k], b[k], cost[k], bases[k], b_inv[k])
            if new:
                bases[k] = new
                again.append(k)
        state = _basis_state(cost[again], [bases[k] for k in again], a.shape[1])
        warm, x_b = _rhs_step(b[again], _basis_inverse(a[again], cost[again], state))
        x = np.zeros((len(again), a.shape[2]))
        x[np.arange(len(again))[:, None], state[1]] = x_b
        for k, v in itertools.compress(zip(again, x[:, self.j].tolist()), warm):
            out[k] = v
            cold.remove(k)
        for k in cold:
            res = solve_lp(*(v[k] for v in self.lp))
            if res.status != "optimal":
                raise LpNumericalFailure(f"problem {k} of the stack ended {res.status}")
            out[k], bases[k] = float(res.x[self.j]), res.basis
        if bases != self.bases:
            self._keep(bases)
        return out


# ---------------------------------------------------------------------------
# batched solver
# ---------------------------------------------------------------------------

def _pivot_batch(tab: np.ndarray, basis: np.ndarray, rows: np.ndarray,
                 cols: np.ndarray, active: np.ndarray) -> None:
    """``_pivot`` on the active problems of the stack, problem k at
    (rows[k], cols[k]); the other problems are left untouched."""
    k = np.arange(tab.shape[0])
    prow = tab[k, rows]
    # x / 1.0 is x bit for bit, so inactive rows divide by 1
    prow /= np.where(active, prow[k, cols], 1.0)[:, None]
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


def _bland_scan(ratios: np.ndarray, bas: np.ndarray, eligible: np.ndarray) -> np.ndarray:
    """The scalar loop's leaving row for each problem of a stack: the
    min-ratio test with Bland's tie-break, row by row; -1 where no row is
    taken. Only eligible ratios are compared, so a stack may hold any value
    in the other entries."""
    leave = np.full(len(ratios), -1)
    best = np.full(len(ratios), np.inf)
    best_var = np.full(len(ratios), -1)
    for r in np.flatnonzero(eligible.any(axis=0)):
        e = np.flatnonzero(eligible[:, r])
        ratio, var, cur = ratios[e, r], bas[e, r], best[e]
        take = (ratio < cur - _TOL) | ((np.abs(ratio - cur) <= _TOL) & (var < best_var[e]))
        e = e[take]
        leave[e], best[e], best_var[e] = r, ratio[take], var[take]
    return leave


def _bland_iterate_batch(tab: np.ndarray, basis: np.ndarray, cost: np.ndarray,
                         ncols: int, maxiter: np.ndarray) -> np.ndarray:
    """``_bland_iterate`` on a stack of tableaux; True where optimal,
    False where unbounded.

    Finished problems are frozen; once they make up half of the working
    set they are written back and compacted out of it.

    The ratio test is one vectorised step. Take a problem's smallest
    eligible ratio ``rmin`` and its near set N, the eligible rows with ratio
    <= rmin + tol/2; every other eligible ratio is either in the gap
    (rmin + tol/2, rmin + 3 tol] or far, above it. The scalar loop scans the
    rows in order, takes a row whose ratio is below best - tol, and breaks a
    tie (|ratio - best| <= tol) by the smaller basis index. When the gap is
    empty it ends on the row of N with the smallest basis index:
      - the first row of N it meets is taken, as best is then inf or far,
        more than 2.5 tol above it;
      - from then on best stays in N: a far ratio is more than 2.5 tol
        above it, so neither below it nor tied;
      - every later row of N ties with best (they are within tol/2 of each
        other), so the smaller basis index wins.
    These margins hold in floating point while |rmin| <= 1e6 (< 2**20): one
    rounding of a value there moves it by at most 2**-34 < 0.06 tol. With
    rmin = inf no row is taken, as in the scalar loop. A problem whose gap
    is not empty, or whose rmin is NaN, -inf or beyond 1e6 in magnitude,
    goes through the row-by-row scan (``_bland_scan``); in campaigns that
    is almost never. Every leaving row, and so every basis and result, is
    the scalar one.
    """
    optimal = np.zeros(tab.shape[0], dtype=bool)
    live = np.arange(tab.shape[0])           # stack index of each working problem
    running = np.ones(live.size, dtype=bool)
    t, bas, cst = tab, basis, cost
    big = tab.shape[2]                       # above every basis index

    def write_back():
        if t is not tab:
            tab[live], basis[live], cost[live] = t, bas, cst

    for it in itertools.count():
        if np.any(maxiter[live[running]] <= it):
            raise LpNumericalFailure(f"simplex exceeded {it} iterations")
        positive = cst[:, :ncols] > _TOL
        has_enter = positive.any(axis=1)
        enter = positive.argmax(axis=1)
        # min ratio, Bland tie-break on basis variable index; ineligible
        # rows read inf and take part in no subtraction
        k = np.arange(live.size)
        column = t[k, :, enter]
        eligible = (column > _TOL) & (running & has_enter)[:, None]
        ratios = np.where(eligible, t[:, :, -1], np.inf) / np.where(eligible, column, 1.0)
        rmin = ratios.min(axis=1)
        near = (rmin + _TOL / 2)[:, None]
        leave = np.where(ratios <= near, bas, big).argmin(axis=1)
        leave[rmin == np.inf] = -1
        gap = (ratios > near) & (ratios <= (rmin + 3 * _TOL)[:, None])
        scan = gap.any(axis=1) | (~(np.abs(rmin) <= 1e6) & (rmin != np.inf))
        if scan.any():
            leave[scan] = _bland_scan(ratios[scan], bas[scan], eligible[scan])
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


def _solve(c, a_eq, b_eq, a_ub, b_ub, iterate, pivot) -> list[LpResult]:
    """The two-phase method on a stack of same-shape problems, with the
    kernel ``iterate`` and ``pivot`` (the arguments and results of
    ``_bland_iterate_batch`` and ``_pivot_batch``)."""
    c = np.asarray(c, dtype=float)
    nb, n = c.shape
    (a_eq, b_eq), (a_ub, b_ub) = _block("eq", a_eq, b_eq, nb, n), _block("ub", a_ub, b_ub, nb, n)
    for name, v in zip(("c", "a_eq", "b_eq", "a_ub", "b_ub"), (c, a_eq, b_eq, a_ub, b_ub)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite")
    n_eq, n_slack = b_eq.shape[1], b_ub.shape[1]
    m = n_eq + n_slack
    if m == 0:
        # unconstrained beyond x >= 0: bounded only if no positive cost
        return [LpResult("unbounded", np.inf, np.zeros(n), ()) if np.any(ci > _TOL)
                else LpResult("optimal", 0.0, np.zeros(n), ()) for ci in c]

    # rows whose rhs is negative are negated; those rows and the equality
    # rows need an artificial variable
    b = np.concatenate([b_eq, b_ub], axis=1)
    neg = b < 0.0
    need_art = neg.copy()
    need_art[:, :n_eq] = True
    # one artificial column per row that needs one in any problem of the
    # stack, in row order
    art_rows = np.flatnonzero(need_art.any(axis=0))
    is_art = need_art[:, art_rows]          # problem uses artificial column i
    slot = np.zeros(m, dtype=int)
    slot[art_rows] = np.arange(art_rows.size)
    ncols = n + n_slack
    slack = np.arange(n_slack)
    work = np.zeros((nb, m, ncols + art_rows.size + 1))
    work[:, :n_eq, :n] = a_eq
    work[:, n_eq:, :n] = a_ub
    work[:, n_eq + slack, n + slack] = np.where(neg[:, n_eq:], -1.0, 1.0)
    # (not np.negative(lhs, out=lhs, where=...): numpy 2.4.6 computes masked
    # in-place ufuncs wrong on strided views such as a one-column slice)
    lhs = work[:, :, :n]
    lhs[neg] = -lhs[neg]
    work[:, :, -1] = np.where(neg, -b, b)
    work[:, art_rows, ncols + np.arange(art_rows.size)] = is_art
    basis = np.where(need_art, ncols + slot, n - n_eq + np.arange(m))
    maxiter = 200 * (ncols + need_art.sum(axis=1) + m + 1)

    # phase 1, only with artificial columns; a problem of the stack without
    # any has a zero cost row and stops at once. An artificial never
    # re-enters, so it is basic only in its own row.
    feasible = np.ones(nb, dtype=bool)
    if art_rows.size:
        cost1 = np.zeros((nb, work.shape[2]))
        cost1[:, ncols:-1] = np.where(is_art, -1.0, 0.0)
        for r in art_rows:
            np.add(cost1, work[:, r], out=cost1, where=need_art[:, r, None])
        feasible = iterate(work, basis, cost1, ncols, maxiter) & ~(cost1[:, -1] > 1e-7)
        # drive leftover zero-value artificials out of the basis
        for r in art_rows:
            big = np.abs(work[:, r, :ncols]) > _TOL
            drive = feasible & (basis[:, r] >= ncols) & big.any(axis=1)
            if drive.any():
                pivot(work, basis, np.full(nb, r), big.argmax(axis=1), drive)

    # phase 2
    p2 = np.flatnonzero(feasible)
    if p2.size:
        t, bs = (work, basis) if p2.size == nb else (work[p2], basis[p2])
        k = np.arange(p2.size)
        cost2 = np.zeros((p2.size, work.shape[2]))
        cost2[:, :n] = c[p2]
        cost2[:, ncols:-1] = np.where(is_art[p2], -1e18, 0.0)  # never re-enter
        for r in range(m):
            cost2 -= cost2[k, bs[:, r]][:, None] * t[:, r]
        optimal = iterate(t, bs, cost2, ncols, maxiter[p2])
        x = np.zeros((p2.size, t.shape[2] - 1))
        x[k[:, None], bs] = t[:, :, -1]
        basis[p2] = bs

    # number each problem's artificial columns among its own
    own = ncols + np.cumsum(need_art, axis=1) - 1
    art = basis >= ncols
    basis[art] = own[np.nonzero(art)[0], art_rows[basis[art] - ncols]]
    results = [LpResult("infeasible", np.nan, np.full(n, np.nan), tuple(b.tolist()))
               for b in basis]
    for i, j in enumerate(p2):
        if optimal[i]:
            xi = x[i, :n].copy()
            results[j] = LpResult("optimal", float(c[j] @ xi), xi, results[j].basis)
        else:
            results[j] = LpResult("unbounded", np.inf, np.full(n, np.nan), results[j].basis)
    return results


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
    return _solve(c, a_eq, b_eq, a_ub, b_ub, _bland_iterate_batch, _pivot_batch)

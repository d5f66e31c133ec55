"""Dense simplex solver vs known solutions and an independent solver; the
batched solver vs the scalar one, the pivot and the basis kernel vs
one-problem references, byte for byte; restarts from a rejected basis vs
cold solves; ``WarmStack``; the phase hooks a tracer uses."""

import numpy as np
import pytest
from scipy.optimize import linprog

from tandemgrip import simplexlp, wrench
from tandemgrip.config import data_text, shipped_calibration
from tandemgrip.errors import LpNumericalFailure
from tandemgrip.picksim import DEFAULT_FIELD_STATS, LEAF_OCCLUSION_FAIL_PROB, run_campaign
from tandemgrip.simplexlp import (
    _TOL,
    LpResult,
    WarmStack,
    solve_lp,
    solve_lp_batch,
    standard_form,
)
from tandemgrip.wrench import ActuationMode, GraspModelParams

from test_wrench import fresh_kernel


class TestKnownProblems:
    def test_simple_bounded(self):
        # max x+y st x<=2, y<=3
        res = solve_lp(np.array([1.0, 1.0]),
                       a_ub=np.eye(2), b_ub=np.array([2.0, 3.0]))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(5.0)

    def test_equality(self):
        # max x st x + y = 1
        res = solve_lp(np.array([1.0, 0.0]),
                       a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0)

    def test_unbounded(self):
        res = solve_lp(np.array([1.0]), a_ub=np.array([[-1.0]]), b_ub=np.array([1.0]))
        assert res.status == "unbounded"

    def test_infeasible(self):
        res = solve_lp(np.array([1.0]),
                       a_eq=np.array([[1.0]]), b_eq=np.array([-2.0]))
        assert res.status == "infeasible"

    def test_negative_rhs_handled(self):
        # -x <= -1 means x >= 1
        res = solve_lp(np.array([-1.0]), a_ub=np.array([[-1.0]]), b_ub=np.array([-1.0]))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-1.0)

    def test_no_variables(self):
        # 0 <= 1 holds and 0 <= -1 does not
        assert solve_lp(np.zeros(0), a_ub=np.zeros((1, 0)), b_ub=np.array([1.0])).status == "optimal"
        assert solve_lp(np.zeros(0), a_ub=np.zeros((1, 0)), b_ub=np.array([-1.0])).status == "infeasible"
        assert kernel_one(np.zeros(0), None, None, np.zeros((1, 0)), np.array([1.0]), (0,))[0]

    def test_degenerate_no_cycling(self):
        # classic degenerate corner; Bland's rule must terminate
        c = np.array([0.75, -150.0, 0.02, -6.0])
        a = np.array([
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ])
        b = np.array([0.0, 0.0, 1.0])
        res = solve_lp(c, a_ub=a, b_ub=b)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.05)


class TestAgainstReference:
    def test_random_problems(self):
        rng = np.random.default_rng(7)
        for _ in range(120):
            n = int(rng.integers(2, 10))
            m_eq = int(rng.integers(0, 4))
            m_ub = int(rng.integers(0, 7))
            c = rng.normal(size=n)
            x0 = rng.random(n)
            a_eq = rng.normal(size=(m_eq, n)) if m_eq else None
            b_eq = a_eq @ x0 if m_eq else None
            a_ub = rng.normal(size=(m_ub, n)) if m_ub else None
            b_ub = a_ub @ x0 + rng.random(m_ub) if m_ub else None
            mine = solve_lp(c, a_eq, b_eq, a_ub, b_ub)
            ref = linprog(-c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                          bounds=[(0, None)] * n, method="highs")
            ref_status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
            assert mine.status == ref_status
            if ref_status == "optimal":
                assert mine.objective == pytest.approx(-ref.fun, rel=1e-7, abs=1e-7)


def assert_identical(batched, scalar):
    assert batched.status == scalar.status
    assert (np.float64(batched.objective).tobytes()
            == np.float64(scalar.objective).tobytes())
    assert batched.x.tobytes() == scalar.x.tobytes()
    assert batched.basis == scalar.basis


def random_problem(rng, kind, n, m_eq, m_ub):
    """One LP of a given family; small-integer data gives ties, degenerate
    vertices, b < 0 rows, infeasible and unbounded problems."""
    if kind == "integer":
        return (rng.integers(-2, 3, n).astype(float),
                rng.integers(-2, 3, (m_eq, n)).astype(float),
                rng.integers(-2, 3, m_eq).astype(float),
                rng.integers(-2, 3, (m_ub, n)).astype(float),
                rng.integers(-2, 3, m_ub).astype(float))
    c = rng.normal(size=n)
    a_eq, a_ub = rng.normal(size=(m_eq, n)), rng.normal(size=(m_ub, n))
    x0 = rng.random(n)
    if kind == "feasible":
        return c, a_eq, a_eq @ x0, a_ub, a_ub @ x0 + rng.random(m_ub)
    if kind == "degenerate":
        b_ub = a_ub @ x0 + rng.random(m_ub)
        b_ub[rng.random(m_ub) < 0.4] = 0.0
        return c, a_eq, np.zeros(m_eq), a_ub, b_ub
    return c, a_eq, rng.normal(size=m_eq), a_ub, rng.normal(size=m_ub)


def tolerance_chain_problem(rng, scale, n, m_eq, m_ub):
    """An LP whose first ratio test, on column 0, sees eligible ratios
    ``scale`` + a chain of offsets 0.3-3.5 tol apart in shuffled row order,
    some rows at an exact ratio 0 (b = 0), and equality rows first: their
    artificials have the largest basis indices, so basis order runs against
    row order."""
    m = m_eq + m_ub
    ratio = scale + rng.permutation(np.cumsum(rng.uniform(0.3, 3.5, m))) * _TOL
    ratio[rng.random(m) < 0.3] = 0.0
    a = rng.normal(size=(m, n))
    a[:, 0] = rng.uniform(0.5, 2.0, m)
    a[rng.random(m) < 0.15, 0] = 0.0       # a row with no ratio
    b = ratio * a[:, 0]
    c = rng.normal(size=n)
    c[0] = abs(c[0]) + 0.1
    return c, a[:m_eq], b[:m_eq], a[m_eq:], b[m_eq:]


class TestBatch:
    @pytest.mark.parametrize("kind", ["integer", "feasible", "degenerate", "signed"])
    def test_random_stacks_match_scalar(self, kind):
        rng = np.random.default_rng(["integer", "feasible", "degenerate", "signed"].index(kind))
        statuses = set()
        negative_rows = 0
        for _ in range(60):
            n = int(rng.integers(1, 8))
            m_eq, m_ub = int(rng.integers(0, 4)), int(rng.integers(0, 6))
            stack = [random_problem(rng, kind, n, m_eq, m_ub)
                     for _ in range(int(rng.integers(1, 10)))]
            args = [np.stack([p[f] for p in stack]) for f in range(5)]
            def constraints(p):
                return (*((p[1], p[2]) if m_eq else (None, None)),
                        *((p[3], p[4]) if m_ub else (None, None)))

            batched = solve_lp_batch(args[0], *constraints(args))
            assert len(batched) == len(stack)
            for p, got in zip(stack, batched):
                scalar = solve_lp(p[0], *constraints(p))
                assert_identical(got, scalar)
                statuses.add(scalar.status)
                negative_rows += int(np.sum(p[2] < 0) + np.sum(p[4] < 0))
        if kind in ("integer", "signed"):
            assert statuses == {"optimal", "infeasible", "unbounded"}
            assert negative_rows > 0

    def test_tolerance_chains_match_scalar(self, monkeypatch):
        scans = []
        real = simplexlp._bland_scan

        def spy(ratios, bas, eligible):
            scans.append(len(ratios))
            return real(ratios, bas, eligible)

        monkeypatch.setattr(simplexlp, "_bland_scan", spy)
        rng = np.random.default_rng(1977)
        for scale in [0.0, 1.0, 10.0, 1e3, 1e5, 1e6, 3e6, 1e7]:
            for _ in range(20):
                n, m_eq, m_ub = int(rng.integers(2, 6)), int(rng.integers(0, 3)), int(rng.integers(2, 7))
                stack = [tolerance_chain_problem(rng, scale, n, m_eq, m_ub) for _ in range(8)]
                args = [np.stack([p[f] for p in stack]) for f in range(5)]

                def constraints(p):
                    return (*((p[1], p[2]) if m_eq else (None, None)), p[3], p[4])

                for p, got in zip(stack, solve_lp_batch(args[0], *constraints(args))):
                    assert_identical(got, solve_lp(p[0], *constraints(p)))
        assert sum(scans) > 100

    def test_no_constraints(self):
        c = np.array([[1.0, -1.0], [-1.0, -2.0]])
        for got, ci in zip(solve_lp_batch(c), c):
            assert_identical(got, solve_lp(ci))

    @pytest.mark.parametrize("mode", list(ActuationMode))
    def test_every_campaign_lp_matches_scalar(self, mode, monkeypatch):
        solved = []
        real = wrench.solve_lp_batch

        def spy(*args):
            results = real(*args)
            solved.append((args, results))
            return results

        monkeypatch.setattr(wrench, "solve_lp_batch", spy)
        run_campaign(DEFAULT_FIELD_STATS, shipped_calibration(), mode, 300, seed=31)
        # the benchmark's suction and fingers runs: retry rounds give smaller
        # and odder chunks
        run_campaign(DEFAULT_FIELD_STATS, shipped_calibration(), mode, 150, seed=32,
                     occlusion_fail_prob=LEAF_OCCLUSION_FAIL_PROB, retries=1)
        count = 0
        for args, results in solved:
            for i, got in enumerate(results):
                assert_identical(got, solve_lp(*(a[i] for a in args)))
                count += 1
        assert count > 0 and len(solved) > 1


def kernel(c, a_eq, b_eq, a_ub, b_ub, bases):
    """The basis kernel on a stack of problems in ``solve_lp_batch``'s
    arguments: where each basis is accepted, and x of the original variables."""
    ok, x, _ = fresh_kernel(*standard_form(c, a_eq, b_eq, a_ub, b_ub), bases)
    return ok, x[:, :np.shape(c)[1]]


def kernel_one(c, a_eq, b_eq, a_ub, b_ub, basis):
    """``kernel`` on one problem in ``solve_lp``'s arguments."""
    ok, x = kernel(*simplexlp._one(c, a_eq, b_eq, a_ub, b_ub), [basis])
    return ok[0], x[0]


def assert_kernel_matches(ok, x, want):
    """One problem's kernel result is the reference's: rejected alike, or the same x bytes."""
    assert ok == (want is not None)
    if want is not None:
        assert x.tobytes() == want.x.tobytes()


class TestSolveFromBasis:
    """The basis kernel (``simplexlp._basis_inverse``, then ``_rhs_step``) on one
    problem."""

    def test_own_optimal_basis(self):
        rng = np.random.default_rng(11)
        warm_optima = 0
        for kind in ("feasible", "degenerate", "integer", "signed"):
            for _ in range(80):
                n = int(rng.integers(1, 8))
                m_eq, m_ub = int(rng.integers(0, 4)), int(rng.integers(1, 6))
                c, a_eq, b_eq, a_ub, b_ub = random_problem(rng, kind, n, m_eq, m_ub)
                args = (c, *((a_eq, b_eq) if m_eq else (None, None)), a_ub, b_ub)
                cold = solve_lp(*args)
                ok, x = kernel_one(*args, cold.basis)
                assert_kernel_matches(ok, x, reference_solve_from_basis(*args, cold.basis))
                if cold.status != "optimal" or max(cold.basis) >= n + m_ub:
                    # unbounded, infeasible, or an artificial left in the basis
                    assert not ok
                    continue
                assert ok
                assert abs(c @ x - cold.objective) <= 1e-12 * max(1.0, abs(cold.objective))
                warm_optima += 1
        assert warm_optima > 100

    # max x + y  st  x + 2y <= 4,  3x + y <= 6: optimum (1.6, 1.2), basis {x, y};
    # columns 2 and 3 are the slacks
    LP = (np.array([1.0, 1.0]), None, None,
          np.array([[1.0, 2.0], [3.0, 1.0]]), np.array([4.0, 6.0]))

    def test_optimal_basis_accepted(self):
        ok, x = kernel_one(*self.LP, (1, 0))
        assert ok
        assert self.LP[0] @ x == pytest.approx(2.8, abs=1e-12)
        assert x == pytest.approx([1.6, 1.2], abs=1e-12)

    @pytest.mark.parametrize("basis,why", [
        ((0, 3), "primal infeasible: x = 4 leaves slack 2 at -6"),
        ((2, 3), "dual infeasible: the origin, where x and y still pay"),
        ((0, 0), "singular: one column twice"),
        ((0, 4), "holds an artificial"),
        ((0,), "another shape"),
    ])
    def test_non_optimal_basis_rejected(self, basis, why):
        assert not kernel_one(*self.LP, basis)[0], why

    def test_singular_columns_rejected(self):
        # x and y have parallel columns, so no basis holds both
        ok, _ = kernel_one(np.array([1.0, 1.0]), None, None,
                           np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([4.0, 8.0]), (0, 1))
        assert not ok


def reference_solve_from_basis(c, a_eq, b_eq, a_ub, b_ub, basis):
    """Reference basis solve: one problem, one inverse of its basis matrix."""
    c = np.asarray(c, dtype=float)
    n = c.size

    def block(a_, b_):
        if a_ is None or b_ is None:
            return np.zeros((0, n)), np.zeros(0)
        return np.asarray(a_, dtype=float).reshape(-1, n), np.asarray(b_, dtype=float).reshape(-1)

    a_eq, b_eq = block(a_eq, b_eq)
    a_ub, b_ub = block(a_ub, b_ub)
    m_eq, n_slack = b_eq.size, b_ub.size
    ncols = n + n_slack
    a = np.zeros((m_eq + n_slack, ncols))
    a[:m_eq, :n] = a_eq
    a[m_eq:, :n] = a_ub
    a[m_eq:, n:] = np.eye(n_slack)
    b = np.concatenate([b_eq, b_ub])
    basis = np.asarray(basis, dtype=int)
    if basis.size != b.size or b.size == 0 or basis.max() >= ncols:
        return None
    try:
        b_inv = np.linalg.inv(a[:, basis])
    except np.linalg.LinAlgError:
        return None
    x_b = b_inv @ b
    cost = np.zeros(ncols)
    cost[:n] = c
    reduced = cost - (cost[basis] @ b_inv) @ a
    if not (np.all(x_b >= -_TOL) and np.all(reduced <= _TOL)):
        return None
    x = np.zeros(ncols)
    x[basis] = x_b
    return LpResult("optimal", float(c @ x[:n]), x[:n], tuple(basis.tolist()))


def calibration_stacks():
    """One pull-LP stack per layout of the shipped reference rows, as
    ``calibrate`` builds them."""
    rows = wrench.reference_from_csv(data_text("grasp_reference.csv")).rows
    stacks = {}
    for mode in ActuationMode:
        scenarios = [r.scenario for r in rows if r.scenario.mode is mode]
        stacks[mode] = wrench._strength_stack(scenarios, [(0, 1, 2)] * len(scenarios),
                                              shipped_calibration())
    return stacks


def random_params(rng):
    return np.array([rng.uniform(2.0, 30.0), rng.uniform(0.05, 2.0),
                     rng.uniform(0.5, 10.0), rng.uniform(0.05, 1.0)])


def as_params(x):
    return GraspModelParams(*(float(v) for v in x))


class TestSolveFromBasisBatch:
    """The basis kernel on a stack equals the one-problem reference on every
    problem of it: the same rejections and the same bytes."""

    def test_calibration_stacks_match_reference(self):
        rng = np.random.default_rng(2024)
        accepted = rejected = 0
        for stack in calibration_stacks().values():
            for _ in range(12):
                # the bases of a point, tried at a neighbour of it
                x = random_params(rng)
                lp = stack.refresh(as_params(x))
                bases = [solve_lp(*(a[k] for a in lp)).basis for k in range(len(lp[0]))]
                step = rng.choice([1e-3, 0.03, 0.3])
                y = x * (1.0 + step * rng.uniform(-1.0, 1.0, 4))
                y[3] = min(y[3], 1.0)
                lp = stack.refresh(as_params(y))
                ok, x = kernel(*lp, bases)
                assert len(ok) == len(bases)
                for k in range(len(bases)):
                    assert_kernel_matches(
                        ok[k], x[k], reference_solve_from_basis(*(a[k] for a in lp), bases[k]))
                accepted += int(ok.sum())
                rejected += int((~ok).sum())
        assert accepted > 100 and rejected > 10

    def test_bad_problems_fail_alone(self):
        # a singular basis matrix, an artificial in the basis, a basis of
        # another length and NaN data, among good problems of one stack
        stack = calibration_stacks()[ActuationMode.DUAL]
        lp = tuple(a.copy() for a in stack.refresh(shipped_calibration()))
        bases = [list(solve_lp(*(a[k] for a in lp)).basis) for k in range(len(lp[0]))]
        ncols = lp[0].shape[1] + lp[4].shape[1]
        bases[1][1] = bases[1][0]
        bases[3][2] = ncols + 1
        bases[5] = bases[5][:-1]
        lp[1][7, 0, bases[7][0]] = np.nan
        bad = {1, 3, 5, 7}
        ok, x = kernel(*lp, bases)
        for k in range(len(bases)):
            want = reference_solve_from_basis(*(a[k] for a in lp), bases[k])
            assert (want is None) == (k in bad), k
            assert_kernel_matches(ok[k], x[k], want)
        assert int(ok.sum()) == len(bases) - len(bad)


def classify(a, b, cost, basis):
    """(primal, dual) feasibility of a basis of one standard-form problem,
    from solves of its own basis matrix."""
    mat = a[:, list(basis)]
    primal = np.all(np.linalg.solve(mat, b) >= -_TOL)
    dual = np.all(cost - np.linalg.solve(mat.T, cost[list(basis)]) @ a <= _TOL)
    return bool(primal), bool(dual)


def perturbed_bases(perturb, kind, points=8):
    """(pull LP, its standard form, basis) of calibration-stack rows whose
    basis is optimal at a random point and, after ``perturb`` moved the
    point, has the (primal, dual) feasibility ``kind``."""
    rng = np.random.default_rng(1954)
    found = []
    for stack in calibration_stacks().values():
        for _ in range(points):
            x = random_params(rng)
            lp = stack.refresh(as_params(x))
            bases = [solve_lp(*(a[k] for a in lp)).basis for k in range(len(lp[0]))]
            y = perturb(rng, x.copy())
            y[3] = min(y[3], 1.0)   # a shear fraction stays in (0, 1]
            lp = stack.refresh(as_params(y))
            std = standard_form(*lp)
            for k, basis in enumerate(bases):
                prob = tuple(v[k] for v in std)
                if classify(*prob, basis) == kind:
                    found.append((tuple(a[k].copy() for a in lp), prob, basis))
    return found


def scale_capacities(rng, x):
    # pad force, cup tension and shear fraction set every capacity; the
    # constraint matrix and so every reduced cost stay as they were
    x[[0, 2, 3]] *= rng.uniform(0.2, 5.0, 3)
    return x


def scale_friction(rng, x):
    x[1] *= rng.uniform(0.2, 5.0)
    return x


def scale_all(rng, x):
    x *= rng.uniform(0.2, 5.0, 4)
    x[3] = min(x[3], 1.0)
    return x


class TestRestart:
    """A basis the kernel rejects restarts from its own tableau: the dual
    simplex when it is still dual feasible, phase 2 when it is still primal
    feasible, and a cold solve when it is neither."""

    @pytest.fixture
    def phase2_calls(self, monkeypatch):
        calls = []
        real = simplexlp._bland_iterate

        def iterate(tab, basis, cost, ncols, maxiter):
            calls.append(tab.shape[1] - 1 > ncols)
            return real(tab, basis, cost, ncols, maxiter)
        monkeypatch.setattr(simplexlp, "_bland_iterate", iterate)
        return calls

    def restarted(self, prob, basis):
        """The kernel's verdict on ``basis``, and on the basis a restart from it reaches."""
        ok, _, (_, b_inv) = fresh_kernel(*(v[None] for v in prob), [basis])
        new = simplexlp._restart(*prob, basis, b_inv[0])
        if new is None:
            return ok[0], None, None
        ok2, x, _ = fresh_kernel(*(v[None] for v in prob), [new])
        return ok[0], ok2[0], prob[2] @ x[0]

    @pytest.mark.parametrize("perturb,kind,iterates", [
        (scale_capacities, (False, True), 0),   # primal infeasible: the dual simplex
        (scale_friction, (True, False), 1),     # dual infeasible: phase 2
    ])
    def test_restart_ends_at_the_cold_optimum(self, phase2_calls, perturb, kind, iterates):
        cases = perturbed_bases(perturb, kind)
        assert len(cases) >= 10
        for lp, prob, basis in cases:
            phase2_calls.clear()
            was_ok, ok, alpha = self.restarted(prob, basis)
            assert not was_ok and ok
            assert phase2_calls == [False] * iterates
            cold = solve_lp(*lp)
            assert abs(alpha - cold.objective) <= 1e-10 * max(1.0, cold.objective)

    def test_neither_goes_cold(self, phase2_calls, cold_solves):
        cases = perturbed_bases(scale_all, (False, False), points=24)
        assert len(cases) >= 10
        for lp, prob, basis in cases:
            phase2_calls.clear()
            was_ok, ok, _ = self.restarted(prob, basis)
            assert not was_ok and ok is None
            assert phase2_calls == []
            # a WarmStack at that basis solves the problem cold, once
            cold_solves.clear()
            warm = warm_stack(tuple(v[None] for v in lp), [basis])
            got = warm.values(True)
            cold = solve_lp(*lp)
            assert len(cold_solves) == 1
            assert np.float64(got[0]).tobytes() == cold.x[-1].tobytes()
            assert warm.bases == [cold.basis]

    def test_batch_equals_one_at_a_time(self, cold_solves):
        # accepted, restarted and cold rows of one stack: one WarmStack of n
        # rows gives each row what n WarmStacks of one row give
        rng = np.random.default_rng(1956)
        restarted = cold = 0
        for stack in calibration_stacks().values():
            for _ in range(6):
                x = random_params(rng)
                lp = stack.refresh(as_params(x))
                bases = [solve_lp(*(a[k] for a in lp)).basis for k in range(len(lp[0]))]
                lp = tuple(v.copy() for v in stack.refresh(as_params(scale_all(rng, x.copy()))))
                first = kernel(*lp, bases)[0]
                cold_solves.clear()
                warm = warm_stack(lp, bases)
                got = np.array(warm.values(True))
                stack_cold = len(cold_solves)
                for k, basis in enumerate(bases):
                    cold_solves.clear()
                    one = warm_stack(tuple(v[k:k + 1] for v in lp), [basis])
                    assert np.array(one.values(True)).tobytes() == got[k:k + 1].tobytes()
                    assert one.bases == [warm.bases[k]]
                    restarted += bool(not first[k] and not cold_solves)
                    cold += len(cold_solves)
                    stack_cold -= len(cold_solves)
                assert stack_cold == 0
        assert restarted > 10 and cold > 0


def warm_stack(lp, bases):
    """A ``WarmStack`` of pull LPs (alpha, the last variable, reported) whose
    last bases are ``bases``."""
    warm = WarmStack(*lp, -1)
    warm._keep(list(bases))
    return warm


@pytest.fixture
def cold_solves(monkeypatch):
    """The arguments of every cold ``solve_lp`` a ``WarmStack`` runs."""
    calls = []
    real = simplexlp.solve_lp

    def solve(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(simplexlp, "solve_lp", solve)
    return calls


class TestWarmStack:
    # max x + y  st  x + 2y <= 4,  3x + y <= 6: optimum (1.6, 1.2)
    LP = TestSolveFromBasis.LP

    def test_lp_views_write_into_the_form(self):
        warm = WarmStack(*simplexlp._one(*self.LP), 0)
        c, a_eq, b_eq, a_ub, b_ub = warm.lp
        a_ub[0, 1, 0], b_ub[0, 1] = 2.0, 5.0
        assert [v.tobytes() for v in warm.form] == [v.tobytes() for v in standard_form(
            c, a_eq, b_eq, np.array([[[1.0, 2.0], [2.0, 1.0]]]), np.array([[4.0, 5.0]]))]

    def test_rewritten_b_that_leaves_no_feasible_point_raises(self):
        warm = WarmStack(*simplexlp._one(*self.LP), 0)
        assert warm.values(False) == [pytest.approx(1.6, abs=1e-12)]
        # x + 2y <= -1 has no point with x, y >= 0: the basis is rejected,
        # its dual simplex finds no entering column and the cold solve ends
        # infeasible
        warm.lp[4][0, 0] = -1.0
        with pytest.raises(LpNumericalFailure, match="infeasible"):
            warm.values(False)

    def test_restarted_basis_is_checked_again(self, monkeypatch, cold_solves):
        warm = WarmStack(*simplexlp._one(*self.LP), 0)
        warm.values(False)
        # x + 2y <= 1: the optimal basis {x, y} of before gives y = -0.6. A
        # restart that hands it back unchanged is caught by the re-check, and
        # the problem is solved cold
        warm.lp[4][0, 0] = 1.0
        monkeypatch.setattr(simplexlp, "_restart", lambda a, b, cost, basis, b_inv: basis)
        cold_solves.clear()
        got = warm.values(False)
        want = solve_lp(*(v[0] for v in warm.lp))
        assert len(cold_solves) == 1
        assert (got, warm.bases) == ([want.x[0]], [want.basis])
        assert got == [pytest.approx(1.0, abs=1e-12)]

    def test_first_cold_solve_that_is_not_optimal_raises(self):
        # max x  st  -x <= 1: unbounded
        warm = WarmStack(np.array([[1.0]]), None, None, np.array([[[-1.0]]]), np.array([[1.0]]), 0)
        with pytest.raises(LpNumericalFailure, match="unbounded"):
            warm.values(True)


class TestNonFiniteData:
    """NaN or an infinity anywhere in c, A or b is rejected, by name, in both
    solvers; it used to solve to a wrong answer or escape as a warning."""

    LP = dict(c=[1.0, 1.0], a_eq=[[1.0, -1.0]], b_eq=[0.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["c", "a_eq", "b_eq", "a_ub", "b_ub"])
    def test_rejected_by_name(self, name, value):
        lp = {k: np.array(v, dtype=float) for k, v in self.LP.items()}
        lp[name].flat[-1] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            solve_lp(**lp)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            solve_lp_batch(**{k: np.stack([v, self.LP[k] * np.ones_like(v)])
                              for k, v in lp.items()})

    @pytest.mark.parametrize("lp", [
        # each solved to "optimal", "unbounded" or a RuntimeWarning before
        dict(c=[np.nan, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0]),
        dict(c=[1.0, 1.0], a_ub=[[np.nan, 1.0]], b_ub=[1.0]),
        dict(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[np.nan]),
        dict(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[np.inf]),
    ])
    def test_cases_found_by_hand(self, lp):
        with pytest.raises(ValueError, match="must be finite"):
            solve_lp(**lp)
        with pytest.raises(ValueError, match="must be finite"):
            solve_lp_batch(**{k: np.array(v, dtype=float)[None] for k, v in lp.items()})


def reference_pivot(tab, basis, row, col):
    """Reference pivot: the pivot row first, then one update per other row
    with a non-zero factor, row by row."""
    tab[row] /= tab[row, col]
    for r in range(tab.shape[0]):
        if r != row and abs(tab[r, col]) > 0.0:
            tab[r] -= tab[r, col] * tab[row]
    basis[row] = col


# zeros of both signs, NaN, infinities and subnormals
SPECIALS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310]


class TestPivot:
    def test_matches_row_loop(self):
        rng = np.random.default_rng(1953)
        seen = set()
        for _ in range(400):
            m, cols = int(rng.integers(1, 10)), int(rng.integers(2, 12))
            tab = rng.normal(size=(m, cols))
            special = rng.random((m, cols)) < 0.15
            tab[special] = rng.choice(SPECIALS, size=int(special.sum()))
            row, col = int(rng.integers(m)), int(rng.integers(cols - 1))
            factors = rng.choice(SPECIALS + [1.0, -3.0, 0.25], size=m)
            tab[:, col] = np.where(rng.random(m) < 0.7, factors, tab[:, col])
            if rng.random() < 0.9:
                tab[row, col] = rng.choice([1.5, -0.75, 2e-300])
            seen.update(np.float64(v).tobytes() for k, v in enumerate(tab[:, col]) if k != row)
            basis = rng.integers(0, cols - 1, m).tolist()
            want, want_basis = tab.copy(), list(basis)
            got, got_basis = tab.copy(), list(basis)
            with np.errstate(all="ignore"):
                reference_pivot(want, want_basis, row, col)
                simplexlp._pivot(got, got_basis, row, col)
            assert got.tobytes() == want.tobytes()
            assert got_basis == want_basis
        assert {np.float64(v).tobytes() for v in SPECIALS} <= seen


def artificial_basis(n, b_eq, b_ub):
    """The starting basis: each inequality row with b >= 0 holds its slack,
    every other row an artificial numbered in row order after the slacks."""
    basis, art = [], n + len(b_ub)
    for r, b in enumerate([*b_eq, *b_ub]):
        if r >= len(b_eq) and not b < 0.0:
            basis.append(n + r - len(b_eq))
        else:
            basis.append(art)
            art += 1
    return basis


class TestPhaseHooks:
    """What a tracer that splits ``solve_lp`` into phases relies on:
    ``solve_lp`` calls the module-level ``_bland_iterate`` at most twice, the
    first time with columns beyond ``ncols`` exactly when the LP has
    artificials, and makes every pivot through the module-level ``_pivot``,
    the drive-out pivots after phase 1 too; ``solve_lp_batch`` calls
    neither."""

    # max 0 st -2x = 0, 2x <= 2: phase 1 ends with the artificial basic at
    # zero, and a drive-out pivot puts x in its place
    DRIVE_OUT = (np.array([0.0]), np.array([[-2.0]]), np.array([0.0]),
                 np.array([[2.0]]), np.array([2.0]))

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        real_iterate, real_pivot = simplexlp._bland_iterate, simplexlp._pivot

        def iterate(tab, basis, cost, ncols, maxiter):
            calls.append(("iterate", tab.shape[1] - 1 > ncols))
            status = real_iterate(tab, basis, cost, ncols, maxiter)
            calls.append(("end",))
            return status

        def pivot(tab, basis, row, col):
            calls.append(("pivot", row, col))
            real_pivot(tab, basis, row, col)

        monkeypatch.setattr(simplexlp, "_bland_iterate", iterate)
        monkeypatch.setattr(simplexlp, "_pivot", pivot)
        return calls

    def problems(self):
        rng = np.random.default_rng(1952)
        yield self.DRIVE_OUT
        for kind in ("integer", "degenerate", "signed", "feasible"):
            for _ in range(60):
                n = int(rng.integers(1, 6))
                yield random_problem(rng, kind, n, int(rng.integers(0, 4)), int(rng.integers(0, 5)))

    def test_solve_lp(self, calls):
        drive_outs = phase_pivots = 0
        for c, a_eq, b_eq, a_ub, b_ub in self.problems():
            calls.clear()
            res = solve_lp(c, a_eq, b_eq, a_ub, b_ub)
            iterates = [k for k, call in enumerate(calls) if call[0] == "iterate"]
            assert len(iterates) <= 2
            if iterates:
                assert calls[iterates[0]][1] == bool(b_eq.size or np.any(b_ub < 0.0))
            # the pivots, replayed on the starting basis, give the final one
            basis = artificial_basis(len(c), b_eq, b_ub)
            for call in calls:
                if call[0] == "pivot":
                    basis[call[1]] = call[2]
            assert tuple(basis) == res.basis
            if len(iterates) == 2:
                between = calls[iterates[0]:iterates[1]]
                drive_outs += sum(call[0] == "pivot" for call in between[between.index(("end",)):])
            phase_pivots += sum(call[0] == "pivot" for call in calls)
        assert drive_outs > 0 and phase_pivots > drive_outs

    def test_solve_lp_batch_calls_neither(self, calls):
        stack = [self.DRIVE_OUT, *self.problems()][:20]
        shapes = {(len(p[0]), len(p[2]), len(p[4])) for p in stack}
        for shape in shapes:
            same = [p for p in stack if (len(p[0]), len(p[2]), len(p[4])) == shape]
            solve_lp_batch(*(np.stack([p[f] for p in same]) for f in range(5)))
        assert calls == []


class TestArgumentShapes:
    """Loose argument shapes give the bytes of the LP they spell, passed as
    2-D constraint matrices and 1-D vectors."""

    C, ROW, OTHER = np.array([1.0, 2.0]), np.array([1.0, 1.0]), np.array([[1.0, -1.0]])

    @pytest.mark.parametrize("loose,canonical", [
        # a single-row 1-D a_eq
        ((C, ROW, np.array([3.0]), OTHER, np.array([1.0])),
         (C, ROW[None], np.array([3.0]), OTHER, np.array([1.0]))),
        # a 0-d b_ub
        ((C, None, None, ROW[None], np.float64(4.0)),
         (C, None, None, ROW[None], np.array([4.0]))),
        # an empty b_eq with an empty a_eq: no equality rows
        ((C, [], np.array([]), OTHER, np.array([1.0])),
         (C, np.zeros((0, 2)), np.zeros(0), OTHER, np.array([1.0]))),
        # plain Python lists
        (([1, 2], [[1, 1]], [3], [[1, -1]], [-1]),
         (C, ROW[None], np.array([3.0]), OTHER, np.array([-1.0]))),
        # no constraints at all, unbounded and bounded
        ((C,), (C, np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)), np.zeros(0))),
        ((-C,), (-C, np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)), np.zeros(0))),
    ])
    def test_same_bytes_as_canonical(self, loose, canonical):
        assert_identical(solve_lp(*loose), solve_lp(*canonical))

    @staticmethod
    def raise_alike(blocks, message):
        """``solve_lp``, ``solve_lp_batch`` and ``standard_form`` (two copies
        stacked) all raise ``message`` on these constraint blocks."""
        with pytest.raises(ValueError, match=message):
            solve_lp([1, 1], **blocks)
        stacked = {k: np.stack([np.asarray(v, dtype=float)] * 2) for k, v in blocks.items()}
        with pytest.raises(ValueError, match=message):
            solve_lp_batch(np.ones((2, 2)), **stacked)
        with pytest.raises(ValueError, match=message):
            standard_form(np.ones((2, 2)), *(stacked.get(k) for k in (
                "a_eq", "b_eq", "a_ub", "b_ub")))

    @pytest.mark.parametrize("rows", [
        # more rows in a_ub than right-hand sides (once read as unbounded)
        dict(a_ub=[[1, 0], [0, 1]], b_ub=[1]),
        # fewer rows in a_eq than right-hand sides (once read as infeasible)
        dict(a_eq=[[1, 1]], b_eq=[2, 3]),
    ])
    def test_row_count_mismatch_raises(self, rows):
        self.raise_alike(rows, "one row count")

    @pytest.mark.parametrize("half,message", [
        # a_ub without b_ub (once read as no rows: unbounded)
        (dict(a_ub=[[1, 0], [0, 1]]), "a_ub has rows but b_ub has none"),
        # b_eq without a_eq (once read as no rows)
        (dict(b_eq=[3]), "b_eq has rows but a_eq has none"),
        # a_eq rows with an empty b_eq
        (dict(a_eq=[[1, 1]], b_eq=[]), "a_eq has rows but b_eq has none"),
        # b_ub rows with an empty a_ub
        (dict(a_ub=np.zeros((0, 2)), b_ub=[1]), "b_ub has rows but a_ub has none"),
    ])
    def test_half_given_block_raises(self, half, message):
        self.raise_alike(half, message)

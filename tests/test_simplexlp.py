"""Dense simplex solver vs known solutions and an independent solver; the
batched solver vs the scalar one, byte for byte."""

import numpy as np
import pytest
from scipy.optimize import linprog

from tandemgrip import wrench
from tandemgrip.config import shipped_calibration
from tandemgrip.picksim import DEFAULT_FIELD_STATS, run_campaign
from tandemgrip.simplexlp import solve_lp, solve_lp_batch
from tandemgrip.wrench import ActuationMode


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
        count = 0
        for args, results in solved:
            for i, got in enumerate(results):
                assert_identical(got, solve_lp(*(a[i] for a in args)))
                count += 1
        assert count > 0 and len(solved) > 1

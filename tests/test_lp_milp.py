import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from _helpers import EQ, stack_rows
from resguard import lp_milp
from resguard.lp_milp import GE, LE, LinearProgram, MILPProblem, Status, check_solution, solve_lp, solve_milp

NO_ROWS = np.zeros((0, 1)), np.zeros(0)


def test_lp_single_variable():
    lp = LinearProgram(np.array([1.0]), [[-1.0]], [-3.0], np.array([0.0]), np.array([10.0]))  # x >= 3
    sol = solve_lp(lp)
    assert sol.status == Status.OPTIMAL
    assert sol.objective == pytest.approx(3.0, abs=1e-9)


def test_lp_segment_returns_vertex():
    lp = LinearProgram(
        np.array([-1.0, -1.0]),
        [[1.0, 1.0]],
        [1.0],
        np.zeros(2),
        np.ones(2),
    )
    sol = solve_lp(lp)
    assert sol.status == Status.OPTIMAL
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)
    assert sol.x.sum() == pytest.approx(1.0, abs=1e-9)
    # Vertex solution: one coordinate at a bound.
    assert any(abs(v) < 1e-9 or abs(v - 1.0) < 1e-9 for v in sol.x)


def test_lp_infeasible():
    lp = LinearProgram(np.array([1.0]), [[-1.0]], [-5.0], np.array([0.0]), np.array([2.0]))  # x >= 5
    assert solve_lp(lp).status == Status.INFEASIBLE


def test_lp_iteration_limit():
    rng = np.random.default_rng(0)
    n = 8
    A = np.array([rng.normal(size=n) for _ in range(10)])
    lp = LinearProgram(rng.normal(size=n), A, np.full(10, 5.0), -np.ones(n), np.ones(n))
    assert solve_lp(lp, max_iterations=1).status == Status.ITERATION_LIMIT


def test_lp_validation():
    with pytest.raises(ValueError):
        LinearProgram(np.array([1.0]), *NO_ROWS, np.array([2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        LinearProgram(np.array([np.inf]), *NO_ROWS, np.array([0.0]), np.array([1.0]))


def _enumerate_vertices(lp: LinearProgram):
    """All basic feasible points: intersections of n active facets."""
    n = lp.n_vars
    facets = list(zip(lp.A, lp.b))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        facets.append((e, lp.lower[j]))
        facets.append((e, lp.upper[j]))
    vertices = []
    for combo in itertools.combinations(range(len(facets)), n):
        A = np.array([facets[i][0] for i in combo])
        b = np.array([facets[i][1] for i in combo])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if check_solution(lp, x) <= 1e-8:
            vertices.append(x)
    return vertices


def test_lp_against_vertex_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        lo = rng.uniform(-3.0, 0.0, n)
        hi = lo + rng.uniform(0.5, 4.0, n)
        x_feas = rng.uniform(lo, hi)
        cons = []
        for _ in range(int(rng.integers(0, 5))):
            a = rng.normal(size=n)
            sense = rng.choice([LE, GE, EQ], p=[0.5, 0.3, 0.2])
            base = float(a @ x_feas)
            rhs = base + (0.3 if sense == LE else -0.3 if sense == GE else 0.0) * abs(rng.normal())
            cons.append((a, sense, rhs))
        lp = LinearProgram(rng.normal(size=n), *stack_rows(cons, n), lo, hi)
        sol = solve_lp(lp)
        vertices = _enumerate_vertices(lp)
        assert sol.status == Status.OPTIMAL
        assert vertices, "planted-feasible LP must have vertices"
        best = min(float(lp.objective @ v) for v in vertices)
        assert sol.objective == pytest.approx(best, abs=1e-6)


def test_lp_against_scipy_at_spec_scale():
    # Vertex enumeration is combinatorially hopeless at 12 vars + 20 rows,
    # so an independent solver stands in as the oracle at this size.
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(0, 21))
        lo = rng.uniform(-5.0, 0.0, n)
        hi = lo + rng.uniform(0.5, 8.0, n)
        x_feas = rng.uniform(lo, hi)
        cons, a_ub, b_ub, a_eq, b_eq = [], [], [], [], []
        for _ in range(m):
            a = rng.normal(size=n)
            sense = rng.choice([LE, GE, EQ], p=[0.5, 0.3, 0.2])
            base = float(a @ x_feas)
            if sense == LE:
                rhs = base + 0.5 * abs(rng.normal())
                a_ub.append(a)
                b_ub.append(rhs)
            elif sense == GE:
                rhs = base - 0.5 * abs(rng.normal())
                a_ub.append(-a)
                b_ub.append(-rhs)
            else:
                rhs = base
                a_eq.append(a)
                b_eq.append(rhs)
            cons.append((a, sense, rhs))
        c = rng.normal(size=n)
        lp = LinearProgram(c, *stack_rows(cons, n), lo, hi)
        sol = solve_lp(lp)
        ref = linprog(
            c,
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=list(zip(lo, hi)),
            method="highs",
        )
        assert sol.status == Status.OPTIMAL and ref.success
        assert sol.objective == pytest.approx(ref.fun, abs=1e-6)
        assert check_solution(lp, sol.x) <= 1e-7


def test_milp_single_binary():
    p = MILPProblem(LinearProgram(np.array([-1.0]), *NO_ROWS, np.array([0.0]), np.array([1.0])), frozenset({0}))
    sol = solve_milp(p)
    assert sol.status == Status.OPTIMAL
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-6)


def test_milp_knapsack_pair():
    p = MILPProblem(
        LinearProgram(
            np.array([-3.0, -4.0]),
            [[1.0, 1.0]],
            [1.0],
            np.zeros(2),
            np.ones(2),
        ),
        frozenset({0, 1}),
    )
    sol = solve_milp(p)
    assert sol.objective == pytest.approx(-4.0, abs=1e-9)
    assert sol.x[1] == pytest.approx(1.0, abs=1e-6)


def _random_mixed_binary(rng):
    n_bin = int(rng.integers(1, 7))
    n_cont = int(rng.integers(0, 9))
    n = n_bin + n_cont
    lo = np.concatenate([np.zeros(n_bin), rng.uniform(-3.0, 0.0, n_cont)])
    hi = np.concatenate([np.ones(n_bin), lo[n_bin:] + rng.uniform(0.5, 5.0, n_cont)])
    x_feas = rng.uniform(lo, hi)
    cons = []
    for _ in range(int(rng.integers(0, 9))):
        a = rng.normal(size=n)
        sense = rng.choice([LE, GE])
        base = float(a @ x_feas)
        rhs = base + (0.5 if sense == LE else -0.5) * abs(rng.normal())
        cons.append((a, sense, rhs))
    lp = LinearProgram(rng.normal(size=n), *stack_rows(cons, n), lo, hi)
    return MILPProblem(lp, frozenset(range(n_bin)))


def _milp_enumeration_oracle(problem: MILPProblem) -> float:
    lp = problem.lp
    binaries = sorted(problem.binary_vars)
    best = math.inf
    for bits in itertools.product((0.0, 1.0), repeat=len(binaries)):
        lo, hi = lp.lower.copy(), lp.upper.copy()
        for j, v in zip(binaries, bits):
            lo[j] = hi[j] = v
        sol = solve_lp(lp.with_bounds(lo, hi))
        if sol.status == Status.OPTIMAL:
            best = min(best, sol.objective)
    return best


def test_milp_against_binary_enumeration():
    rng = np.random.default_rng(101)
    for _ in range(100):
        problem = _random_mixed_binary(rng)
        sol = solve_milp(problem)
        oracle = _milp_enumeration_oracle(problem)
        if sol.status == Status.OPTIMAL:
            assert sol.objective == pytest.approx(oracle, abs=1e-6)
            assert check_solution(problem, sol.x) <= 1e-6
        else:
            assert oracle == math.inf


def test_milp_deterministic():
    rng = np.random.default_rng(5)
    problem = _random_mixed_binary(rng)
    a = solve_milp(problem)
    b = solve_milp(problem)
    assert a.status == b.status
    assert a.objective == b.objective


def test_milp_node_cap_returns_incumbent():
    rng = np.random.default_rng(9)
    # A problem that needs branching: fractional LP optimum on binaries.
    problem = MILPProblem(
        LinearProgram(
            np.array([-1.0, -1.0, -1.0]),
            [[2.0, 2.0, 2.0]],
            [3.0],
            np.zeros(3),
            np.ones(3),
        ),
        frozenset({0, 1, 2}),
    )
    sol = solve_milp(problem, node_cap=2)
    assert sol.status == Status.ITERATION_LIMIT
    full = solve_milp(problem)
    assert full.status == Status.OPTIMAL
    assert full.objective == pytest.approx(-1.0, abs=1e-9)


def test_milp_binary_bounds_validation():
    lp = LinearProgram(np.array([1.0]), *NO_ROWS, np.array([0.0]), np.array([2.0]))
    with pytest.raises(ValueError):
        MILPProblem(lp, frozenset({0}))


def _highs_lp(lp: LinearProgram):
    """``scipy.optimize.linprog`` (HiGHS) on the same LP."""
    return linprog(
        lp.objective,
        A_ub=lp.A,
        b_ub=lp.b,
        bounds=list(zip(lp.lower, lp.upper)),
        method="highs",
    )


def test_lp_warm_start_is_exact():
    # A branch-and-bound child differs from its parent by one variable's
    # bounds; started from the parent's basis it must land on the optimum a
    # cold start and HiGHS find, or report infeasibility when the new bound
    # leaves the polytope.
    rng = np.random.default_rng(11)
    infeasible_children = 0
    for _ in range(50):
        n = int(rng.integers(2, 13))
        lo = rng.uniform(-5.0, 0.0, n)
        hi = lo + rng.uniform(0.5, 8.0, n)
        x_feas = rng.uniform(lo, hi)
        cons = []
        for _ in range(int(rng.integers(1, 21))):
            a = rng.normal(size=n)
            sense = rng.choice([LE, GE, EQ], p=[0.5, 0.3, 0.2])
            slack = {LE: 0.5, GE: -0.5, EQ: 0.0}[sense] * abs(rng.normal())
            cons.append((a, sense, float(a @ x_feas) + slack))
        lp = LinearProgram(rng.normal(size=n), *stack_rows(cons, n), lo, hi)
        parent = solve_lp(lp)
        assert parent.status == Status.OPTIMAL

        j = int(rng.integers(n))
        value = float(rng.uniform(lo[j], hi[j]))
        child_lo, child_hi = lo.copy(), hi.copy()
        child_lo[j] = child_hi[j] = value
        child_lp = lp.with_bounds(child_lo, child_hi)
        warm = solve_lp(child_lp, basis=parent.basis)
        cold = solve_lp(child_lp)
        ref = _highs_lp(child_lp)
        if ref.status == 2:
            infeasible_children += 1
            assert warm.status == cold.status == Status.INFEASIBLE
            continue
        assert ref.success
        assert warm.status == cold.status == Status.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, abs=1e-6)
        assert warm.objective == pytest.approx(ref.fun, abs=1e-6)
        assert check_solution(child_lp, warm.x) <= 1e-7
    assert infeasible_children >= 5


def test_numerical_vertex_is_never_optimal(monkeypatch):
    lp = LinearProgram(
        np.array([-1.0, -1.0]),
        [[1.0, 1.0]],
        [1.5],
        np.zeros(2),
        np.ones(2),
    )
    monkeypatch.setattr(lp_milp, "check_solution", lambda problem, x, tol=1e-7: 1.0)
    sol = solve_lp(lp)
    assert sol.status == Status.NUMERICAL and sol.x is None
    assert solve_milp(MILPProblem(lp, frozenset({0, 1}))).status == Status.NUMERICAL


def test_numerical_warm_root_is_retried_cold(monkeypatch):
    """A start whose root ends ``NUMERICAL`` is solved again cold, and the
    retry counts as a node: one ``solve_lp`` call per node explored."""
    rng = np.random.default_rng(13)
    problems = [_random_mixed_binary(rng) for _ in range(6)]
    problems.append(MILPProblem(problems[0].lp, frozenset()))  # a plain LP
    for problem in problems:
        cold = solve_milp(problem)
        start = solve_milp(problem).basis
        calls = []
        real = lp_milp.solve_lp

        def numerical_warm_root(lp, max_iterations=None, basis=None, _tableau=None):
            calls.append(basis is None)
            if basis is not None and _tableau is None:  # the warm root
                return lp_milp.MILPSolution(Status.NUMERICAL, None, math.inf, 0, basis)
            return real(lp, max_iterations, basis, _tableau)

        monkeypatch.setattr(lp_milp, "solve_lp", numerical_warm_root)
        retried = solve_milp(replace(problem, start=start))
        monkeypatch.setattr(lp_milp, "solve_lp", real)
        assert calls[:2] == [False, True]  # warm root, then the cold one
        assert retried.status == cold.status
        assert retried.objective == cold.objective
        assert retried.nodes_explored == cold.nodes_explored + 1 == len(calls)


def _random_rows(rng, n, m):
    """``m`` random ``(a, sense, rhs)`` rows of every sense, feasible at a
    planted point of the box ``[lo, hi]``; returns the rows and the box."""
    lo = rng.uniform(-3.0, 0.0, n)
    hi = lo + rng.uniform(0.5, 4.0, n)
    x_feas = rng.uniform(lo, hi)
    cons = []
    for _ in range(m):
        a = rng.normal(size=n)
        sense = rng.choice([LE, GE, EQ], p=[0.5, 0.3, 0.2])
        slack = {LE: 0.5, GE: -0.5, EQ: 0.0}[sense] * abs(rng.normal())
        cons.append((a, sense, float(a @ x_feas) + slack))
    return tuple(cons), lo, hi


def test_lp_from_arrays_validation():
    c, lo, hi = np.ones(2), np.zeros(2), np.ones(2)
    A, b = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 2.0])
    lp = LinearProgram(c, A, b, lo, hi)
    assert np.array_equal(lp.A, A) and np.array_equal(lp.b, b)
    assert not (lp.A.flags.writeable or lp.b.flags.writeable)
    for bad_A, bad_b in [
        (np.array([[1.0, np.nan], [3.0, 4.0]]), b),
        (A, np.array([1.0, np.inf])),
        (A[:, :1], b),
        (A, b[:1]),
        (A[0], b[:1]),
        (np.ones((1, 3)), [1.0]),
        (np.zeros((0, 3)), np.zeros(0)),  # no rows, but still the wrong width
        (np.zeros(0), np.zeros(0)),
    ]:
        with pytest.raises(ValueError):
            LinearProgram(c, bad_A, bad_b, lo, hi)


def test_lp_constraints_view_round_trips():
    rng = np.random.default_rng(12)
    cons, lo, hi = _random_rows(rng, 4, 12)
    lp = LinearProgram(rng.normal(size=4), *stack_rows(cons, 4), lo, hi)
    again = LinearProgram(lp.objective, *stack_rows(lp.constraints, 4), lo, hi)
    for x, y in zip((lp.A, lp.b), (again.A, again.b)):
        assert np.array_equal(x, y)
    assert lp.constraints is lp.with_bounds(lo, hi).constraints
    # Rows come back in order, every one a <= row of A x <= b.
    assert len(lp.constraints) == lp.b.size > len(cons)
    for view, a, rhs in zip(lp.constraints, lp.A, lp.b):
        assert view.sense == LE
        assert np.array_equal(view.coeffs, a) and view.rhs == rhs

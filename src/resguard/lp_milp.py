"""Self-contained dense LP and mixed-binary solver.

Every LP is ``min c . x`` subject to ``A x <= b`` and finite box bounds.
``solve_lp`` runs a bounded-variable primal simplex on the standard form
``[A | I] z = b``: one slack per row, each in ``[0, inf)``.  Variable
bounds are never rows; each nonbasic column rests at its lower or upper
bound.  Phase 1 is composite: while a basic variable is out of bounds the
pricing minimizes the sum of bound violations, then it minimizes the true
cost.  Basic values and reduced costs are recomputed from the tableau on
every iteration, so no cost row can drift.  Dantzig pricing is used until
a run of degenerate pivots, after which Bland's rule takes over to rule
out cycling.  Any basis can start the method: the slack basis with every
structural variable at its lower bound (cold), or any other basis, which
is refactorized.

``solve_milp`` wraps it in branch-and-bound over the binary variables with
best-bound node selection and most-fractional branching.  The root starts
from the problem's own starting basis when it has one, else cold.  That
basis may be any basis of an LP with the same rows and columns: the attack
MILP's no-op attack, or the root basis of a related MILP solved before it,
which every solve returns in ``MILPSolution.basis``.  A start that is
singular for the rows, or whose root ends ``NUMERICAL``, is retried once
cold.  Each child is warm-started from its parent's final basis, since the
two differ by one bound; the parent's basis is factored once for both
children.  A vertex that fails ``check_solution`` is reported as
``NUMERICAL``, never as ``OPTIMAL``.

Sizes here are a few hundred variables at most, so everything is dense.
"""

from __future__ import annotations

import copy
import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from typing import NamedTuple

import numpy as np

# Every row is ``LE``.  ``perfbench/workloads.py::highs_objective`` reads the
# rows through ``LinearProgram.constraints`` and tests their sense against
# ``LE`` and ``GE``, so both names and that view stay.
LE, GE = "<=", ">="

_PIVOT_TOL = 1e-10
_RCOST_TOL = 1e-9
_PRIMAL_TOL = 1e-9  # basic values this far outside their bounds are infeasible
_FEAS_TOL = 1e-7
_INT_TOL = 1e-6
_BOUND_TOL = 1e-9  # incumbent pruning tolerance in branch-and-bound


class Status(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration_limit"
    NUMERICAL = "numerical"  # no vertex that passes check_solution was found


class Constraint(NamedTuple):
    """One row ``coeffs . x <= rhs`` of ``LinearProgram.constraints``."""

    coeffs: np.ndarray
    sense: str
    rhs: float


class LinearProgram:
    """Minimize ``objective . x`` subject to ``A x <= b`` and finite box
    bounds.

    The arrays are validated once, as whole arrays, and made read-only;
    ``with_bounds`` copies share them.  ``A`` needs one column per variable
    even when it has no rows.
    """

    def __init__(self, objective, A, b, lower, upper):
        c = np.array(objective, dtype=float)
        if c.ndim != 1:
            raise ValueError("objective and bounds must be vectors of equal length")
        if not np.all(np.isfinite(c)):
            raise ValueError("objective and bounds must be finite")
        A = np.array(A, dtype=float)
        b = np.array(b, dtype=float)
        if A.ndim != 2 or A.shape[1] != c.size:
            raise ValueError("constraint length does not match variable count")
        if b.shape != (A.shape[0],):
            raise ValueError("constraint matrix and right-hand side must have matching rows")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("constraint data must be finite")
        # ``[A | I | b]``, the tableau of the slack basis, which every
        # factorization solves against; ``with_bounds`` copies share it.
        full = np.hstack([A, np.eye(b.size), b[:, None]])
        for array in (c, A, b, full):
            array.flags.writeable = False
        self.objective, self.A, self.b, self._full = c, A, b, full
        self._set_bounds(lower, upper)

    def _set_bounds(self, lower: np.ndarray, upper: np.ndarray) -> None:
        lo = np.asarray(lower, dtype=float)
        hi = np.asarray(upper, dtype=float)
        if lo.shape != self.objective.shape or hi.shape != self.objective.shape:
            raise ValueError("objective and bounds must be vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("objective and bounds must be finite")
        if np.any(lo > hi + 1e-12):
            raise ValueError("lower bound exceeds upper bound")
        self.lower = lo
        self.upper = np.maximum(hi, lo)

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @cached_property
    def constraints(self) -> tuple[Constraint, ...]:
        """The rows of ``A x <= b`` as ``Constraint``s, in order."""
        return tuple(Constraint(a, LE, float(r)) for a, r in zip(self.A, self.b))

    def with_bounds(self, lower: np.ndarray, upper: np.ndarray) -> "LinearProgram":
        """The same rows and objective under new bounds; only the bounds are
        validated."""
        child = copy.copy(self)
        child._set_bounds(lower, upper)
        return child


class Basis(NamedTuple):
    """A simplex basis over ``[x | slacks]``: the column basic in each row,
    and which nonbasic columns rest at their upper bound."""

    basic: np.ndarray
    at_upper: np.ndarray


@dataclass(frozen=True)
class MILPProblem:
    """``lp`` with ``binary_vars`` restricted to {0, 1}.  ``start``, when
    given, is a basis over ``lp``'s rows and columns that the root
    relaxation starts from."""

    lp: LinearProgram
    binary_vars: frozenset[int]
    start: Basis | None = None

    def __post_init__(self):
        idx = np.fromiter(self.binary_vars, dtype=int)
        out_of_range = idx[(idx < 0) | (idx >= self.lp.n_vars)]
        if out_of_range.size:
            raise ValueError(f"binary index {out_of_range[0]} out of range")
        unbounded = idx[(self.lp.lower[idx] < -1e-9) | (self.lp.upper[idx] > 1 + 1e-9)]
        if unbounded.size:
            raise ValueError(f"binary variable {unbounded[0]} must have bounds within [0, 1]")
        object.__setattr__(self, "binary_vars", frozenset(idx.tolist()))


@dataclass
class MILPSolution:
    """A solve's outcome.  ``basis`` is the final basis of the LP that
    ``solve_lp`` solved, or of ``solve_milp``'s root relaxation."""

    status: Status
    x: np.ndarray | None
    objective: float
    nodes_explored: int = 0
    basis: Basis | None = None


def _factor(lp: LinearProgram, basic: np.ndarray) -> np.ndarray:
    """The tableau ``B^-1 [A | I | b]`` of the basis whose columns are ``basic``."""
    return np.linalg.solve(lp._full[:, basic], lp._full)


def solve_lp(
    lp: LinearProgram,
    max_iterations: int | None = None,
    basis: Basis | None = None,
    _tableau: np.ndarray | None = None,
) -> MILPSolution:
    """Bounded-variable primal simplex over the boxed polytope.

    Starts from ``basis`` when given (a basis of an LP with the same rows,
    such as the parent of a branch-and-bound node), else from the slack
    basis.  ``max_iterations`` caps pivots plus bound flips.  On success
    returns a vertex and its final basis.  ``_tableau`` is ``basis``
    already factored by ``_factor``, which the solve then overwrites.
    """
    m, n = lp.b.size, lp.n_vars
    N = n + m
    lo = np.concatenate([lp.lower, np.zeros(m)])
    hi = np.concatenate([lp.upper, np.full(m, np.inf)])
    cost = np.concatenate([lp.objective, np.zeros(m)])
    movable = hi > lo
    if max_iterations is None:
        max_iterations = 10 * N**2 + 100

    if basis is None:  # cold: the slack basis, structurals at their lower bounds
        basis = Basis(np.arange(n, N), np.zeros(N, dtype=bool))
    if basis.basic.shape != (m,) or basis.at_upper.shape != (N,):
        raise ValueError("basis does not match the LP's shape")
    basic, at_upper = basis.basic.copy(), basis.at_upper.copy()
    T = _factor(lp, basic) if _tableau is None else _tableau
    # Nonbasic values, and the sign that turns a reduced cost into the
    # gain of moving a nonbasic column off its bound (0: basic or fixed).
    z = np.where(at_upper, hi, lo)
    sign = np.where(movable, np.where(at_upper, 1.0, -1.0), 0.0)
    z[basic] = sign[basic] = 0.0
    fresh = True  # T was just factorized, not updated by pivots
    iterations = stall = 0
    bland = False
    stall_limit = 3 * (N + 1)

    def done(status: Status, x: np.ndarray | None = None) -> MILPSolution:
        objective = float(lp.objective @ x) if x is not None else math.inf
        return MILPSolution(status, x, objective, 0, Basis(basic.copy(), at_upper.copy()))

    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            x_b = T[:, -1] - T[:, :N] @ z
            lo_b, hi_b = lo[basic], hi[basic]
            below = x_b < lo_b - _PRIMAL_TOL
            above = x_b > hi_b + _PRIMAL_TOL
            infeasible = bool(below.any() or above.any())
            if infeasible:
                # Phase 1 prices the sum of bound violations.  A violated
                # basic may move toward its bound until it reaches it, and
                # away from it without limit.
                gain = sign * ((below.astype(float) - above) @ T[:, :N])
                up_to = np.where(above, np.inf, np.where(below, lo_b, hi_b))
                down_to = np.where(below, -np.inf, np.where(above, hi_b, lo_b))
            else:
                gain = sign * (cost - cost[basic] @ T[:, :N])
                up_to, down_to = hi_b, lo_b
            q = int(np.argmax(gain))

            if gain[q] <= _RCOST_TOL:
                if not infeasible:
                    values = z.copy()
                    values[basic] = x_b
                    x = np.clip(values[:n], lp.lower, lp.upper)
                    if check_solution(lp, x) <= _FEAS_TOL:
                        return done(Status.OPTIMAL, x)
                if not fresh:  # rule out drift in the updated tableau first
                    T, fresh = _factor(lp, basic), True
                    continue
                return done(Status.INFEASIBLE if infeasible else Status.NUMERICAL)
            if iterations >= max_iterations:
                return done(Status.ITERATION_LIMIT)
            if bland:
                q = int(np.flatnonzero(gain > _RCOST_TOL)[0])

            # Rate of change of each basic value as column q leaves its bound.
            alpha = sign[q] * T[:, q]
            ratio = np.maximum((np.where(alpha > 0, up_to, down_to) - x_b) / alpha, 0.0)
            ratio[np.abs(alpha) <= _PIVOT_TOL] = np.inf
            theta = float(ratio.min(initial=np.inf))
            flip = hi[q] - lo[q]
            if not math.isfinite(min(theta, flip)):
                return done(Status.NUMERICAL)  # no ray exists in a boxed LP
            iterations += 1
            if flip <= theta:
                at_upper[q] = not at_upper[q]
                z[q] = hi[q] if at_upper[q] else lo[q]
                sign[q] = -sign[q]
                step = flip
            else:
                ties = ratio <= theta + 1e-12
                if bland:
                    r = int(np.argmin(np.where(ties, basic, N)))
                else:
                    r = int(np.argmax(np.where(ties, np.abs(alpha), -1.0)))
                # The leaving column rests at the bound it reached.
                out = basic[r]
                at_upper[out] = (alpha[r] > 0 and not below[r]) or (alpha[r] < 0 and above[r])
                z[out] = hi[out] if at_upper[out] else lo[out]
                sign[out] = (1.0 if at_upper[out] else -1.0) if movable[out] else 0.0
                pivot_row = T[r] / T[r, q]
                T -= np.outer(T[:, q], pivot_row)
                T[r] = pivot_row
                basic[r] = q
                at_upper[q] = False
                z[q] = sign[q] = 0.0
                fresh = False
                step = theta
            if step * gain[q] <= 1e-12:
                stall += 1
                bland = bland or stall > stall_limit
            else:
                stall, bland = 0, False


def _most_fractional(x: np.ndarray, binaries: list[int]) -> tuple[int, float]:
    best, best_frac = -1, -1.0
    for j in binaries:
        frac = abs(x[j] - round(x[j]))
        if frac > best_frac + 1e-15:
            best, best_frac = j, frac
    return best, best_frac


def _solve_root(problem: MILPProblem) -> tuple[MILPSolution, int]:
    """The root relaxation and the number of LPs it took.

    It starts from ``problem.start`` when given.  A start basis that is
    singular for these rows, or whose solve ends ``NUMERICAL``, is given up
    for one cold solve from the slack basis.
    """
    if problem.start is None:
        return solve_lp(problem.lp), 1
    try:
        root = solve_lp(problem.lp, basis=problem.start)
        if root.status != Status.NUMERICAL:
            return root, 1
    except np.linalg.LinAlgError:
        pass
    return solve_lp(problem.lp), 2


def solve_milp(problem: MILPProblem, node_cap: int | None = None) -> MILPSolution:
    """Branch-and-bound over the binaries, exact to the LP layer's tolerance.

    The root relaxation starts from ``problem.start`` when given, else cold.
    The start may be any basis of an LP with the same rows and columns, such
    as the ``basis`` of an earlier solve; one that is singular here or ends
    ``NUMERICAL`` is retried once cold, and the retry counts as a node.
    Nodes are explored best-bound first; branching picks the most-fractional
    binary, and both children start from their parent's final basis,
    factored once for the pair.  Hitting the node cap returns
    ``ITERATION_LIMIT``, and a node whose LP is ``NUMERICAL`` returns
    ``NUMERICAL`` at once; both carry the best incumbent so far.  Every
    exit returns the root relaxation's final basis in ``basis``.
    """
    lp = problem.lp
    binaries = sorted(problem.binary_vars)
    root, nodes_explored = _solve_root(problem)
    if not binaries:
        root.nodes_explored = nodes_explored
        return root
    if node_cap is None:
        node_cap = 2 ** min(len(binaries), 40) + 1000

    def done(status: Status, x: np.ndarray | None = None, objective: float = math.inf) -> MILPSolution:
        return MILPSolution(status, x, objective, nodes_explored, root.basis)

    if root.status in (Status.ITERATION_LIMIT, Status.NUMERICAL):
        return done(root.status)
    counter = 0
    heap: list = []
    incumbent: np.ndarray | None = None
    inc_obj = math.inf
    if root.status == Status.OPTIMAL:
        heapq.heappush(heap, (root.objective, counter, lp.lower, lp.upper, root.x, root.basis))

    while heap:
        bound, _, lo, hi, x, basis = heapq.heappop(heap)
        if bound >= inc_obj - _BOUND_TOL:
            break  # best-bound order: nothing left can improve
        j, frac = _most_fractional(x, binaries)
        if frac <= _INT_TOL:
            obj = float(lp.objective @ x)
            if obj < inc_obj:
                incumbent, inc_obj = x, obj
            continue
        tableau = _factor(lp, basis.basic)
        for val in (0.0, 1.0):
            if nodes_explored >= node_cap:
                return done(Status.ITERATION_LIMIT, incumbent, inc_obj)
            child_lo, child_hi = lo.copy(), hi.copy()
            child_lo[j] = child_hi[j] = val
            child = solve_lp(lp.with_bounds(child_lo, child_hi), basis=basis, _tableau=tableau.copy())
            nodes_explored += 1
            if child.status in (Status.NUMERICAL, Status.ITERATION_LIMIT):
                return done(child.status, incumbent, inc_obj)
            if child.status != Status.OPTIMAL:
                continue
            if child.objective < inc_obj - _BOUND_TOL:
                counter += 1
                heapq.heappush(heap, (child.objective, counter, child_lo, child_hi, child.x, child.basis))

    if incumbent is None:
        return done(Status.INFEASIBLE)
    return done(Status.OPTIMAL, incumbent, inc_obj)


def check_solution(problem: MILPProblem | LinearProgram, x: np.ndarray) -> float:
    """Worst constraint violation of ``x`` against the raw problem data."""
    lp = problem.lp if isinstance(problem, MILPProblem) else problem
    worst = max(
        float(np.max(lp.A @ x - lp.b, initial=0.0)),
        float(np.max(lp.lower - x, initial=0.0)),
        float(np.max(x - lp.upper, initial=0.0)),
    )
    if isinstance(problem, MILPProblem) and problem.binary_vars:
        xb = x[sorted(problem.binary_vars)]
        worst = max(worst, float(np.max(np.abs(xb - np.round(xb)))))
    return worst

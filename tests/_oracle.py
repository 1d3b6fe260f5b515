"""Independent brute-force oracles for the solvers, plus an executable
hardness reduction.

``oracle_attack_enumerate`` replaces the mixed-binary machinery with plain
subset enumeration over the attacked-sensor support, solving one small LP
per support, so it is exact for affine banks.  ``oracle_attack_grid``
exhaustively grids the perturbation space and verifies stealth by exact
forward propagation, which works for any model family.

The reduction maps a maximum-independent-set instance onto an attack
decision problem with count-based detectors; ``arp_decision_bruteforce``
solves that decision problem by brute force so the construction can be
checked against ``mis_bruteforce`` on every small graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from resguard.attack import AttackInstance
from resguard.detector import PredictorBank, ThresholdConfig
from resguard.lp_milp import LinearProgram, Status, solve_lp
from resguard.models import LinearModel, predict_batch

_ENUM_LIMIT = 20
_GRID_DIM_LIMIT = 3


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 0..n-1 with no self-loops."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        norm = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))

    def adjacency_masks(self) -> list[int]:
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return adj

    @cached_property
    def independent(self) -> list[bool]:
        """Whether each vertex subset, indexed by bitmask, has no internal
        edge (a DP over the lowest vertex; built once per graph)."""
        adj = self.adjacency_masks()
        indep = [True] * (1 << self.n)
        for mask in range(1, 1 << self.n):
            low = (mask & -mask).bit_length() - 1
            rest = mask & (mask - 1)
            indep[mask] = indep[rest] and not (adj[low] & rest)
        return indep


def mis_bruteforce(g: Graph, k: int) -> bool:
    """True iff some vertex subset of size ``k`` has no internal edge."""
    if g.n > _ENUM_LIMIT:
        raise ValueError(f"graph too large for brute force (n={g.n})")
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} outside [1, {g.n}]")
    for subset in itertools.combinations(range(g.n), k):
        chosen = set(subset)
        if all(not (u in chosen and v in chosen) for u, v in g.edges):
            return True
    return False


@dataclass(frozen=True)
class ReductionInstance:
    """Attack decision instance built from a graph and cardinality ``k``.

    Sensors are the graph vertices plus one extra critical sensor ``c``
    (index ``n``); every sensor has a detector with threshold 0, the clean
    measurement is all-zero, the budget is ``k + 1``, and the attack
    succeeds if sensor ``c`` reports at least ``k + 1``.  Each detector
    predicts the total count of nonzero readings, provided its own reading
    is nonzero and the nonzero vertices form an independent set; otherwise
    it predicts zero.
    """

    graph: Graph
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= self.graph.n:
            raise ValueError(f"k={self.k} outside [1, {self.graph.n}]")

    @property
    def n_sensors(self) -> int:
        return self.graph.n + 1

    @property
    def c_index(self) -> int:
        return self.graph.n

    @property
    def budget(self) -> int:
        return self.k + 1

    @property
    def target_value(self) -> int:
        return self.k + 1

    @property
    def thresholds(self) -> np.ndarray:
        return np.zeros(self.n_sensors)

    @property
    def baseline(self) -> np.ndarray:
        return np.zeros(self.n_sensors)

    def predictor(self, sensor: int, y: np.ndarray) -> float:
        """Count-based detector of the construction (``c`` carries no edges)."""
        if y[sensor] == 0:
            return 0.0
        others = [v for v in range(self.graph.n) if v != sensor and y[v] != 0]
        chosen = set(others)
        for u, v in self.graph.edges:
            if u in chosen and v in chosen:
                return 0.0
        return float(np.count_nonzero(y))


def mis_reduce(g: Graph, k: int) -> ReductionInstance:
    """Construct the attack decision instance equivalent to MIS(g, k)."""
    return ReductionInstance(g, k)


def arp_decision_bruteforce(inst: ReductionInstance) -> bool:
    """Decide the reduced attack problem by brute force.

    Searches attacks whose per-sensor values are 0 or ``k + 1`` (the value
    the construction's solutions use) over every support of size at most
    the budget, and checks all detector residuals against the zero
    thresholds.  A support without ``c`` leaves ``y_c = 0``, short of the
    objective ``y_c >= k + 1``, so only supports holding ``c`` are built,
    as bitmasks over the sensors.
    """
    n = inst.graph.n
    if n > 10:
        raise ValueError(f"instance too large for brute force (n={n})")
    c = inst.c_index
    value = inst.target_value
    indep = inst.graph.independent  # sensor c has no edges and never matters
    sensors = range(inst.n_sensors)

    def stealthy(support: int, total: int) -> bool:
        vertices = support & ~(1 << c)
        for s in sensors:
            reading = value if support >> s & 1 else 0
            pred = total if reading and indep[vertices & ~(1 << s)] else 0
            if abs(reading - pred) > 0:
                return False
        return True

    for size in range(1, inst.budget + 1):
        for others in itertools.combinations(range(n), size - 1):
            support = 1 << c
            for v in others:
                support |= 1 << v
            if stealthy(support, size):
                return True
    return False


def _subset_lp(bank: PredictorBank, tau: ThresholdConfig, inst: AttackInstance, target: int, support) -> LinearProgram:
    """LP over y_tilde alone with the attacked support fixed."""
    sensors = inst.sensor_columns
    pos = {s: i for i, s in enumerate(sensors)}
    d = len(sensors)
    y = inst.y
    dlo, dhi = inst.delta_bounds()

    lower = np.empty(d)
    upper = np.empty(d)
    chosen = set(support)
    for s in sensors:
        i = pos[s]
        if s in chosen:
            lower[i], upper[i] = y[s] + dlo[s], y[s] + dhi[s]
        else:
            lower[i] = upper[i] = y[s]

    # Each detector's residual within [-tau, tau]: a pair of rows.
    A = np.zeros((2 * len(bank.detector_set), d))
    rhs = np.zeros(A.shape[0])
    for k, s in enumerate(bank.detector_set):
        entry = bank.detectors[s]
        model: LinearModel = entry.model
        row = A[2 * k]
        row[pos[s]] = 1.0
        const = model.b
        for w_j, f in zip(model.w, entry.feature_indices):
            f = int(f)
            if f in pos:
                row[pos[f]] -= w_j
            else:
                const += w_j * y[f]
        A[2 * k + 1] = -row
        rhs[2 * k], rhs[2 * k + 1] = tau.tau[s] + const, tau.tau[s] - const

    objective = np.zeros(d)
    objective[pos[target]] = inst.direction.sign
    return LinearProgram(objective, A, rhs, lower, upper)


def oracle_attack_enumerate(
    bank: PredictorBank,
    tau: ThresholdConfig,
    inst: AttackInstance,
    target: int,
) -> float:
    """Exact attack objective for an affine bank by support enumeration.

    Every subset of attackable sensors of size at most the budget is tried
    as the attacked support; each gives a plain LP in ``y_tilde``.  Returns
    the best feasible objective, or the clean value when no support admits
    a stealthy attack.
    """
    attackable = sorted(inst.attackable)
    if len(attackable) > _ENUM_LIMIT:
        raise ValueError(f"too many attackable sensors ({len(attackable)}) to enumerate")
    if target not in inst.critical:
        raise ValueError(f"target {target} is not a critical sensor")
    sign = inst.direction.sign
    best = None
    for size in range(inst.budget + 1):
        for support in itertools.combinations(attackable, size):
            lp = _subset_lp(bank, tau, inst, target, support)
            sol = solve_lp(lp)
            if sol.status != Status.OPTIMAL:
                continue
            val = float(sol.x[inst.sensor_columns.index(target)])
            if best is None or sign * val < sign * best:
                best = val
    return float(inst.y[target]) if best is None else best


def oracle_attack_grid(
    bank: PredictorBank,
    tau: ThresholdConfig,
    inst: AttackInstance,
    target: int,
    step: float,
) -> float | None:
    """Best feasible objective over an exhaustive perturbation grid.

    Works for any model family: feasibility is exact forward propagation.
    Returns ``None`` when no grid point (including the clean one) is
    stealthy.  Limited to 3 attackable sensors.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    attackable = sorted(inst.attackable)
    if len(attackable) > _GRID_DIM_LIMIT:
        raise ValueError(f"grid oracle supports at most {_GRID_DIM_LIMIT} attackable sensors")
    if target not in inst.critical:
        raise ValueError(f"target {target} is not a critical sensor")

    dlo, dhi = inst.delta_bounds()
    axes = []
    for s in attackable:
        neg = np.arange(0.0, dlo[s] - 1e-12, -step)
        pos = np.arange(0.0, dhi[s] + 1e-12, step)
        axes.append(np.unique(np.concatenate([neg[::-1], pos])))

    mesh = np.meshgrid(*axes, indexing="ij") if axes else []
    if axes:
        deltas = np.stack([m.ravel() for m in mesh], axis=1)
    else:
        deltas = np.zeros((1, 0))
    support_ok = np.count_nonzero(deltas, axis=1) <= inst.budget
    deltas = deltas[support_ok]

    rows = np.tile(inst.y, (deltas.shape[0], 1))
    for j, s in enumerate(attackable):
        rows[:, s] += deltas[:, j]

    feasible = np.ones(rows.shape[0], dtype=bool)
    for s in bank.detector_set:
        entry = bank.detectors[s]
        preds = predict_batch(entry.model, rows[:, entry.feature_indices])
        feasible &= np.abs(preds - rows[:, s]) <= tau.tau[s]
        if not feasible.any():
            return None
    values = rows[feasible, target]
    if values.size == 0:
        return None
    sign = inst.direction.sign
    return float(sign * np.min(sign * values))

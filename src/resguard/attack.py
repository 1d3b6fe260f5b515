"""Stealthy sensor-attack synthesis against a detector bank.

The attacker perturbs up to ``budget`` sensor readings, each by at most
``eta``, so that every detector residual stays at or below its threshold,
while pushing one critical sensor's observed value as low (or high) as
possible.  For affine banks this is an exact mixed-binary program; for
neural or ensemble banks the problem is attacked iteratively: linearize
every detector at the current operating point, solve the MILP inside a
trust region, verify the candidate by exact forward propagation, and halve
the trust radius whenever the linearization lied.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .detector import PredictorBank, ThresholdConfig, residuals
from .lp_milp import Basis, LinearProgram, MILPProblem, Status, solve_milp
from .models import taylor_linearize
from .plant import Dataset

STEALTH_TOL = 1e-6     # certificate slack on residual - tau
_ACCEPT_TOL = 1e-7     # acceptance check inside the iterative attack
_CLEAN_TOL = 1e-9      # perturbations below this are treated as zero


class Direction(str, Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


@dataclass(frozen=True)
class AttackInstance:
    """One timestep's attack problem.

    ``y`` is the full measurement row (sensors and controls); only columns
    in ``attackable`` (default ``None``: every sensor) may be perturbed, and
    control columns never qualify.
    ``eta`` limits each perturbation (``inf`` defers to the per-sensor box
    ``[box_lo, box_hi]``, which also keeps the optimization bounded).
    """

    y: np.ndarray
    sensor_columns: tuple[int, ...]
    critical: tuple[int, ...]
    budget: int
    eta: np.ndarray | float = math.inf
    attackable: frozenset[int] | None = None
    direction: Direction = Direction.MINIMIZE
    box_lo: np.ndarray | None = None
    box_hi: np.ndarray | None = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 1:
            raise ValueError("y must be a vector")
        d = y.size
        sensors = tuple(int(s) for s in self.sensor_columns)
        if not sensors or any(not 0 <= s < d for s in sensors):
            raise ValueError("sensor_columns out of range")
        critical = tuple(int(s) for s in self.critical)
        if not critical or any(s not in sensors for s in critical):
            raise ValueError("critical sensors must be sensor columns")
        attackable = frozenset(sensors if self.attackable is None else (int(s) for s in self.attackable))
        if any(s not in sensors for s in attackable):
            raise ValueError("attackable set must contain only sensor columns")
        if self.budget < 0 or self.budget > len(attackable):
            raise ValueError(f"budget {self.budget} outside [0, {len(attackable)}]")
        eta = np.broadcast_to(np.asarray(self.eta, dtype=float), (d,)).copy()
        if np.any(eta < 0):
            raise ValueError("eta must be nonnegative")
        scale = np.maximum(1.0, np.abs(y))
        box_lo = np.asarray(self.box_lo, dtype=float) if self.box_lo is not None else y - 10.0 * scale
        box_hi = np.asarray(self.box_hi, dtype=float) if self.box_hi is not None else y + 10.0 * scale
        if box_lo.shape != y.shape or box_hi.shape != y.shape:
            raise ValueError("box bounds must match y")
        if np.any(box_lo > y) or np.any(box_hi < y):
            raise ValueError("box must contain the clean measurement")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "sensor_columns", sensors)
        object.__setattr__(self, "critical", critical)
        object.__setattr__(self, "attackable", attackable)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "box_lo", box_lo)
        object.__setattr__(self, "box_hi", box_hi)
        lo = np.maximum(-eta, box_lo - y)
        hi = np.minimum(eta, box_hi - y)
        mask = np.ones(d, dtype=bool)
        mask[list(attackable)] = False
        lo[mask] = 0.0
        hi[mask] = 0.0
        lo.flags.writeable = hi.flags.writeable = False
        object.__setattr__(self, "_delta_bounds", (lo, hi))

    def delta_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-column perturbation bounds: eta capped by the sensor box.
        Computed once, when the instance is made, and read-only."""
        return self._delta_bounds

    def at_row(self, y: np.ndarray) -> "AttackInstance":
        """The same attack posed at row ``y``, with the box widened to hold it."""
        return replace(self, y=y, box_lo=np.minimum(self.box_lo, y), box_hi=np.maximum(self.box_hi, y))


def instance_from_dataset(
    data: Dataset,
    row: int | np.ndarray,
    budget: int,
    eta: np.ndarray | float = math.inf,
    direction: Direction = Direction.MINIMIZE,
    attackable=None,
    critical=None,
) -> AttackInstance:
    """Build an instance from a dataset row, boxing sensors by the clean
    data range widened by 10x its span.  ``attackable=None`` means every
    sensor."""
    y = data.row(row) if isinstance(row, (int, np.integer)) else np.asarray(row, dtype=float)
    sensors = data.sensor_columns()
    lo = data.values.min(axis=0)
    hi = data.values.max(axis=0)
    span = np.maximum(hi - lo, 1.0)
    return AttackInstance(
        y=y,
        sensor_columns=sensors,
        critical=tuple(critical) if critical is not None else data.critical_columns(),
        budget=budget,
        eta=eta,
        attackable=attackable,
        direction=direction,
        box_lo=np.minimum(lo - 10.0 * span, y),
        box_hi=np.maximum(hi + 10.0 * span, y),
    )


@dataclass(frozen=True)
class Alg1Config:
    """Parameters of the iterative linearize-solve-verify attack."""

    epsilon0: float
    epsilon_min: float
    n_max: int = 50

    def __post_init__(self):
        if self.epsilon0 <= 0 or self.epsilon_min <= 0:
            raise ValueError("step sizes must be positive")
        if self.epsilon_min >= self.epsilon0:
            raise ValueError("epsilon_min must be below epsilon0")
        if self.n_max < 1:
            raise ValueError("n_max must be positive")


def default_alg1_config(data: Dataset, n_max: int = 50) -> Alg1Config:
    """Step sizes from the clean data: epsilon0 is 10% of the mean sensor
    range, halved down to epsilon0 / 2**10."""
    sensors = list(data.sensor_columns())
    spans = data.values[:, sensors].max(axis=0) - data.values[:, sensors].min(axis=0)
    eps0 = 0.1 * float(np.mean(np.maximum(spans, 1e-6)))
    return Alg1Config(epsilon0=eps0, epsilon_min=eps0 / 2**10, n_max=n_max)


@dataclass(frozen=True)
class AttackResult:
    """Optimized attack for one instance.

    ``feasible`` certifies that every detector residual at ``y_tilde`` is
    within ``STEALTH_TOL`` of its threshold under exact forward propagation.
    The one honest unstealthy result is the no-op on a clean row that
    already alarms: ``solver_status="infeasible"`` when the exact MILP proves
    that no stealthy attack exists, ``"clean_alarm"`` when the iterative
    attack found none.
    """

    y_tilde: np.ndarray
    delta: np.ndarray
    alpha: np.ndarray
    target: int
    objective: float
    feasible: bool
    iterations: int
    solver_status: str = "optimal"

    @property
    def n_attacked(self) -> int:
        return int(np.count_nonzero(self.delta))


class SolverLimitError(RuntimeError):
    """The attack solver gave up before proving optimality."""


class NumericalError(RuntimeError):
    """The attack solver returned an answer that fails its certificate."""


def certify(result: AttackResult) -> AttackResult:
    """``result``, when it can be backed up.  Raises ``SolverLimitError``
    when the solver hit its node cap, and ``NumericalError`` for a solver
    fault or an attack that is not stealthy other than the honest no-op on
    a clean row that already alarms (see ``AttackResult``)."""
    if result.solver_status == "iteration_limit":
        raise SolverLimitError("attack solver hit its node cap; result is not proven optimal")
    if result.solver_status == "numerical":
        raise NumericalError("attack solver returned a candidate that fails the stealth certificate")
    if not result.feasible and result.solver_status not in ("infeasible", "clean_alarm"):
        raise NumericalError(f"attack is not stealthy (solver status {result.solver_status!r})")
    return result


def stealth_margin(bank: PredictorBank, tau: ThresholdConfig, rows: np.ndarray) -> float | np.ndarray:
    """Worst ``residual - tau`` across detectors, at a row (a float) or at
    each row of a matrix (a vector); <= 0 means fully stealthy."""
    res = residuals(bank, rows)
    margin = functools.reduce(np.maximum, (res[s] - tau.tau[s] for s in bank.detector_set))
    return margin if np.ndim(rows) == 2 else float(margin)


def _require_affine(bank: PredictorBank) -> None:
    if not bank.is_affine():
        raise TypeError("the detector bank is not affine")


def build_attack_milp(
    bank: PredictorBank,
    tau: ThresholdConfig,
    inst: AttackInstance,
    target: int,
    trust_radius: float | None = None,
    center: np.ndarray | None = None,
) -> MILPProblem:
    """Mixed-binary encoding of the stealthy attack over the perturbation.

    Variables are (delta, alpha) per sensor column.  Each detector's signed
    residual ``prediction - reading`` at ``y + delta`` is affine in delta:
    exact for a ``LinearModel``, the first-order expansion at ``center``
    otherwise.  Rows, filled straight into one matrix in this order: that
    residual within ``[-tau, tau]`` (a pair per detector), two-sided
    activation ``|delta| <= M alpha`` (a pair per attackable sensor, both
    signs, otherwise negative perturbations would not consume budget), and
    the budget row.  A nonlinear bank needs a finite trust region, which
    tightens the delta bounds to ``center +- trust_radius``.  When those
    bounds exclude 0 the sensor must be perturbed, so its ``alpha`` gets
    lower bound 1; the feasible set stays the same, and more such sensors
    than the budget make the root LP infeasible at once.

    The problem starts at the no-op attack ``delta = alpha = 0``: each
    attackable delta is basic in its row ``delta - M alpha <= 0`` and every
    other row keeps its slack.  That vertex is feasible whenever the clean
    reading passes every detector and the delta bounds hold 0 (they do
    unless a trust region is centred away from ``y``); otherwise the
    simplex's phase 1 repairs it.
    """
    local = trust_radius is not None and math.isfinite(trust_radius)
    if not local:
        _require_affine(bank)
    if target not in inst.critical:
        raise ValueError(f"target {target} is not a critical sensor")
    for s in bank.detector_set:
        if s not in tau.tau:
            raise ValueError(f"no threshold for detector {s}")

    sensors = list(inst.sensor_columns)
    d = len(sensors)
    y = inst.y
    center = y if center is None else np.asarray(center, dtype=float)
    pos = np.full(y.size, -1)  # column -> its delta variable, -1 if not a sensor
    pos[sensors] = np.arange(d)

    dlo, dhi = inst.delta_bounds()
    if local:
        dlo = np.maximum(dlo, center - trust_radius - y)
        dhi = np.minimum(dhi, center + trust_radius - y)

    attackable = sorted(inst.attackable)
    att = pos[attackable]
    n_det, n_att = len(bank.detector_set), len(attackable)
    n = 2 * d  # [delta | alpha]
    A = np.zeros((2 * n_det + 2 * n_att + 1, n))
    rhs = np.zeros(A.shape[0])

    for k, s in enumerate(bank.detector_set):
        entry = bank.detectors[s]
        feats = entry.feature_indices
        w, b = taylor_linearize(entry.model, center[feats])
        # The residual at y + delta is r0 - row . delta.
        r0 = float(w @ y[feats]) + b - y[s]
        row = A[2 * k]
        row[pos[s]] = 1.0
        cols = pos[feats]
        keep = cols >= 0
        np.subtract.at(row, cols[keep], w[keep])
        A[2 * k + 1] = -row
        t = tau.tau[s]
        rhs[2 * k] = t + r0
        rhs[2 * k + 1] = t - r0

    # Activation rows delta - M alpha <= 0 and -delta - M alpha <= 0 per
    # attackable sensor; M must dominate the perturbation box or alpha
    # would clip delta.
    act = 2 * n_det + 2 * np.arange(n_att)
    big_m = np.maximum(np.abs(dlo[attackable]), np.abs(dhi[attackable]))
    A[act, att] = 1.0
    A[act + 1, att] = -1.0
    A[act, d + att] = A[act + 1, d + att] = -big_m
    A[-1, d + att] = 1.0  # the budget row
    rhs[-1] = float(inst.budget)

    lower = np.zeros(n)
    upper = np.zeros(n)
    lower[:d] = dlo[sensors]
    upper[:d] = dhi[sensors]
    upper[d + att] = 1.0
    # Presolve: a sensor whose delta box excludes 0 is attacked.
    forced = (dlo[attackable] > 0.0) | (dhi[attackable] < 0.0)
    lower[d + att[forced]] = 1.0

    objective = np.zeros(n)
    objective[pos[target]] = 1.0 if inst.direction == Direction.MINIMIZE else -1.0
    lp = LinearProgram(objective, A, rhs, lower, upper)
    N = n + A.shape[0]
    basic = np.arange(n, N)
    basic[act] = att
    return MILPProblem(lp, frozenset((d + att).tolist()), Basis(basic, np.zeros(N, dtype=bool)))


def _delta(inst: AttackInstance, x: np.ndarray) -> np.ndarray:
    """Full-row perturbation from a solution of ``build_attack_milp``."""
    delta = np.zeros_like(inst.y)
    delta[list(inst.sensor_columns)] = x[: len(inst.sensor_columns)]
    return delta


def _clean(inst: AttackInstance, delta: np.ndarray) -> np.ndarray:
    """``delta`` with solver slop zeroed and clamped into the perturbation bounds."""
    delta = np.where(np.abs(delta) < _CLEAN_TOL, 0.0, delta)
    dlo, dhi = inst.delta_bounds()
    return np.clip(delta, dlo, dhi)


def _result(
    bank: PredictorBank,
    tau: ThresholdConfig,
    inst: AttackInstance,
    target: int,
    delta: np.ndarray,
    iterations: int,
    status: str,
) -> AttackResult:
    """Attack result for ``delta`` after zeroing solver slop, clamping it
    into the perturbation bounds and certifying the attacked row."""
    delta = _clean(inst, delta)
    y_tilde = inst.y + delta
    return AttackResult(
        y_tilde=y_tilde,
        delta=delta,
        alpha=delta != 0.0,
        target=target,
        objective=float(y_tilde[target]),
        feasible=stealth_margin(bank, tau, y_tilde) <= STEALTH_TOL,
        iterations=iterations,
        solver_status=status,
    )


def _better(direction: Direction, a: float, b: float) -> bool:
    return a < b if direction == Direction.MINIMIZE else a > b


def attack_linear(bank: PredictorBank, tau: ThresholdConfig, inst: AttackInstance) -> AttackResult:
    """Exact attack on an affine bank: solve the MILP for every critical
    target and keep the best objective in the chosen direction.  Each
    target's MILP starts from the previous one's root basis.

    A candidate whose attack fails the stealth certificate is a solver
    fault, not an attack: it is dropped and the result reports
    ``solver_status="numerical"``, as it does when a MILP solve ends
    ``NUMERICAL`` (its incumbent, if any, still competes).
    """
    _require_affine(bank)
    best: AttackResult | None = None
    total_nodes = 0
    hit_limit = numerical = False
    warm: Basis | None = None
    for target in inst.critical:
        prob = build_attack_milp(bank, tau, inst, target)
        # Targets differ only in the objective, so the previous target's
        # root vertex is primal feasible here.
        sol = solve_milp(prob if warm is None else replace(prob, start=warm))
        warm = sol.basis
        total_nodes += sol.nodes_explored
        hit_limit |= sol.status == Status.ITERATION_LIMIT
        numerical |= sol.status == Status.NUMERICAL
        if sol.x is None:
            continue
        result = _result(bank, tau, inst, target, _delta(inst, sol.x), 0, "optimal")
        if not result.feasible:
            numerical = True
        elif best is None or _better(inst.direction, result.objective, best.objective):
            best = result
    if best is None:
        sign = 1.0 if inst.direction == Direction.MINIMIZE else -1.0
        target = min(inst.critical, key=lambda s: sign * inst.y[s])
        status = "numerical" if numerical else "iteration_limit" if hit_limit else "infeasible"
        return _result(bank, tau, inst, target, np.zeros_like(inst.y), total_nodes, status)
    status = "numerical" if numerical else "iteration_limit" if hit_limit else "optimal"
    return replace(best, iterations=total_nodes, solver_status=status)


def _probe_seeds(
    bank: PredictorBank,
    tau: ThresholdConfig,
    inst: AttackInstance,
) -> dict[int, list[np.ndarray]]:
    """Per critical target, up to 3 verified-feasible starting points from a
    coarse lattice over the perturbation box, on the first 8 supports of at
    most 3 sensors.

    Local linearization cannot see disconnected branches of a nonlinear
    stealth set, so the descent loop is restarted from the best lattice
    points that pass exact forward propagation.  The lattice is built and
    verified once, in one batched bank evaluation, and sorted per target.
    An axis has 33 points (1 sensor), 65 (2 sensors) or 7 (3 sensors), plus
    0 when that is not among them.  On the desk preset's 8 sensors the
    lattice has 272, 34,848 and 4,096 rows at budgets 1, 2 and 3.
    """
    dlo, dhi = inst.delta_bounds()
    attackable = sorted(inst.attackable)
    by_size = (itertools.combinations(attackable, size) for size in range(min(inst.budget, 3), 0, -1))
    supports = list(itertools.islice(itertools.chain.from_iterable(by_size), 8))

    blocks = []
    for support in supports:
        per_axis = {1: 33, 2: 65}.get(len(support), 7)
        axes = []
        for s in support:
            pts = np.unique(np.concatenate([np.linspace(dlo[s], dhi[s], per_axis), [0.0]]))
            axes.append(pts[(pts >= dlo[s] - 1e-12) & (pts <= dhi[s] + 1e-12)])
        # One row per lattice point, in itertools.product order.
        grid = np.meshgrid(*axes, indexing="ij")
        block = np.tile(inst.y, (grid[0].size, 1))
        for s, offsets in zip(support, grid):
            block[:, s] += offsets.ravel()
        blocks.append(block)
    if not blocks:
        return {target: [] for target in inst.critical}

    matrix = np.vstack(blocks)
    feasible = matrix[stealth_margin(bank, tau, matrix) <= _ACCEPT_TOL]

    sign = 1.0 if inst.direction == Direction.MINIMIZE else -1.0
    probes = {}
    for target in inst.critical:
        seeds: list[np.ndarray] = []
        for i in np.argsort(sign * feasible[:, target], kind="stable"):
            if len(seeds) >= 3:
                break
            row = feasible[i]
            if all(np.max(np.abs(row - s)) > 1e-9 for s in seeds) and np.max(np.abs(row - inst.y)) > 1e-9:
                seeds.append(row)
        probes[target] = seeds
    return probes


def attack_nn(
    bank: PredictorBank,
    tau: ThresholdConfig,
    inst: AttackInstance,
    cfg: Alg1Config,
) -> AttackResult:
    """Iterative attack on a nonlinear bank.

    Per target: linearize all detectors at the current point, solve the
    trust-region MILP, verify the candidate against the true models, halve
    the radius on violation, and reset it after every accepted step.  A
    descent stops after ``n_max`` MILP solves, when the radius falls below
    ``epsilon_min``, or when the objective stops improving.

    Two robustness measures sit on top of that skeleton.  Step halving
    alone strangles on curved detector boundaries (a tangent step of size
    ``eps`` violates by curvature * eps**2 however small eps gets), so each
    detector carries an adaptive backoff: its linearized threshold is
    tightened by the violation observed at rejected candidates and relaxed
    after accepted ones.  And because linearization is blind to other
    branches of a nonconvex stealth set, the descent restarts from a couple
    of coarse verified-feasible probe points.  Accepted iterates are always
    verified against the true models, so the objective never worsens along
    a descent.

    A target's trust-region MILPs share their rows, columns and objective;
    only the centre, the radius and the tightened thresholds change.  So
    each starts from the root basis of the last one that ended optimal,
    across all of the target's descents.

    A target whose descents find no stealthy point gives the ``clean_alarm``
    no-op, which is returned only when no target found one.
    """

    def descend(target: int, seed: np.ndarray, warm: Basis | None) -> tuple[np.ndarray, int, Basis | None]:
        current = seed.copy()
        cur_obj = float(current[target])
        eps = cfg.epsilon0
        backoff = {s: 0.0 for s in bank.detector_set}
        iters = 0
        while iters < cfg.n_max and eps >= cfg.epsilon_min:
            iters += 1
            tau_eff = ThresholdConfig(
                {s: max(tau.tau[s] - backoff[s], 0.0) for s in bank.detector_set}
            )
            prob = build_attack_milp(bank, tau_eff, inst, target, trust_radius=eps, center=current)
            sol = solve_milp(prob if warm is None else replace(prob, start=warm))
            if sol.status == Status.OPTIMAL:
                warm = sol.basis
            if sol.status != Status.OPTIMAL or sol.x is None:
                # Possibly over-tightened; relax and shrink the region.
                eps /= 2.0
                backoff = {s: 0.5 * v for s, v in backoff.items()}
                continue
            cand = inst.y + _clean(inst, _delta(inst, sol.x))
            cand_obj = float(cand[target])
            improvement = cur_obj - cand_obj if inst.direction == Direction.MINIMIZE else cand_obj - cur_obj
            if improvement < 1e-9 and max(backoff.values()) <= 1e-9:
                # Converged: until the centre moves, later regions only
                # shrink (smaller eps, tighter tau_eff), so none can improve.
                break
            viol = {s: r - tau.tau[s] for s, r in residuals(bank, cand).items()}
            if max(viol.values()) <= _ACCEPT_TOL:
                if improvement < 1e-9:
                    backoff = {s: 0.25 * v for s, v in backoff.items()}
                    continue
                current = cand
                cur_obj = cand_obj
                eps = cfg.epsilon0
                backoff = {s: 0.5 * v for s, v in backoff.items()}
            else:
                for s, v in viol.items():
                    if v > 0:
                        backoff[s] += 1.5 * v + 1e-12
                eps /= 2.0
        return current, iters, warm

    best: AttackResult | None = None
    probes = _probe_seeds(bank, tau, inst)
    for target in inst.critical:
        seeds = [inst.y] + probes[target]
        final_point: np.ndarray | None = None
        total_iters = 0
        warm: Basis | None = None
        for seed in seeds:
            point, iters, warm = descend(target, seed, warm)
            total_iters += iters
            if stealth_margin(bank, tau, point) <= STEALTH_TOL:
                if final_point is None or _better(
                    inst.direction, float(point[target]), float(final_point[target])
                ):
                    final_point = point
        status = "optimal"
        if final_point is None:
            # The descent from the clean row ends at a stealthy point or at
            # the clean row, so the clean row alarms: an honest no-op.
            final_point, status = inst.y, "clean_alarm"
        final = _result(bank, tau, inst, target, final_point - inst.y, total_iters, status)
        # A stealthy attack on any target beats the no-op, whatever the objectives.
        if best is None or (best.solver_status, status) == ("clean_alarm", "optimal") or (
            best.solver_status == status and _better(inst.direction, final.objective, best.objective)
        ):
            best = final
    assert best is not None  # critical is nonempty by construction
    return best


def run_attack(
    bank: PredictorBank,
    tau: ThresholdConfig,
    inst: AttackInstance,
    cfg: Alg1Config | None = None,
) -> AttackResult:
    """Dispatch on the bank family: exact MILP for affine banks, iterative
    linearization otherwise (``cfg`` required for nonlinear banks)."""
    if bank.is_affine():
        return attack_linear(bank, tau, inst)
    if cfg is None:
        raise ValueError("Alg1Config required for a nonlinear bank")
    return attack_nn(bank, tau, inst, cfg)


def result_to_json(inst: AttackInstance, result: AttackResult, bank: PredictorBank | None = None) -> dict:
    """Attack report entry: instance echo plus the optimized attack."""
    name = (lambda s: bank.name_of(s)) if bank else str
    return {
        "instance": {
            "y": inst.y.tolist(),
            "critical": [name(s) for s in inst.critical],
            "budget": inst.budget,
            "direction": inst.direction.value,
            "attackable": sorted(name(s) for s in inst.attackable),
        },
        "target": name(result.target),
        "objective": result.objective,
        "delta": result.delta.tolist(),
        "attacked": [name(int(s)) for s in np.nonzero(result.delta)[0]],
        "feasible": result.feasible,
        "iterations": result.iterations,
        "solver_status": result.solver_status,
    }

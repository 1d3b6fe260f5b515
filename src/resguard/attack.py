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
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

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

    @property
    def sign(self) -> float:
        """+1.0 to minimize, -1.0 to maximize: ``sign * value`` is minimized either way."""
        return 1.0 if self is Direction.MINIMIZE else -1.0


@dataclass(frozen=True)
class AttackInstance:
    """One timestep's attack problem.

    ``y`` is the full measurement row (sensors and controls); only sensor
    columns may be perturbed.  ``eta`` limits each perturbation (``inf``
    defers to the per-sensor box ``[box_lo, box_hi]``, which also keeps the
    optimization bounded), so ``eta[s] = 0`` keeps sensor ``s`` clean.
    ``attackable`` is derived: the sensors whose perturbation bounds allow a
    nonzero value.
    """

    y: np.ndarray
    sensor_columns: tuple[int, ...]
    critical: tuple[int, ...]
    budget: int
    eta: np.ndarray | float = math.inf
    direction: Direction = Direction.MINIMIZE
    box_lo: np.ndarray | None = None
    box_hi: np.ndarray | None = None
    attackable: frozenset[int] = field(init=False)

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
        if self.budget < 0 or self.budget > len(sensors):
            raise ValueError(f"budget {self.budget} outside [0, {len(sensors)}]")
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
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "direction", Direction(self.direction))
        object.__setattr__(self, "box_lo", box_lo)
        object.__setattr__(self, "box_hi", box_hi)
        lo = np.maximum(-eta, box_lo - y)
        hi = np.minimum(eta, box_hi - y)
        movable = np.zeros(d, dtype=bool)
        movable[list(sensors)] = True
        movable &= (lo < 0.0) | (hi > 0.0)
        lo[~movable] = 0.0
        hi[~movable] = 0.0
        lo.flags.writeable = hi.flags.writeable = False
        object.__setattr__(self, "attackable", frozenset(np.flatnonzero(movable).tolist()))
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
    y: np.ndarray,
    budget: int,
    eta: np.ndarray | float = math.inf,
    direction: Direction = Direction.MINIMIZE,
    critical=None,
) -> AttackInstance:
    """Build an instance at measurement row ``y``, boxing sensors by the
    clean data range of ``data`` widened by 10x its span."""
    y = np.asarray(y, dtype=float)
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
        if not (0 < self.epsilon0 < math.inf and self.epsilon_min > 0):
            raise ValueError("step sizes must be finite and positive")
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
    ``solver_status`` is ``"optimal"``, or for the target's no-op
    ``"infeasible"`` when the exact MILP proves that no stealthy attack
    exists and ``"clean_alarm"`` when the iterative attack found none.
    ``run_attack`` returns only stealthy results and these no-ops, which are
    unstealthy exactly when the clean row already alarms.

    ``basis`` is the root basis of the last MILP the exact attack solved,
    which can start a related attack (see ``run_attack``); it is ``None``
    from the iterative attack.  ``per_target`` is ``run_attack``'s attack on
    each critical target, in order.  Neither is compared nor reported.
    """

    y_tilde: np.ndarray
    delta: np.ndarray
    alpha: np.ndarray
    target: int
    objective: float
    feasible: bool
    iterations: int
    solver_status: str = "optimal"
    basis: Basis | None = field(default=None, compare=False, repr=False)
    per_target: tuple[AttackResult, ...] = field(default=(), compare=False, repr=False)

    @property
    def n_attacked(self) -> int:
        return int(np.count_nonzero(self.delta))


class SolverLimitError(RuntimeError):
    """The attack solver gave up before proving optimality."""


class NumericalError(RuntimeError):
    """The attack solver faulted or returned an answer that fails its certificate."""


def stealth_margin(bank: PredictorBank, tau: ThresholdConfig, rows: np.ndarray) -> float | np.ndarray:
    """Worst ``residual - tau`` across detectors, at a row (a float) or at
    each row of a matrix (a vector); <= 0 means fully stealthy."""
    res = residuals(bank, rows)
    margin = functools.reduce(np.maximum, (res[s] - tau.tau[s] for s in bank.detector_set))
    return margin if np.ndim(rows) == 2 else float(margin)


class _Skeleton:
    """The parts of the attack MILP on one (bank, instance, target) that a
    trust-region descent never changes: the variable and row layout, the
    activation and budget rows' unit entries, the objective, both binary
    sets and the start basis.  ``build_attack_milp`` refills the rest."""

    def __init__(self, bank: PredictorBank, inst: AttackInstance, target: int):
        sensors = list(inst.sensor_columns)
        d = len(sensors)
        n = 2 * d  # [delta | alpha]
        pos = np.full(inst.y.size, n)  # column -> its delta variable; n, a spare column, if not a sensor
        pos[sensors] = np.arange(d)
        self.sensors, self.d = np.array(sensors), d
        self.attackable = np.array(sorted(inst.attackable), dtype=int)
        att = pos[self.attackable]
        self.n_det = n_det = len(bank.detector_set)
        # Per shape group: the delta variable of each member's features, and
        # the clean features the residual's intercept needs.
        self.cols = [pos[stack.columns] for stack, _ in bank.stacked]
        self.y_feats = [inst.y[stack.columns][:, :, None] for stack, _ in bank.stacked]
        self.y_own = inst.y[bank.sensors]
        self.act = act = 2 * n_det + 2 * np.arange(att.size)
        self.alpha = d + att
        # The rows with the spare column last: each detector's first row
        # holds 1 on its own sensor (a feature is never its own sensor).
        self.A = np.zeros((2 * n_det + 2 * att.size + 1, n + 1))
        self.A[2 * np.arange(n_det), pos[bank.sensors]] = 1.0
        self.A[act, att] = 1.0
        self.A[act + 1, att] = -1.0
        self.A[-1, self.alpha] = 1.0  # the budget row
        self.rhs = np.zeros(self.A.shape[0])
        self.rhs[-1] = float(inst.budget)
        self.objective = np.zeros(n)
        self.objective[pos[target]] = inst.direction.sign
        self.upper = np.zeros(n)
        self.upper[self.alpha] = 1.0
        self.binary = frozenset(self.alpha.tolist())
        self.paid = d + int(pos[target]) if inst.budget >= 1 and target in inst.attackable else None
        self.binary_paid = self.binary - {self.paid}
        N = n + self.A.shape[0]
        basic = np.arange(n, N)
        basic[act] = att
        self.basis = Basis(basic, np.zeros(N, dtype=bool))


def build_attack_milp(
    bank: PredictorBank,
    tau: ThresholdConfig,
    inst: AttackInstance,
    target: int,
    trust_radius: float | None = None,
    center: np.ndarray | None = None,
    _skeleton: _Skeleton | None = None,
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
    tightens the delta bounds to ``center +- trust_radius``.

    Two presolves keep the optimum.  A sensor whose delta bounds exclude 0
    must be perturbed, so its ``alpha`` gets lower bound 1 (more such
    sensors than the budget make the root LP infeasible at once).  While
    the no-op is feasible (budget at least 1, target attackable, every
    delta bound holding 0, every detector right-hand side >= 0), the
    target's activation is paid up front: the budget row leaves out its
    ``alpha``, which is not binary, and has right-hand side ``budget - 1``.
    An attack that leaves the target alone scores 0, as the no-op does,
    and one that moves it pays in full, where the relaxation of
    ``|delta| <= M alpha`` would charge only part.

    The problem starts at the no-op attack ``delta = alpha = 0``: each
    attackable delta is basic in its row ``delta - M alpha <= 0`` and every
    other row keeps its slack.  That vertex is feasible whenever the clean
    reading passes every detector and the delta bounds hold 0 (they do
    unless a trust region is centred away from ``y``); otherwise the
    simplex's phase 1 repairs it.

    The detector rows come from the bank's stacked form
    (``PredictorBank.stacked``): one ``taylor_linearize`` call per shape
    group.  ``_skeleton`` is this (bank, instance, target)'s ``_Skeleton``,
    which a descent builds once; only the detector rows, the right-hand
    sides, the delta bounds and the big-M are filled per call.
    """
    local = trust_radius is not None and math.isfinite(trust_radius)
    if not local and not bank.is_affine():
        raise TypeError("the detector bank is not affine")
    if target not in inst.critical:
        raise ValueError(f"target {target} is not a critical sensor")
    missing = [s for s in bank.detector_set if s not in tau.tau]
    if missing:
        raise ValueError(f"no threshold for detector {missing[0]}")
    sk = _Skeleton(bank, inst, target) if _skeleton is None else _skeleton
    t = np.array([tau.tau[s] for s in bank.detector_set])
    center = inst.y if center is None else np.asarray(center, dtype=float)
    d, n_det = sk.d, sk.n_det

    dlo, dhi = inst.delta_bounds()
    if local:
        dlo = np.maximum(dlo, center - trust_radius - inst.y)
        dhi = np.minimum(dhi, center + trust_radius - inst.y)

    # Detector rows: the residual at y + delta is r0 - row . delta, where
    # row is 1 on the detector's own sensor and -w on its features.
    A = sk.A.copy()
    first = A[0 : 2 * n_det : 2]
    r0 = np.empty(n_det)
    for (stack, at), cols, y_feats in zip(bank.stacked, sk.cols, sk.y_feats):
        w, b = taylor_linearize(stack, center)
        r0[at] = (w[:, None, :] @ y_feats)[:, 0, 0] + b - sk.y_own[at]
        first[at[:, None], cols] = 0.0 - w
    A[1 : 2 * n_det : 2] = -first
    rhs = sk.rhs.copy()
    rhs[0 : 2 * n_det : 2] = t + r0
    rhs[1 : 2 * n_det : 2] = t - r0

    # Activation rows delta - M alpha <= 0 and -delta - M alpha <= 0 per
    # attackable sensor; M must dominate the perturbation box or alpha
    # would clip delta.
    lo_att, hi_att = dlo[sk.attackable], dhi[sk.attackable]
    A[sk.act, sk.alpha] = A[sk.act + 1, sk.alpha] = -np.maximum(np.abs(lo_att), np.abs(hi_att))

    lower = np.zeros(2 * d)
    upper = sk.upper.copy()
    lower[:d] = dlo[sk.sensors]
    upper[:d] = dhi[sk.sensors]
    # Presolve: a sensor whose delta box excludes 0 is attacked.
    forced = (lo_att > 0.0) | (hi_att < 0.0)
    lower[sk.alpha[forced]] = 1.0
    # Presolve: while the no-op is feasible, the target's activation is paid
    # up front.
    binary = sk.binary
    if sk.paid is not None and not forced.any() and (rhs[: 2 * n_det] >= 0.0).all():
        A[-1, sk.paid] = 0.0
        rhs[-1] -= 1.0
        binary = sk.binary_paid
    return MILPProblem(LinearProgram(sk.objective, A[:, :-1], rhs, lower, upper), binary, sk.basis)


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
    basis: Basis | None = None,
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
        basis=basis,
    )


def _attack_exact(
    bank: PredictorBank,
    tau: ThresholdConfig,
    inst: AttackInstance,
    target: int,
    start: Basis | None,
) -> AttackResult:
    """Exact attack on one target of an affine bank: its MILP, started from
    ``start`` when given, else from the no-op vertex.  ``iterations`` counts
    branch-and-bound nodes and ``basis`` is the MILP's root basis.

    An ``INFEASIBLE`` MILP gives the target's no-op with status
    ``infeasible``, and an ``OPTIMAL`` one its incumbent, which
    ``run_attack`` checks for stealth.  A MILP that hit its node cap raises
    ``SolverLimitError``, and one that ended ``NUMERICAL`` raises
    ``NumericalError``.
    """
    sol = solve_milp(build_attack_milp(bank, tau, inst, target), start=start)
    if sol.status == Status.ITERATION_LIMIT:
        raise SolverLimitError(f"attack solver hit its node cap on target {target}; no proven optimum")
    if sol.status == Status.NUMERICAL:
        raise NumericalError(f"attack solver hit a numerical fault on target {target}")
    delta = np.zeros_like(inst.y) if sol.x is None else _delta(inst, sol.x)
    return _result(bank, tau, inst, target, delta, sol.nodes_explored, sol.status.value, sol.basis)


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

    sign = inst.direction.sign
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


def _attack_iterative(
    bank: PredictorBank,
    tau: ThresholdConfig,
    inst: AttackInstance,
    target: int,
    cfg: Alg1Config,
    seeds: Sequence[np.ndarray],
) -> AttackResult:
    """Iterative attack on one target of a nonlinear bank, descending from
    the clean row and then from each of ``seeds``.

    A descent linearizes all detectors at the current point, solves the
    trust-region MILP, verifies the candidate against the true models,
    halves the radius on violation, and resets it after every accepted
    step.  It stops after ``n_max`` MILP solves, when the radius falls
    below ``epsilon_min``, or when the objective stops improving.

    Step halving alone strangles on curved detector boundaries (a tangent
    step of size ``eps`` violates by curvature * eps**2 however small eps
    gets), so each detector carries an adaptive backoff: its linearized
    threshold is tightened by the violation observed at rejected candidates
    and relaxed after accepted ones.  Linearization is blind to other
    branches of a nonconvex stealth set, hence the restarts from seeds.
    Accepted iterates are verified against the true models, so the
    objective never worsens along a descent.

    The MILPs differ only in centre, radius and tightened thresholds, so
    each starts from the root basis of the last one that ended optimal,
    across all descents.  ``iterations`` counts the MILPs.  With no stealthy
    point found the result is the ``clean_alarm`` no-op.
    """
    sign = inst.direction.sign
    skeleton = _Skeleton(bank, inst, target)
    tau_vec = np.array([tau.tau[s] for s in bank.detector_set])

    def descend(seed: np.ndarray, warm: Basis | None) -> tuple[np.ndarray, int, Basis | None]:
        current = seed.copy()
        cur_obj = float(current[target])
        eps = cfg.epsilon0
        backoff = np.zeros(tau_vec.size)  # per detector, in detector_set order
        iters = 0
        while iters < cfg.n_max and eps >= cfg.epsilon_min:
            iters += 1
            tau_eff = ThresholdConfig(dict(zip(bank.detector_set, np.maximum(tau_vec - backoff, 0.0).tolist())))
            prob = build_attack_milp(
                bank, tau_eff, inst, target, trust_radius=eps, center=current, _skeleton=skeleton
            )
            sol = solve_milp(prob, start=warm)
            if sol.status == Status.OPTIMAL:
                warm = sol.basis
            if sol.status != Status.OPTIMAL or sol.x is None:
                # Possibly over-tightened; relax and shrink the region.
                eps /= 2.0
                backoff *= 0.5
                continue
            cand = inst.y + _clean(inst, _delta(inst, sol.x))
            cand_obj = float(cand[target])
            improvement = sign * (cur_obj - cand_obj)
            if improvement < 1e-9 and backoff.max() <= 1e-9:
                # Converged: until the centre moves, later regions only
                # shrink (smaller eps, tighter tau_eff), so none can improve.
                break
            viol = np.fromiter(residuals(bank, cand).values(), float, tau_vec.size) - tau_vec
            if viol.max() <= _ACCEPT_TOL:
                if improvement < 1e-9:
                    backoff *= 0.25
                    continue
                current = cand
                cur_obj = cand_obj
                eps = cfg.epsilon0
                backoff *= 0.5
            else:
                hit = viol > 0
                backoff[hit] += 1.5 * viol[hit] + 1e-12
                eps /= 2.0
        return current, iters, warm

    final_point: np.ndarray | None = None
    total_iters = 0
    warm: Basis | None = None
    for seed in [inst.y, *seeds]:
        point, iters, warm = descend(seed, warm)
        total_iters += iters
        if stealth_margin(bank, tau, point) <= STEALTH_TOL:
            if final_point is None or sign * point[target] < sign * final_point[target]:
                final_point = point
    if final_point is None:
        # The descent from the clean row ends at a stealthy point or at the
        # clean row, so the clean row alarms: an honest no-op.
        return _result(bank, tau, inst, target, np.zeros_like(inst.y), total_iters, "clean_alarm")
    return _result(bank, tau, inst, target, final_point - inst.y, total_iters, "optimal")


def run_attack(
    bank: PredictorBank,
    tau: ThresholdConfig,
    inst: AttackInstance,
    cfg: Alg1Config | None = None,
    start: Basis | None = None,
    seeds: Sequence[np.ndarray] = (),
) -> AttackResult:
    """The attacker's best response: one attack per critical target, and
    the best of them.

    On an affine bank each target gets the exact MILP (``_attack_exact``),
    chained through root bases: the first starts from ``start`` when given
    (the ``basis`` of any attack on a bank with the same detectors and
    sensors, which has the same MILP shape), else from the no-op vertex.
    ``seeds`` are ignored.  On any other bank each target gets the
    iterative descents (``_attack_iterative``; ``cfg`` required, a start
    basis is a ``ValueError``) from the clean row, up to 3 probe points
    (``_probe_seeds``) and then ``seeds``, such as a smaller budget's best
    point.  Each seed must be an attack this instance allows (within its
    perturbation bounds and budget), else ``ValueError``.

    Each target's result is checked as it comes back, and the call raises
    rather than return an attack it cannot back up: ``NumericalError`` for
    an unstealthy result other than the honest no-op (status ``infeasible``
    or ``clean_alarm``), and what ``_attack_exact`` raises for a MILP that
    hit its node cap or a numerical fault.

    The best result is stealthy if any is, then has the better objective
    in the instance's direction, then the earlier target.  With no
    stealthy result it is the no-op on the target whose clean value is
    best.  ``iterations`` totals the call's work: branch-and-bound nodes,
    or trust-region MILPs.  ``basis`` is the last target's root basis,
    ``None`` when iterative.  ``per_target`` keeps every target's result.
    """
    if bank.is_affine():
        attack = functools.partial(_attack_exact, bank, tau, inst)
    else:
        if start is not None:
            raise ValueError("a start basis needs an affine bank")
        if cfg is None:
            raise ValueError("Alg1Config required for a nonlinear bank")
        extra = [np.asarray(point, dtype=float) for point in seeds]
        dlo, dhi = inst.delta_bounds()
        for point in extra:
            if point.shape != inst.y.shape:
                raise ValueError("a seed point must be a full measurement row")
            shift = point - inst.y
            if np.count_nonzero(shift) > inst.budget or np.any(shift < dlo - 1e-9) or np.any(shift > dhi + 1e-9):
                raise ValueError("a seed point must lie within the perturbation bounds and the budget")
        probes = _probe_seeds(bank, tau, inst)

        def attack(target: int, _start: Basis | None) -> AttackResult:
            return _attack_iterative(bank, tau, inst, target, cfg, probes[target] + extra)

    results = []
    for target in inst.critical:
        # Exact targets differ in the objective and, where the target's
        # activation is paid, in the budget row, so the previous target's
        # root basis is a start of the same shape; phase 1 repairs it when
        # it is not primal feasible here.
        result = attack(target, start)
        if not result.feasible and result.solver_status not in ("infeasible", "clean_alarm"):
            raise NumericalError(f"the attack on target {target} is not stealthy")
        results.append(result)
        start = result.basis
    sign = inst.direction.sign
    best = min(results, key=lambda r: (not r.feasible, sign * r.objective))
    work = sum(r.iterations for r in results)
    return replace(best, iterations=work, basis=start, per_target=tuple(results))


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

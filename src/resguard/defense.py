"""Defender side: attack-impact metrics and resilient threshold selection.

The defender moves first by fixing thresholds; the attacker best-responds
with a stealthy attack per timestep.  ``resilient_thresholds`` walks the
threshold vector downhill on worst-case impact: lower the thresholds of the
sensors the attack hurts most, then raise the least-impacted detectors'
thresholds (those on untargeted sensors first) just enough to pay back the
false alarms added, and only accept candidates that keep the clean-window
false-alarm count within ``gamma`` of the baseline.

It scores the attacks of ``run_attack`` as they come: an attack the solver
cannot back up raises ``SolverLimitError`` or ``NumericalError`` there
rather than enter an impact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .attack import Alg1Config, AttackInstance, run_attack
from .detector import FPCurve, PredictorBank, ThresholdConfig, fp_inverse
from .plant import Dataset

_TIE_TOL = 1e-12


@dataclass(frozen=True)
class ImpactReport:
    """Mean per-sensor attack deviation |y_tilde - y| over a horizon, and
    the worst (sensor, impact), ties going to the lowest sensor."""

    per_sensor: Mapping[int, float]
    worst: tuple[int, float] = field(init=False)

    def __post_init__(self):
        per = {int(k): float(v) for k, v in self.per_sensor.items()}
        if not per:
            raise ValueError("impact report needs at least one sensor")
        worst_sensor = min(per, key=lambda s: (-per[s], s))
        object.__setattr__(self, "per_sensor", per)
        object.__setattr__(self, "worst", (worst_sensor, per[worst_sensor]))


@dataclass(frozen=True)
class DefenseConfig:
    """Resilient search parameters: false-alarm slack ``gamma``, threshold
    step ``epsilon``, iteration cap, and the attack horizon in rows."""

    gamma: float = 0.0
    epsilon: float = 0.1
    n_max: int = 10
    horizon: int = 5

    def __post_init__(self):
        if not self.gamma >= 0:
            raise ValueError("gamma must be nonnegative")
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be finite and positive")
        if self.n_max < 1 or self.horizon < 1:
            raise ValueError("n_max and horizon must be positive")


def _trajectory_values(trajectory) -> np.ndarray:
    rows = trajectory.values if isinstance(trajectory, Dataset) else np.asarray(trajectory, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise ValueError("trajectory must have at least one row")
    return rows


def impact(
    bank: PredictorBank,
    tau: ThresholdConfig,
    trajectory,
    inst_template: AttackInstance,
    alg1: Alg1Config | None = None,
) -> ImpactReport:
    """Per-critical-sensor impact: mean |y_tilde_s - y_s| of the optimal
    stealthy attack on target ``s`` over the trajectory rows.

    ``trajectory`` is a :class:`Dataset` or a plain row matrix.  Each row
    gets one ``run_attack``, whose ``per_target`` attacks are scored as
    they come (``run_attack`` raises for one it cannot back up).  The rows
    pose same-shape MILPs, so each row's attack starts from the root basis
    of the row before.
    """
    rows = _trajectory_values(trajectory)
    basis = None
    deviations = {s: [] for s in inst_template.critical}
    for row in rows:
        result = run_attack(bank, tau, inst_template.at_row(row), alg1, start=basis)
        basis = result.basis
        for r in result.per_target:
            deviations[r.target].append(abs(r.y_tilde[r.target] - row[r.target]))
    return ImpactReport({s: float(np.mean(d)) for s, d in deviations.items()})


def total_false_alarms(curves: Mapping[int, FPCurve], tau: ThresholdConfig) -> int:
    """FA(tau): alarms summed over all detectors and rows of the clean
    window the curves were taken on (``fp_curve(bank, window)``)."""
    return sum(curves[s].count_above(tau.tau[s]) for s in curves)


@dataclass(frozen=True)
class DefenseOutcome:
    """Result of the resilient search; ``improved`` is False when the
    baseline was returned unchanged."""

    thresholds: ThresholdConfig
    improved: bool
    baseline_worst: float
    final_worst: float
    baseline_fa: int
    final_fa: int
    history: tuple[dict, ...]


def resilient_thresholds(
    bank: PredictorBank,
    tau_baseline: ThresholdConfig,
    curves: Mapping[int, FPCurve],
    trajectory: Dataset,
    inst_template: AttackInstance,
    cfg: DefenseConfig,
    alg1: Alg1Config | None = None,
) -> DefenseOutcome:
    """Iterative threshold tuning against the optimal stealthy attacker.

    Each iteration evaluates the candidate thresholds by re-solving the
    attack over the horizon.  A candidate is accepted when its worst-case
    impact does not exceed the previous one and its clean-window false
    alarms stay within ``gamma`` of the baseline; otherwise the step size is
    halved.  The next candidate lowers thresholds on the worst-hit sensors
    and raises the other detectors' (untargeted sensors first, then the
    least-hit) through their empirical curves to pay back exactly the
    alarms the lowering added.  Returns the best strictly improving
    accepted thresholds, or the baseline when none improved (guaranteeing
    the returned worst impact and false-alarm count never exceed the
    baseline's).  A candidate equal to one already scored reuses that
    impact report instead of solving its attacks again.
    """
    horizon = _trajectory_values(trajectory)[: cfg.horizon]
    missing = [s for s in bank.detector_set if s not in curves]
    if missing:
        raise ValueError(f"curves missing for detectors {missing}")

    def next_candidate(tau_from: ThresholdConfig, rep: ImpactReport, step: float) -> ThresholdConfig:
        impacts = rep.per_sensor
        top = max(impacts.values())
        a_star = {s for s, v in impacts.items() if v >= top - _TIE_TOL}
        updates = {}
        for s in a_star:
            if s in tau_from.tau:
                updates[s] = max(0.0, tau_from.tau[s] - step)
        lowered = tau_from.with_values(updates)
        delta_fp = total_false_alarms(curves, lowered) - total_false_alarms(curves, tau_from)
        # Pay the added alarms back by raising thresholds of the least-hit
        # detectors, those on sensors no attack targets (no impact score)
        # first.  Assignment is greedy in that order because a detector can
        # only surrender the clean alarms it still has; when the first
        # payer's stock covers everything this reduces to raising it alone.
        payers = sorted(
            (s for s in curves if s not in a_star and s in tau_from.tau),
            key=lambda s: (s in impacts, impacts.get(s, 0.0), s),
        )
        deficit = float(delta_fp)
        for s in payers:
            if deficit <= 0:
                break
            stock = curves[s].count_above(tau_from.tau[s])
            pay = min(float(stock), deficit)
            if pay <= 0:
                continue
            # Raise only: the payback step must not loosen impact for free.
            updates[s] = max(tau_from.tau[s], fp_inverse(curves[s], stock - pay))
            deficit -= pay
        return tau_from.with_values(updates)

    fa_base = best_fa = total_false_alarms(curves, tau_baseline)
    eps = cfg.epsilon
    tau_cand = tau_acc = best_tau = tau_baseline
    worst_prev = best_worst = np.inf
    history = []
    scored: dict[tuple, ImpactReport] = {}
    # Iteration 0 scores the baseline, which always fits its own alarm budget.
    for it in range(cfg.n_max + 1):
        key = tuple(sorted(tau_cand.tau.items()))
        if key not in scored:
            scored[key] = impact(bank, tau_cand, horizon, inst_template, alg1)
        rep = scored[key]
        worst = rep.worst[1]
        fa_cand = total_false_alarms(curves, tau_cand)
        fa_ok = fa_cand <= fa_base + cfg.gamma
        accepted = fa_ok and worst <= worst_prev + _TIE_TOL
        if accepted:
            tau_acc = tau_cand
            if worst < best_worst - _TIE_TOL:
                best_tau, best_worst, best_fa = tau_cand, worst, fa_cand
        else:
            eps /= 2.0
        if fa_ok:
            # Candidates over the alarm budget are not legitimate defender
            # moves, so they must not lower the impact benchmark.
            worst_prev = worst
        history.append(
            {
                "iteration": it,
                "tau": dict(tau_cand.tau),
                "worst_impact": worst,
                "worst_sensor": rep.worst[0],
                "fa": fa_cand,
                "accepted": accepted,
                "epsilon": eps,
            }
        )
        tau_cand = next_candidate(tau_acc, rep, eps)

    baseline_worst = history[0]["worst_impact"]
    return DefenseOutcome(
        thresholds=best_tau,
        improved=best_worst < baseline_worst - _TIE_TOL,
        baseline_worst=baseline_worst,
        final_worst=best_worst,
        baseline_fa=fa_base,
        final_fa=best_fa,
        history=tuple(history),
    )

from dataclasses import replace

import numpy as np
import pytest

from _helpers import constant_bank, random_linear_setup, stealth_breaking_solve
from _oracle import oracle_attack_enumerate
from resguard import attack, defense
from resguard.attack import (
    AttackInstance,
    NumericalError,
    default_alg1_config,
    instance_from_dataset,
    run_attack,
)
from resguard.defense import (
    DefenseConfig,
    ImpactReport,
    impact,
    resilient_thresholds,
    total_false_alarms,
)
from resguard.detector import (
    ThresholdConfig,
    calibrate_baseline,
    fp_curve,
    residuals,
    train_bank,
)
from resguard.lp_milp import solve_milp
from resguard.models import TrainConfig
from resguard.plant import Column, Dataset, Nonlinearity, Role, desk_config, simulate, split_sequential


def _rows_dataset(rows):
    rows = np.asarray(rows, dtype=float)
    cols = tuple(Column(f"s{i}", Role.NON_CRITICAL) for i in range(rows.shape[1]))
    return Dataset(cols, rows)


def test_impact_zero_budget():
    bank, tau = constant_bank(3, (0, 1), values=(0.0, 0.0), taus=(5.0, 5.0))
    inst = AttackInstance(
        y=np.zeros(3), sensor_columns=(0, 1, 2), critical=(0, 1), budget=0
    )
    report = impact(bank, tau, np.zeros((3, 3)), inst)
    assert report.per_sensor == {0: 0.0, 1: 0.0}
    assert report.worst[1] == 0.0


def test_impact_single_row_detector_free_target():
    # The only detector watches sensor 1; target 0 is limited purely by eta.
    bank, tau = constant_bank(3, (1,), values=(0.0,), taus=(50.0,))
    inst = AttackInstance(
        y=np.zeros(3), sensor_columns=(0, 1, 2), critical=(0,), budget=1, eta=2.0
    )
    report = impact(bank, tau, np.zeros((1, 3)), inst)
    assert report.per_sensor[0] == pytest.approx(2.0, abs=1e-7)


def test_impact_matches_per_row_oracle():
    rng = np.random.default_rng(88)
    bank, tau, inst = random_linear_setup(rng, d=5, budget=2, n_critical=2)
    rows = np.vstack([inst.y + rng.normal(0.0, 0.2, inst.y.size) for _ in range(10)])
    report = impact(bank, tau, rows, inst)
    for s in inst.critical:
        per_row = []
        for t in range(rows.shape[0]):
            row_inst = AttackInstance(
                y=rows[t],
                sensor_columns=inst.sensor_columns,
                critical=(s,),
                budget=inst.budget,
                eta=inst.eta,
                direction=inst.direction,
                box_lo=np.minimum(inst.box_lo, rows[t]),
                box_hi=np.maximum(inst.box_hi, rows[t]),
            )
            obj = oracle_attack_enumerate(bank, tau, row_inst, s)
            per_row.append(abs(obj - rows[t, s]))
        assert report.per_sensor[s] == pytest.approx(float(np.mean(per_row)), abs=1e-6)


def test_impact_report_worst_is_argmax():
    report = ImpactReport({3: 1.0, 5: 4.0, 7: 4.0})
    assert report.worst == (5, 4.0)  # ties break to the smaller sensor id


def test_total_false_alarms():
    """The alarms counted over FP curves equal a direct strict count of
    residuals above tau: on a hand case, and on desk seed 7's train and test
    windows at the calibrated thresholds (each a train residual) and at
    scaled ones."""
    bank, _ = constant_bank(2, (0,), values=(0.0,), taus=(0.5,))
    curves = fp_curve(bank, _rows_dataset([[0.1, 0.0], [0.9, 0.0]]))
    assert total_false_alarms(curves, ThresholdConfig({0: 0.5})) == 1
    assert total_false_alarms(curves, ThresholdConfig({0: 1e9})) == 0

    train, test = split_sequential(simulate(desk_config(seed=7), 1200), 0.8)
    bank = train_bank(train, detector_sensors=train.sensor_columns())
    tau = calibrate_baseline(fp_curve(bank, train), 100.0, len(bank.detector_set))
    for window in (train, test):
        res = residuals(bank, window.values)
        for scale in (0.0, 0.5, 1.0, 2.0):
            scaled = ThresholdConfig({s: scale * t for s, t in tau.tau.items()})
            direct = sum(int(np.count_nonzero(res[s] > scaled.tau[s])) for s in bank.detector_set)
            assert total_false_alarms(fp_curve(bank, window), scaled) == direct


def _crafted_two_sensor_setup():
    """Detectors on s0, s1 with constant zero predictors; impacts (5, 1)."""
    bank, _ = constant_bank(3, (0, 1), values=(0.0, 0.0), taus=(5.0, 5.0))
    tau = ThresholdConfig({0: 5.0, 1: 5.0})
    # Residuals are |value|; sensor 0 has one just under its threshold, and
    # sensor 1 has one clean outlier above it.
    clean = _rows_dataset(
        [
            [4.9, 6.0, 0.0],
            [0.1, 0.1, 0.0],
            [0.2, 0.3, 0.0],
            [0.3, 0.2, 0.0],
        ]
    )
    inst = AttackInstance(
        y=np.zeros(3),
        sensor_columns=(0, 1, 2),
        critical=(0, 1),
        budget=2,
        eta=np.array([5.0, 1.0, 1.0]),
    )
    return bank, tau, clean, inst


def test_resilient_first_iteration_direction():
    bank, tau, clean, inst = _crafted_two_sensor_setup()
    curves = fp_curve(bank, clean)
    cfg = DefenseConfig(gamma=0.0, epsilon=0.3, n_max=2, horizon=1)
    outcome = resilient_thresholds(bank, tau, curves, np.zeros((1, 3)), inst, cfg)
    first = outcome.history[1]["tau"]
    assert first[0] < 5.0  # worst-hit sensor lowered
    assert first[1] > 5.0  # least-hit sensor raised to pay back alarms
    assert outcome.final_fa <= outcome.baseline_fa
    assert outcome.final_worst < outcome.baseline_worst
    assert outcome.improved


def test_resilient_zero_budget_returns_baseline():
    bank, tau, clean, inst = _crafted_two_sensor_setup()
    inst0 = AttackInstance(
        y=inst.y,
        sensor_columns=inst.sensor_columns,
        critical=inst.critical,
        budget=0,
        eta=inst.eta,
    )
    curves = fp_curve(bank, clean)
    cfg = DefenseConfig(gamma=0.0, epsilon=0.3, n_max=3, horizon=1)
    outcome = resilient_thresholds(bank, tau, curves, np.zeros((1, 3)), inst0, cfg)
    assert not outcome.improved
    assert outcome.thresholds.tau == tau.tau


def test_resilient_single_critical_sensor():
    bank, _ = constant_bank(3, (0,), values=(0.0,), taus=(5.0,))
    tau = ThresholdConfig({0: 5.0})
    clean = _rows_dataset([[0.1, 0.0, 0.0], [0.4, 0.0, 0.0], [0.2, 0.0, 0.0]])
    inst = AttackInstance(
        y=np.zeros(3), sensor_columns=(0, 1, 2), critical=(0,), budget=1, eta=50.0
    )
    curves = fp_curve(bank, clean)
    cfg = DefenseConfig(gamma=0.0, epsilon=1.0, n_max=5, horizon=1)
    outcome = resilient_thresholds(bank, tau, curves, np.zeros((1, 3)), inst, cfg)
    # No residuals near the threshold, so lowering adds no alarms and the
    # impact shrinks with tau.
    assert outcome.final_worst < outcome.baseline_worst
    assert outcome.final_fa <= outcome.baseline_fa
    assert all(v >= 0 for v in outcome.thresholds.tau.values())


def test_resilient_guarantees_on_simulated_plant():
    data = simulate(desk_config(seed=6, critical_sensors=(0, 1, 2)), 900)
    bank = train_bank(data, family="linear")
    curves = fp_curve(bank, data)
    tau = calibrate_baseline(curves, target_period_steps=60.0, n_detectors=3)
    inst = instance_from_dataset(data, data.values[-1], budget=2)
    cfg = DefenseConfig(gamma=0.0, epsilon=0.15, n_max=4, horizon=3)
    outcome = resilient_thresholds(
        bank, tau, curves, data.values[-3:], inst, cfg
    )
    assert outcome.final_fa <= outcome.baseline_fa + cfg.gamma
    assert outcome.final_worst <= outcome.baseline_worst + 1e-9
    assert total_false_alarms(curves, outcome.thresholds) <= outcome.baseline_fa


def test_detectors_on_untargeted_sensors_pay_back_false_alarms():
    """On an all-sensor bank only the critical sensors have an impact score;
    the other six detectors hold the clean alarms that can pay for lowering
    the worst-hit threshold, so the search must be able to spend them."""
    data = simulate(desk_config(seed=7), 1200)
    train, test = split_sequential(data, 0.8)
    bank = train_bank(train, detector_sensors=train.sensor_columns())
    curves = fp_curve(bank, train)
    tau = calibrate_baseline(curves, 100, 8)
    inst = instance_from_dataset(train, test.values[0], budget=2)
    eps = 0.1 * float(np.mean([tau.tau[s] for s in bank.detector_set]))
    cfg = DefenseConfig(gamma=0.0, epsilon=eps, n_max=8, horizon=5)
    outcome = resilient_thresholds(bank, tau, curves, test, inst, cfg)
    assert outcome.baseline_worst == pytest.approx(1.1939, abs=1e-4)
    assert outcome.improved
    assert outcome.final_worst == pytest.approx(0.9940, abs=1e-4)
    assert outcome.final_fa <= outcome.baseline_fa == 8


def test_chained_impact_equals_attacks_from_the_no_op_start():
    """``impact`` starts each row's attack from the root basis of the row
    before; its per-sensor means equal those of single-target attacks each
    solved from the no-op vertex, at several thresholds."""
    data = simulate(desk_config(seed=7), 1200)
    train, test = split_sequential(data, 0.8)
    bank = train_bank(train)
    tau = calibrate_baseline(fp_curve(bank, train), 100, len(bank.detector_set))
    inst = instance_from_dataset(train, test.values[0], budget=2)
    rows = test.values[:3]
    for scale in (1.0, 0.8, 1.1):
        scaled = tau.with_values({s: scale * v for s, v in tau.tau.items()})
        chained = impact(bank, scaled, rows, inst)
        for s in inst.critical:
            single = replace(inst, critical=(s,))
            fresh = [run_attack(bank, scaled, single.at_row(row)).y_tilde[s] - row[s] for row in rows]
            assert chained.per_sensor[s] == pytest.approx(float(np.mean(np.abs(fresh))), abs=1e-9)


def test_impact_attacks_each_row_once_on_a_neural_bank(monkeypatch):
    """Desk tanh preset seed 7, neural bank, horizon 3: ``impact`` makes one
    ``run_attack`` call, and so builds one probe lattice, per row; each
    per-sensor value is the mean over rows of the single-target attacks."""
    cfg = desk_config(seed=7, nonlinearity=Nonlinearity.TANH, nonlinear_channels=(0,))
    train, test = split_sequential(simulate(cfg, 1200), 0.8)
    bank = train_bank(train, family="neural", train_cfg=TrainConfig(epochs=400, seed=7))
    tau = calibrate_baseline(fp_curve(bank, train), 100.0, len(bank.detector_set))
    alg1 = default_alg1_config(train, n_max=20)
    inst = instance_from_dataset(train, test.values[0], budget=1)
    rows = test.values[:3]
    calls = {"run_attack": 0, "_probe_seeds": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(defense, "run_attack")
    counted(attack, "_probe_seeds")
    report = impact(bank, tau, rows, inst, alg1)
    assert calls == {"run_attack": len(rows), "_probe_seeds": len(rows)}
    monkeypatch.undo()
    assert list(report.per_sensor) == list(inst.critical)
    for s in inst.critical:
        single = replace(inst, critical=(s,))
        deviations = [abs(run_attack(bank, tau, single.at_row(row), alg1).y_tilde[s] - row[s]) for row in rows]
        assert report.per_sensor[s] == float(np.mean(deviations))


def test_impact_certifies_every_target_not_only_the_best(monkeypatch):
    """A non-stealthy ``optimal`` attack on the second target is a
    certificate failure, though the first target's attack passes."""
    bank, tau = constant_bank(3, (0, 1), values=(0.0, 0.0), taus=(5.0, 5.0))
    inst = AttackInstance(y=np.zeros(3), sensor_columns=(0, 1, 2), critical=(0, 1), budget=1)

    def unstealthy_second_target(problem, start=None):
        return stealth_breaking_solve(problem) if problem.lp.objective[1] else solve_milp(problem, start=start)

    monkeypatch.setattr(attack, "solve_milp", unstealthy_second_target)
    assert impact(bank, tau, np.zeros((2, 3)), replace(inst, critical=(0,))).per_sensor[0] == pytest.approx(5.0)
    with pytest.raises(NumericalError):
        impact(bank, tau, np.zeros((2, 3)), inst)


def test_defense_config_validation():
    with pytest.raises(ValueError):
        DefenseConfig(gamma=-1.0)
    with pytest.raises(ValueError):
        DefenseConfig(gamma=float("nan"))
    with pytest.raises(ValueError):
        DefenseConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        DefenseConfig(epsilon=float("nan"))
    with pytest.raises(ValueError):
        DefenseConfig(epsilon=float("inf"))

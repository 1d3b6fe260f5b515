import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from _helpers import assert_result_invariants, constant_bank, highs_milp, random_linear_setup, stealth_breaking_solve
from resguard import attack, lp_milp
from resguard.attack import (
    Alg1Config,
    AttackInstance,
    Direction,
    attack_linear,
    attack_nn,
    build_attack_milp,
    default_alg1_config,
    instance_from_dataset,
    run_attack,
)
from resguard.detector import (
    FEATURE_MODE_ALL_OTHERS,
    DetectorEntry,
    PredictorBank,
    ThresholdConfig,
    calibrate_baseline,
    fp_curve,
    residuals,
    train_bank,
)
from resguard.lp_milp import LE, Basis, Constraint, MILPProblem, MILPSolution, Status, check_solution, solve_milp
from resguard.models import EnsembleModel, LinearModel, NeuralModel, TrainConfig, predict_batch, taylor_linearize
from resguard.oracle import oracle_attack_enumerate, oracle_attack_grid
from resguard.plant import Nonlinearity, desk_config, paper_scale_config, simulate, split_sequential


def _identity_pair_bank(mutual: bool):
    """s0's detector reads s1 with weight 1; optionally also the reverse."""
    detectors = {0: DetectorEntry(LinearModel(np.array([1.0]), 0.0), 0, np.array([1]))}
    sensors = (0,)
    if mutual:
        detectors[1] = DetectorEntry(LinearModel(np.array([1.0]), 0.0), 1, np.array([0]))
        sensors = (0, 1)
    return PredictorBank(detectors, sensors)


def _pair_instance(budget):
    return AttackInstance(y=np.zeros(2), sensor_columns=(0, 1), critical=(0,), budget=budget)


def test_milp_single_detector_budget_one():
    bank = _identity_pair_bank(mutual=False)
    tau = ThresholdConfig({0: 1.0})
    sol = solve_milp(build_attack_milp(bank, tau, _pair_instance(1), 0))
    assert sol.status == Status.OPTIMAL
    assert sol.objective == pytest.approx(-1.0, abs=1e-7)  # delta on the target


def test_milp_single_detector_budget_two_box_bound():
    # With both sensors attacked the co-sensor rides its box to -10 and the
    # stealth corridor would allow -11, but the target's own box (the same
    # eta-substitute rule for every sensor) binds first at -10.
    bank = _identity_pair_bank(mutual=False)
    tau = ThresholdConfig({0: 1.0})
    inst = _pair_instance(2)
    assert inst.box_lo[0] == -10.0
    sol = solve_milp(build_attack_milp(bank, tau, inst, 0))
    assert sol.objective == pytest.approx(-10.0, abs=1e-6)
    assert sol.objective == pytest.approx(oracle_attack_enumerate(bank, tau, inst, 0), abs=1e-6)


def test_milp_mutual_detectors_match_oracle():
    bank = _identity_pair_bank(mutual=True)
    tau = ThresholdConfig({0: 1.0, 1: 1.0})
    expected = {1: -1.0, 2: -10.0}
    for budget, value in expected.items():
        inst = _pair_instance(budget)
        result = attack_linear(bank, tau, inst)
        assert result.objective == pytest.approx(value, abs=1e-6)
        assert result.objective == pytest.approx(
            oracle_attack_enumerate(bank, tau, inst, 0), abs=1e-6
        )
        assert result.feasible
        assert_result_invariants(result, inst)


def test_milp_validation_errors():
    bank = _identity_pair_bank(mutual=False)
    tau = ThresholdConfig({0: 1.0})
    with pytest.raises(ValueError):
        build_attack_milp(bank, tau, _pair_instance(1), 1)  # not critical
    nn = NeuralModel(((np.array([[1.0]]), np.array([0.0])),))
    nn_bank = PredictorBank({0: DetectorEntry(nn, 0, np.array([1]))}, (0,))
    with pytest.raises(TypeError):
        build_attack_milp(nn_bank, tau, _pair_instance(1), 0)


def test_attack_instance_validation():
    with pytest.raises(ValueError):
        AttackInstance(y=np.zeros(2), sensor_columns=(0, 1), critical=(0,), budget=3)
    with pytest.raises(ValueError):
        AttackInstance(y=np.zeros(2), sensor_columns=(0,), critical=(1,), budget=0)
    with pytest.raises(ValueError):
        AttackInstance(y=np.zeros(2), sensor_columns=(0, 1), critical=(0,), budget=1, eta=-1.0)


def test_attack_linear_eta_bound_only():
    # Target 0 carries no detector; the only detector is constant so the
    # budget-1 attack on the target is limited purely by eta.
    bank, tau = constant_bank(3, (1,), values=(5.0,), taus=(10.0,))
    inst = AttackInstance(
        y=np.array([4.0, 5.0, 1.0]),
        sensor_columns=(0, 1, 2),
        critical=(0,),
        budget=1,
        eta=2.0,
    )
    result = attack_linear(bank, tau, inst)
    assert result.objective == pytest.approx(2.0, abs=1e-7)
    assert_result_invariants(result, inst)


def test_attack_linear_zero_budget():
    bank, tau = constant_bank(3, (1,), values=(5.0,), taus=(10.0,))
    inst = AttackInstance(
        y=np.array([4.0, 5.0, 1.0]), sensor_columns=(0, 1, 2), critical=(0, 1), budget=0
    )
    result = attack_linear(bank, tau, inst)
    assert result.objective == 4.0  # best clean critical value under minimize
    assert result.n_attacked == 0
    assert result.feasible


def test_attack_linear_matches_oracle_randomized():
    rng = np.random.default_rng(314)
    for _ in range(50):
        bank, tau, inst = random_linear_setup(rng)
        result = attack_linear(bank, tau, inst)
        oracle = min(
            (oracle_attack_enumerate(bank, tau, inst, t) for t in inst.critical),
        )
        assert result.objective == pytest.approx(oracle, abs=1e-6)
        assert result.feasible
        assert_result_invariants(result, inst)


def test_attack_linear_budget_monotone():
    rng = np.random.default_rng(99)
    for _ in range(10):
        bank, tau, inst = random_linear_setup(rng, d=6, budget=0)
        prev = math.inf
        for b in range(0, 5):
            inst_b = AttackInstance(
                y=inst.y,
                sensor_columns=inst.sensor_columns,
                critical=inst.critical,
                budget=b,
                eta=inst.eta,
                attackable=inst.attackable,
                direction=inst.direction,
                box_lo=inst.box_lo,
                box_hi=inst.box_hi,
            )
            obj = attack_linear(bank, tau, inst_b).objective
            assert obj <= prev + 1e-9
            prev = obj


def test_attack_linear_threshold_monotone():
    rng = np.random.default_rng(55)
    for _ in range(10):
        bank, tau, inst = random_linear_setup(rng, d=5, budget=2)
        base = attack_linear(bank, tau, inst).objective
        wider = ThresholdConfig({s: t + 0.7 for s, t in tau.tau.items()})
        assert attack_linear(bank, wider, inst).objective <= base + 1e-9


def test_attack_linear_unconstrained_limit_hits_box():
    # Large thresholds and infinite eta: the attacker rides the target to
    # its box bound.
    d = 4
    detectors = {
        s: DetectorEntry(LinearModel(np.full(d - 1, 0.3), 0.0), s, np.array([j for j in range(d) if j != s]))
        for s in range(d)
    }
    bank = PredictorBank(detectors, tuple(range(d)))
    tau = ThresholdConfig({s: 1e7 for s in range(d)})
    inst = AttackInstance(y=np.zeros(d), sensor_columns=tuple(range(d)), critical=(0,), budget=d)
    result = attack_linear(bank, tau, inst)
    assert result.objective == pytest.approx(inst.box_lo[0], abs=1e-6)


def test_attack_maximize_direction():
    bank = _identity_pair_bank(mutual=False)
    tau = ThresholdConfig({0: 1.0})
    inst = AttackInstance(
        y=np.zeros(2), sensor_columns=(0, 1), critical=(0,), budget=1, direction=Direction.MAXIMIZE
    )
    result = attack_linear(bank, tau, inst)
    assert result.objective == pytest.approx(1.0, abs=1e-7)


def test_trust_region_limits_step():
    bank = _identity_pair_bank(mutual=False)
    tau = ThresholdConfig({0: 1e6})
    inst = _pair_instance(2)
    sol = solve_milp(build_attack_milp(bank, tau, inst, 0, trust_radius=0.25, center=inst.y))
    assert sol.status == Status.OPTIMAL
    y_tilde = sol.x[:2]
    assert np.all(np.abs(y_tilde - inst.y) <= 0.25 + 1e-9)


def test_attack_infeasible_clean_point():
    # Threshold below the clean residual and nothing attackable enough to fix
    # it: solver reports the honest no-op with feasible=False.
    bank, _ = constant_bank(2, (0,), values=(5.0,), taus=(0.0,))
    tau = ThresholdConfig({0: 0.1})
    inst = AttackInstance(
        y=np.array([0.0, 0.0]),
        sensor_columns=(0, 1),
        critical=(0,),
        budget=0,
        eta=0.0,
    )
    result = attack_linear(bank, tau, inst)
    assert not result.feasible
    assert result.n_attacked == 0
    assert result.solver_status == "infeasible"


def test_attack_nn_constant_predictors_reach_bound():
    nn = NeuralModel(((np.zeros((3, 1)), np.zeros(3)), (np.zeros((1, 3)), np.array([0.0]))))
    bank = PredictorBank({1: DetectorEntry(nn, 1, np.array([0]))}, (1,))
    tau = ThresholdConfig({1: 100.0})
    inst = AttackInstance(
        y=np.zeros(2), sensor_columns=(0, 1), critical=(0,), budget=1, eta=2.0
    )
    cfg = Alg1Config(epsilon0=5.0, epsilon_min=5.0 / 2**10, n_max=20)
    result = attack_nn(bank, tau, inst, cfg)
    assert result.objective == pytest.approx(-2.0, abs=1e-7)
    assert result.feasible
    # Each restart converges in an accepted step plus the convergence probe.
    assert result.iterations <= 8


def test_attack_nn_equals_linear_on_wrapped_models():
    rng = np.random.default_rng(77)
    for _ in range(8):
        bank, tau, inst = random_linear_setup(rng, d=5, budget=2)
        wrapped = {}
        for s, entry in bank.detectors.items():
            model: LinearModel = entry.model
            layers = ((model.w[None, :].copy(), np.array([model.b])),)
            wrapped[s] = DetectorEntry(NeuralModel(layers), s, entry.feature_indices)
        nn_bank = PredictorBank(wrapped, bank.detector_set)
        span = float(np.max(inst.box_hi - inst.box_lo))
        cfg = Alg1Config(epsilon0=2.0 * span, epsilon_min=2.0 * span / 2**10, n_max=50)
        lin = attack_linear(bank, tau, inst)
        it = attack_nn(nn_bank, tau, inst, cfg)
        assert it.objective == pytest.approx(lin.objective, abs=1e-6)
        assert it.feasible or not lin.feasible
        assert_result_invariants(it, inst)


def _tanh_pair_bank(rng):
    """Two sensors watching each other through one-hidden-layer tanh nets."""
    detectors = {}
    for s in (0, 1):
        w1 = rng.normal(0.0, 0.9, (3, 1))
        b1 = rng.normal(0.0, 0.2, 3)
        w2 = rng.normal(0.0, 0.9, (1, 3))
        b2 = rng.normal(0.0, 0.2, 1)
        nn = NeuralModel(((w1, b1), (w2, b2)))
        detectors[s] = DetectorEntry(nn, s, np.array([1 - s]))
    return PredictorBank(detectors, (0, 1))


def test_attack_nn_close_to_grid_oracle():
    rng = np.random.default_rng(2024)
    for trial in range(5):
        bank = _tanh_pair_bank(rng)
        y = rng.normal(0.0, 0.3, 2)
        res = residuals(bank, y)
        tau = ThresholdConfig({s: res[s] + 0.4 for s in (0, 1)})
        inst = AttackInstance(
            y=y, sensor_columns=(0, 1), critical=(0,), budget=2, eta=2.0
        )
        cfg = Alg1Config(epsilon0=0.5, epsilon_min=0.5 / 2**12, n_max=50)
        result = attack_nn(bank, tau, inst, cfg)
        assert result.feasible
        grid = oracle_attack_grid(bank, tau, inst, 0, step=0.01)
        assert grid is not None
        assert result.objective <= grid + 0.02
        assert_result_invariants(result, inst)


def test_instance_from_dataset_boxes():
    data = simulate(desk_config(seed=1), 120)
    inst = instance_from_dataset(data, 5, budget=2, eta=1.5)
    assert inst.critical == data.critical_columns()
    assert set(inst.attackable) == set(data.sensor_columns())
    lo = data.values.min(axis=0)
    hi = data.values.max(axis=0)
    span = np.maximum(hi - lo, 1.0)
    assert np.allclose(inst.box_lo, np.minimum(lo - 10 * span, inst.y))
    assert np.allclose(inst.box_hi, np.maximum(hi + 10 * span, inst.y))


def test_empty_attackable_set_means_no_sensor():
    """``attackable=None`` means every sensor; an empty set means none, so
    only a zero budget fits it."""
    y = np.array([1.0, 2.0, 3.0])
    assert AttackInstance(y=y, sensor_columns=(0, 1, 2), critical=(0,), budget=2).attackable == {0, 1, 2}
    with pytest.raises(ValueError, match="budget 2 outside"):
        AttackInstance(y=y, sensor_columns=(0, 1, 2), critical=(0,), budget=2, attackable=frozenset())
    inst = AttackInstance(y=y, sensor_columns=(0, 1, 2), critical=(0,), budget=0, attackable=frozenset())
    assert inst.attackable == frozenset()
    assert all(np.array_equal(bound, np.zeros(3)) for bound in inst.delta_bounds())

    data = simulate(desk_config(seed=1), 120)
    with pytest.raises(ValueError, match="budget 1 outside"):
        instance_from_dataset(data, 5, budget=1, attackable=[])
    assert instance_from_dataset(data, 5, budget=0, attackable=[]).attackable == frozenset()
    assert instance_from_dataset(data, 5, budget=1).attackable == set(data.sensor_columns())


def test_at_row_equals_the_inline_reposing():
    train, test = split_sequential(simulate(desk_config(seed=3), 600), 0.8)
    template = instance_from_dataset(train, test.values[0], budget=2)
    # The last row lies outside the template's box, so the box must widen.
    rows = list(test.values[:5]) + [test.values[5] + 100.0 * (template.box_hi - template.box_lo)]
    for row in rows:
        inst = template.at_row(row)
        old = replace(
            template,
            y=row,
            box_lo=np.minimum(template.box_lo, row),
            box_hi=np.maximum(template.box_hi, row),
        )
        for name in ("y", "eta", "box_lo", "box_hi"):
            assert np.array_equal(getattr(inst, name), getattr(old, name)), name
        for a, b in zip(inst.delta_bounds(), old.delta_bounds()):
            assert np.array_equal(a, b)
            assert not a.flags.writeable
        for name in ("sensor_columns", "critical", "budget", "attackable", "direction"):
            assert getattr(inst, name) == getattr(old, name), name
    assert np.all(inst.box_hi >= rows[-1]) and not np.all(template.box_hi >= rows[-1])


@pytest.mark.parametrize("feasible", [True, False])
@pytest.mark.parametrize(
    "status, raises",
    [
        ("optimal", {False: attack.NumericalError}),
        ("iteration_limit", {True: attack.SolverLimitError, False: attack.SolverLimitError}),
        ("numerical", {True: attack.NumericalError, False: attack.NumericalError}),
        ("infeasible", {}),
        ("clean_alarm", {}),
    ],
)
def test_certify_passes_only_results_it_can_back_up(status, raises, feasible):
    result = attack.AttackResult(np.zeros(2), np.zeros(2), np.zeros(2, dtype=bool), 0, 0.0, feasible, 0, status)
    if feasible in raises:
        with pytest.raises(raises[feasible]):
            attack.certify(result)
    else:
        assert attack.certify(result) is result


def test_run_attack_dispatch():
    bank = _identity_pair_bank(mutual=False)
    tau = ThresholdConfig({0: 1.0})
    inst = _pair_instance(1)
    assert run_attack(bank, tau, inst).objective == pytest.approx(-1.0, abs=1e-7)
    nn = NeuralModel(((np.array([[1.0]]), np.array([0.0])),))
    nn_bank = PredictorBank({0: DetectorEntry(nn, 0, np.array([1]))}, (0,))
    with pytest.raises(ValueError):
        run_attack(nn_bank, tau, inst)


def test_attack_linear_drops_candidate_failing_certificate(monkeypatch):
    bank = _identity_pair_bank(mutual=True)
    tau = ThresholdConfig({0: 1.0, 1: 1.0})
    inst = AttackInstance(y=np.zeros(2), sensor_columns=(0, 1), critical=(0, 1), budget=1)

    def solve(problem):
        # Target 0's candidate breaks stealth; target 1 is solved for real.
        return stealth_breaking_solve(problem) if problem.lp.objective[0] else solve_milp(problem)

    monkeypatch.setattr(attack, "solve_milp", solve)
    result = attack_linear(bank, tau, inst)
    assert result.solver_status == "numerical"
    assert result.target == 1
    assert result.objective == pytest.approx(-1.0, abs=1e-7)
    assert result.feasible
    assert_result_invariants(result, inst)

    monkeypatch.setattr(attack, "solve_milp", stealth_breaking_solve)
    result = attack_linear(bank, tau, inst)
    assert result.solver_status == "numerical"
    assert result.n_attacked == 0
    assert result.feasible


def test_attack_linear_reports_numerical_lp(monkeypatch):
    bank = _identity_pair_bank(mutual=True)
    tau = ThresholdConfig({0: 1.0, 1: 1.0})
    inst = AttackInstance(y=np.zeros(2), sensor_columns=(0, 1), critical=(0, 1), budget=1)
    # Every LP vertex now fails verification, so no MILP can be OPTIMAL.
    monkeypatch.setattr(lp_milp, "check_solution", lambda problem, x, tol=1e-7: 1e3)
    result = attack_linear(bank, tau, inst)
    assert result.solver_status == "numerical"
    assert result.n_attacked == 0
    assert result.feasible


def test_attack_linear_without_an_incumbent_at_the_node_cap_says_so(monkeypatch):
    bank = _identity_pair_bank(mutual=True)
    tau = ThresholdConfig({0: 1.0, 1: 1.0})
    inst = AttackInstance(y=np.zeros(2), sensor_columns=(0, 1), critical=(0, 1), budget=1)
    monkeypatch.setattr(attack, "solve_milp", lambda problem: MILPSolution(Status.ITERATION_LIMIT, None, None, 7))
    result = attack_linear(bank, tau, inst)
    assert result.solver_status == "iteration_limit"
    assert result.n_attacked == 0 and result.iterations == 14


def test_attack_linear_matches_highs_at_paper_scale():
    """Exact attack vs scipy's HiGHS on the paper preset (41 sensors, 5
    critical), test row 0, budgets 1-3, every critical target.

    Budget 3 on target s1 is the case where the simplex once reported a
    false OPTIMAL and the attack went over budget.  Budgets 4-5 also match
    HiGHS but take about 30 s more, so they are left out for time only.
    """
    data = simulate(paper_scale_config(seed=7), 7200)
    train, test = split_sequential(data, 0.8)
    bank = train_bank(train, family="linear")
    tau = calibrate_baseline(fp_curve(bank, train), 100.0, 5)
    for budget in (1, 2, 3):
        for target in train.critical_columns():
            inst = instance_from_dataset(train, test.values[0], budget=budget, critical=(target,))
            problem = build_attack_milp(bank, tau, inst, target)
            assert (problem.lp.n_vars, len(problem.lp.constraints)) == (82, 93)
            assert all(c.sense == LE for c in problem.lp.constraints)
            assert np.array_equal([c.coeffs for c in problem.lp.constraints], problem.lp.A)
            assert np.array_equal([c.rhs for c in problem.lp.constraints], problem.lp.b)
            highs = highs_milp(problem)
            assert highs.status == 0, highs.message
            ref = float(highs.fun)
            result = attack_linear(bank, tau, inst)
            key = (budget, target)
            assert result.objective - inst.y[target] == pytest.approx(ref, abs=1e-6 * max(1.0, abs(ref))), key
            assert result.feasible, key
            assert result.n_attacked <= budget, key


def test_attack_linear_matches_highs_at_paper_scale_budgets_4_5():
    """Budgets 4-5 of the paper-scale HiGHS differential test: paper preset
    seed 7, test row 0, every critical target.  These are the deepest
    branch-and-bound trees at this scale (335 and 517 nodes over the five
    targets); the test takes ~2.5 s on a 2-vCPU Xeon host, set-up included.
    """
    data = simulate(paper_scale_config(seed=7), 7200)
    train, test = split_sequential(data, 0.8)
    bank = train_bank(train, family="linear")
    tau = calibrate_baseline(fp_curve(bank, train), 100.0, 5)
    for budget in (4, 5):
        for target in train.critical_columns():
            inst = instance_from_dataset(train, test.values[0], budget=budget, critical=(target,))
            highs = highs_milp(build_attack_milp(bank, tau, inst, target))
            assert highs.status == 0, highs.message
            ref = float(highs.fun)
            result = attack_linear(bank, tau, inst)
            key = (budget, target)
            assert result.solver_status == "optimal", key
            assert result.objective - inst.y[target] == pytest.approx(ref, abs=1e-6 * max(1.0, abs(ref))), key
            assert result.feasible, key
            assert result.n_attacked <= budget, key


def _start_vertex(problem):
    """``[x | slacks]`` at ``problem.start``, refactorized with numpy from
    the raw rows, with the bounds of every column."""
    lp, start = problem.lp, problem.start
    m = lp.b.size
    full = np.hstack([lp.A, np.eye(m)])
    lo = np.concatenate([lp.lower, np.zeros(m)])
    hi = np.concatenate([lp.upper, np.full(m, np.inf)])
    z = np.where(start.at_upper, hi, lo)
    z[start.basic] = 0.0
    z[start.basic] = np.linalg.solve(full[:, start.basic], lp.b - full @ z)
    return z, lo, hi


def _assert_no_op_start(problem):
    start = problem.start
    n = problem.lp.n_vars
    assert start is not None
    assert not start.at_upper.any()
    assert len(set(start.basic.tolist())) == start.basic.size
    z, lo, hi = _start_vertex(problem)
    np.testing.assert_allclose(z[:n], 0.0, atol=1e-12)  # delta = alpha = 0
    assert np.all(z >= lo - 1e-9) and np.all(z <= hi + 1e-9)


def test_attack_milp_starts_at_the_no_op_vertex():
    rng = np.random.default_rng(404)
    for trial in range(20):
        bank, tau, inst = random_linear_setup(rng, all_finite_eta=trial % 2 == 0)
        d = inst.y.size
        if trial % 3 == 0:
            # Some sensors not attackable, and one attackable with eta = 0.
            attackable = frozenset(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False).tolist())
            eta = inst.eta.copy()
            eta[min(attackable)] = 0.0
            inst = replace(inst, attackable=attackable, budget=min(inst.budget, len(attackable)), eta=eta)
        for target in inst.critical:
            _assert_no_op_start(build_attack_milp(bank, tau, inst, target))

    data = simulate(paper_scale_config(seed=7), 7200)
    train, test = split_sequential(data, 0.8)
    bank = train_bank(train, family="linear")
    tau = calibrate_baseline(fp_curve(bank, train), 100.0, 5)
    inst = instance_from_dataset(train, test.values[0], budget=3)
    assert attack.stealth_margin(bank, tau, inst.y) <= 0.0  # the clean row passes
    for target in inst.critical:
        _assert_no_op_start(build_attack_milp(bank, tau, inst, target))


def test_no_op_start_matches_cold_start_and_highs():
    """The no-op start changes the path, never the answer: against a cold
    root and HiGHS on random affine attacks, and on neural trust regions
    centred more than ``eps`` from ``y``, where the start is out of bounds
    and phase 1 repairs it."""
    rng = np.random.default_rng(405)
    problems = []
    for _ in range(30):
        bank, tau, inst = random_linear_setup(rng)
        problems.append(build_attack_milp(bank, tau, inst, inst.critical[0]))
    for _ in range(10):
        bank = _tanh_pair_bank(rng)
        y = rng.normal(0.0, 0.3, 2)
        res = residuals(bank, y)
        tau = ThresholdConfig({s: res[s] + 0.8 for s in (0, 1)})
        inst = AttackInstance(y=y, sensor_columns=(0, 1), critical=(0,), budget=int(rng.integers(1, 3)), eta=2.0)
        eps = 0.3
        center = y.copy()
        for j in rng.choice(2, size=int(rng.integers(1, 3)), replace=False):
            center[j] += rng.choice([-1.0, 1.0]) * rng.uniform(eps + 0.05, 0.8)
        problems.append(build_attack_milp(bank, tau, inst, 0, trust_radius=eps, center=center))
    statuses = []
    for problem in problems:
        warm = solve_milp(problem)
        cold = solve_milp(replace(problem, start=None))
        ref = highs_milp(problem)
        statuses.append(warm.status)
        assert warm.status == cold.status
        if ref.status == 2:  # infeasible
            assert warm.status == Status.INFEASIBLE
            continue
        assert ref.status == 0, ref.message
        assert warm.status == Status.OPTIMAL
        tol = 1e-6 * max(1.0, abs(ref.fun))
        assert warm.objective == pytest.approx(ref.fun, abs=tol)
        assert cold.objective == pytest.approx(ref.fun, abs=tol)
    assert Status.OPTIMAL in statuses[30:] and Status.INFEASIBLE in statuses[30:]


def test_warm_start_from_a_related_milp_matches_no_op_start_and_highs():
    """Started from the root basis of another target, threshold vector or
    trust-region centre of the same instance shape, a MILP reaches the
    answer its no-op start and HiGHS reach; the basis it returns
    refactorizes to an optimal vertex of its own root relaxation."""
    rng = np.random.default_rng(407)
    pairs = []  # (problem, the related problem whose root basis starts it)
    for trial in range(30):
        bank, tau, inst = random_linear_setup(rng, n_critical=2)
        problem = build_attack_milp(bank, tau, inst, inst.critical[0])
        if trial % 2:
            donor = build_attack_milp(bank, tau, inst, inst.critical[1])
        else:
            scaled = ThresholdConfig({s: t * rng.uniform(0.0, 1.5) for s, t in tau.tau.items()})
            donor = build_attack_milp(bank, scaled, inst, inst.critical[0])
        pairs.append((problem, donor))
    for _ in range(10):
        bank = _tanh_pair_bank(rng)
        y = rng.normal(0.0, 0.3, 2)
        res = residuals(bank, y)
        tau = ThresholdConfig({s: res[s] + float(rng.uniform(0.1, 0.8)) for s in (0, 1)})
        inst = AttackInstance(y=y, sensor_columns=(0, 1), critical=(0,), budget=int(rng.integers(1, 3)), eta=2.0)
        eps = 0.3
        centres = [y + rng.uniform(-0.6, 0.6, 2) for _ in range(2)]
        pairs.append(
            tuple(build_attack_milp(bank, tau, inst, 0, trust_radius=eps, center=c) for c in centres)
        )
    statuses = []
    for problem, donor in pairs:
        warm = solve_milp(replace(problem, start=solve_milp(donor).basis))
        no_op = solve_milp(problem)
        ref = highs_milp(problem)
        statuses.append(warm.status)
        assert warm.status == no_op.status
        if ref.status == 2:  # infeasible
            assert warm.status == Status.INFEASIBLE
        else:
            assert ref.status == 0, ref.message
            assert warm.status == Status.OPTIMAL
            assert warm.objective == pytest.approx(ref.fun, abs=1e-6 * max(1.0, abs(ref.fun)))
            assert no_op.objective == pytest.approx(ref.fun, abs=1e-6 * max(1.0, abs(ref.fun)))
        relaxed = highs_milp(MILPProblem(problem.lp, frozenset()))
        if relaxed.status == 0:
            x = _start_vertex(replace(problem, start=warm.basis))[0][: problem.lp.n_vars]
            assert check_solution(problem.lp, x) <= 1e-7
            assert problem.lp.objective @ x == pytest.approx(relaxed.fun, abs=1e-6 * max(1.0, abs(relaxed.fun)))
    assert Status.OPTIMAL in statuses[30:] and Status.INFEASIBLE in statuses


def test_singular_start_basis_falls_back_to_a_cold_root():
    """A non-attackable sensor's ``alpha`` column is all zero, so a start
    that makes it basic is singular for the rows.  The root is then solved
    cold, with the answer ``start=None`` gives and one more node."""
    rng = np.random.default_rng(408)
    for _ in range(10):
        bank, tau, inst = random_linear_setup(rng)
        d = inst.y.size
        frozen = int(rng.integers(d))
        inst = replace(inst, attackable=frozenset(range(d)) - {frozen}, budget=min(inst.budget, d - 1))
        problem = build_attack_milp(bank, tau, inst, inst.critical[0])
        assert not problem.lp.A[:, d + frozen].any()
        basic = problem.start.basic.copy()
        basic[-1] = d + frozen  # in place of the budget row's slack
        with pytest.raises(np.linalg.LinAlgError):
            lp_milp._factor(problem.lp, basic)
        sol = solve_milp(replace(problem, start=Basis(basic, problem.start.at_upper)))
        cold = solve_milp(replace(problem, start=None))
        assert sol.status == cold.status and sol.objective == cold.objective
        assert sol.nodes_explored == cold.nodes_explored + 1


def test_attack_linear_over_targets_equals_the_best_single_target():
    """Paper preset seed 7, test rows 0-1, budgets 1-3: the multi-target
    attack, whose MILPs start from the previous target's root basis, gives
    the objective and target of the best single-target attack, the earlier
    target winning a tie."""
    data = simulate(paper_scale_config(seed=7), 7200)
    train, test = split_sequential(data, 0.8)
    bank = train_bank(train, family="linear")
    tau = calibrate_baseline(fp_curve(bank, train), 100.0, 5)
    for row in (0, 1):
        for budget in (1, 2, 3):
            y = test.values[row]
            multi = attack_linear(bank, tau, instance_from_dataset(train, y, budget=budget))
            best = None
            for target in train.critical_columns():
                single = attack_linear(bank, tau, instance_from_dataset(train, y, budget=budget, critical=(target,)))
                assert single.solver_status == "optimal" and single.feasible
                if best is None or single.objective < best.objective:
                    best = single
            key = (row, budget)
            assert multi.solver_status == "optimal" and multi.feasible, key
            assert multi.target == best.target, key
            assert multi.objective == pytest.approx(best.objective, abs=1e-9 * max(1.0, abs(best.objective))), key


def test_attack_nn_stops_once_the_target_cannot_move(monkeypatch):
    """Desk tanh bank, test row 21, B=1: once the linearized optimum stops
    moving the target, the descent ends instead of halving ``eps`` down to
    ``epsilon_min``.  Same answer as before, in fewer than the 44 MILP
    solves the descent used to take."""
    cfg = desk_config(seed=7, nonlinearity=Nonlinearity.TANH, nonlinear_channels=(0,))
    train, test = split_sequential(simulate(cfg, 1200), 0.8)
    bank = train_bank(train, family="neural", train_cfg=TrainConfig(epochs=2000, seed=7))
    tau = calibrate_baseline(fp_curve(bank, train), 100.0, len(bank.detector_set))
    solves = []
    real = attack.solve_milp
    monkeypatch.setattr(attack, "solve_milp", lambda problem: solves.append(1) or real(problem))
    inst = instance_from_dataset(train, test.values[21], budget=1)
    result = run_attack(bank, tau, inst, default_alg1_config(train))
    assert result.objective == pytest.approx(1.412270879653422, abs=1e-9)
    assert result.feasible
    assert len(solves) < 44


def _tanh_bank(rng, d):
    """``d`` sensors, each watched by a one-hidden-layer tanh net over all
    the others."""
    detectors = {}
    for s in range(d):
        w1 = rng.normal(0.0, 0.9, (3, d - 1))
        b1 = rng.normal(0.0, 0.2, 3)
        w2 = rng.normal(0.0, 0.9, (1, 3))
        b2 = rng.normal(0.0, 0.2, 1)
        feats = np.array([j for j in range(d) if j != s])
        detectors[s] = DetectorEntry(NeuralModel(((w1, b1), (w2, b2))), s, feats)
    return PredictorBank(detectors, tuple(range(d)))


def test_forced_activations_are_presolved_exactly():
    """A trust region centred more than ``eps`` from ``y`` on a sensor
    excludes delta = 0 there, so that sensor's alpha gets lower bound 1 and
    every other alpha keeps 0.  The answer equals HiGHS on the same MILP
    with those bounds reset to 0, also when more sensors are forced than
    the budget allows."""
    rng = np.random.default_rng(406)
    eps = 0.3
    outcomes = set()
    for _ in range(40):
        d = int(rng.integers(2, 5))
        bank = _tanh_bank(rng, d)
        y = rng.normal(0.0, 0.3, d)
        res = residuals(bank, y)
        tau = ThresholdConfig({s: res[s] + float(rng.uniform(0.2, 1.0)) for s in range(d)})
        budget = int(rng.integers(1, d + 1))
        inst = AttackInstance(y=y, sensor_columns=tuple(range(d)), critical=(0,), budget=budget, eta=2.0)
        moved = rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)
        center = y.copy()
        center[moved] += rng.choice([-1.0, 1.0], moved.size) * rng.uniform(eps + 0.05, 0.8, moved.size)
        problem = build_attack_milp(bank, tau, inst, 0, trust_radius=eps, center=center)

        lp = problem.lp
        forced = np.zeros(d)
        forced[moved] = 1.0
        assert np.array_equal(lp.lower[d:], forced)
        unforced = lp.lower.copy()
        unforced[d:] = 0.0
        ref = highs_milp(replace(problem, lp=lp.with_bounds(unforced, lp.upper)))
        sol = solve_milp(problem)
        over_budget = moved.size > budget
        if ref.status == 2:  # infeasible
            assert sol.status == Status.INFEASIBLE
        else:
            assert not over_budget and ref.status == 0, ref.message
            assert sol.status == Status.OPTIMAL
            assert sol.objective == pytest.approx(ref.fun, abs=1e-6 * max(1.0, abs(ref.fun)))
        outcomes.add((over_budget, sol.status))
    assert {(True, Status.INFEASIBLE), (False, Status.INFEASIBLE), (False, Status.OPTIMAL)} <= outcomes


def _reference_rows(bank, tau, inst, trust_radius=None, center=None):
    """The attack MILP's rows built one ``Constraint`` at a time: the loop
    reference for the matrix build."""
    sensors = inst.sensor_columns
    pos = {s: i for i, s in enumerate(sensors)}
    d, y = len(sensors), inst.y
    center = y if center is None else center
    dlo, dhi = inst.delta_bounds()
    if trust_radius is not None:
        dlo = np.maximum(dlo, center - trust_radius - y)
        dhi = np.minimum(dhi, center + trust_radius - y)
    rows = []
    for s in bank.detector_set:
        entry = bank.detectors[s]
        feats = entry.feature_indices
        if isinstance(entry.model, LinearModel):
            w, b = entry.model.w, entry.model.b
        else:
            w, b = taylor_linearize(entry.model, center[feats])
        r0 = float(w @ y[feats]) + b - y[s]
        row = np.zeros(2 * d)
        row[pos[s]] = 1.0
        for w_j, f in zip(w, feats):
            if int(f) in pos:
                row[pos[int(f)]] -= w_j
        rows += [Constraint(row, LE, tau.tau[s] + r0), Constraint(-row, LE, tau.tau[s] - r0)]
    for s in sorted(inst.attackable):
        i = pos[s]
        for sign in (1.0, -1.0):
            row = np.zeros(2 * d)
            row[i] = sign
            row[d + i] = -max(abs(dlo[s]), abs(dhi[s]))
            rows.append(Constraint(row, LE, 0.0))
    row = np.zeros(2 * d)
    row[[d + pos[s] for s in inst.attackable]] = 1.0
    rows.append(Constraint(row, LE, float(inst.budget)))
    return rows


def test_attack_milp_matrix_equals_row_by_row_build():
    rng = np.random.default_rng(407)
    cases = []
    for trial in range(10):
        bank, tau, inst = random_linear_setup(rng)
        if trial % 2:
            attackable = frozenset(rng.choice(inst.y.size, size=int(rng.integers(1, inst.y.size + 1)), replace=False).tolist())
            inst = replace(inst, attackable=attackable, budget=min(inst.budget, len(attackable)))
        cases.append((bank, tau, inst, None, None))
    train, test = split_sequential(simulate(desk_config(seed=7), 600), 0.8)  # features include controls
    bank = train_bank(train, family="linear")
    tau = calibrate_baseline(fp_curve(bank, train), 100.0, len(bank.detector_set))
    cases.append((bank, tau, instance_from_dataset(train, test.values[0], budget=2), None, None))
    for _ in range(10):
        d = int(rng.integers(2, 5))
        bank = _tanh_bank(rng, d)
        y = rng.normal(0.0, 0.3, d)
        tau = ThresholdConfig({s: r + 0.5 for s, r in residuals(bank, y).items()})
        inst = AttackInstance(y=y, sensor_columns=tuple(range(d)), critical=(0,), budget=1, eta=2.0)
        cases.append((bank, tau, inst, 0.3, y + rng.uniform(-0.6, 0.6, d)))
    for bank, tau, inst, eps, center in cases:
        lp = build_attack_milp(bank, tau, inst, inst.critical[0], trust_radius=eps, center=center).lp
        reference = _reference_rows(bank, tau, inst, eps, center)
        assert len(lp.constraints) == len(reference)
        for got, want in zip(lp.constraints, reference):
            assert got.sense == want.sense and got.rhs == want.rhs
            assert np.array_equal(got.coeffs, want.coeffs)


def _reference_probe_seeds(bank, tau, inst, target):
    """``_probe_seeds`` with its lattice built one row at a time in
    ``itertools.product`` order: the loop reference for the vectorized
    lattice."""
    dlo, dhi = inst.delta_bounds()
    supports = []
    for size in range(min(inst.budget, 3), 0, -1):
        supports += list(itertools.combinations(sorted(inst.attackable), size))[: 8 - len(supports)]
    rows = []
    for support in supports:
        per_axis = {1: 33, 2: 65}.get(len(support), 7)
        axes = []
        for s in support:
            pts = np.unique(np.concatenate([np.linspace(dlo[s], dhi[s], per_axis), [0.0]]))
            axes.append(pts[(pts >= dlo[s] - 1e-12) & (pts <= dhi[s] + 1e-12)])
        for combo in itertools.product(*axes):
            row = inst.y.copy()
            for s, step in zip(support, combo):
                row[s] += step
            rows.append(row)
    matrix = np.asarray(rows)
    margins = np.full(matrix.shape[0], -np.inf)
    for s in bank.detector_set:
        entry = bank.detectors[s]
        preds = predict_batch(entry.model, matrix[:, entry.feature_indices])
        margins = np.maximum(margins, np.abs(preds - matrix[:, s]) - tau.tau[s])
    feasible = matrix[margins <= attack._ACCEPT_TOL]
    seeds = []
    for i in np.argsort(feasible[:, target], kind="stable"):
        row = feasible[i]
        if len(seeds) < 3 and all(np.max(np.abs(row - s)) > 1e-9 for s in seeds) and np.max(np.abs(row - inst.y)) > 1e-9:
            seeds.append(row)
    return seeds


def test_probe_seeds_match_the_product_lattice():
    rng = np.random.default_rng(408)
    for budget in (1, 2, 3, 3, 3, 3):
        bank = _tanh_bank(rng, 4)
        y = rng.normal(0.0, 0.3, 4)
        tau = ThresholdConfig({s: r + 0.4 for s, r in residuals(bank, y).items()})
        target = int(rng.integers(4))
        inst = AttackInstance(y=y, sensor_columns=(0, 1, 2, 3), critical=(target,), budget=budget, eta=1.5)
        got = attack._probe_seeds(bank, tau, inst)[target]
        want = _reference_probe_seeds(bank, tau, inst, target)
        assert got and len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_stealth_margin_over_a_matrix_equals_per_row_margins():
    rng = np.random.default_rng(31)
    tanh = _tanh_bank(rng, 4)
    linear, ensemble = {}, {}
    for s, entry in tanh.detectors.items():
        lr = LinearModel(rng.normal(size=3), 0.1)
        linear[s] = DetectorEntry(lr, s, entry.feature_indices)
        ensemble[s] = DetectorEntry(EnsembleModel(entry.model, lr), s, entry.feature_indices)
    linear, ensemble = PredictorBank(linear, tanh.detector_set), PredictorBank(ensemble, tanh.detector_set)
    tau = ThresholdConfig({s: 0.3 for s in range(4)})
    rows = rng.normal(0.0, 0.5, (50, 4))
    for bank in (linear, tanh, ensemble):
        margins = attack.stealth_margin(bank, tau, rows)
        assert margins.shape == (50,)
        for row, margin in zip(rows, margins):
            per_row = attack.stealth_margin(bank, tau, row)
            assert type(per_row) is float
            assert abs(margin - per_row) <= 1e-12


def test_attack_nn_reports_an_alarming_clean_row():
    """A row pushed over its threshold, with no room to perturb: the honest
    no-op, marked as such and not stealthy."""
    rng = np.random.default_rng(5)
    bank = _tanh_bank(rng, 3)
    y = rng.normal(0.0, 0.3, 3)
    res = residuals(bank, y)
    tau = ThresholdConfig({s: r + 0.4 for s, r in res.items()}).with_values({0: 0.5 * res[0]})
    inst = AttackInstance(y=y, sensor_columns=(0, 1, 2), critical=(1,), budget=1, eta=0.0)
    result = attack_nn(bank, tau, inst, Alg1Config(epsilon0=1.0, epsilon_min=1.0 / 2**10, n_max=10))
    assert result.solver_status == "clean_alarm"
    assert result.feasible is False
    assert result.n_attacked == 0


def test_attack_nn_prefers_a_stealthy_target_to_the_no_op(monkeypatch):
    """The clean row alarms.  Target 0's trust-region MILPs are all
    infeasible and the probe lattice misses the narrow stealthy band, so
    target 0 can only offer the no-op; target 1's descent reaches the band.
    The stealthy attack wins although the no-op's objective is lower."""
    # Sensor 2's detector reads sensor 1: residual |y1 - y2| = 1.06 > 0.01.
    nn = NeuralModel(((np.array([[1.0]]), np.array([0.0])),))
    bank = PredictorBank({2: DetectorEntry(nn, 2, np.array([1]))}, (2,))
    tau = ThresholdConfig({2: 0.01})
    y = np.array([-10.0, 1.06, 0.0])
    inst = AttackInstance(y=y, sensor_columns=(0, 1, 2), critical=(0, 1), budget=1, eta=2.0)
    assert attack._probe_seeds(bank, tau, inst) == {0: [], 1: []}

    targets = []
    real_build, real_solve = attack.build_attack_milp, attack.solve_milp

    def build(bank, tau, inst, target, **kwargs):
        targets.append(target)
        return real_build(bank, tau, inst, target, **kwargs)

    def solve(problem):
        return MILPSolution(Status.INFEASIBLE, None, math.inf) if targets[-1] == 0 else real_solve(problem)

    monkeypatch.setattr(attack, "build_attack_milp", build)
    monkeypatch.setattr(attack, "solve_milp", solve)
    result = attack_nn(bank, tau, inst, Alg1Config(epsilon0=4.0, epsilon_min=4.0 / 2**10, n_max=20))
    assert set(targets) == {0, 1}
    assert (result.target, result.solver_status, result.feasible) == (1, "optimal", True)
    assert result.objective == pytest.approx(-0.01, abs=1e-9)
    assert attack.certify(result) is result


def test_attack_linear_on_an_all_other_columns_bank_matches_enumeration():
    """Detectors that read every other column, the other critical sensor
    and the controls included: the exact attack equals support enumeration
    over the targets (desk seed 7, 600 steps, test rows 0-2, B=1-3)."""
    data = simulate(desk_config(seed=7), 600)
    train, test = split_sequential(data, 0.8)
    bank = train_bank(train, family="linear", feature_mode=FEATURE_MODE_ALL_OTHERS)
    for s in bank.detector_set:
        assert bank.detectors[s].feature_indices.tolist() == [i for i in range(train.n_columns) if i != s]
    tau = calibrate_baseline(fp_curve(bank, train), 100.0, len(bank.detector_set))
    for row in range(3):
        for budget in (1, 2, 3):
            inst = instance_from_dataset(train, test.values[row], budget=budget)
            result = attack_linear(bank, tau, inst)
            oracle = min(oracle_attack_enumerate(bank, tau, inst, t) for t in inst.critical)
            assert result.objective == pytest.approx(oracle, abs=1e-6), (row, budget)
            assert result.feasible, (row, budget)
            assert_result_invariants(result, inst)

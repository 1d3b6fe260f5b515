"""Acceptance suite: one test per release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import itertools
import math
import time

import numpy as np
import pytest

from _helpers import finite_difference_gradient, random_linear_setup, random_neural_model, stack_rows
from _oracle import (
    Graph,
    arp_decision_bruteforce,
    mis_bruteforce,
    mis_reduce,
    oracle_attack_enumerate,
    oracle_attack_grid,
)
from resguard.attack import (
    Alg1Config,
    AttackInstance,
    instance_from_dataset,
    run_attack,
    stealth_margin,
)
from resguard.defense import DefenseConfig, resilient_thresholds, total_false_alarms
from resguard.detector import (
    DetectorEntry,
    PredictorBank,
    ThresholdConfig,
    calibrate_baseline,
    fp_curve,
    residuals,
    train_bank,
    feature_indices_for,
)
from resguard.lp_milp import LinearProgram, MILPProblem, Status, solve_lp, solve_milp
from resguard.models import (
    EnsembleModel,
    LinearModel,
    NeuralModel,
    TrainConfig,
    normalized_mse,
    predict_batch,
    taylor_linearize,
)
from resguard.plant import Dataset, Nonlinearity, desk_config, simulate, split_sequential

STEALTH_CERT_TOL = 1e-6

# Feasible attack results produced by the batteries below; criterion 2
# re-verifies every one of them by exact forward propagation.
_CERT_REGISTRY: list[tuple[PredictorBank, ThresholdConfig, object]] = []


def _register(bank, tau, result):
    if result.feasible:
        _CERT_REGISTRY.append((bank, tau, result))


def _report(num: int, detail: str) -> None:
    print(f"\nACCEPTANCE {num} PASS: {detail}")


def test_criterion_1_milp_exactness():
    """The exact attack equals the subset-enumeration oracle on 200 instances."""
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        bank, tau, inst = random_linear_setup(rng)
        result = run_attack(bank, tau, inst)
        _register(bank, tau, result)
        oracle = min(oracle_attack_enumerate(bank, tau, inst, t) for t in inst.critical)
        diff = abs(result.objective - oracle)
        worst = max(worst, diff)
        assert diff <= 1e-6, f"objective {result.objective} vs oracle {oracle}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"exactness battery took {elapsed:.1f}s (expected < 60s)"
    _report(1, f"200/200 instances agree with enumeration (worst diff {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_3_gradient_correctness():
    """Analytic jacobians match central finite differences on 100 pairs."""
    rng = np.random.default_rng(3003)
    worst = 0.0
    for i in range(100):
        nn = random_neural_model(rng)
        if i % 2 == 0:
            model = nn
        else:
            lr = LinearModel(rng.normal(size=nn.n_features), float(rng.normal()))
            model = EnsembleModel(
                random_neural_model(rng, k=nn.n_features, with_scaler=False), lr
            )
        x = rng.normal(size=model.n_features)
        g = taylor_linearize(model, x)[0]
        fd = finite_difference_gradient(lambda v: predict_batch(model, v[None, :])[0], x, h=1e-5)
        rel = np.abs(g - fd) / np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-6)
        worst = max(worst, float(rel.max()))
        assert rel.max() < 1e-4, f"pair {i}: relative error {rel.max():.2e}"
    _report(3, f"100/100 jacobians within 1e-4 of finite differences (worst {worst:.2e})")


def test_criterion_4_alg1_consistency():
    """Linear-wrapped banks reproduce the exact attack; tanh banks track the grid."""
    rng = np.random.default_rng(4004)
    worst_eq = 0.0
    for _ in range(50):
        bank, tau, inst = random_linear_setup(rng, d=5, budget=2)
        wrapped = {}
        for s, entry in bank.detectors.items():
            model: LinearModel = entry.model
            wrapped[s] = DetectorEntry(
                NeuralModel(((model.w[None, :].copy(), np.array([model.b])),)),
                s,
                entry.feature_indices,
            )
        nn_bank = PredictorBank(wrapped, bank.detector_set)
        span = float(np.max(inst.box_hi - inst.box_lo))
        cfg = Alg1Config(epsilon0=2.0 * span, epsilon_min=2.0 * span / 2**10, n_max=50)
        lin = run_attack(bank, tau, inst)
        it = run_attack(nn_bank, tau, inst, cfg)
        _register(nn_bank, tau, it)
        diff = abs(it.objective - lin.objective)
        worst_eq = max(worst_eq, diff)
        assert diff <= 1e-6, f"wrapped-linear mismatch {diff:.2e}"

    worst_gap = -math.inf
    for trial in range(10):
        detectors = {}
        for s in (0, 1):
            w1 = rng.normal(0.0, 0.9, (3, 1))
            b1 = rng.normal(0.0, 0.2, 3)
            w2 = rng.normal(0.0, 0.9, (1, 3))
            b2 = rng.normal(0.0, 0.2, 1)
            detectors[s] = DetectorEntry(NeuralModel(((w1, b1), (w2, b2))), s, np.array([1 - s]))
        bank = PredictorBank(detectors, (0, 1))
        y = rng.normal(0.0, 0.3, 2)
        res = residuals(bank, y)
        tau = ThresholdConfig({s: res[s] + float(rng.uniform(0.2, 0.6)) for s in (0, 1)})
        inst = AttackInstance(y=y, sensor_columns=(0, 1), critical=(0,), budget=2, eta=2.0)
        cfg = Alg1Config(epsilon0=0.5, epsilon_min=0.5 / 2**12, n_max=50)
        result = run_attack(bank, tau, inst, cfg)
        _register(bank, tau, result)
        assert result.feasible, f"tanh trial {trial} returned infeasible"
        grid = oracle_attack_grid(bank, tau, inst, 0, step=0.01)
        assert grid is not None
        gap = result.objective - grid
        worst_gap = max(worst_gap, gap)
        assert gap <= 0.02, f"tanh trial {trial}: gap to grid oracle {gap:.4f}"
    _report(
        4,
        f"50/50 wrapped-linear equal to 1e-6 (worst {worst_eq:.2e}); "
        f"10/10 tanh attacks within 0.02 of the 0.01 grid (worst gap {worst_gap:+.4f})",
    )


def test_criterion_5_budget_monotonicity():
    """Attack objective is monotone non-worsening in the budget."""
    rng = np.random.default_rng(5005)
    checked = 0
    for _ in range(20):
        bank, tau, inst = random_linear_setup(rng, d=int(rng.integers(6, 9)), budget=0)
        prev = math.inf
        for b in range(6):
            inst_b = AttackInstance(
                y=inst.y,
                sensor_columns=inst.sensor_columns,
                critical=inst.critical,
                budget=b,
                eta=inst.eta,
                direction=inst.direction,
                box_lo=inst.box_lo,
                box_hi=inst.box_hi,
            )
            result = run_attack(bank, tau, inst_b)
            _register(bank, tau, result)
            assert result.objective <= prev + 1e-9, (
                f"budget {b} worsened objective: {result.objective} > {prev}"
            )
            prev = result.objective
            checked += 1
    _report(5, f"{checked} budget steps on 20 instances, zero monotonicity violations beyond 1e-9")


def test_criterion_2_stealth_certificate():
    """Every feasible result re-verifies under exact forward propagation."""
    # The batteries above register their results; add a fresh mixed batch so
    # this criterion never runs on an empty registry.
    rng = np.random.default_rng(2002)
    for _ in range(40):
        bank, tau, inst = random_linear_setup(rng)
        _register(bank, tau, run_attack(bank, tau, inst))
    assert _CERT_REGISTRY, "no attack results were produced"
    worst = -math.inf
    for bank, tau, result in _CERT_REGISTRY:
        margin = stealth_margin(bank, tau, result.y_tilde)
        worst = max(worst, margin)
        assert margin <= STEALTH_CERT_TOL, f"certificate violated: margin {margin:.2e}"
    _report(
        2,
        f"{len(_CERT_REGISTRY)} feasible results verified, max residual margin {worst:.2e} <= 1e-6",
    )


def test_criterion_6_np_hardness_reduction():
    """Reduction equivalence on every graph with n <= 6 plus 200 random n in 7..8."""
    t0 = time.perf_counter()
    cases = 0
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
            g = Graph(n, edges)
            for k in range(1, n + 1):
                assert arp_decision_bruteforce(mis_reduce(g, k)) == mis_bruteforce(g, k), (
                    n,
                    sorted(edges),
                    k,
                )
                cases += 1
    rng = np.random.default_rng(6006)
    for _ in range(200):
        n = int(rng.integers(7, 9))
        pairs = list(itertools.combinations(range(n), 2))
        density = rng.uniform(0.1, 0.8)
        mask = rng.random(len(pairs)) < density
        g = Graph(n, frozenset(p for p, m in zip(pairs, mask) if m))
        for k in range(1, n + 1):
            assert arp_decision_bruteforce(mis_reduce(g, k)) == mis_bruteforce(g, k)
            cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"reduction sweep took {elapsed:.0f}s (expected < 5 min)"
    _report(6, f"{cases} (graph, k) cases agree with the MIS oracle ({elapsed:.0f}s)")


def test_criterion_7_model_quality_ordering():
    """Neural beats linear on the tanh readout channel, fixed seed."""
    cfg = desk_config(
        seed=7,
        nonlinearity=Nonlinearity.TANH,
        nonlinear_channels=(0,),
        critical_sensors=(0,),
        noise_std=np.array([0.05, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4]),
    )
    data = simulate(cfg, 5000)
    train, test = split_sequential(data, 0.8)
    idx = feature_indices_for(data, 0)
    lin_bank = train_bank(train, detector_sensors=(0,), family="linear")
    nn_bank = train_bank(
        train, detector_sensors=(0,), family="neural", train_cfg=TrainConfig(epochs=1500, seed=3)
    )
    mse_lin = normalized_mse(lin_bank.detectors[0].model, test.values[:, idx], test.values[:, 0])
    mse_nn = normalized_mse(nn_bank.detectors[0].model, test.values[:, idx], test.values[:, 0])
    assert mse_nn < mse_lin, f"NN {mse_nn:.5f} not below linear {mse_lin:.5f}"
    _report(7, f"held-out normalized MSE: neural {mse_nn:.5f} < linear {mse_lin:.5f}")


def test_criterion_8_defense_guarantees():
    """Resilient thresholds cut the worst-case impact at zero alarm slack."""
    cfg = desk_config(
        seed=21,
        critical_sensors=(0, 1, 2, 3, 4),
        noise_std=np.array([0.2, 0.3, 0.4, 0.5, 1.5, 0.4, 0.4, 0.4]),
    )
    data = simulate(cfg, 1000)
    bank = train_bank(data, detector_sensors=tuple(range(8)), family="linear")
    curves = fp_curve(bank, data)
    tau = calibrate_baseline(curves, target_period_steps=8.0, n_detectors=8)

    # Attack during nominal operation: rows whose clean residuals sit well
    # below every baseline threshold.
    res = residuals(bank, data.values)
    ratio = np.max(np.stack([res[s] / tau.tau[s] for s in bank.detector_set]), axis=0)
    rows = data.values[np.nonzero(ratio <= 0.5)[0][-4:]]
    inst = instance_from_dataset(data, rows[0], budget=1)
    outcome = resilient_thresholds(
        bank, tau, curves, rows, inst, DefenseConfig(gamma=0.0, epsilon=0.4, n_max=24, horizon=4)
    )

    assert outcome.improved and outcome.final_worst < outcome.baseline_worst, (
        "no strict improvement over the baseline"
    )
    assert outcome.final_fa <= outcome.baseline_fa, (
        f"false alarms grew: {outcome.final_fa} > {outcome.baseline_fa}"
    )
    assert total_false_alarms(curves, outcome.thresholds) <= outcome.baseline_fa
    impact_ratio = outcome.final_worst / outcome.baseline_worst
    assert impact_ratio <= 0.8, f"impact ratio {impact_ratio:.3f} missed the 0.8 target"
    _report(
        8,
        f"worst impact {outcome.baseline_worst:.3f} -> {outcome.final_worst:.3f} "
        f"(ratio {impact_ratio:.3f} <= 0.8), false alarms {outcome.baseline_fa} -> {outcome.final_fa}",
    )


def test_criterion_9_calibration_sanity():
    """Baseline calibration lands near its alarm budget on a fresh window."""
    cfg = desk_config(seed=11, timestep=36.0)
    data = simulate(cfg, 14400)
    window = Dataset(data.columns, data.values[:7200], timestep=36.0)
    fresh = Dataset(data.columns, data.values[7200:], timestep=36.0)
    bank = train_bank(window, detector_sensors=(0, 1, 2, 3), family="linear")
    curves = fp_curve(bank, window)
    # One alarm per hour: 3600 s / 36 s per row = 100 rows between alarms.
    tau = calibrate_baseline(curves, target_period_steps=100.0, n_detectors=4)
    fresh_alarms = total_false_alarms(fp_curve(bank, fresh), tau)
    assert 36 <= fresh_alarms <= 144, f"{fresh_alarms} alarms outside [36, 144]"
    _report(9, f"{fresh_alarms} alarms on the fresh 7200-row window (budget 72, band [36, 144])")


def test_criterion_10_solver_self_test():
    """Branch-and-bound equals full binary enumeration on 100 problems."""
    rng = np.random.default_rng(10010)
    worst = 0.0
    for trial in range(100):
        n_bin = int(rng.integers(1, 7))
        n_cont = int(rng.integers(0, 9))
        n = n_bin + n_cont
        lo = np.concatenate([np.zeros(n_bin), rng.uniform(-3.0, 0.0, n_cont)])
        hi = np.concatenate([np.ones(n_bin), lo[n_bin:] + rng.uniform(0.5, 5.0, n_cont)])
        x_feas = rng.uniform(lo, hi)
        cons = []
        for _ in range(int(rng.integers(0, 9))):
            a = rng.normal(size=n)
            sense = rng.choice(["<=", ">="])
            base = float(a @ x_feas)
            rhs = base + (0.5 if sense == "<=" else -0.5) * abs(rng.normal())
            cons.append((a, sense, rhs))
        problem = MILPProblem(
            LinearProgram(rng.normal(size=n), *stack_rows(cons, n), lo, hi), frozenset(range(n_bin))
        )
        sol = solve_milp(problem)
        best = math.inf
        for bits in itertools.product((0.0, 1.0), repeat=n_bin):
            l2, h2 = lo.copy(), hi.copy()
            for j, v in enumerate(bits):
                l2[j] = h2[j] = v
            lp_sol = solve_lp(problem.lp.with_bounds(l2, h2))
            if lp_sol.status == Status.OPTIMAL:
                best = min(best, lp_sol.objective)
        if sol.status == Status.OPTIMAL:
            diff = abs(sol.objective - best)
            worst = max(worst, diff)
            assert diff <= 1e-6, f"trial {trial}: {sol.objective} vs enumeration {best}"
        else:
            assert best == math.inf, f"trial {trial}: solver infeasible but oracle found {best}"
    _report(10, f"100/100 mixed-binary problems match enumeration (worst diff {worst:.2e})")

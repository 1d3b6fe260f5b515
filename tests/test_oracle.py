import itertools

import numpy as np
import pytest

from _helpers import constant_bank, random_linear_setup
from _oracle import (
    Graph,
    arp_decision_bruteforce,
    mis_bruteforce,
    mis_reduce,
    oracle_attack_enumerate,
    oracle_attack_grid,
)
from resguard.attack import AttackInstance, run_attack
from resguard.detector import DetectorEntry, PredictorBank, ThresholdConfig
from resguard.models import LinearModel

K3 = Graph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
P3 = Graph(3, frozenset({(0, 1), (1, 2)}))
C5 = Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)}))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 5)}))
    g = Graph(3, frozenset({(2, 0)}))
    assert (0, 2) in g.edges  # normalized ordering


def test_mis_bruteforce_examples():
    assert mis_bruteforce(K3, 1)
    assert not mis_bruteforce(K3, 2)
    assert mis_bruteforce(C5, 2)
    assert not mis_bruteforce(C5, 3)


def test_mis_reduce_structure():
    inst = mis_reduce(K3, 2)
    assert inst.n_sensors == 4
    assert inst.budget == 3
    assert inst.target_value == 3
    assert np.all(inst.thresholds == 0) and np.all(inst.baseline == 0)

    empty = mis_reduce(Graph(3, frozenset()), 3)
    assert empty.budget == 4 and empty.target_value == 4


def test_reduction_predictor_semantics():
    inst = mis_reduce(P3, 2)
    y = np.zeros(4)
    y[[0, 2, 3]] = 3.0  # independent pair {0, 2} plus the extra sensor
    # Every nonzero sensor sees the full nonzero count; zero sensors see 0.
    assert inst.predictor(0, y) == 3.0
    assert inst.predictor(3, y) == 3.0
    assert inst.predictor(1, y) == 0.0
    y_bad = np.zeros(4)
    y_bad[[0, 1, 3]] = 3.0  # {0, 1} is an edge
    assert inst.predictor(3, y_bad) == 0.0


def test_arp_decision_examples():
    assert arp_decision_bruteforce(mis_reduce(P3, 2))
    assert not arp_decision_bruteforce(mis_reduce(K3, 2))


def test_reduction_equivalence_small_graphs():
    # Exhaustive over all graphs on up to 4 vertices and every k.
    for n in range(1, 5):
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


def _decide_with_predictor(inst) -> bool:
    """The reduced attack problem decided through ``inst.predictor`` itself:
    some support holding ``c``, within the budget, whose readings of 0 or
    ``k + 1`` every detector predicts exactly (zero thresholds)."""
    n, c = inst.graph.n, inst.c_index
    for size in range(inst.budget):
        for others in itertools.combinations(range(n), size):
            y = inst.baseline.copy()
            y[[c, *others]] = inst.target_value
            if all(abs(y[s] - inst.predictor(s, y)) <= inst.thresholds[s] for s in range(inst.n_sensors)):
                return True
    return False


def test_reduction_predictor_agrees_with_the_bitmask_decision():
    """``arp_decision_bruteforce`` re-derives the detectors with bitmasks;
    on every graph with n <= 5 and every k it decides as the construction's
    own ``predictor`` does."""
    cases = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, frozenset(p for i, p in enumerate(pairs) if bits >> i & 1))
            for k in range(1, n + 1):
                inst = mis_reduce(g, k)
                assert _decide_with_predictor(inst) == arp_decision_bruteforce(inst), (n, sorted(g.edges), k)
                cases += 1
    assert cases == 5405


def test_enumerate_zero_budget_returns_clean_value():
    bank, tau = constant_bank(3, (1,), values=(5.0,), taus=(10.0,))
    inst = AttackInstance(
        y=np.array([4.0, 5.0, 1.0]), sensor_columns=(0, 1, 2), critical=(0,), budget=0
    )
    assert oracle_attack_enumerate(bank, tau, inst, 0) == 4.0


def test_enumerate_two_sensor_hand_values():
    detectors = {
        0: DetectorEntry(LinearModel(np.array([1.0]), 0.0), 0, np.array([1])),
        1: DetectorEntry(LinearModel(np.array([1.0]), 0.0), 1, np.array([0])),
    }
    bank = PredictorBank(detectors, (0, 1))
    tau = ThresholdConfig({0: 1.0, 1: 1.0})
    for budget, expected in ((1, -1.0), (2, -10.0)):
        inst = AttackInstance(y=np.zeros(2), sensor_columns=(0, 1), critical=(0,), budget=budget)
        assert oracle_attack_enumerate(bank, tau, inst, 0) == pytest.approx(expected, abs=1e-7)


def test_enumerate_matches_attack_linear():
    rng = np.random.default_rng(404)
    for _ in range(30):
        bank, tau, inst = random_linear_setup(rng, d=6)
        best = min(oracle_attack_enumerate(bank, tau, inst, t) for t in inst.critical)
        assert run_attack(bank, tau, inst).objective == pytest.approx(best, abs=1e-6)


def test_enumerate_lower_bounds_any_feasible_attack():
    rng = np.random.default_rng(21)
    bank, tau, inst = random_linear_setup(rng, d=5, budget=2)
    target = inst.critical[0]
    exact = oracle_attack_enumerate(bank, tau, inst, target)
    grid_inst = AttackInstance(
        y=inst.y,
        sensor_columns=inst.sensor_columns,
        critical=(target,),
        budget=min(inst.budget, 2),
        eta=np.where(np.arange(5) < 3, np.minimum(inst.eta, 1.5), 0.0),  # sensors 0-2 attackable
        box_lo=inst.box_lo,
        box_hi=inst.box_hi,
    )
    grid = oracle_attack_grid(bank, tau, grid_inst, target, step=0.25)
    if grid is not None:
        assert exact <= grid + 1e-9  # enumeration is exact, grid is restricted


def test_grid_constant_predictors():
    bank, tau = constant_bank(3, (1,), values=(5.0,), taus=(1e6,))
    inst = AttackInstance(
        y=np.array([4.0, 5.0, 1.0]),
        sensor_columns=(0, 1, 2),
        critical=(0,),
        budget=1,
        eta=np.array([2.0, 0.0, 2.0]),
    )
    assert oracle_attack_grid(bank, tau, inst, 0, step=0.5) == pytest.approx(2.0)


def test_grid_reports_empty_feasible_set():
    # Clean residual is 5 with tau 0.1 and no way to fix it: nothing feasible.
    bank, _ = constant_bank(2, (0,), values=(5.0,), taus=(0.1,))
    tau = ThresholdConfig({0: 0.1})
    inst = AttackInstance(
        y=np.zeros(2), sensor_columns=(0, 1), critical=(0,), budget=1, eta=np.array([0.0, 0.5]),
    )
    assert oracle_attack_grid(bank, tau, inst, 0, step=0.25) is None


def test_grid_refinement_never_worse():
    rng = np.random.default_rng(31)
    bank, tau, base = random_linear_setup(rng, d=4, budget=2)
    target = base.critical[0]
    inst = AttackInstance(
        y=base.y,
        sensor_columns=base.sensor_columns,
        critical=(target,),
        budget=2,
        eta=np.where(np.arange(4) < 2, np.minimum(base.eta, 2.0), 0.0),  # sensors 0-1 attackable
        box_lo=base.box_lo,
        box_hi=base.box_hi,
    )
    coarse = oracle_attack_grid(bank, tau, inst, target, step=0.4)
    fine = oracle_attack_grid(bank, tau, inst, target, step=0.1)
    assert coarse is not None and fine is not None
    assert fine <= coarse + 1e-12


def test_oracle_size_guards():
    bank, tau, inst = random_linear_setup(np.random.default_rng(1), d=5, budget=1)
    with pytest.raises(ValueError):
        oracle_attack_grid(bank, tau, inst, inst.critical[0], step=0.5)  # >3 attackable
    with pytest.raises(ValueError):
        mis_bruteforce(Graph(25, frozenset()), 2)
    big = mis_reduce(Graph(11, frozenset()), 2)
    with pytest.raises(ValueError):
        arp_decision_bruteforce(big)

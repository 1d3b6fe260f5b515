"""Shared builders for randomized test instances."""

import numpy as np

from resguard.attack import AttackInstance, Direction
from resguard.detector import DetectorEntry, PredictorBank, ThresholdConfig
from resguard.lp_milp import GE, LE, MILPSolution, Status
from resguard.models import LinearModel, NeuralModel, Scaler

EQ = "="  # an equality row's sense for ``stack_rows``


def random_linear_setup(rng, d=None, budget=None, n_critical=None, all_finite_eta=False):
    """Random affine bank + instance with the clean point stealthy.

    Returns (bank, tau, inst).  Thresholds are the clean residual plus a
    positive slack so the no-attack point is always feasible.
    """
    d = int(d if d is not None else rng.integers(3, 9))
    y = rng.normal(0.0, 2.0, d)
    n_det = int(rng.integers(1, d + 1))
    det_sensors = sorted(rng.choice(d, size=n_det, replace=False).tolist())

    detectors = {}
    tau = {}
    for s in det_sensors:
        feats = np.array([j for j in range(d) if j != s], dtype=int)
        w = rng.normal(0.0, 0.6, feats.size)
        b = float(rng.normal(0.0, 0.5))
        model = LinearModel(w, b)
        detectors[s] = DetectorEntry(model, s, feats)
        clean_resid = abs(float(w @ y[feats] + b) - y[s])
        tau[s] = clean_resid + float(rng.uniform(0.05, 1.0))
    bank = PredictorBank(detectors, tuple(det_sensors))

    eta = np.where(
        rng.random(d) < (0.0 if all_finite_eta else 0.3),
        np.inf,
        rng.uniform(0.5, 3.0, d),
    )
    n_crit = int(n_critical if n_critical is not None else rng.integers(1, 3))
    critical = tuple(sorted(rng.choice(d, size=n_crit, replace=False).tolist()))
    budget = int(budget if budget is not None else rng.integers(0, 4))
    inst = AttackInstance(
        y=y,
        sensor_columns=tuple(range(d)),
        critical=critical,
        budget=budget,
        eta=eta,
        direction=Direction.MINIMIZE,
    )
    return bank, ThresholdConfig(tau), inst


def random_neural_model(rng, k=None, n_hidden=None, with_scaler=True):
    """Random tanh net with O(1) weights for gradient checks."""
    k = int(k if k is not None else rng.integers(2, 7))
    n_hidden = int(n_hidden if n_hidden is not None else rng.integers(1, 4))
    widths = [int(w) for w in rng.integers(5, 13, size=n_hidden)]
    layers = []
    prev = k
    for h in widths:
        layers.append((rng.normal(0.0, 0.8, (h, prev)), rng.normal(0.0, 0.3, h)))
        prev = h
    layers.append((rng.normal(0.0, 0.8, (1, prev)), rng.normal(0.0, 0.3, 1)))
    scaler = None
    if with_scaler:
        scaler = Scaler(
            rng.normal(0.0, 1.0, k),
            rng.uniform(0.5, 2.0, k),
            float(rng.normal()),
            float(rng.uniform(0.5, 2.0)),
        )
    return NeuralModel(tuple(layers), scaler=scaler)


def finite_difference_gradient(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def constant_bank(d, det_sensors, values, taus):
    """Bank of constant predictors (w = 0) for hand-checkable cases."""
    detectors = {}
    for s, v in zip(det_sensors, values):
        feats = np.array([j for j in range(d) if j != s][:1], dtype=int)
        detectors[s] = DetectorEntry(LinearModel(np.zeros(feats.size), float(v)), s, feats)
    return (
        PredictorBank(detectors, tuple(det_sensors)),
        ThresholdConfig(dict(zip(det_sensors, taus))),
    )


def assert_result_invariants(result, inst):
    """Support, magnitude, and certificate invariants for an attack result."""
    nonzero = np.nonzero(result.delta)[0]
    assert nonzero.size <= inst.budget, f"support {nonzero.size} exceeds budget {inst.budget}"
    for s in nonzero:
        assert s in inst.attackable, f"non-attackable sensor {s} perturbed"
        assert abs(result.delta[s]) <= inst.eta[s] + 1e-9
        assert result.alpha[s]
    assert np.allclose(result.y_tilde, inst.y + result.delta)


def stealth_breaking_solve(problem):
    """Stand-in for ``solve_milp`` on an attack MILP: claims OPTIMAL for a
    point that pushes the target to the end of its perturbation box, far
    outside its detector's threshold."""
    lp = problem.lp
    x = np.zeros(lp.n_vars)
    j = int(np.flatnonzero(lp.objective)[0])
    x[j] = lp.lower[j] if lp.objective[j] > 0 else lp.upper[j]
    return MILPSolution(Status.OPTIMAL, x, float(lp.objective @ x), 1)


def stack_rows(rows, n):
    """``(a, sense, rhs)`` rows of any sense as the arrays ``A, b`` of
    ``A x <= b`` over ``n`` variables: a ``>=`` row negated, an ``=`` row as
    the pair ``a x <= rhs`` and ``-a x <= -rhs``."""
    A, b = [], []
    for a, sense, rhs in rows:
        if sense != GE:
            A.append(a)
            b.append(rhs)
        if sense != LE:
            A.append(-np.asarray(a))
            b.append(-rhs)
    return np.array(A, dtype=float).reshape(len(b), n), np.array(b, dtype=float)


def highs_milp(problem):
    """scipy's HiGHS on the same MILP with ``mip_rel_gap=0``: the
    independent reference for the built-in branch and bound."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    lp = problem.lp
    integrality = np.zeros(lp.n_vars)
    integrality[sorted(problem.binary_vars)] = 1
    return milp(
        lp.objective,
        constraints=LinearConstraint(lp.A, -np.inf, lp.b),
        bounds=Bounds(lp.lower, lp.upper),
        integrality=integrality,
        options={"mip_rel_gap": 0.0},
    )

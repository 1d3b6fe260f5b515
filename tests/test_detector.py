import numpy as np
import pytest

from _helpers import constant_bank
from resguard.detector import (
    DetectorEntry,
    FPCurve,
    PredictorBank,
    ThresholdConfig,
    calibrate_baseline,
    feature_indices_for,
    fp_curve,
    fp_inverse,
    residuals,
    thresholds_from_json,
    thresholds_to_json,
    train_bank,
)
from resguard.defense import total_false_alarms
from resguard.models import LinearModel, TrainConfig, predict_batch, taylor_linearize
from resguard.plant import Column, Dataset, Nonlinearity, Role, desk_config, simulate, split_sequential


def test_residual_examples():
    bank, _ = constant_bank(2, (0,), values=(5.0,), taus=(1.0,))
    assert residuals(bank, np.array([5.0, 0.0]))[0] == 0.0
    assert residuals(bank, np.array([3.5, 0.0]))[0] == 1.5


def test_residuals_match_direct_recompute():
    rng = np.random.default_rng(0)
    d = 6
    detectors = {}
    for s in range(4):
        feats = np.array([j for j in range(d) if j != s])
        detectors[s] = DetectorEntry(LinearModel(rng.normal(size=d - 1), rng.normal()), s, feats)
    bank = PredictorBank(detectors, (0, 1, 2, 3))
    row = rng.normal(size=d)
    res = residuals(bank, row)
    for s, entry in bank.detectors.items():
        expected = abs(predict_batch(entry.model, row[None, entry.feature_indices])[0] - row[s])
        assert res[s] == expected


def test_residuals_row_too_short():
    bank, _ = constant_bank(3, (2,), values=(0.0,), taus=(1.0,))
    with pytest.raises(ValueError):
        residuals(bank, np.array([1.0]))


@pytest.fixture(scope="module", params=["linear", "neural", "ensemble"])
def family_bank(request):
    """A trained bank of each model family and the rows it was trained on."""
    data = simulate(desk_config(seed=5), 200)
    bank = train_bank(data, family=request.param, train_cfg=TrainConfig(epochs=30, seed=5))
    return bank, data.values


def test_residuals_one_row_matrix_equals_vector_form(family_bank):
    bank, rows = family_bank
    for row in rows[:20]:
        as_matrix = residuals(bank, row[None, :])
        assert residuals(bank, row) == {s: float(r[0]) for s, r in as_matrix.items()}


def test_residuals_matrix_matches_rows(family_bank):
    bank, rows = family_bank
    res = residuals(bank, rows)
    for s in bank.detector_set:
        assert isinstance(res[s], np.ndarray) and res[s].shape == (rows.shape[0],)
    for t, row in enumerate(rows):
        for s, r in residuals(bank, row).items():
            assert isinstance(r, float)
            assert abs(res[s][t] - r) <= 1e-12


def test_residuals_matrix_too_narrow(family_bank):
    bank, rows = family_bank
    with pytest.raises(ValueError):
        residuals(bank, rows[:, :-1])
    with pytest.raises(ValueError):
        residuals(bank, rows[None, :, :])


@pytest.fixture(scope="module")
def desk_tanh_split():
    cfg = desk_config(seed=7, nonlinearity=Nonlinearity.TANH, nonlinear_channels=(0,))
    return split_sequential(simulate(cfg, 600), 0.8)


@pytest.mark.parametrize("sensors", ["critical", "all"])
@pytest.mark.parametrize("family", ["linear", "neural", "ensemble"])
def test_stacked_form_equals_each_detector_alone(desk_tanh_split, family, sensors):
    """The bank's stacked form gives every detector's prediction, gradient
    and intercept bit for bit as its own model does, at one row and over a
    matrix (column major, as ``Dataset.values`` is, and row major), and so
    do ``residuals``.  The all-sensor bank's detectors read 7 or 8 columns,
    so it forms more than one shape group."""
    train, test = desk_tanh_split
    detector_sensors = train.sensor_columns() if sensors == "all" else None
    bank = train_bank(train, detector_sensors, family, TrainConfig(epochs=50, seed=7))
    groups = bank.stacked
    assert sorted(k for _, at in groups for k in at.tolist()) == list(range(len(bank.detector_set)))
    assert len(groups) == (2 if sensors == "all" else 1)
    entries = [bank.detectors[s] for s in bank.detector_set]
    matrices = (test.values[:1], test.values, np.ascontiguousarray(test.values[:40]))
    for stack, at in groups:
        for X in matrices:
            P = predict_batch(stack, X)
            assert P.shape == (at.size, X.shape[0])
            for i, k in enumerate(at):
                assert np.array_equal(P[i], predict_batch(entries[k].model, X[:, entries[k].feature_indices]))
        for row in test.values[:4]:
            W, B = taylor_linearize(stack, row)
            for i, k in enumerate(at):
                w, b = taylor_linearize(entries[k].model, row[entries[k].feature_indices])
                assert np.array_equal(W[i], w) and B[i] == b
    for X in matrices:
        res = residuals(bank, X)
        for e in entries:
            s = e.sensor_index
            assert np.array_equal(res[s], np.abs(predict_batch(e.model, X[:, e.feature_indices]) - X[:, s]))
    for row in test.values[:4]:
        res = residuals(bank, row)
        for e in entries:
            s = e.sensor_index
            assert res[s] == abs(float(predict_batch(e.model, row[None, e.feature_indices])[0]) - row[s])


def _dataset_from_rows(rows):
    rows = np.asarray(rows, dtype=float)
    cols = tuple(Column(f"s{i}", Role.NON_CRITICAL) for i in range(rows.shape[1]))
    return Dataset(cols, rows)


def test_alarms_strictness():
    """A residual alarms only when strictly above its threshold: one equal
    to tau raises none, and at tau 0 only the nonzero residuals alarm."""
    # Constant predictor 0.0 over feature column; residuals equal |s0|.
    bank, _ = constant_bank(2, (0,), values=(0.0,), taus=(0.5,))
    data = _dataset_from_rows([[0.1, 0.0], [0.5, 0.0], [0.9, 0.0], [0.0, 0.0]])
    curves = fp_curve(bank, data)
    for tau, expected in ((0.5, 1), (1e12, 0), (0.0, 3)):
        assert curves[0].count_above(tau) == expected, tau
        assert total_false_alarms(curves, ThresholdConfig({0: tau})) == expected, tau


def test_fp_curve_counts_and_monotone():
    bank, _ = constant_bank(2, (0,), values=(0.0,), taus=(0.5,))
    data = _dataset_from_rows([[0.1, 0], [0.2, 0], [0.3, 0], [0.4, 0]])
    curves = fp_curve(bank, data)
    curve = curves[0]
    assert curve.count_above(0.3) == 1
    assert curve.count_above(0.0) == 4
    assert curve.count_above(1.0) == 0
    sweep = [curve.count_above(t) for t in np.linspace(0.0, 0.5, 100)]
    assert all(a >= b for a, b in zip(sweep, sweep[1:]))


def test_fp_inverse_examples_and_round_trip():
    curve = FPCurve(np.array([0.1, 0.2, 0.3, 0.4]))
    assert fp_inverse(curve, 1) == pytest.approx(0.3)
    assert fp_inverse(curve, 0) == pytest.approx(0.4)
    assert fp_inverse(curve, 4) == 0.0
    for m in range(curve.size + 1):
        tau = fp_inverse(curve, m)
        assert curve.count_above(tau) <= m
        # Any strictly smaller threshold in the curve must overshoot.
        smaller = curve.residuals[curve.residuals < tau]
        if smaller.size:
            assert curve.count_above(float(smaller.max())) > m
    with pytest.raises(ValueError):
        fp_inverse(curve, -0.5)
    with pytest.raises(ValueError):
        fp_inverse(curve, 5)


def test_calibrate_baseline_examples():
    r = np.linspace(0.01, 1.0, 100)
    curve = FPCurve(r)
    tau = calibrate_baseline({0: curve}, target_period_steps=100.0, n_detectors=1)
    # Budget 1 alarm on 100 rows: threshold is the second-largest residual.
    assert tau.tau[0] == pytest.approx(float(np.sort(r)[-2]))

    two = {0: curve, 1: FPCurve(r)}
    tau2 = calibrate_baseline(two, target_period_steps=100.0, n_detectors=2)
    # Budget 0.5 floors to zero alarms: threshold is the max residual.
    assert tau2.tau[0] == pytest.approx(float(r.max()))
    assert tau2.tau[1] == pytest.approx(float(r.max()))

    with pytest.raises(ValueError):
        calibrate_baseline({0: curve}, target_period_steps=0.001, n_detectors=1)


def test_calibrated_alarm_budget_on_window():
    data = simulate(desk_config(seed=2), 1500)
    bank = train_bank(data, detector_sensors=(0, 1), family="linear")
    curves = fp_curve(bank, data)
    tau = calibrate_baseline(curves, target_period_steps=50.0, n_detectors=2)
    per_detector_budget = (1500 / 50.0) / 2
    for s, curve in curves.items():
        assert curve.count_above(tau.tau[s]) <= int(np.ceil(per_detector_budget))


def test_train_bank_feature_layouts():
    data = simulate(desk_config(seed=3), 300)
    idx = feature_indices_for(data, 0)
    # Critical sensors (0, 1) are excluded as features; controls included.
    assert 0 not in idx and 1 not in idx
    assert set(data.control_columns()) <= set(idx.tolist())
    idx_all = feature_indices_for(data, 0, "all_other_columns")
    assert set(idx_all.tolist()) == set(range(data.n_columns)) - {0}

    bank = train_bank(data, family="linear")
    assert bank.detector_set == data.critical_columns()
    for s, entry in bank.detectors.items():
        assert s not in entry.feature_indices


def test_train_bank_rejects_control_detector():
    data = simulate(desk_config(seed=3), 100)
    with pytest.raises(ValueError):
        train_bank(data, detector_sensors=(8,), family="linear")  # u0 column


def test_thresholds_json_round_trip():
    data = simulate(desk_config(seed=4), 200)
    bank = train_bank(data, family="linear")
    tau = ThresholdConfig({s: 0.5 + s for s in bank.detector_set})
    blob = thresholds_to_json(tau, bank, calibration={"target_period_steps": 10})
    back = thresholds_from_json(blob)
    assert back.tau == tau.tau
    assert set(blob["tau"]) == {bank.name_of(s) for s in bank.detector_set}


def test_threshold_config_validation():
    with pytest.raises(ValueError):
        ThresholdConfig({0: -0.1})
    with pytest.raises(ValueError):
        ThresholdConfig({0: float("nan")})

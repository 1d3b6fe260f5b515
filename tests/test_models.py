import json
import math

import numpy as np
import pytest

from _helpers import finite_difference_gradient, random_neural_model
from resguard import detector, plant
from resguard.models import (
    EnsembleModel,
    LinearModel,
    NeuralModel,
    Scaler,
    TrainConfig,
    TrainingDivergedError,
    fit_linear,
    fit_nn,
    model_from_json,
    model_to_json,
    normalized_mse,
    predict_batch,
    taylor_linearize,
)
from resguard.models import _as_matrix, _init_layers


def test_fit_linear_exact_line():
    m = fit_linear(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 3.0, 5.0]))
    assert abs(m.w[0] - 2.0) < 1e-9
    assert abs(m.b - 1.0) < 1e-9


def test_fit_linear_constant_targets():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 3))
    m = fit_linear(X, np.full(50, 4.2))
    assert np.all(np.abs(m.w) < 1e-8)
    assert abs(m.b - 4.2) < 1e-8


def test_fit_linear_recovers_parameters():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(200, 5))
    w_true = np.array([1.5, -2.0, 0.7, 0.0, 3.1])
    b_true = -0.4
    y = X @ w_true + b_true + rng.normal(0.0, 0.01, 200)
    m = fit_linear(X, y)
    assert np.all(np.abs(m.w - w_true) < 0.05)
    assert abs(m.b - b_true) < 0.05
    # Independent oracle: raw normal equations on the unscaled data.
    A = np.column_stack([X, np.ones(200)])
    theta = np.linalg.lstsq(A, y, rcond=None)[0]
    assert np.all(np.abs(m.w - theta[:5]) < 1e-7)
    assert abs(m.b - theta[5]) < 1e-7


def test_fit_linear_is_stationary_point():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(80, 4))
    y = X @ np.array([1.0, -1.0, 0.5, 2.0]) + 0.3 + rng.normal(0.0, 0.2, 80)
    m = fit_linear(X, y)
    err = X @ m.w + m.b - y
    grad = np.concatenate([(2.0 / 80) * (X.T @ err), [(2.0 / 80) * err.sum()]])
    assert np.linalg.norm(grad) < 1e-6


def test_fit_linear_rank_deficient_falls_back():
    X = np.column_stack([np.ones(20), np.ones(20)])  # duplicated constant columns
    y = np.arange(20.0)
    m = fit_linear(X, y)
    assert np.all(np.isfinite(m.w)) and math.isfinite(m.b)


def test_fit_linear_argument_errors():
    with pytest.raises(ValueError):
        fit_linear(np.ones((1, 2)), np.ones(1))
    with pytest.raises(ValueError):
        fit_linear(np.ones((5, 0)), np.ones(5))


def test_fit_nn_zero_targets():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(60, 3))
    m = fit_nn(X, np.zeros(60), TrainConfig(epochs=600, hidden_layers=(8,), seed=4))
    mse = float(np.mean(predict_batch(m, X) ** 2))
    assert mse < 1e-4


def test_fit_nn_learns_tanh():
    X = np.linspace(-1.0, 1.0, 200).reshape(-1, 1)
    y = np.tanh(3.0 * X).ravel()
    m = fit_nn(X, y, TrainConfig(epochs=1500, hidden_layers=(16,), seed=2))
    Xh = np.linspace(-0.95, 0.95, 77).reshape(-1, 1)
    yh = np.tanh(3.0 * Xh).ravel()
    held_out = float(np.mean((predict_batch(m, Xh) - yh) ** 2))
    assert held_out < 1e-3


def test_fit_nn_deterministic():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 2))
    y = X[:, 0] * X[:, 1]
    cfg = TrainConfig(epochs=50, hidden_layers=(6,), seed=9)
    m1 = fit_nn(X, y, cfg)
    m2 = fit_nn(X, y, cfg)
    for (w1, b1), (w2, b2) in zip(m1.layers, m2.layers):
        assert np.array_equal(w1, w2) and np.array_equal(b1, b2)


def test_fit_nn_divergence_reports_epoch():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    with pytest.raises(TrainingDivergedError) as exc:
        fit_nn(X, y, TrainConfig(epochs=10, learning_rate=1e160, hidden_layers=(4,), seed=0))
    assert exc.value.epoch >= 1


def _forward_batch_reference(layers, X):
    acts = []
    H = X
    for W, b in layers[:-1]:
        H = np.tanh(H @ W.T + b)
        acts.append(H)
    W_out, b_out = layers[-1]
    out = H @ W_out.T + b_out
    return acts, out.ravel()


def _fit_nn_reference(features, targets, cfg, feature_names=()):
    """The per-layer, out-of-place full-batch Adam loop that ``fit_nn`` must match bit for bit."""
    X = _as_matrix(features)
    y = np.asarray(targets, dtype=float).ravel()
    T, k = X.shape
    if T < 2 or k == 0:
        raise ValueError("need at least 2 rows and 1 feature")
    if y.size != T:
        raise ValueError("targets length does not match features")

    scaler = Scaler.fit(X, y)
    Xn = scaler.transform_x(X)
    yn = scaler.transform_y(y)

    rng = np.random.default_rng(cfg.seed)
    layers = _init_layers(k, cfg.hidden_layers, rng)
    m_state = [[np.zeros_like(W), np.zeros_like(b)] for W, b in layers]
    v_state = [[np.zeros_like(W), np.zeros_like(b)] for W, b in layers]

    def loss_of(params):
        _, out = _forward_batch_reference(params, Xn)
        return float(np.mean((out - yn) ** 2))

    best_loss = loss_of(layers)
    best = [[W.copy(), b.copy()] for W, b in layers]

    b1, b2, eps, lr = 0.9, 0.999, 1e-8, cfg.learning_rate
    for epoch in range(1, cfg.epochs + 1):
        acts, out = _forward_batch_reference(layers, Xn)
        err = out - yn
        with np.errstate(over="ignore", invalid="ignore"):
            loss = float(np.mean(err**2))
        if not np.isfinite(loss):
            raise TrainingDivergedError(epoch)
        if loss < best_loss:
            best_loss = loss
            best = [[W.copy(), b.copy()] for W, b in layers]

        grads = [None] * len(layers)
        delta = (2.0 / T) * err[:, None]
        inputs = [Xn, *acts]
        W_out, _ = layers[-1]
        grads[-1] = [delta.T @ inputs[-1], delta.sum(axis=0)]
        back = delta @ W_out
        for i in range(len(layers) - 2, -1, -1):
            back = back * (1.0 - acts[i] ** 2)
            grads[i] = [back.T @ inputs[i], back.sum(axis=0)]
            if i > 0:
                back = back @ layers[i][0]

        corr1 = 1.0 - b1**epoch
        corr2 = 1.0 - b2**epoch
        for li in range(len(layers)):
            for pi in range(2):
                g = grads[li][pi]
                m_state[li][pi] = b1 * m_state[li][pi] + (1 - b1) * g
                v_state[li][pi] = b2 * v_state[li][pi] + (1 - b2) * g**2
                m_hat = m_state[li][pi] / corr1
                v_hat = v_state[li][pi] / corr2
                layers[li][pi] = layers[li][pi] - lr * m_hat / (np.sqrt(v_hat) + eps)

    final_loss = loss_of(layers)
    if not np.isfinite(final_loss):
        raise TrainingDivergedError(cfg.epochs)
    if final_loss < best_loss:
        best = layers
    return NeuralModel(tuple((W, b) for W, b in best), feature_names or (), scaler)


def _one_net(data_seed, shape, target, **cfg):
    """One net on ``shape`` standard normal features drawn from ``data_seed``; ``target(X, rng)`` gives y."""
    rng = np.random.default_rng(data_seed)
    X = rng.normal(size=shape)
    y = target(X, rng)
    return lambda fit: [fit(X, y, TrainConfig(**cfg))]


def _desk_tanh_bank(fit):
    """Nets of the seed 7 desk tanh bank over the critical sensors, 300 epochs."""
    cfg = plant.desk_config(seed=7, nonlinearity=plant.Nonlinearity.TANH, nonlinear_channels=(0,))
    train, _ = plant.split_sequential(plant.simulate(cfg, 1200), 0.8)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detector, "fit_nn", fit)
        bank = detector.train_bank(train, family="neural", train_cfg=TrainConfig(epochs=300, seed=7))
    return [bank.detectors[s].model for s in bank.detector_set]


def _line(fit):
    X = np.linspace(-1.0, 1.0, 200).reshape(-1, 1)
    return [fit(X, np.tanh(3.0 * X).ravel(), TrainConfig(epochs=1500, hidden_layers=(16,), seed=2))]


def _constant_column(X, rng):
    X[:, 1] = 3.0
    return X[:, 0] - 0.5 * X[:, 2]


@pytest.mark.parametrize(
    "train",
    [
        pytest.param(
            _one_net(1, (60, 3), lambda X, rng: np.zeros(60), epochs=600, hidden_layers=(8,), seed=4),
            id="zero-targets",
        ),
        pytest.param(_line, id="tanh-line"),
        pytest.param(
            _one_net(5, (40, 2), lambda X, rng: X[:, 0] * X[:, 1], epochs=50, hidden_layers=(6,), seed=9),
            id="product",
        ),
        pytest.param(
            _one_net(
                23,
                (60, 3),
                lambda X, rng: X @ np.array([1.0, 2.0, -1.0]) + 0.5 + rng.normal(0.0, 0.1, 60),
                epochs=40,
                hidden_layers=(5,),
                seed=1,
            ),
            id="serialization",
        ),
        pytest.param(
            _one_net(3, (2, 2), lambda X, rng: rng.normal(size=2), epochs=200, hidden_layers=(3, 5, 2), seed=3),
            id="two-rows-3-5-2",
        ),
        pytest.param(
            _one_net(41, (50, 3), _constant_column, epochs=300, hidden_layers=(6,), seed=5),
            id="constant-column",
        ),
        pytest.param(
            _one_net(
                11, (60, 3), lambda X, rng: np.sin(X).sum(axis=1), epochs=200, hidden_layers=(16, 16, 16, 8), seed=11
            ),
            id="16-16-16-8",
        ),
        pytest.param(
            _one_net(
                6, (30, 2), lambda X, rng: rng.normal(size=30), epochs=10, learning_rate=1e160, hidden_layers=(4,), seed=0
            ),
            id="divergence",
        ),
        pytest.param(_desk_tanh_bank, id="desk-tanh-bank"),
    ],
)
def test_fit_nn_matches_the_reference_loop_bit_for_bit(train):
    try:
        ref = train(_fit_nn_reference)
    except TrainingDivergedError as diverged:
        with pytest.raises(TrainingDivergedError) as ours:
            train(fit_nn)
        assert ours.value.epoch == diverged.epoch
        return
    nets = train(fit_nn)
    arrays = []
    for ours, theirs in zip(nets, ref, strict=True):
        assert len(ours.layers) == len(theirs.layers)
        for (W, b), (W_ref, b_ref) in zip(ours.layers, theirs.layers):
            assert np.array_equal(W, W_ref) and np.array_equal(b, b_ref)
            arrays += [W, b]
    assert all(a.flags.owndata for a in arrays)
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, other) for other in arrays[i + 1 :])


def test_predict_linear_and_dimension_check():
    m = LinearModel(np.array([2.0]), 1.0)
    assert predict_batch(m, np.array([[3.0]]))[0] == 7.0
    with pytest.raises(ValueError):
        predict_batch(m, np.array([[1.0, 2.0]]))


def test_predict_ensemble_is_exact_average():
    # Constant net that outputs 4.0 everywhere; linear part outputs 2.0.
    nn = NeuralModel(((np.zeros((2, 2)), np.zeros(2)), (np.zeros((1, 2)), np.array([4.0]))))
    lr = LinearModel(np.zeros(2), 2.0)
    ens = EnsembleModel(nn, lr)
    x = np.array([0.3, -1.2])
    assert predict_batch(ens, x[None, :])[0] == 3.0
    assert predict_batch(ens, x[None, :])[0] == 0.5 * (predict_batch(nn, x[None, :])[0] + predict_batch(lr, x[None, :])[0])


def test_predict_one_hidden_unit_hand_computed():
    nn = NeuralModel(((np.array([[1.0]]), np.array([1.0])), (np.array([[1.0]]), np.array([0.25]))))
    expected = math.tanh(1.0) * 1.0 + 0.25
    assert abs(predict_batch(nn, np.array([[0.0]]))[0] - expected) < 1e-12


def test_jacobian_linear_and_ensemble():
    lr = LinearModel(np.array([2.0, -1.0]), 0.0)
    assert np.array_equal(taylor_linearize(lr, np.array([5.0, 5.0]))[0], np.array([2.0, -1.0]))
    zero_nn = NeuralModel(((np.zeros((3, 2)), np.zeros(3)), (np.zeros((1, 3)), np.zeros(1))))
    ens = EnsembleModel(zero_nn, lr)
    assert np.allclose(taylor_linearize(ens, np.array([0.0, 0.0]))[0], [1.0, -0.5])


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(25):
        model = random_neural_model(rng)
        x = rng.normal(size=model.n_features)
        g = taylor_linearize(model, x)[0]
        fd = finite_difference_gradient(lambda v: predict_batch(model, v[None, :])[0], x)
        rel = np.abs(g - fd) / np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-6)
        assert rel.max() < 1e-4


def test_taylor_linear_fixed_point():
    m = LinearModel(np.array([1.0, 2.0]), -3.0)
    for x0 in (np.zeros(2), np.array([4.0, -1.0])):
        w, b = taylor_linearize(m, x0)
        assert np.allclose(w, m.w) and abs(b - m.b) < 1e-12


def test_taylor_linear_returns_its_own_parameters():
    m = LinearModel(np.array([0.1, 0.7, -0.3]), 0.1)
    x0 = np.array([1e8, -3.3, 0.2])
    w, b = taylor_linearize(m, x0)
    assert b == m.b and np.array_equal(w, m.w)
    w[0] = 5.0
    assert m.w[0] == 0.1  # a copy, not the model's own array


def test_taylor_reproduces_predict_and_local_error():
    rng = np.random.default_rng(13)
    model = random_neural_model(rng, k=3)
    x0 = rng.normal(size=3)
    w, b = taylor_linearize(model, x0)
    assert abs(w @ x0 + b - predict_batch(model, x0[None, :])[0]) < 1e-12
    for i in range(3):
        x1 = x0.copy()
        x1[i] += 0.01
        err = abs(w @ x1 + b - predict_batch(model, x1[None, :])[0])
        assert err < 1e-2  # second-order in the 0.01 step for bounded curvature


def test_taylor_ensemble_averages_members():
    rng = np.random.default_rng(17)
    nn = random_neural_model(rng, k=4, with_scaler=False)
    lr = LinearModel(rng.normal(size=4), 0.7)
    ens = EnsembleModel(nn, lr)
    x0 = rng.normal(size=4)
    w, b = taylor_linearize(ens, x0)
    w_nn, b_nn = taylor_linearize(nn, x0)
    w_lr, b_lr = taylor_linearize(lr, x0)
    assert np.allclose(w, 0.5 * (w_nn + w_lr), atol=1e-12)
    assert abs(b - 0.5 * (b_nn + b_lr)) < 1e-12


def test_taylor_at_x0_exact_all_families():
    rng = np.random.default_rng(19)
    nn = random_neural_model(rng, k=3, with_scaler=True)
    lr = LinearModel(rng.normal(size=3), -0.2)
    for model in (lr, nn, EnsembleModel(random_neural_model(rng, k=3, with_scaler=False), lr)):
        x0 = rng.normal(size=3)
        w, b = taylor_linearize(model, x0)
        assert abs(w @ x0 + b - predict_batch(model, x0[None, :])[0]) < 1e-12


def test_serialization_round_trip():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(60, 3))
    y = X @ np.array([1.0, 2.0, -1.0]) + 0.5 + rng.normal(0.0, 0.1, 60)
    lr = fit_linear(X, y, ("a", "b", "c"))
    nn = fit_nn(X, y, TrainConfig(epochs=40, hidden_layers=(5,), seed=1), ("a", "b", "c"))
    ens = EnsembleModel(nn, lr)
    probe = rng.normal(size=(10, 3))
    for model in (lr, nn, ens):
        blob = json.dumps(model_to_json(model))
        back = model_from_json(json.loads(blob))
        assert np.allclose(predict_batch(back, probe), predict_batch(model, probe), atol=0)
        assert back.feature_names == ("a", "b", "c")


def test_model_json_rejects_a_non_tanh_activation():
    obj = model_to_json(random_neural_model(np.random.default_rng(31)))
    assert obj["activation"] == "tanh"
    model_from_json(obj)
    obj["activation"] = "relu"
    with pytest.raises(ValueError, match="tanh"):
        model_from_json(obj)


def test_normalized_mse_uses_training_scaler():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(100, 2))
    y = 100.0 * X[:, 0] + rng.normal(0.0, 1.0, 100)
    m = fit_linear(X, y)
    raw = float(np.mean((predict_batch(m, X) - y) ** 2))
    norm = normalized_mse(m, X, y)
    assert norm < raw  # target std is ~100, so normalized error shrinks
    assert norm == pytest.approx(raw / m.scaler.y_std**2)

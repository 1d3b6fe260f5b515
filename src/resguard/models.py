"""Per-sensor regression predictors: linear, feed-forward neural, ensemble.

All three families share one evaluation surface: ``predict_batch``
evaluates a model and ``taylor_linearize`` linearizes it at an operating
point.  Both also take a ``StackedModel``, several same-shape models
evaluated as one over full measurement rows, and evaluate a single model as
a stack of one, so there is one implementation of each.  Training
normalizes features and targets with z-scores computed on the training
split; stored models carry the scaler so predictions and gradients are in
engineering units, while MSE reporting uses normalized values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

MODEL_FORMAT_VERSION = "1"


class TrainingDivergedError(RuntimeError):
    """Training loss became non-finite; carries the epoch index."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class Scaler:
    """Z-score statistics for features (per column) and the target."""

    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float

    def __post_init__(self):
        object.__setattr__(self, "x_mean", np.asarray(self.x_mean, dtype=float))
        object.__setattr__(self, "x_std", np.asarray(self.x_std, dtype=float))

    @classmethod
    def fit(cls, features: np.ndarray, targets: np.ndarray) -> "Scaler":
        x_std = features.std(axis=0)
        x_std = np.where(x_std > 0, x_std, 1.0)
        y_std = float(targets.std())
        return cls(features.mean(axis=0), x_std, float(targets.mean()), y_std if y_std > 0 else 1.0)

    @classmethod
    def identity(cls, k: int) -> "Scaler":
        return cls(np.zeros(k), np.ones(k), 0.0, 1.0)

    def transform_x(self, x: np.ndarray) -> np.ndarray:
        return (x - self.x_mean) / self.x_std

    def transform_y(self, y):
        return (y - self.y_mean) / self.y_std


@dataclass(frozen=True)
class LinearModel:
    """Affine predictor ``f(x) = w . x + b`` in engineering units."""

    w: np.ndarray
    b: float
    feature_names: tuple[str, ...] = ()
    scaler: Scaler | None = None

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1:
            raise ValueError("w must be a vector")
        if not (np.all(np.isfinite(w)) and np.isfinite(self.b)):
            raise ValueError("linear model parameters must be finite")
        if self.feature_names and len(self.feature_names) != w.size:
            raise ValueError("feature_names length does not match w")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n_features(self) -> int:
        return self.w.size


@dataclass(frozen=True)
class NeuralModel:
    """Feed-forward net with tanh hidden layers and an identity output.

    ``layers`` maps normalized features through each (weights, bias) pair;
    the scaler converts engineering units in and out.
    """

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    feature_names: tuple[str, ...] = ()
    scaler: Scaler | None = None

    def __post_init__(self):
        layers = tuple((np.asarray(W, dtype=float), np.asarray(b, dtype=float)) for W, b in self.layers)
        if not layers:
            raise ValueError("at least one layer required")
        prev = layers[0][0].shape[1]
        for W, b in layers:
            if W.ndim != 2 or b.ndim != 1 or W.shape[0] != b.size or W.shape[1] != prev:
                raise ValueError("inconsistent layer dimensions")
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
                raise ValueError("neural model parameters must be finite")
            prev = W.shape[0]
        if layers[-1][0].shape[0] != 1:
            raise ValueError("output layer must have a single unit")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n_features(self) -> int:
        return self.layers[0][0].shape[1]


@dataclass(frozen=True)
class EnsembleModel:
    """Average of a neural and a linear predictor over the same features."""

    nn: NeuralModel
    lr: LinearModel

    def __post_init__(self):
        if self.nn.n_features != self.lr.n_features:
            raise ValueError("ensemble members disagree on feature count")
        if self.nn.feature_names and self.lr.feature_names and self.nn.feature_names != self.lr.feature_names:
            raise ValueError("ensemble members disagree on feature names")

    @property
    def n_features(self) -> int:
        return self.lr.n_features

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.lr.feature_names or self.nn.feature_names


Model = LinearModel | NeuralModel | EnsembleModel


@dataclass(frozen=True)
class TrainConfig:
    """Neural training hyperparameters (full-batch Adam)."""

    epochs: int = 5000
    learning_rate: float = 0.01
    hidden_layers: tuple[int, ...] = (16, 16)
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not self.hidden_layers or any(h < 1 for h in self.hidden_layers):
            raise ValueError("hidden_layers must be positive widths")
        object.__setattr__(self, "hidden_layers", tuple(self.hidden_layers))


def _as_matrix(features) -> np.ndarray:
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    return X


def fit_linear(features, targets, feature_names: tuple[str, ...] = ()) -> LinearModel:
    """Least-squares fit via normal equations on z-scored data.

    Falls back to a tiny ridge (lambda = 1e-8) when the Gram matrix is
    singular or numerically rank-deficient.  The returned weights and
    intercept act on engineering units; the fitted scaler is kept on the
    model for normalized-MSE reporting.
    """
    X = _as_matrix(features)
    y = np.asarray(targets, dtype=float).ravel()
    T, k = X.shape
    if T <= 1:
        raise ValueError("need at least 2 training rows")
    if k == 0:
        raise ValueError("need at least 1 feature column")
    if y.size != T:
        raise ValueError("targets length does not match features")

    scaler = Scaler.fit(X, y)
    Xn = scaler.transform_x(X)
    yn = scaler.transform_y(y)
    A = np.column_stack([Xn, np.ones(T)])
    G = A.T @ A
    rhs = A.T @ yn
    try:
        theta = np.linalg.solve(G, rhs)
        if not np.all(np.isfinite(theta)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        theta = np.linalg.solve(G + 1e-8 * np.eye(k + 1), rhs)
    wn, bn = theta[:k], theta[k]

    # Fold the scaler into engineering-unit parameters.
    w = scaler.y_std * wn / scaler.x_std
    b = scaler.y_mean + scaler.y_std * bn - float(w @ scaler.x_mean)
    return LinearModel(w, float(b), feature_names or (), scaler)


def _init_layers(k: int, hidden: tuple[int, ...], rng: np.random.Generator):
    sizes = [k, *hidden, 1]
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        W = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append([W, np.zeros(fan_out)])
    return layers


def _layer_views(flat: np.ndarray, sizes) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views into one flat vector, layer by layer, for the given widths."""
    views, at = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        W = flat[at : at + fan_out * fan_in].reshape(fan_out, fan_in)
        at += W.size
        views.append((W, flat[at : at + fan_out]))
        at += fan_out
    return views


def _forward_batch(layers, X: np.ndarray, bufs=None):
    """Forward pass over a batch; returns hidden activations and outputs.

    The weights and ``X`` may carry leading axes (a ``StackedModel``'s
    members), which ``np.matmul`` loops over.  ``bufs``, if given, holds
    one (rows, width) array per layer, the output layer's of width 1, and
    receives the activations and outputs in place.
    """
    bufs = bufs or [None] * len(layers)
    acts = []
    H = X
    for (W, b), buf in zip(layers[:-1], bufs):
        H = np.matmul(H, W.swapaxes(-1, -2), out=buf)
        H += b
        np.tanh(H, out=H)
        acts.append(H)
    W_out, b_out = layers[-1]
    Z = np.matmul(H, W_out.swapaxes(-1, -2), out=bufs[-1])
    Z += b_out
    return acts, Z[..., 0]


def fit_nn(features, targets, cfg: TrainConfig, feature_names: tuple[str, ...] = ()) -> NeuralModel:
    """Train a tanh feed-forward net with full-batch Adam.

    Deterministic given ``cfg.seed``.  Parameters from the best epoch are
    returned, so the final training MSE never exceeds the initial one.
    Raises :class:`TrainingDivergedError` if the loss becomes non-finite.

    All weights, gradients and Adam moments live in flat vectors with
    per-layer views, and every epoch writes into buffers allocated once, so
    an epoch costs a fixed set of numpy calls and no allocation.  Each
    element still goes through the same IEEE operations in the same order
    as a per-layer, out-of-place loop would take it.
    """
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

    hidden = cfg.hidden_layers
    sizes = [k, *hidden, 1]
    rng = np.random.default_rng(cfg.seed)
    params = np.concatenate([a.ravel() for layer in _init_layers(k, hidden, rng) for a in layer])
    grad, m, v, step, denom = (np.zeros_like(params) for _ in range(5))
    layers, grads = _layer_views(params, sizes), _layer_views(grad, sizes)
    fwd = [np.empty((T, h)) for h in (*hidden, 1)]
    inputs = [Xn, *fwd[:-1]]
    backs = [np.empty((T, h)) for h in hidden]
    dtanh = [np.empty((T, h)) for h in hidden]
    err, sq, delta = np.empty(T), np.empty(T), np.empty((T, 1))

    def loss_of():
        _, out = _forward_batch(layers, Xn, fwd)
        return float(np.mean((out - yn) ** 2))

    best_loss = loss_of()
    best = params.copy()

    b1, b2, eps, lr = 0.9, 0.999, 1e-8, cfg.learning_rate  # Adam's standard decays and guard
    for epoch in range(1, cfg.epochs + 1):
        acts, out = _forward_batch(layers, Xn, fwd)
        np.subtract(out, yn, out=err)
        with np.errstate(over="ignore", invalid="ignore"):
            loss = float(np.add.reduce(np.square(err, out=sq)) / T)
        if not np.isfinite(loss):
            raise TrainingDivergedError(epoch)
        if loss < best_loss:
            best_loss = loss
            best[:] = params

        # Backprop: d(loss)/d(out) then chain through tanh layers.  The
        # output layer has one unit, so ``delta @ W_out`` has inner size 1
        # and each entry is one product: a broadcast multiply gives the same
        # values (at most the sign of an exact zero differs, which Adam's
        # moments, starting at +0, never pass on to a weight).
        np.multiply(err[:, None], 2.0 / T, out=delta)
        np.matmul(delta.T, acts[-1], out=grads[-1][0])
        np.sum(delta, axis=0, out=grads[-1][1])
        back = np.multiply(delta, layers[-1][0], out=backs[-1])
        for i in range(len(layers) - 2, -1, -1):
            np.subtract(1.0, np.square(acts[i], out=dtanh[i]), out=dtanh[i])
            back *= dtanh[i]
            np.matmul(back.T, inputs[i], out=grads[i][0])
            np.sum(back, axis=0, out=grads[i][1])
            if i > 0:
                back = np.matmul(back, layers[i][0], out=backs[i - 1])

        # Adam, elementwise over the flat vectors in the textbook order:
        # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2,
        # p = p - lr*(m/corr1) / (sqrt(v/corr2) + eps).
        corr1 = 1.0 - b1**epoch
        corr2 = 1.0 - b2**epoch
        m *= b1
        m += np.multiply(grad, 1 - b1, out=step)
        v *= b2
        v += np.multiply(np.square(grad, out=step), 1 - b2, out=step)
        np.divide(m, corr1, out=step)
        step *= lr
        np.divide(v, corr2, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        params -= step

    final_loss = loss_of()
    if not np.isfinite(final_loss):
        raise TrainingDivergedError(cfg.epochs)
    chosen = layers if final_loss < best_loss else _layer_views(best, sizes)
    return NeuralModel(tuple((W.copy(), b.copy()) for W, b in chosen), feature_names or (), scaler)


@dataclass(frozen=True, eq=False)
class StackedModel:
    """Models of one family and one shape, evaluated as one over full rows.

    Member ``i`` reads the row columns ``columns[i]``.  Every parameter
    carries a leading member axis, which ``np.matmul`` and the elementwise
    operations loop over, so each member goes through the same numpy and
    BLAS calls as it would alone and gets bit-identical values.  ``lr``
    holds affine weights ``(g, k)`` and intercepts ``(g,)``; ``nn`` holds
    tanh layers, weights ``(g, out, in)`` and biases ``(g, 1, out)``, and a
    ``Scaler`` whose feature statistics are ``(g, 1, k)`` and target
    statistics ``(g, 1)``.  An ensemble stack holds both and averages them.
    Build stacks with ``stack_models``.
    """

    columns: np.ndarray
    lr: tuple[np.ndarray, np.ndarray] | None = None
    nn: tuple[tuple[tuple[np.ndarray, np.ndarray], ...], Scaler] | None = None

    @cached_property
    def width(self) -> int:
        """Columns a row needs: one past the highest column a member reads."""
        return 1 + int(self.columns.max())

    @cached_property
    def members(self) -> tuple["StackedModel", ...]:
        """Each member as a stack of one, over views of this stack's arrays."""
        def one(i: int) -> StackedModel:
            at = slice(i, i + 1)
            lr = None if self.lr is None else (self.lr[0][at], self.lr[1][at])
            nn = None
            if self.nn is not None:
                layers, sc = self.nn
                scaler = Scaler(sc.x_mean[at], sc.x_std[at], sc.y_mean[at], sc.y_std[at])
                nn = (tuple((W[at], b[at]) for W, b in layers), scaler)
            return StackedModel(self.columns[at], lr, nn)

        return tuple(one(i) for i in range(len(self.columns)))


def _shape(model: Model) -> tuple:
    if isinstance(model, LinearModel):
        return ("linear", model.n_features)
    if isinstance(model, NeuralModel):
        return ("neural", tuple(W.shape for W, _ in model.layers))
    if isinstance(model, EnsembleModel):
        return ("ensemble", _shape(model.nn))
    raise TypeError(f"unsupported model type {type(model)!r}")


def stack_models(models, columns) -> tuple[tuple[StackedModel, np.ndarray], ...]:
    """The models grouped by family and shape, one ``StackedModel`` per
    group in order of first appearance, each with the positions of its
    members in ``models``.  Model ``i`` reads the row columns ``columns[i]``.
    """
    groups: dict[tuple, list[int]] = {}
    for i, model in enumerate(models):
        groups.setdefault(_shape(model), []).append(i)
    stacks = []
    for at in groups.values():
        members = [models[i] for i in at]
        lrs = [m.lr if isinstance(m, EnsembleModel) else m for m in members if not isinstance(m, NeuralModel)]
        nns = [m.nn if isinstance(m, EnsembleModel) else m for m in members if not isinstance(m, LinearModel)]
        lr = (np.stack([m.w for m in lrs]), np.array([m.b for m in lrs])) if lrs else None
        nn = None
        if nns:
            layers = tuple(
                (np.stack([m.layers[j][0] for m in nns]), np.stack([m.layers[j][1] for m in nns])[:, None, :])
                for j in range(len(nns[0].layers))
            )
            scalers = [_scaler_of(m) for m in nns]
            nn = (
                layers,
                Scaler(
                    np.stack([sc.x_mean for sc in scalers])[:, None, :],
                    np.stack([sc.x_std for sc in scalers])[:, None, :],
                    np.array([[sc.y_mean] for sc in scalers]),
                    np.array([[sc.y_std] for sc in scalers]),
                ),
            )
        cols = np.array([columns[i] for i in at], dtype=int)
        stacks.append((StackedModel(cols, lr, nn), np.array(at)))
    return tuple(stacks)


def _alone(model: Model) -> StackedModel:
    """``model`` as a stack of one; its callers pass the model's own
    feature matrix, not full rows."""
    return stack_models([model], [np.arange(model.n_features)])[0][0]


def _stacked_predict(stack: StackedModel, Xg: np.ndarray) -> np.ndarray:
    """Predictions ``(g, rows)`` from each member's ``(rows, k)`` features ``Xg[i]``."""
    preds = []
    if stack.nn is not None:
        layers, scaler = stack.nn
        _, out = _forward_batch(layers, scaler.transform_x(Xg))
        preds.append(scaler.y_mean + scaler.y_std * out)
    if stack.lr is not None:
        w, b = stack.lr
        preds.append((Xg @ w[:, :, None])[..., 0] + b[:, None])
    return preds[0] if len(preds) == 1 else 0.5 * (preds[0] + preds[1])


def _stacked_linearize(stack: StackedModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients ``(g, k)`` and intercepts ``(g,)`` at each member's features ``x[i]``."""
    parts = []
    if stack.nn is not None:
        # The prediction and the hidden activations the gradient needs come
        # from one forward pass; the gradient is chained back layer by layer.
        layers, scaler = stack.nn
        acts, out = _forward_batch(layers, scaler.transform_x(x[:, None, :]))
        g = layers[-1][0]
        for (W, _), a in zip(reversed(layers[:-1]), reversed(acts)):
            g = (g * (1.0 - a**2)) @ W
        w = scaler.y_std * g[:, 0, :] / scaler.x_std[:, 0, :]
        pred = (scaler.y_mean + scaler.y_std * out)[:, 0]
        parts.append((w, pred - (w[:, None, :] @ x[:, :, None])[:, 0, 0]))
    if stack.lr is not None:
        parts.append((stack.lr[0].copy(), stack.lr[1].copy()))
    if len(parts) == 1:
        return parts[0]
    (w_nn, b_nn), (w_lr, b_lr) = parts
    return 0.5 * (w_nn + w_lr), 0.5 * (b_nn + b_lr)


def _check_width(stack: StackedModel, width: int) -> None:
    if width < stack.width:
        raise ValueError(f"rows of length {width} do not cover column {stack.width - 1}")


def predict_batch(model: Model | StackedModel, X) -> np.ndarray:
    """Evaluate the predictor at every row of a feature matrix.

    A ``StackedModel`` is evaluated at every row of a measurement matrix and
    gives one row of predictions per member.
    """
    X = _as_matrix(X)
    if isinstance(model, StackedModel):
        _check_width(model, X.shape[1])
        # Member i's block is laid out as ``X[:, columns[i]]`` is (column
        # major), so its matmuls take the same BLAS path as alone.  Over more
        # than one row the members go one at a time, which keeps the peak
        # memory at one member's, as alone; stacking saves per-call
        # overhead, which only a single row notices.  Stacked over the
        # probe lattice's blocks of up to 4,356 rows, the desk-neural
        # benchmark's peak RSS rose by 1.8 MB and its ops_per_s moved by
        # less than its run-to-run spread.
        if X.shape[0] > 1:
            return np.concatenate([_stacked_predict(m, X.T[m.columns].swapaxes(1, 2)) for m in model.members])
        return _stacked_predict(model, X.T[model.columns].swapaxes(1, 2))
    if X.shape[1] != model.n_features:
        raise ValueError("feature count mismatch")
    return _stacked_predict(_alone(model), X[None])[0]


def taylor_linearize(model: Model | StackedModel, x0):
    """First-order expansion at ``x0``: returns (w, b) with w.x0 + b the prediction at x0.

    ``w`` is the exact gradient; a ``LinearModel`` returns its own ``w`` and
    ``b``.  A ``StackedModel`` is expanded at a measurement row ``x0`` and
    returns one gradient row ``w[i]``, over member ``i``'s columns, and one
    intercept ``b[i]`` per member: ``w[i] . x0[columns[i]] + b[i]`` is its
    prediction at ``x0``.
    """
    x0 = np.asarray(x0, dtype=float)
    if isinstance(model, StackedModel):
        if x0.ndim != 1:
            raise ValueError("x0 must be a vector")
        _check_width(model, x0.size)
        return _stacked_linearize(model, x0[model.columns])
    if x0.ndim != 1 or x0.size != model.n_features:
        raise ValueError(f"input of length {x0.size} does not match {model.n_features} features")
    w, b = _stacked_linearize(_alone(model), x0[None])
    return w[0], float(b[0])


def normalized_mse(model: Model, features, targets) -> float:
    """Mean squared error on z-scored values (per the model's training scaler)."""
    X = _as_matrix(features)
    y = np.asarray(targets, dtype=float).ravel()
    pred = predict_batch(model, X)
    scaler = _scaler_of(model)
    return float(np.mean((scaler.transform_y(pred) - scaler.transform_y(y)) ** 2))


def _scaler_of(model: Model) -> Scaler:
    if isinstance(model, EnsembleModel):
        return _scaler_of(model.lr)
    return model.scaler or Scaler.identity(model.n_features)


def _scaler_to_json(scaler: Scaler | None):
    if scaler is None:
        return None
    return {
        "x_mean": scaler.x_mean.tolist(),
        "x_std": scaler.x_std.tolist(),
        "y_mean": scaler.y_mean,
        "y_std": scaler.y_std,
    }


def _scaler_from_json(obj) -> Scaler | None:
    if obj is None:
        return None
    return Scaler(np.array(obj["x_mean"]), np.array(obj["x_std"]), obj["y_mean"], obj["y_std"])


def model_to_json(model: Model) -> dict:
    """Serialize a model to a JSON-compatible dict (versioned schema)."""
    if isinstance(model, LinearModel):
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "family": "linear",
            "n_features": model.n_features,
            "w": model.w.tolist(),
            "b": model.b,
            "feature_names": list(model.feature_names),
            "scaler": _scaler_to_json(model.scaler),
        }
    if isinstance(model, NeuralModel):
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "family": "neural",
            "n_features": model.n_features,
            "activation": "tanh",
            "layers": [
                {"shape": list(W.shape), "weights": W.tolist(), "bias": b.tolist()}
                for W, b in model.layers
            ],
            "feature_names": list(model.feature_names),
            "scaler": _scaler_to_json(model.scaler),
        }
    if isinstance(model, EnsembleModel):
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "family": "ensemble",
            "nn": model_to_json(model.nn),
            "lr": model_to_json(model.lr),
        }
    raise TypeError(f"unsupported model type {type(model)!r}")


def model_from_json(obj: dict) -> Model:
    version = obj.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    family = obj["family"]
    if family == "linear":
        return LinearModel(
            np.array(obj["w"], dtype=float),
            float(obj["b"]),
            tuple(obj.get("feature_names", ())),
            _scaler_from_json(obj.get("scaler")),
        )
    if family == "neural":
        if obj.get("activation", "tanh") != "tanh":
            raise ValueError("only tanh hidden activations are supported")
        layers = tuple(
            (np.array(l["weights"], dtype=float), np.array(l["bias"], dtype=float))
            for l in obj["layers"]
        )
        return NeuralModel(
            layers,
            tuple(obj.get("feature_names", ())),
            _scaler_from_json(obj.get("scaler")),
        )
    if family == "ensemble":
        return EnsembleModel(model_from_json(obj["nn"]), model_from_json(obj["lr"]))
    raise ValueError(f"unknown model family {family!r}")


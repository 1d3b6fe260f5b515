"""Residual-based anomaly detection over a bank of per-sensor predictors.

A detector for sensor ``s`` predicts its reading from other columns and
raises an alarm when the residual ``|prediction - reading|`` strictly
exceeds the threshold ``tau_s``.  Thresholds are calibrated from empirical
false-positive curves on clean data: the curve stores the sorted clean
residual sample and ``FP(tau)`` counts residuals strictly above ``tau``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping

import numpy as np

from .models import (
    LinearModel,
    Model,
    StackedModel,
    TrainConfig,
    fit_linear,
    fit_nn,
    EnsembleModel,
    predict_batch,
    stack_models,
)
from .plant import Dataset

FEATURE_MODE_NON_CRITICAL = "non_critical_and_controls"
FEATURE_MODE_ALL_OTHERS = "all_other_columns"


@dataclass(frozen=True)
class DetectorEntry:
    """One trained predictor plus the column layout it reads."""

    model: Model
    sensor_index: int
    feature_indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.feature_indices, dtype=int)
        if self.sensor_index in idx:
            raise ValueError(f"detector for column {self.sensor_index} uses itself as a feature")
        if idx.size != self.model.n_features:
            raise ValueError("feature indices do not match the model's feature count")
        object.__setattr__(self, "feature_indices", idx)


@dataclass(frozen=True)
class PredictorBank:
    """Detectors keyed by sensor column index, evaluated in ``detector_set`` order.

    ``stacked`` is the bank's one evaluator: its models stacked by family
    and shape (``stack_models``), built on first use and kept.
    """

    detectors: Mapping[int, DetectorEntry]
    detector_set: tuple[int, ...]
    column_names: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.detector_set:
            raise ValueError("detector_set must be nonempty")
        detectors = dict(self.detectors)
        for s in self.detector_set:
            if s not in detectors:
                raise ValueError(f"detector_set lists column {s} with no detector")
            if detectors[s].sensor_index != s:
                raise ValueError(f"detector keyed {s} claims column {detectors[s].sensor_index}")
        object.__setattr__(self, "detectors", detectors)
        object.__setattr__(self, "detector_set", tuple(self.detector_set))
        object.__setattr__(self, "column_names", tuple(self.column_names))

    @cached_property
    def stacked(self) -> tuple[tuple[StackedModel, np.ndarray], ...]:
        """One ``StackedModel`` per shape group of the detectors, with the
        positions in ``detector_set`` of its members."""
        entries = [self.detectors[s] for s in self.detector_set]
        return stack_models([e.model for e in entries], [e.feature_indices for e in entries])

    @cached_property
    def sensors(self) -> np.ndarray:
        """``detector_set`` as an index vector."""
        return np.array(self.detector_set)

    @cached_property
    def width(self) -> int:
        """Columns a row needs: one past the highest column any detector reads."""
        read = max(int(e.feature_indices.max(initial=0)) for e in self.detectors.values())
        return 1 + max(read, max(self.detector_set))

    def is_affine(self) -> bool:
        return all(isinstance(e.model, LinearModel) for e in self.detectors.values())

    def name_of(self, s: int) -> str:
        if self.column_names and 0 <= s < len(self.column_names):
            return self.column_names[s]
        return str(s)


@dataclass(frozen=True)
class ThresholdConfig:
    """Per-detector thresholds ``tau_s >= 0``."""

    tau: Mapping[int, float]

    def __post_init__(self):
        tau = {int(k): float(v) for k, v in self.tau.items()}
        for s, t in tau.items():
            if not (t >= 0 and math.isfinite(t)):
                raise ValueError(f"tau[{s}] = {t} must be finite and nonnegative")
        object.__setattr__(self, "tau", tau)

    def with_values(self, updates: Mapping[int, float]) -> "ThresholdConfig":
        merged = dict(self.tau)
        merged.update({int(k): float(v) for k, v in updates.items()})
        return ThresholdConfig(merged)


@dataclass(frozen=True)
class FPCurve:
    """Sorted clean-data residual sample for one detector."""

    residuals: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.residuals, dtype=float)
        if r.ndim != 1 or r.size == 0:
            raise ValueError("residual sample must be a nonempty vector")
        if not np.all(np.isfinite(r)) or np.any(r < 0):
            raise ValueError("residuals must be finite and nonnegative")
        if np.any(np.diff(r) < 0):
            r = np.sort(r)
        r = r.copy()
        r.setflags(write=False)
        object.__setattr__(self, "residuals", r)

    @property
    def size(self) -> int:
        return self.residuals.size

    def count_above(self, tau: float) -> int:
        """FP(tau): number of clean residuals strictly above tau."""
        return int(self.size - np.searchsorted(self.residuals, tau, side="right"))


def residuals(bank: PredictorBank, rows) -> dict[int, float] | dict[int, np.ndarray]:
    """Residual ``|f_s(features) - reading_s|`` of every detector: a float
    per detector at one row, a vector per detector over a matrix's rows.
    Every shape group of the bank is evaluated in one stacked call."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim not in (1, 2):
        raise ValueError("rows must be a vector or a matrix")
    if rows.shape[-1] < bank.width:
        raise ValueError(f"rows of length {rows.shape[-1]} do not cover column {bank.width - 1}")
    X = np.atleast_2d(rows)
    out = np.empty((len(bank.detector_set), X.shape[0]))
    for stack, at in bank.stacked:
        out[at] = np.abs(predict_batch(stack, X) - X[:, bank.sensors[at]].T)
    if rows.ndim == 1:
        return dict(zip(bank.detector_set, out[:, 0].tolist()))
    return dict(zip(bank.detector_set, out))


def fp_curve(bank: PredictorBank, clean: Dataset) -> dict[int, FPCurve]:
    """Empirical false-positive curves from an attack-free reference window."""
    if clean.n_rows < 2:
        raise ValueError("reference window needs at least 2 rows")
    res = residuals(bank, clean.values)
    return {s: FPCurve(np.sort(res[s])) for s in bank.detector_set}


def fp_inverse(curve: FPCurve, max_alarms: float) -> float:
    """Smallest threshold in the curve (or 0) with FP(tau) <= max_alarms.

    Right-continuous generalized inverse of the empirical count; fractional
    budgets are admissible and behave like their floor.
    """
    if max_alarms < 0:
        raise ValueError("max_alarms must be nonnegative")
    if max_alarms > curve.size:
        raise ValueError(f"max_alarms {max_alarms} exceeds sample size {curve.size}")
    budget = math.floor(max_alarms)
    if curve.count_above(0.0) <= budget:
        return 0.0
    return float(curve.residuals[curve.size - budget - 1])


def calibrate_baseline(
    curves: Mapping[int, FPCurve],
    target_period_steps: float,
    n_detectors: int,
) -> ThresholdConfig:
    """Thresholds giving roughly one alarm per ``target_period_steps`` rows
    across the whole bank.

    The target period is converted into a per-detector alarm budget over the
    reference window (``window_rows / target_period_steps / n_detectors``)
    and inverted through each detector's empirical curve.
    """
    if not curves:
        raise ValueError("no curves supplied")
    if target_period_steps <= 0:
        raise ValueError("target_period_steps must be positive")
    if n_detectors < 1:
        raise ValueError("n_detectors must be positive")
    tau = {}
    for s, curve in curves.items():
        budget = (curve.size / target_period_steps) / n_detectors
        if budget > curve.size:
            raise ValueError(
                f"alarm budget {budget:.3f} exceeds the {curve.size}-row reference window"
            )
        tau[s] = fp_inverse(curve, budget)
    return ThresholdConfig(tau)


def feature_indices_for(data: Dataset, sensor: int, mode: str = FEATURE_MODE_NON_CRITICAL) -> np.ndarray:
    """Feature column indices for a detector, excluding the sensor itself.

    ``non_critical_and_controls`` mirrors the experimental layout (critical
    sensors feed no detector but their own); ``all_other_columns`` is the
    fully general framing.
    """
    if mode == FEATURE_MODE_NON_CRITICAL:
        idx = [i for i in data.non_critical_columns() if i != sensor]
        idx += list(data.control_columns())
    elif mode == FEATURE_MODE_ALL_OTHERS:
        idx = [i for i in range(data.n_columns) if i != sensor]
    else:
        raise ValueError(f"unknown feature mode {mode!r}")
    if not idx:
        raise ValueError(f"no feature columns available for sensor {sensor}")
    return np.array(sorted(idx), dtype=int)


def train_bank(
    train_data: Dataset,
    detector_sensors=None,
    family: str = "linear",
    train_cfg: TrainConfig | None = None,
    feature_mode: str = FEATURE_MODE_NON_CRITICAL,
) -> PredictorBank:
    """Fit one predictor per detector sensor on a training window.

    ``family`` is one of ``linear``, ``neural``, ``ensemble``.  Detector
    sensors default to the dataset's critical columns.  Neural seeds are
    derived per sensor from ``train_cfg.seed`` so banks are reproducible.
    """
    if detector_sensors is None:
        detector_sensors = train_data.critical_columns()
    detector_sensors = tuple(int(s) for s in detector_sensors)
    if not detector_sensors:
        raise ValueError("no detector sensors specified and no critical columns present")
    control = set(train_data.control_columns())
    for s in detector_sensors:
        if s in control:
            raise ValueError(f"control column {s} cannot have a detector")
    cfg = train_cfg or TrainConfig()

    detectors = {}
    for s in detector_sensors:
        idx = feature_indices_for(train_data, s, feature_mode)
        X = train_data.values[:, idx]
        y = train_data.values[:, s]
        names = tuple(train_data.names[i] for i in idx)
        sensor_cfg = replace(cfg, seed=cfg.seed + 7919 * s)
        if family == "linear":
            model: Model = fit_linear(X, y, names)
        elif family == "neural":
            model = fit_nn(X, y, sensor_cfg, names)
        elif family == "ensemble":
            model = EnsembleModel(fit_nn(X, y, sensor_cfg, names), fit_linear(X, y, names))
        else:
            raise ValueError(f"unknown model family {family!r}")
        detectors[s] = DetectorEntry(model, s, idx)
    return PredictorBank(detectors, detector_sensors, train_data.names)


def thresholds_to_json(tau: ThresholdConfig, bank: PredictorBank | None = None, calibration: dict | None = None) -> dict:
    names = (lambda s: bank.name_of(s)) if bank else str
    return {
        "tau": {names(s): v for s, v in sorted(tau.tau.items())},
        "columns": {names(s): s for s in sorted(tau.tau)},
        "calibration": calibration or {},
    }


def thresholds_from_json(obj: dict) -> ThresholdConfig:
    return ThresholdConfig({int(idx): obj["tau"][name] for name, idx in obj["columns"].items()})


"""Synthetic multi-sensor plant simulation and time-series ingestion.

Provides a small controllable stand-in for a real process plant: a
first-order vector autoregression over sensor channels with optional
per-channel nonlinearities and a proportional controller driving the
control channels toward setpoints.  Datasets can also be loaded from /
saved to CSV with a JSON sidecar mapping columns to roles.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

INSTABILITY_LIMIT = 1e9


class Role(str, Enum):
    """Role of a dataset column."""

    CRITICAL = "critical"
    NON_CRITICAL = "non_critical"
    CONTROL = "control"


class Nonlinearity(str, Enum):
    """Shape of the nonlinear readout applied to designated sensor channels."""

    NONE = "none"
    TANH = "tanh"
    QUADRATIC = "quadratic"


class CsvParseError(ValueError):
    """CSV or role-map content that cannot be parsed; carries (row, column).

    ``row`` counts data rows from 0, the header not included, and is
    ``None`` when the error is not in a data row.
    """

    def __init__(self, message: str, row: int | None = None, column: str | int | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class InstabilityError(RuntimeError):
    """Simulated trajectory exceeded the magnitude limit."""


@dataclass(frozen=True)
class Column:
    name: str
    role: Role


@dataclass(frozen=True, eq=False)
class Dataset:
    """Time-indexed matrix of sensor measurements and control inputs.

    ``values`` has one row per timestep and one column per named channel.
    All entries must be finite; at least two rows are required.
    """

    columns: tuple[Column, ...]
    values: np.ndarray
    timestep: float = 1.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be a 2-D matrix")
        if values.shape[0] < 2:
            raise ValueError(f"dataset needs at least 2 rows, got {values.shape[0]}")
        if values.shape[1] != len(self.columns):
            raise ValueError(
                f"{len(self.columns)} columns declared but values has {values.shape[1]}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("dataset contains non-finite values")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError("column names must be unique")
        if self.timestep <= 0:
            raise ValueError("timestep must be positive")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "columns", tuple(self.columns))

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def sensor_columns(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.columns) if c.role != Role.CONTROL)

    def control_columns(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.columns) if c.role == Role.CONTROL)

    def critical_columns(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.columns) if c.role == Role.CRITICAL)

    def non_critical_columns(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.columns) if c.role == Role.NON_CRITICAL)


@dataclass(frozen=True)
class PlantConfig:
    """Parameters of the synthetic plant.

    The sensor state follows ``x[t+1] = sp + coupling @ (x[t] - sp) + G u[t] + w[t]``
    with seeded Gaussian noise ``w`` (NumPy PCG64 generator, so two runs with
    the same seed match bit for bit).  Channels listed in ``nonlinear_channels``
    are replaced by a nonlinear readout of the remaining lagged state, which is
    what lets a neural predictor beat a linear one on those channels.  Control
    channels track setpoints through a proportional law.
    """

    n_sensors: int
    n_controls: int = 0
    coupling: np.ndarray | None = None
    noise_std: float | np.ndarray = 0.0
    nonlinearity: Nonlinearity = Nonlinearity.NONE
    nonlinear_channels: tuple[int, ...] = ()
    setpoints: np.ndarray | None = None
    seed: int = 0
    critical_sensors: tuple[int, ...] = (0,)
    timestep: float = 1.0

    def __post_init__(self):
        if self.n_sensors < 1:
            raise ValueError("n_sensors must be positive")
        if self.n_controls < 0:
            raise ValueError("n_controls must be nonnegative")
        d = self.n_sensors
        nonlinearity = Nonlinearity(self.nonlinearity)
        coupling = self.coupling
        if coupling is None:
            coupling = np.zeros((d, d))
        coupling = np.asarray(coupling, dtype=float)
        if coupling.shape != (d, d):
            raise ValueError(f"coupling must be {d}x{d}")
        if not np.all(np.isfinite(coupling)):
            raise ValueError("coupling must be finite")
        if nonlinearity == Nonlinearity.NONE or not self.nonlinear_channels:
            radius = max(abs(np.linalg.eigvals(coupling)))
            if radius >= 1.0:
                raise ValueError(f"coupling spectral radius {radius:.3f} >= 1")
        setpoints = self.setpoints
        if setpoints is None:
            setpoints = np.zeros(d)
        setpoints = np.asarray(setpoints, dtype=float)
        if setpoints.shape != (d,):
            raise ValueError(f"setpoints must have length {d}")
        if not np.all(np.isfinite(setpoints)):
            raise ValueError("setpoints must be finite")
        noise = np.broadcast_to(np.asarray(self.noise_std, dtype=float), (d,)).copy()
        if not np.all(np.isfinite(noise) & (noise >= 0)):
            raise ValueError("noise_std must be finite and nonnegative")
        for ch in self.nonlinear_channels:
            if not 0 <= ch < d:
                raise ValueError(f"nonlinear channel {ch} out of range")
        for ch in self.critical_sensors:
            if not 0 <= ch < d:
                raise ValueError(f"critical sensor {ch} out of range")
        object.__setattr__(self, "nonlinearity", nonlinearity)
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "setpoints", setpoints)
        object.__setattr__(self, "noise_std", noise)
        object.__setattr__(self, "nonlinear_channels", tuple(self.nonlinear_channels))
        object.__setattr__(self, "critical_sensors", tuple(self.critical_sensors))


# Internal gains of the synthetic dynamics; fixed so that simulate() is a
# pure function of (config, steps).
_KP = 0.5          # proportional controller gain
_CTRL_GAIN = 0.2   # influence of a control input on its paired sensor
_NL_AMP = 2.0      # amplitude of the nonlinear readout
_NL_BETA = 1.5     # input scale of the nonlinear readout
_NOISE_BLOCK = 1024  # noise rows drawn per generator call; bounds memory


def _nonlinear_readout(kind: Nonlinearity, z: float) -> float:
    if kind == Nonlinearity.TANH:
        return _NL_AMP * math.tanh(_NL_BETA * z)
    if kind == Nonlinearity.QUADRATIC:
        return 0.5 * _NL_AMP * (_NL_BETA * z) ** 2
    raise ValueError(f"no nonlinear readout for {kind}")


def simulate(config: PlantConfig, steps: int) -> Dataset:
    """Generate a plant trajectory of ``steps`` rows.

    Sensor channels follow the coupled autoregression; channels designated
    nonlinear are readouts of the other channels' current values, which is
    what gives a neural predictor an edge over a linear one there.  Control
    channels apply a proportional law with a one-sample actuation delay.
    Deterministic given ``config.seed``; raises :class:`InstabilityError`
    when the trajectory magnitude exceeds ``INSTABILITY_LIMIT``.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    d, m = config.n_sensors, config.n_controls
    sp = config.setpoints
    rng = np.random.default_rng(config.seed)
    nl_set = sorted(config.nonlinear_channels) if config.nonlinearity != Nonlinearity.NONE else []
    ctrl_map = np.array([j % d for j in range(m)], dtype=int)
    zscale = math.sqrt(max(1, d - 1))

    def apply_readouts(vec: np.ndarray, noise: np.ndarray) -> np.ndarray:
        if not nl_set:
            return vec
        base = vec.copy()
        for ch in nl_set:
            z = float(np.sum(np.delete(base - sp, ch))) / zscale
            vec[ch] = sp[ch] + _nonlinear_readout(config.nonlinearity, z) + noise[ch]
        return vec

    noise0 = rng.normal(0.0, config.noise_std)
    x = apply_readouts(sp + noise0, noise0)
    u = np.zeros(m)  # no measurement seen yet
    sp_ctrl = sp[ctrl_map]
    rows = np.empty((steps, d + m))
    for t in range(steps):
        if t % _NOISE_BLOCK == 0:
            # Row-major draws consume the stream in the order one draw per
            # step would, so the trajectory does not depend on the block size.
            noise_block = rng.normal(0.0, config.noise_std, size=(min(_NOISE_BLOCK, steps - t), d))
        rows[t, :d] = x
        rows[t, d:] = u
        if np.max(np.abs(x), initial=0.0) > INSTABILITY_LIMIT:
            raise InstabilityError(f"trajectory magnitude exceeded {INSTABILITY_LIMIT:g} at step {t}")
        u_next = _KP * (sp_ctrl - x[ctrl_map]) if m else np.empty(0)
        noise = noise_block[t % _NOISE_BLOCK]
        nxt = sp + config.coupling @ (x - sp) + noise
        # Unbuffered and in index order, so controls sharing a sensor add up
        # in the same order as one addition per control.
        np.add.at(nxt, ctrl_map, _CTRL_GAIN * u)
        x, u = apply_readouts(nxt, noise), u_next

    columns = [
        Column(f"s{i}", Role.CRITICAL if i in config.critical_sensors else Role.NON_CRITICAL)
        for i in range(d)
    ] + [Column(f"u{j}", Role.CONTROL) for j in range(m)]
    return Dataset(tuple(columns), rows, timestep=config.timestep)


def desk_config(seed: int = 0, **overrides) -> PlantConfig:
    """Desk-scale template: 8 sensors + 2 controls, 2 critical."""
    d = 8
    coupling = 0.55 * np.eye(d)
    for i in range(d):
        coupling[i, (i + 1) % d] += 0.10
        coupling[i, (i - 1) % d] += 0.05
    cfg = dict(
        n_sensors=d,
        n_controls=2,
        coupling=coupling,
        noise_std=0.4,
        setpoints=np.linspace(1.0, 8.0, d),
        seed=seed,
        critical_sensors=(0, 1),
    )
    cfg.update(overrides)
    return PlantConfig(**cfg)


def paper_scale_config(seed: int = 0, **overrides) -> PlantConfig:
    """Full-scale template: 41 measurement + 12 control channels, 5 critical,
    36 s timestep (7200 rows per 72 h run)."""
    d = 41
    rng = np.random.default_rng(12345)  # fixed topology, independent of seed
    coupling = 0.5 * np.eye(d)
    for i in range(d):
        j = int(rng.integers(0, d))
        if j != i:
            coupling[i, j] += 0.15
    cfg = dict(
        n_sensors=d,
        n_controls=12,
        coupling=coupling,
        noise_std=0.5,
        setpoints=np.linspace(10.0, 50.0, d),
        seed=seed,
        critical_sensors=(0, 1, 2, 3, 4),
        timestep=36.0,
    )
    cfg.update(overrides)
    return PlantConfig(**cfg)


def save_csv(data: Dataset, csv_path, role_map_path) -> None:
    """Write the dataset as CSV plus a JSON role map sidecar.

    Floats are written with ``repr`` so a CSV round-trip reproduces the
    matrix exactly.
    """
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.names)
        # A float repr never needs quoting, so joining the cells writes the
        # bytes ``writer.writerow`` would.
        for row in data.values:
            fh.write(",".join(map(repr, row.tolist())) + writer.dialect.lineterminator)
    role_map = {
        "columns": [{"name": c.name, "role": c.role.value} for c in data.columns],
        "timestep_seconds": data.timestep,
    }
    with open(role_map_path, "w") as fh:
        json.dump(role_map, fh, indent=2)
        fh.write("\n")


def load_csv(csv_path, role_map_path) -> Dataset:
    """Load a dataset from CSV with a JSON role map sidecar.

    Raises :class:`CsvParseError` naming the offending row/column for
    non-numeric cells, ragged rows, unknown role names, or a header with
    no data rows.
    """
    with open(role_map_path) as fh:
        role_map = json.load(fh)
    roles: dict[str, Role] = {}
    for entry in role_map.get("columns", []):
        name, role_name = entry.get("name"), entry.get("role")
        try:
            roles[name] = Role(role_name)
        except ValueError:
            raise CsvParseError(f"unknown role {role_name!r} for column {name!r}", column=name)
    timestep = float(role_map.get("timestep_seconds", 1.0))

    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError("empty CSV file")
        header = [h.strip() for h in header]
        columns = []
        for name in header:
            if name not in roles:
                raise CsvParseError(f"column {name!r} missing from role map", column=name)
            columns.append(Column(name, roles[name]))
        lines = fh.readlines()
    if not lines:
        raise CsvParseError("CSV file has a header but no data rows", row=0)
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        values = None  # a bad cell: the per-cell parse names it
    # One row per line or none: loadtxt skips blank lines, which are ragged
    # rows here, and reads no quoted cell, so those take the per-cell parse.
    if values is None or values.shape != (len(lines), len(header)):
        values = _parse_cells(list(csv.reader(lines)), header)
    return Dataset(tuple(columns), values, timestep=timestep)


def _parse_cells(rows: list[list[str]], header: list[str]) -> np.ndarray:
    """``rows`` parsed one cell at a time; raises :class:`CsvParseError` at
    the first ragged row or bad cell."""
    parsed_rows = []
    for r, raw in enumerate(rows):
        if len(raw) != len(header):
            raise CsvParseError(f"row {r} has {len(raw)} cells, expected {len(header)}", row=r)
        parsed = []
        for cell, name in zip(raw, header):
            text = cell.strip()
            if not text:
                raise CsvParseError(f"blank cell at row {r}, column {name!r}", row=r, column=name)
            try:
                parsed.append(float(text))
            except ValueError:
                raise CsvParseError(
                    f"non-numeric cell {text!r} at row {r}, column {name!r}",
                    row=r,
                    column=name,
                )
        parsed_rows.append(parsed)
    return np.array(parsed_rows, dtype=float)


def split_sequential(data: Dataset, train_fraction: float) -> tuple[Dataset, Dataset]:
    """Split into leading train block and trailing test block, no shuffling."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    n_train = math.ceil(train_fraction * data.n_rows)
    n_test = data.n_rows - n_train
    if n_train < 2 or n_test < 2:
        raise ValueError(
            f"split {n_train}/{n_test} leaves a block with fewer than 2 rows"
        )
    train = Dataset(data.columns, data.values[:n_train], timestep=data.timestep)
    test = Dataset(data.columns, data.values[n_train:], timestep=data.timestep)
    return train, test

"""Batch experiment pipeline: simulate, train, calibrate, attack, defend, report.

Each command reads a JSON experiment config, consumes the artifacts of the
previous stages from the output directory, and writes its own artifacts as
JSON/CSV.  Commands are deterministic given the config seed and re-entrant:
any stage can be rerun from persisted artifacts.

Exit codes: 0 success, 2 config error (also a user-supplied plant CSV that
does not load, or an output path that cannot be created or written), 3
missing or unreadable upstream artifact, 4 solver limit, 5 numerical
failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import attack as attack_mod
from . import defense as defense_mod
from . import detector as detector_mod
from . import models as models_mod
from . import plant as plant_mod

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEPENDENCY = 3
EXIT_SOLVER = 4
EXIT_NUMERIC = 5

CONFIG_VERSION = 1
MSE_HEADER = ["sensor", "family", "train_mse_normalized", "test_mse_normalized"]


class ConfigError(ValueError):
    """Invalid or unreadable experiment configuration."""


class DependencyError(RuntimeError):
    """An upstream artifact required by this command is missing or unreadable."""


DEFAULT_CONFIG = {
    "version": CONFIG_VERSION,
    "seed": 0,
    "output_dir": "runs/experiment",
    "plant": {"preset": "desk", "steps": 1200},
    "model_family": "linear",
    "train": {
        "train_fraction": 0.8,
        "epochs": 2000,
        "learning_rate": 0.01,
        "hidden_layers": [16, 16],
        "feature_mode": detector_mod.FEATURE_MODE_NON_CRITICAL,
    },
    "calibration": {"target_period_steps": 100.0},
    "attack": {
        "budget": 2,
        "eta": None,
        "direction": "minimize",
        "budgets": [0, 1, 2, 3, 4, 5],
        "rows": 10,
        "n_max": 50,
    },
    "defense": {"gamma": 0.0, "epsilon": None, "n_max": 8, "horizon": 5},
}


_JSON_TYPES = {bool: "boolean", int: "number", float: "number", str: "string", list: "array", dict: "object"}
# Keys with no default, checked where they are read.
_OPTIONAL_KEYS = {"plant.overrides", "plant.csv", "plant.roles"}


def _typed(default, value, name: str):
    """``value`` typed by its ``default``, or a ``ConfigError`` naming it.

    An object is merged over its default key by key; a key without a
    default is a ``ConfigError`` unless it is one of ``_OPTIONAL_KEYS``,
    which pass unchanged.  List elements follow the default's first
    element.  No number may be NaN.  An integer default takes a number with
    no fractional part and gives an ``int``; a float or ``null`` default
    takes any number and gives a ``float``, and ``null`` stays ``null``.  A boolean, string, object or
    array default takes only its own JSON type.
    """
    kind = _JSON_TYPES.get(type(value), "null")
    if isinstance(default, (bool, str, list, dict)):
        if kind != _JSON_TYPES[type(default)]:
            raise ConfigError(f"{name} must be {_JSON_TYPES[type(default)]}, not {kind}")
        if isinstance(default, dict):
            merged = dict(default)
            for key, item in value.items():
                path = f"{name}.{key}" if name else key
                if key not in default and path not in _OPTIONAL_KEYS:
                    raise ConfigError(f"unknown config key {path}")
                merged[key] = _typed(default[key], item, path) if key in default else item
            return merged
        if isinstance(default, list):
            return [_typed(default[0], item, f"{name}[{i}]") for i, item in enumerate(value)]
        return value
    if default is None and value is None:
        return None
    if kind != "number":
        raise ConfigError(f"{name} must be {'null or ' if default is None else ''}number, not {kind}")
    if isinstance(value, float) and math.isnan(value):
        raise ConfigError(f"{name} must be a number, not NaN")
    if not isinstance(default, int):
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{name} is too large for a float")
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{name} must be an integer, not {value!r}")
    return int(value)


def load_config(path: str | None) -> dict:
    """The defaults merged with the config file at ``path``, as a fresh copy
    the caller may change, with every value typed by its default (see
    ``_typed``): the stages read them as loaded."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        version = user.get("version", CONFIG_VERSION)
        if version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {version!r}")
        cfg = _typed(cfg, user, "")
    return cfg


def _out_dir(cfg: dict) -> Path:
    return Path(cfg["output_dir"])


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise DependencyError(f"missing artifact {path}; run '{producer}' first")
    return path


def _read_artifact(path: Path, producer: str, parse=lambda obj: obj, load=json.loads):
    """``parse`` of the artifact at ``path``, which stage ``producer``
    writes, as ``load`` reads its text (JSON unless given).  A missing
    file, or content that does not load or parse as that stage writes it,
    raises a ``DependencyError`` naming both."""
    _require(path, producer)
    try:
        return parse(load(path.read_text()))
    except (AttributeError, KeyError, OSError, TypeError, ValueError) as exc:
        raise DependencyError(f"unreadable artifact {path} ({type(exc).__name__}: {exc}); rerun '{producer}'")


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _plant_config(cfg: dict) -> plant_mod.PlantConfig:
    spec = cfg["plant"]
    preset = spec["preset"]
    overrides = spec.get("overrides", {})
    try:
        if preset == "desk":
            return plant_mod.desk_config(seed=cfg["seed"], **overrides)
        if preset == "paper":
            return plant_mod.paper_scale_config(seed=cfg["seed"], **overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad plant overrides: {exc}")
    raise ConfigError(f"unknown plant preset {preset!r}")


def _load_dataset(cfg: dict, out: Path) -> plant_mod.Dataset:
    """The plant data: the config's ``plant.csv`` and ``plant.roles``,
    which are user input, or the CSV and role map that ``simulate`` wrote,
    which are artifacts.  User input that is missing or does not load
    raises a ``ConfigError`` naming its config key; artifacts, a
    ``DependencyError`` naming both files."""
    spec = cfg["plant"]
    if "csv" in spec:
        if not all(isinstance(spec.get(key, ""), str) for key in ("csv", "roles")):
            raise ConfigError("plant.csv and plant.roles must be strings")
        csv_path = Path(spec["csv"])
        roles_path = Path(spec.get("roles", csv_path.with_suffix(".roles.json")))
        for key, path in (("plant.csv", csv_path), ("plant.roles", roles_path)):
            if not path.exists():
                raise ConfigError(f"{key}: no file {path}")
        try:
            return plant_mod.load_csv(csv_path, roles_path)
        except (AttributeError, KeyError, OSError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"plant.csv {csv_path} with plant.roles {roles_path} does not load ({type(exc).__name__}: {exc})"
            )
    csv_path = _require(out / "data" / "clean.csv", "simulate")
    roles_path = _require(out / "data" / "roles.json", "simulate")
    try:
        return plant_mod.load_csv(csv_path, roles_path)
    except (AttributeError, KeyError, OSError, TypeError, ValueError) as exc:
        raise DependencyError(
            f"unreadable artifacts {csv_path} and {roles_path} ({type(exc).__name__}: {exc}); rerun 'simulate'"
        )


def cmd_simulate(cfg: dict) -> int:
    data = plant_mod.simulate(_plant_config(cfg), cfg["plant"]["steps"])
    out = _out_dir(cfg)
    (out / "data").mkdir(parents=True, exist_ok=True)
    plant_mod.save_csv(data, out / "data" / "clean.csv", out / "data" / "roles.json")
    print(f"simulate: wrote {data.n_rows} rows x {data.n_columns} columns to {out / 'data'}")
    return EXIT_OK


def _train_config(cfg: dict) -> models_mod.TrainConfig:
    t = cfg["train"]
    return models_mod.TrainConfig(
        epochs=t["epochs"],
        learning_rate=t["learning_rate"],
        hidden_layers=tuple(t["hidden_layers"]),
        seed=cfg["seed"],
    )


def _split(cfg: dict, data: plant_mod.Dataset):
    return plant_mod.split_sequential(data, cfg["train"]["train_fraction"])


def cmd_train(cfg: dict) -> int:
    out = _out_dir(cfg)
    data = _load_dataset(cfg, out)
    train, test = _split(cfg, data)
    family = cfg["model_family"]
    bank = detector_mod.train_bank(
        train,
        family=family,
        train_cfg=_train_config(cfg),
        feature_mode=cfg["train"]["feature_mode"],
    )

    models_dir = out / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"family": family, "columns": list(data.names), "detectors": []}
    mse_rows = []
    for s in bank.detector_set:
        entry = bank.detectors[s]
        name = bank.name_of(s)
        model_file = f"model_{name}.json"
        _write_json(models_dir / model_file, models_mod.model_to_json(entry.model))
        manifest["detectors"].append(
            {"sensor": name, "index": s, "features": entry.feature_indices.tolist(), "file": model_file}
        )
        trn = models_mod.normalized_mse(entry.model, train.values[:, entry.feature_indices], train.values[:, s])
        tst = models_mod.normalized_mse(entry.model, test.values[:, entry.feature_indices], test.values[:, s])
        mse_rows.append([name, family, repr(trn), repr(tst)])
    _write_json(models_dir / "bank.json", manifest)
    _write_csv(models_dir / "mse_table.csv", MSE_HEADER, mse_rows)
    print(f"train: fitted {len(bank.detector_set)} {family} detectors; MSE table at {models_dir / 'mse_table.csv'}")
    return EXIT_OK


def _load_bank(cfg: dict, out: Path) -> detector_mod.PredictorBank:
    models_dir = out / "models"

    def from_manifest(manifest: dict) -> detector_mod.PredictorBank:
        detectors = {}
        for entry in manifest["detectors"]:
            model = _read_artifact(models_dir / entry["file"], "train", models_mod.model_from_json)
            idx = int(entry["index"])
            detectors[idx] = detector_mod.DetectorEntry(model, idx, np.array(entry["features"], dtype=int))
        return detector_mod.PredictorBank(detectors, tuple(detectors), tuple(manifest["columns"]))

    return _read_artifact(models_dir / "bank.json", "train", from_manifest)


def cmd_calibrate(cfg: dict) -> int:
    out = _out_dir(cfg)
    data = _load_dataset(cfg, out)
    train, _ = _split(cfg, data)
    bank = _load_bank(cfg, out)
    curves = detector_mod.fp_curve(bank, train)
    period = cfg["calibration"]["target_period_steps"]
    tau = detector_mod.calibrate_baseline(curves, period, len(bank.detector_set))
    thresholds_dir = out / "thresholds"
    thresholds_dir.mkdir(parents=True, exist_ok=True)
    _write_json(
        thresholds_dir / "baseline.json",
        detector_mod.thresholds_to_json(
            tau,
            bank,
            calibration={
                "target_period_steps": period,
                "window_rows": train.n_rows,
                "n_detectors": len(bank.detector_set),
            },
        ),
    )
    print(f"calibrate: wrote baseline thresholds for {len(tau.tau)} detectors to {thresholds_dir / 'baseline.json'}")
    return EXIT_OK


def _attack_setup(cfg: dict, out: Path):
    data = _load_dataset(cfg, out)
    train, test = _split(cfg, data)
    bank = _load_bank(cfg, out)
    tau = _read_artifact(out / "thresholds" / "baseline.json", "calibrate", detector_mod.thresholds_from_json)
    aspec = cfg["attack"]
    template = attack_mod.instance_from_dataset(
        train,
        test.values[0],
        budget=aspec["budget"],
        eta=math.inf if aspec["eta"] is None else aspec["eta"],
        direction=attack_mod.Direction(aspec["direction"]),
    )
    alg1 = None
    if not bank.is_affine():
        alg1 = attack_mod.default_alg1_config(train, n_max=aspec["n_max"])
    return train, test, bank, tau, template, alg1


def cmd_attack(cfg: dict) -> int:
    aspec = cfg["attack"]
    if aspec["rows"] < 1:
        raise ConfigError(f"attack.rows must be at least 1, not {aspec['rows']}")
    out = _out_dir(cfg)
    train, test, bank, tau, template, alg1 = _attack_setup(cfg, out)
    attack_dir = out / "attack"
    attack_dir.mkdir(parents=True, exist_ok=True)
    # Every attack of this stage poses the same-shape MILP, so each starts
    # from the root basis of the one before (exact attacks only).
    basis = None

    def attack(inst, seeds=()):
        nonlocal basis
        result = attack_mod.run_attack(bank, tau, inst, alg1, start=basis, seeds=seeds)
        basis = result.basis
        return result

    # Budget sweep on the full critical set.  The best point of a smaller
    # budget seeds the iterative attack, so its sweep never gets worse as
    # the budget grows.  A repeated budget reuses its first attack.
    sweep = []
    at_budget = {}
    for b in aspec["budgets"]:
        if b not in at_budget:
            seeds = [sweep[-1][1].y_tilde] if sweep and sweep[-1][0] <= b else []
            at_budget[b] = attack(replace(template, budget=b), seeds)
        sweep.append((b, at_budget[b]))
    _write_csv(
        attack_dir / "budget_sweep.csv",
        ["budget", "target", "objective", "feasible"],
        ([b, bank.name_of(r.target), repr(float(r.objective)), r.feasible] for b, r in sweep),
    )

    # The attack at the configured budget is the sweep's entry there, or one
    # of its own for a budget outside the sweep.  Its per-target attacks
    # are the per-sensor objectives.
    configured = at_budget[template.budget] if template.budget in at_budget else attack(template)
    _write_csv(
        attack_dir / "per_sensor.csv",
        ["sensor", "clean_value", "attacked_value", "n_attacked", "feasible"],
        (
            [bank.name_of(r.target), repr(float(template.y[r.target])), repr(r.objective), r.n_attacked, r.feasible]
            for r in configured.per_target
        ),
    )

    # Per-timestep attacks over the leading test rows.  The template is
    # posed at row 0, so that row's attack is the configured one, and the
    # chain goes on from its basis.
    basis = configured.basis
    n_rows = min(aspec["rows"], test.n_rows)
    trajectory = []
    for t in range(n_rows):
        result = configured if t == 0 else attack(template.at_row(test.values[t]))
        trajectory.append([t, bank.name_of(result.target), repr(result.objective), result.n_attacked])
    _write_csv(attack_dir / "trajectory.csv", ["t", "target", "objective", "n_attacked"], trajectory)

    _write_json(
        attack_dir / "attack_report.json",
        {
            "budget": aspec["budget"],
            "direction": template.direction.value,
            "per_target": [
                attack_mod.result_to_json(replace(template, critical=(r.target,)), r, bank) for r in configured.per_target
            ],
            "budget_sweep": [
                {"budget": b, "target": bank.name_of(r.target), "objective": r.objective, "feasible": r.feasible}
                for b, r in sweep
            ],
        },
    )
    print(f"attack: wrote per-sensor objectives, budget sweep, and {n_rows}-row trajectory to {attack_dir}")
    return EXIT_OK


def cmd_defend(cfg: dict) -> int:
    out = _out_dir(cfg)
    train, test, bank, tau, template, alg1 = _attack_setup(cfg, out)
    dspec = cfg["defense"]
    curves = detector_mod.fp_curve(bank, train)
    eps = dspec["epsilon"]
    if eps is None:
        eps = 0.1 * float(np.mean([tau.tau[s] for s in bank.detector_set])) or 0.05
    dconf = defense_mod.DefenseConfig(gamma=dspec["gamma"], epsilon=eps, n_max=dspec["n_max"], horizon=dspec["horizon"])
    outcome = defense_mod.resilient_thresholds(bank, tau, curves, test, template, dconf, alg1)

    defense_dir = out / "defense"
    defense_dir.mkdir(parents=True, exist_ok=True)
    _write_json(defense_dir / "thresholds_resilient.json", detector_mod.thresholds_to_json(outcome.thresholds, bank))
    _write_csv(
        defense_dir / "trace.csv",
        ["iteration", "worst_impact", "worst_sensor", "fa", "accepted", "epsilon"],
        (
            [
                rec["iteration"],
                repr(rec["worst_impact"]),
                bank.name_of(rec["worst_sensor"]),
                rec["fa"],
                rec["accepted"],
                repr(rec["epsilon"]),
            ]
            for rec in outcome.history
        ),
    )
    _write_json(
        defense_dir / "report.json",
        {
            "improved": outcome.improved,
            "baseline_worst_impact": outcome.baseline_worst,
            "final_worst_impact": outcome.final_worst,
            "baseline_false_alarms": outcome.baseline_fa,
            "final_false_alarms": outcome.final_fa,
            "gamma": dconf.gamma,
            "thresholds": {bank.name_of(s): v for s, v in sorted(outcome.thresholds.tau.items())},
        },
    )
    print(
        "defend: worst impact "
        f"{outcome.baseline_worst:.4f} -> {outcome.final_worst:.4f}, "
        f"false alarms {outcome.baseline_fa} -> {outcome.final_fa} (artifacts in {defense_dir})"
    )
    return EXIT_OK


def _mse_table(text: str) -> list[dict]:
    records = csv.DictReader(io.StringIO(text, newline=""))
    if records.fieldnames != MSE_HEADER:
        raise ValueError(f"header {records.fieldnames} is not {MSE_HEADER}")
    return list(records)


def cmd_report(cfg: dict) -> int:
    out = _out_dir(cfg)
    summary: dict = {"output_dir": str(out)}
    summary["mse_table"] = _read_artifact(out / "models" / "mse_table.csv", "train", load=_mse_table)
    summary["baseline_thresholds"] = _read_artifact(out / "thresholds" / "baseline.json", "calibrate")
    summary["attack"] = _read_artifact(out / "attack" / "attack_report.json", "attack")
    defense_path = out / "defense" / "report.json"
    if defense_path.exists():
        summary["defense"] = _read_artifact(defense_path, "defend")
    report_dir = out / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    _write_json(report_dir / "summary.json", summary)
    print(f"report: collated summary at {report_dir / 'summary.json'}")
    return EXIT_OK


COMMANDS = {
    "simulate": cmd_simulate,
    "train": cmd_train,
    "calibrate": cmd_calibrate,
    "attack": cmd_attack,
    "defend": cmd_defend,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="resguard", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="path to the experiment config JSON")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.out is not None:
            cfg["output_dir"] = args.out
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DependencyError as exc:
        print(f"dependency error: {exc}", file=sys.stderr)
        return EXIT_DEPENDENCY
    except attack_mod.SolverLimitError as exc:
        print(f"solver limit: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (
        attack_mod.NumericalError,
        plant_mod.InstabilityError,
        models_mod.TrainingDivergedError,
        FloatingPointError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        # OSError: such as an output directory that cannot be created.
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

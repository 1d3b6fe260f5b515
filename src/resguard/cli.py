"""Batch experiment pipeline: simulate, train, calibrate, attack, defend, report.

Each command reads a JSON experiment config, consumes the artifacts of the
previous stages from the output directory, and writes its own artifacts as
JSON/CSV.  Commands are deterministic given the config seed and re-entrant:
any stage can be rerun from persisted artifacts.

Exit codes: 0 success, 2 config error, 3 missing dependency, 4 solver
limit, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
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


class ConfigError(ValueError):
    """Invalid or unreadable experiment configuration."""


class DependencyError(RuntimeError):
    """An upstream artifact required by this command is missing."""


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


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


def _check_types(default, value, name: str) -> None:
    """Raise ``ConfigError`` unless ``value`` has the JSON type of its
    default: a ``null`` default also takes a number, list elements match the
    default's elements, and keys without a default are not checked."""
    allowed = {_json_type(default)} | ({"number"} if default is None else set())
    if _json_type(value) not in allowed:
        raise ConfigError(f"{name} must be {' or '.join(sorted(allowed))}, not {_json_type(value)}")
    if isinstance(default, dict):
        for key, item in value.items():
            if key in default:
                _check_types(default[key], item, f"{name}.{key}" if name else key)
    elif isinstance(default, list):
        for i, item in enumerate(value):
            _check_types(default[0], item, f"{name}[{i}]")


def load_config(path: str | None) -> dict:
    """The defaults merged with the config file at ``path``, as a fresh copy
    the caller may change.  Each value in the file must have the JSON type
    of its default."""
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
        _check_types(DEFAULT_CONFIG, user, "")
        cfg = _merge(cfg, user)
    return cfg


def _out_dir(cfg: dict) -> Path:
    return Path(cfg["output_dir"])


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise DependencyError(f"missing artifact {path}; run '{producer}' first")
    return path


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
    spec = cfg["plant"]
    if "csv" in spec:
        csv_path = Path(spec["csv"])
        roles_path = Path(spec.get("roles", csv_path.with_suffix(".roles.json")))
    else:
        csv_path = out / "data" / "clean.csv"
        roles_path = out / "data" / "roles.json"
    return plant_mod.load_csv(_require(csv_path, "simulate"), _require(roles_path, "simulate"))


def cmd_simulate(cfg: dict) -> int:
    out = _out_dir(cfg)
    (out / "data").mkdir(parents=True, exist_ok=True)
    pconf = _plant_config(cfg)
    steps = int(cfg["plant"]["steps"])
    data = plant_mod.simulate(pconf, steps)
    plant_mod.save_csv(data, out / "data" / "clean.csv", out / "data" / "roles.json")
    print(f"simulate: wrote {data.n_rows} rows x {data.n_columns} columns to {out / 'data'}")
    return EXIT_OK


def _train_config(cfg: dict) -> models_mod.TrainConfig:
    t = cfg["train"]
    return models_mod.TrainConfig(
        epochs=int(t["epochs"]),
        learning_rate=float(t["learning_rate"]),
        hidden_layers=tuple(t["hidden_layers"]),
        seed=int(cfg["seed"]),
    )


def _split(cfg: dict, data: plant_mod.Dataset):
    return plant_mod.split_sequential(data, float(cfg["train"]["train_fraction"]))


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
        models_mod.save_model(entry.model, models_dir / model_file)
        manifest["detectors"].append(
            {"sensor": name, "index": s, "features": entry.feature_indices.tolist(), "file": model_file}
        )
        trn = models_mod.normalized_mse(entry.model, train.values[:, entry.feature_indices], train.values[:, s])
        tst = models_mod.normalized_mse(entry.model, test.values[:, entry.feature_indices], test.values[:, s])
        mse_rows.append([name, family, repr(trn), repr(tst)])
    _write_json(models_dir / "bank.json", manifest)
    _write_csv(
        models_dir / "mse_table.csv", ["sensor", "family", "train_mse_normalized", "test_mse_normalized"], mse_rows
    )
    print(f"train: fitted {len(bank.detector_set)} {family} detectors; MSE table at {models_dir / 'mse_table.csv'}")
    return EXIT_OK


def _load_bank(cfg: dict, out: Path) -> detector_mod.PredictorBank:
    manifest = json.loads(_require(out / "models" / "bank.json", "train").read_text())
    detectors = {}
    order = []
    for entry in manifest["detectors"]:
        model = models_mod.load_model(_require(out / "models" / entry["file"], "train"))
        idx = int(entry["index"])
        detectors[idx] = detector_mod.DetectorEntry(model, idx, np.array(entry["features"], dtype=int))
        order.append(idx)
    return detector_mod.PredictorBank(detectors, tuple(order), tuple(manifest["columns"]))


def cmd_calibrate(cfg: dict) -> int:
    out = _out_dir(cfg)
    data = _load_dataset(cfg, out)
    train, _ = _split(cfg, data)
    bank = _load_bank(cfg, out)
    curves = detector_mod.fp_curve(bank, train)
    period = float(cfg["calibration"]["target_period_steps"])
    tau = detector_mod.calibrate_baseline(curves, period, len(bank.detector_set))
    thresholds_dir = out / "thresholds"
    thresholds_dir.mkdir(parents=True, exist_ok=True)
    detector_mod.save_thresholds(
        tau,
        thresholds_dir / "baseline.json",
        bank,
        calibration={
            "target_period_steps": period,
            "window_rows": train.n_rows,
            "n_detectors": len(bank.detector_set),
        },
    )
    print(f"calibrate: wrote baseline thresholds for {len(tau.tau)} detectors to {thresholds_dir / 'baseline.json'}")
    return EXIT_OK


def _attack_setup(cfg: dict, out: Path):
    data = _load_dataset(cfg, out)
    train, test = _split(cfg, data)
    bank = _load_bank(cfg, out)
    tau = detector_mod.load_thresholds(_require(out / "thresholds" / "baseline.json", "calibrate"))
    aspec = cfg["attack"]
    eta = aspec["eta"]
    eta_value = math.inf if eta is None else float(eta)
    direction = attack_mod.Direction(aspec["direction"])
    template = attack_mod.instance_from_dataset(
        train,
        test.values[0],
        budget=int(aspec["budget"]),
        eta=eta_value,
        direction=direction,
    )
    alg1 = None
    if not bank.is_affine():
        alg1 = attack_mod.default_alg1_config(train, n_max=int(aspec["n_max"]))
    return train, test, bank, tau, template, alg1


def cmd_attack(cfg: dict) -> int:
    out = _out_dir(cfg)
    train, test, bank, tau, template, alg1 = _attack_setup(cfg, out)
    attack_dir = out / "attack"
    attack_dir.mkdir(parents=True, exist_ok=True)
    aspec = cfg["attack"]

    # Per-critical-sensor objectives at the configured budget.
    per_sensor = []
    report_entries = []
    for s in template.critical:
        inst = replace(template, critical=(s,))
        result = attack_mod.certify(attack_mod.run_attack(bank, tau, inst, alg1))
        per_sensor.append(
            [bank.name_of(s), repr(float(inst.y[s])), repr(float(result.objective)), result.n_attacked, result.feasible]
        )
        report_entries.append(attack_mod.result_to_json(inst, result, bank))
    _write_csv(
        attack_dir / "per_sensor.csv", ["sensor", "clean_value", "attacked_value", "n_attacked", "feasible"], per_sensor
    )

    # Budget sweep on the full critical set.
    sweep = []
    for b in aspec["budgets"]:
        inst = replace(template, budget=int(b))
        result = attack_mod.certify(attack_mod.run_attack(bank, tau, inst, alg1))
        sweep.append((int(b), bank.name_of(result.target), result.objective, result.feasible))
    _write_csv(
        attack_dir / "budget_sweep.csv",
        ["budget", "target", "objective", "feasible"],
        ([b, name, repr(float(obj)), feas] for b, name, obj, feas in sweep),
    )

    # Per-timestep attacks over the leading test rows.
    n_rows = min(int(aspec["rows"]), test.n_rows)
    trajectory = []
    for t in range(n_rows):
        inst = template.at_row(test.values[t])
        result = attack_mod.certify(attack_mod.run_attack(bank, tau, inst, alg1))
        trajectory.append([t, bank.name_of(result.target), repr(result.objective), result.n_attacked])
    _write_csv(attack_dir / "trajectory.csv", ["t", "target", "objective", "n_attacked"], trajectory)

    _write_json(
        attack_dir / "attack_report.json",
        {
            "budget": int(aspec["budget"]),
            "direction": template.direction.value,
            "per_target": report_entries,
            "budget_sweep": [
                {"budget": b, "target": name, "objective": obj, "feasible": feas} for b, name, obj, feas in sweep
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
    dconf = defense_mod.DefenseConfig(
        gamma=float(dspec["gamma"]),
        epsilon=float(eps),
        n_max=int(dspec["n_max"]),
        horizon=int(dspec["horizon"]),
    )
    outcome = defense_mod.resilient_thresholds(bank, tau, curves, test, template, dconf, alg1)

    defense_dir = out / "defense"
    defense_dir.mkdir(parents=True, exist_ok=True)
    detector_mod.save_thresholds(outcome.thresholds, defense_dir / "thresholds_resilient.json", bank)
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


def cmd_report(cfg: dict) -> int:
    out = _out_dir(cfg)
    report_dir = out / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    summary: dict = {"output_dir": str(out)}

    with open(_require(out / "models" / "mse_table.csv", "train"), newline="") as fh:
        summary["mse_table"] = list(csv.DictReader(fh))
    summary["baseline_thresholds"] = json.loads(_require(out / "thresholds" / "baseline.json", "calibrate").read_text())
    summary["attack"] = json.loads(_require(out / "attack" / "attack_report.json", "attack").read_text())
    defense_path = out / "defense" / "report.json"
    if defense_path.exists():
        summary["defense"] = json.loads(defense_path.read_text())
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
    parser.add_argument("--budget", type=int, help="override the attack budget")
    parser.add_argument("--gamma", type=float, help="override the defense false-alarm slack")
    parser.add_argument("--family", choices=["linear", "neural", "ensemble"], help="override the model family")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.out is not None:
            cfg["output_dir"] = args.out
        if args.budget is not None:
            cfg["attack"]["budget"] = args.budget
        if args.gamma is not None:
            cfg["defense"]["gamma"] = args.gamma
        if args.family is not None:
            cfg["model_family"] = args.family
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
    except (ValueError, plant_mod.CsvParseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

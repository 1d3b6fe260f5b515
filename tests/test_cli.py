import copy
import csv
import json
import math
import shutil
from dataclasses import replace

import numpy as np
import pytest

from _helpers import stealth_breaking_solve
from resguard import attack, plant
from resguard.cli import (
    DEFAULT_CONFIG,
    EXIT_CONFIG,
    EXIT_DEPENDENCY,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_SOLVER,
    load_config,
    main,
)
from resguard.lp_milp import MILPSolution, Status


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Run the full desk-scale pipeline once; several tests inspect it."""
    out = tmp_path_factory.mktemp("run")
    config = {
        "version": 1,
        "seed": 3,
        "output_dir": str(out),
        "plant": {"preset": "desk", "steps": 600, "overrides": {"critical_sensors": [0, 1]}},
        "model_family": "linear",
        "calibration": {"target_period_steps": 60.0},
        "attack": {"budget": 2, "budgets": [0, 1, 2, 3], "rows": 4},
        "defense": {"gamma": 0.0, "epsilon": 0.1, "n_max": 3, "horizon": 2},
    }
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(config))
    for command in ("simulate", "train", "calibrate", "attack", "defend", "report"):
        assert main([command, "--config", str(cfg_path)]) == EXIT_OK, command
    return out, cfg_path


def test_pipeline_artifacts_exist(pipeline_dir):
    out, _ = pipeline_dir
    for rel in (
        "data/clean.csv",
        "data/roles.json",
        "models/bank.json",
        "models/mse_table.csv",
        "thresholds/baseline.json",
        "attack/per_sensor.csv",
        "attack/budget_sweep.csv",
        "attack/trajectory.csv",
        "attack/attack_report.json",
        "defense/thresholds_resilient.json",
        "defense/trace.csv",
        "defense/report.json",
        "report/summary.json",
    ):
        assert (out / rel).exists(), rel


def test_simulate_idempotent(pipeline_dir):
    out, cfg_path = pipeline_dir
    before = (out / "data" / "clean.csv").read_bytes()
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_OK
    assert (out / "data" / "clean.csv").read_bytes() == before


def test_budget_sweep_monotone_and_anchored(pipeline_dir):
    out, _ = pipeline_dir
    with open(out / "attack" / "budget_sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    objectives = [float(r["objective"]) for r in rows]
    budgets = [int(r["budget"]) for r in rows]
    assert budgets == sorted(budgets)
    for a, b in zip(objectives, objectives[1:]):
        assert b <= a + 1e-9  # minimize: more budget never hurts

    # Zero budget: the attacked value equals the chosen target's clean value.
    report = json.loads((out / "attack" / "attack_report.json").read_text())
    b0 = next(r for r in report["budget_sweep"] if r["budget"] == 0)
    assert b0["feasible"] is True
    with open(out / "attack" / "per_sensor.csv", newline="") as fh:
        clean_values = {r["sensor"]: float(r["clean_value"]) for r in csv.DictReader(fh)}
    assert b0["objective"] == pytest.approx(clean_values[b0["target"]], abs=1e-12)


def test_defense_report_guarantees(pipeline_dir):
    out, _ = pipeline_dir
    report = json.loads((out / "defense" / "report.json").read_text())
    assert report["final_false_alarms"] <= report["baseline_false_alarms"] + report["gamma"]
    assert report["final_worst_impact"] <= report["baseline_worst_impact"] + 1e-9


def test_dependency_error_exit_code(tmp_path):
    cfg = {"version": 1, "output_dir": str(tmp_path / "empty")}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["attack", "--config", str(cfg_path)]) == EXIT_DEPENDENCY


def test_config_error_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad)]) == EXIT_CONFIG
    versioned = tmp_path / "v.json"
    versioned.write_text(json.dumps({"version": 99}))
    assert main(["simulate", "--config", str(versioned)]) == EXIT_CONFIG
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "section, value",
    [
        ("attack", {"budget": None}),
        ("attack", {"budgets": 3}),
        ("attack", 5),
        ("defense", {"horizon": None}),
        ("train", {"hidden_layers": 16}),
        ("plant", {"steps": None}),
    ],
)
def test_mistyped_config_value_is_a_config_error(tmp_path, capsys, section, value):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"version": 1, "output_dir": str(tmp_path / "run"), section: value}))
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_types_follow_the_defaults(tmp_path):
    """``null`` defaults also take numbers, and keys without a default are
    not checked; a list element must match the default's elements."""
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"attack": {"eta": 0.5}, "defense": {"epsilon": 1}, "plant": {"overrides": {"noise_std": 0.1}}}))
    cfg = load_config(str(cfg_path))
    assert (cfg["attack"]["eta"], cfg["defense"]["epsilon"]) == (0.5, 1)
    cfg_path.write_text(json.dumps({"attack": {"budgets": [1, True]}}))
    with pytest.raises(ValueError, match=r"attack\.budgets\[1\]"):
        load_config(str(cfg_path))


def test_cli_overrides(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"version": 1, "output_dir": str(tmp_path / "a")}))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "b"), "--seed", "9"]) == EXIT_OK
    assert (tmp_path / "b" / "data" / "clean.csv").exists()
    assert not (tmp_path / "a").exists()


def test_load_config_merges_defaults(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"version": 1, "attack": {"budget": 5}}))
    cfg = load_config(str(cfg_path))
    assert cfg["attack"]["budget"] == 5
    assert cfg["attack"]["direction"] == "minimize"  # default preserved
    assert cfg["model_family"] == "linear"


def test_attack_exits_numeric_on_certificate_failure(pipeline_dir, tmp_path, monkeypatch):
    out, cfg_path = pipeline_dir
    run = tmp_path / "run"
    shutil.copytree(out, run)
    monkeypatch.setattr(attack, "solve_milp", stealth_breaking_solve)
    assert main(["attack", "--config", str(cfg_path), "--out", str(run)]) == EXIT_NUMERIC


def test_overrides_leave_the_defaults_alone(tmp_path):
    before = copy.deepcopy(DEFAULT_CONFIG)
    for seed, budget, gamma in (("5", "3", "0.5"), ("6", "4", "1.5")):
        argv = ["report", "--out", str(tmp_path / seed), "--seed", seed, "--budget", budget, "--gamma", gamma]
        assert main(argv + ["--family", "neural"]) == EXIT_DEPENDENCY
    assert DEFAULT_CONFIG == before
    assert load_config(None) == before


def test_attack_exits_numeric_on_an_unstealthy_result(pipeline_dir, tmp_path, monkeypatch):
    out, cfg_path = pipeline_dir
    run = tmp_path / "run"
    shutil.copytree(out, run)
    real = attack.run_attack
    monkeypatch.setattr(attack, "run_attack", lambda *args: replace(real(*args), feasible=False))
    assert main(["attack", "--config", str(cfg_path), "--out", str(run)]) == EXIT_NUMERIC


def test_attack_accepts_the_no_op_on_an_alarming_row(pipeline_dir, tmp_path):
    out, cfg_path = pipeline_dir
    run = tmp_path / "run"
    shutil.copytree(out, run)
    # At zero thresholds every clean row alarms, and without a budget no
    # attack can hide it.
    baseline = run / "thresholds" / "baseline.json"
    thresholds = json.loads(baseline.read_text())
    thresholds["tau"] = {name: 0.0 for name in thresholds["tau"]}
    baseline.write_text(json.dumps(thresholds))
    assert main(["attack", "--config", str(cfg_path), "--out", str(run)]) == EXIT_OK
    with open(run / "attack" / "budget_sweep.csv", newline="") as fh:
        sweep = {int(rec["budget"]): rec["feasible"] for rec in csv.DictReader(fh)}
    assert sweep[0] == "False"


def _node_capped_solve(problem):
    return MILPSolution(Status.ITERATION_LIMIT, None, math.inf, 1)


def _overflowing_solve(problem):
    raise FloatingPointError("overflow in the simplex")


@pytest.mark.parametrize(
    "command, report", [("attack", "attack/attack_report.json"), ("defend", "defense/report.json")]
)
@pytest.mark.parametrize(
    "solve, code",
    [(stealth_breaking_solve, EXIT_NUMERIC), (_node_capped_solve, EXIT_SOLVER), (_overflowing_solve, EXIT_NUMERIC)],
)
def test_attack_and_defend_refuse_an_attack_they_cannot_back_up(
    pipeline_dir, tmp_path, monkeypatch, command, report, solve, code
):
    out, cfg_path = pipeline_dir
    run = tmp_path / "run"
    shutil.copytree(out, run)
    shutil.rmtree((run / report).parent)
    monkeypatch.setattr(attack, "solve_milp", solve)
    assert main([command, "--config", str(cfg_path), "--out", str(run)]) == code
    assert not (run / report).exists()


def test_plant_overrides_given_as_plain_json(tmp_path):
    """Overrides arrive from JSON as strings and lists; ``simulate`` writes
    the same data as the library call with enum and array values, and an
    unknown nonlinearity is a config error."""
    overrides = {
        "nonlinearity": "tanh",
        "nonlinear_channels": [0, 3],
        "noise_std": [0.1, 0.2, 0.3, 0.4, 0.1, 0.2, 0.3, 0.4],
        "setpoints": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
    }
    config = {"version": 1, "seed": 5, "output_dir": str(tmp_path / "cli")}
    config["plant"] = {"preset": "desk", "steps": 200, "overrides": overrides}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_OK

    pconf = plant.desk_config(
        seed=5,
        nonlinearity=plant.Nonlinearity.TANH,
        nonlinear_channels=(0, 3),
        noise_std=np.array(overrides["noise_std"]),
        setpoints=np.array(overrides["setpoints"]),
    )
    plant.save_csv(plant.simulate(pconf, 200), tmp_path / "lib.csv", tmp_path / "lib.roles.json")
    assert (tmp_path / "cli" / "data" / "clean.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()

    config["plant"]["overrides"] = {"nonlinearity": "bogus"}
    cfg_path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_CONFIG

import copy
import csv
import json
import math
import re
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from _helpers import highs_milp, stealth_breaking_solve
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


def test_defend_refuses_an_infinite_threshold_step(pipeline_dir, tmp_path):
    """``defense.epsilon: Infinity`` loads, as any float setting may be
    infinite, but a search whose step is infinite can never move: ``defend``
    exits with a config error before writing its report."""
    out, cfg_path = pipeline_dir
    run = tmp_path / "run"
    shutil.copytree(out, run)
    shutil.rmtree(run / "defense")
    config = json.loads(cfg_path.read_text())
    config["defense"]["epsilon"] = math.inf
    inf_path = tmp_path / "config.json"
    inf_path.write_text(json.dumps(config))
    assert main(["defend", "--config", str(inf_path), "--out", str(run)]) == EXIT_CONFIG
    assert not (run / "defense" / "report.json").exists()


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
        ("seed", 1.5),
        ("plant", {"steps": 200.7}),
        ("attack", {"budget": 1.5}),
        ("attack", {"budgets": [1, 2.5]}),
        ("attack", {"rows": 2.5}),
        ("defense", {"horizon": 1.5}),
        ("train", {"hidden_layers": [4.5]}),
        ("defense", {"epsilon": math.nan}),
        ("attack", {"eta": math.nan}),
        ("train", {"learning_rate": math.nan}),
    ],
)
def test_mistyped_config_value_is_a_config_error(tmp_path, capsys, section, value):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"version": 1, "output_dir": str(tmp_path / "run"), section: value}))
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "config, key", [({"model_famly": "neural"}, "model_famly"), ({"attack": {"budjet": 3}}, "attack.budjet")]
)
def test_misspelled_config_key_is_a_config_error(tmp_path, capsys, config, key):
    """A key with no default exits 2 and is named by its dotted path, at the
    top level and nested.  The optional plant keys, which are checked where
    they are read, still load."""
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"version": 1, "output_dir": str(tmp_path / "run")} | config))
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert f"unknown config key {key}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    optional = {"overrides": {}, "csv": "data.csv", "roles": "data.roles.json"}
    cfg_path.write_text(json.dumps({"plant": optional}))
    assert {key: load_config(str(cfg_path))["plant"][key] for key in optional} == optional


def test_config_types_follow_the_defaults(tmp_path):
    """An integer default takes an integral number as an ``int``; a float or
    ``null`` default takes any number as a ``float``, infinity included but
    not NaN; the optional keys without a default are not checked here; a
    list element must match the default's elements."""
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"attack": {"eta": 0.5}, "defense": {"epsilon": 1}, "plant": {"overrides": {"noise_std": 0.1}}}))
    cfg = load_config(str(cfg_path))
    assert (cfg["attack"]["eta"], cfg["defense"]["epsilon"]) == (0.5, 1)
    config = {"defense": {"gamma": 0, "epsilon": 1}, "calibration": {"target_period_steps": 100}}
    cfg_path.write_text(json.dumps(config | {"attack": {"budget": 2.0}}))
    cfg = load_config(str(cfg_path))
    typed = (cfg["defense"]["gamma"], cfg["defense"]["epsilon"], cfg["calibration"]["target_period_steps"])
    assert typed == (0.0, 1.0, 100.0) and all(type(v) is float for v in typed)
    assert cfg["attack"]["budget"] == 2 and type(cfg["attack"]["budget"]) is int
    for budgets, message in (([1, True], "number, not boolean"), ([1, 2.5], "an integer, not 2.5")):
        cfg_path.write_text(json.dumps({"attack": {"budgets": budgets}}))
        with pytest.raises(ValueError, match=re.escape(f"attack.budgets[1] must be {message}")):
            load_config(str(cfg_path))
    cfg_path.write_text('{"defense": {"gamma": 1' + "0" * 400 + "}}")
    with pytest.raises(ValueError, match=r"defense\.gamma is too large"):
        load_config(str(cfg_path))
    cfg_path.write_text('{"attack": {"budgets": [1, NaN]}}')
    with pytest.raises(ValueError, match=re.escape("attack.budgets[1] must be a number, not NaN")):
        load_config(str(cfg_path))
    cfg_path.write_text('{"attack": {"eta": Infinity}}')
    assert load_config(str(cfg_path))["attack"]["eta"] == math.inf


def _assert_typed_by_defaults(default, value, name=""):
    if isinstance(default, dict):
        for key, item in value.items():
            if key in default:
                _assert_typed_by_defaults(default[key], item, f"{name}.{key}")
    elif isinstance(default, list):
        for item in value:
            _assert_typed_by_defaults(default[0], item, name)
    elif default is None or type(default) is float:
        assert value is None or type(value) is float, name
    else:
        assert type(value) is type(default), name


def test_readme_example_config_loads_typed(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("Example config", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(example)
    cfg = load_config(str(cfg_path))
    _assert_typed_by_defaults(DEFAULT_CONFIG, cfg)
    assert cfg["seed"] == 7 and cfg["attack"]["budgets"] == [0, 1, 2, 3, 4, 5]
    assert (cfg["attack"]["eta"], cfg["defense"]["epsilon"]) == (None, 0.1)


@pytest.mark.parametrize("plant_spec", [{"csv": 5}, {"csv": "clean.csv", "roles": ["roles.json"]}])
def test_non_string_data_paths_are_a_config_error(tmp_path, capsys, plant_spec):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"version": 1, "output_dir": str(tmp_path / "run"), "plant": plant_spec}))
    assert main(["train", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "plant.csv and plant.roles must be strings" in capsys.readouterr().err
    assert not (tmp_path / "run" / "models").exists()


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
    for seed in ("5", "6"):
        assert main(["report", "--out", str(tmp_path / seed), "--seed", seed]) == EXIT_DEPENDENCY
    assert DEFAULT_CONFIG == before
    assert load_config(None) == before


def test_attack_exits_numeric_on_an_unstealthy_result(pipeline_dir, tmp_path, monkeypatch):
    out, cfg_path = pipeline_dir
    run = tmp_path / "run"
    shutil.copytree(out, run)
    # Every attacked row now breaks some detector's threshold.
    monkeypatch.setattr(attack, "stealth_margin", lambda bank, tau, rows: 1.0)
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


def _node_capped_solve(problem, start=None):
    return MILPSolution(Status.ITERATION_LIMIT, None, math.inf, 1)


def _overflowing_solve(problem, start=None):
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
    the same data as the library call with enum and array values.  An
    unknown nonlinearity is a config error, and so is an expanding coupling
    when no channel is nonlinear (the plant is then linear)."""
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

    for bad in ({"nonlinearity": "bogus"}, {"nonlinearity": "tanh", "coupling": (1.3 * np.eye(8)).tolist()}):
        config["plant"]["overrides"] = bad
        cfg_path.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "plant, message",
    [
        pytest.param({"overrides": {"noise_std": math.nan}}, "bad plant overrides", id="nan-noise"),
        pytest.param({"overrides": {"setpoints": [math.inf] + [1.0] * 7}}, "bad plant overrides", id="infinite-setpoint"),
        pytest.param({"steps": 1}, "steps must be at least 2", id="one-step"),
        pytest.param({"steps": 0}, "steps must be at least 2", id="no-steps"),
    ],
)
def test_non_finite_plant_overrides_write_nothing(tmp_path, capsys, plant, message):
    """JSON reads ``NaN`` and ``Infinity``; ``simulate`` refuses such a plant,
    or one of fewer than 2 steps, before it creates the output directory."""
    out = tmp_path / "run"
    config = {"version": 1, "seed": 7, "output_dir": str(out)}
    config["plant"] = {"preset": "desk", "steps": 300, **plant}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def _best_per_sensor_row(path: Path) -> dict:
    """The row of ``per_sensor.csv`` with the lowest attacked value, the
    earlier sensor winning a tie."""
    with open(path, newline="") as fh:
        return min(csv.DictReader(fh), key=lambda rec: float(rec["attacked_value"]))


def test_trajectory_row_0_is_the_sweep_at_the_configured_budget(pipeline_dir, tmp_path, monkeypatch):
    """The template is posed at test row 0, so trajectory row 0, the sweep's
    entry at the configured budget and the best per-sensor row are one
    attack, solved once."""
    out, cfg_path = pipeline_dir
    run = tmp_path / "run"
    shutil.copytree(out, run)
    calls = []
    real = attack.run_attack
    monkeypatch.setattr(attack, "run_attack", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    assert main(["attack", "--config", str(cfg_path), "--out", str(run)]) == EXIT_OK
    assert len(calls) == 4 + 4 - 1  # sweep, trajectory rows but row 0
    with open(run / "attack" / "budget_sweep.csv", newline="") as fh:
        sweep = {int(rec["budget"]): rec for rec in csv.DictReader(fh)}
    with open(run / "attack" / "trajectory.csv", newline="") as fh:
        row0 = next(csv.DictReader(fh))
    assert (row0["target"], row0["objective"]) == (sweep[2]["target"], sweep[2]["objective"])
    best = _best_per_sensor_row(run / "attack" / "per_sensor.csv")
    assert (best["sensor"], best["attacked_value"]) == (sweep[2]["target"], sweep[2]["objective"])
    for name in ("budget_sweep.csv", "trajectory.csv"):
        assert (run / "attack" / name).read_text() == (out / "attack" / name).read_text()


def _attack_config(cfg_path: Path, tmp_path: Path, **attack_spec) -> Path:
    """The pipeline's config with ``attack_spec`` merged into its attack
    section, written next to ``tmp_path``."""
    config = json.loads(cfg_path.read_text())
    config["attack"].update(attack_spec)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_repeated_budget_reuses_its_attack(pipeline_dir, tmp_path, monkeypatch):
    """A budget listed again in ``attack.budgets`` is attacked once: its
    sweep rows are the same line, and the stage makes one ``run_attack``
    call per distinct budget and per trajectory row after row 0."""
    out, cfg_path = pipeline_dir
    run = tmp_path / "run"
    shutil.copytree(out, run)
    calls = []
    real = attack.run_attack
    monkeypatch.setattr(
        attack, "run_attack", lambda *args, **kwargs: calls.append(args[2].budget) or real(*args, **kwargs)
    )
    cfg = _attack_config(cfg_path, tmp_path, budgets=[1, 1, 2, 1])
    assert main(["attack", "--config", str(cfg), "--out", str(run)]) == EXIT_OK
    assert calls == [1, 2] + [2] * (4 - 1)  # distinct budgets, trajectory rows but row 0
    with open(run / "attack" / "budget_sweep.csv", newline="") as fh:
        sweep = list(csv.DictReader(fh))
    assert [rec["budget"] for rec in sweep] == ["1", "1", "2", "1"]
    assert sweep[0] == sweep[1] == sweep[3]
    report = json.loads((run / "attack" / "attack_report.json").read_text())["budget_sweep"]
    assert report[0] == report[1] == report[3]


@pytest.mark.parametrize("rows", [0, -1])
def test_attack_refuses_rows_below_one(pipeline_dir, tmp_path, capsys, rows):
    """``attack.rows`` below 1 is a config error naming the key, and the
    stage writes nothing."""
    out, cfg_path = pipeline_dir
    run = tmp_path / "run"
    shutil.copytree(out, run)
    shutil.rmtree(run / "attack")
    cfg = _attack_config(cfg_path, tmp_path, rows=rows)
    assert main(["attack", "--config", str(cfg), "--out", str(run)]) == EXIT_CONFIG
    assert "attack.rows" in capsys.readouterr().err
    assert not (run / "attack").exists()


def test_defense_scores_each_threshold_vector_once(tmp_path, monkeypatch):
    """The benchmark's pipeline config at desk seed 10: candidates 1, 3 and 5
    are one threshold vector, scored once, and the trace keeps the worst
    impacts, false alarms and decisions that scoring every candidate gave."""
    from resguard import defense

    config = {
        "version": 1,
        "seed": 10,
        "output_dir": str(tmp_path / "run"),
        "plant": {"preset": "desk", "steps": 1200},
        "model_family": "linear",
        "train": {"train_fraction": 0.8},
        "calibration": {"target_period_steps": 100.0},
        "attack": {"budget": 2, "eta": None, "direction": "minimize", "budgets": [0, 1, 2, 3, 4, 5], "rows": 10},
        "defense": {"gamma": 0.0, "epsilon": None, "n_max": 8, "horizon": 5},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    for command in ("simulate", "train", "calibrate"):
        assert main([command, "--config", str(cfg_path)]) == EXIT_OK, command
    calls = []
    real = defense.impact
    monkeypatch.setattr(defense, "impact", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    assert main(["defend", "--config", str(cfg_path)]) == EXIT_OK
    assert len(calls) == 7
    with open(tmp_path / "run" / "defense" / "trace.csv", newline="") as fh:
        trace = list(csv.DictReader(fh))
    worst = [
        3.5520021071716945, 3.430825901528425, 3.49141400435006, 3.430825901528425, 3.4611199529392422,
        3.430825901528425, 3.4459729272338344, 3.4535464400865385, 3.4573331965128906,
    ]  # fmt: skip
    assert [float(rec["worst_impact"]) for rec in trace] == pytest.approx(worst, rel=0, abs=1e-12)
    assert [rec["fa"] for rec in trace] == ["8", "11", "8", "11", "8", "11", "9", "9", "8"]
    assert [rec["accepted"] for rec in trace] == ["True", "False", "True", "False", "True", "False", "False", "False", "True"]
    assert {rec["worst_sensor"] for rec in trace} == {"s1"}


def test_neural_budget_sweep_never_gets_worse(tmp_path, monkeypatch):
    """Desk tanh plant, seed 7, neural bank, test row 0: without seeds the
    sweep read 1.4405, -1.7626, -0.2982, -0.9778 at budgets 1-4.  Seeded
    with the previous budget's best point it is non-increasing, and every
    point passes the stealth certificate."""
    config = {
        "version": 1,
        "seed": 7,
        "output_dir": str(tmp_path / "run"),
        "plant": {"preset": "desk", "steps": 1200, "overrides": {"nonlinearity": "tanh", "nonlinear_channels": [0]}},
        "model_family": "neural",
        "attack": {"budget": 2, "budgets": [1, 2, 3, 4], "rows": 1},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    for command in ("simulate", "train", "calibrate"):
        assert main([command, "--config", str(cfg_path)]) == EXIT_OK, command
    calls = []
    real = attack.run_attack
    monkeypatch.setattr(
        attack, "run_attack", lambda *args, **kwargs: calls.append((args, kwargs, real(*args, **kwargs))) or calls[-1][2]
    )
    assert main(["attack", "--config", str(cfg_path)]) == EXIT_OK
    sweep = calls[0:4]
    assert [args[2].budget for args, _, _ in sweep] == [1, 2, 3, 4]
    objectives = [result.objective for _, _, result in sweep]
    assert all(b <= a for a, b in zip(objectives, objectives[1:])), objectives
    assert objectives[2] < -0.2982 and objectives[3] < -0.9778
    for args, _, result in sweep:
        bank, tau = args[0], args[1]
        assert attack.stealth_margin(bank, tau, result.y_tilde) <= attack.STEALTH_TOL
    with open(tmp_path / "run" / "attack" / "budget_sweep.csv", newline="") as fh:
        assert [float(rec["objective"]) for rec in csv.DictReader(fh)] == objectives
    bank, at_2 = sweep[1][0][0], sweep[1][2]
    best = _best_per_sensor_row(tmp_path / "run" / "attack" / "per_sensor.csv")
    assert (best["sensor"], best["attacked_value"]) == (bank.name_of(at_2.target), repr(at_2.objective))


_MSE_HEAD = "sensor,family,train_mse_normalized,test_mse_normalized\n"


def _drop(key):
    return lambda obj: {k: v for k, v in obj.items() if k != key}


@pytest.mark.parametrize(
    "rel, corrupt, command, written",
    [
        pytest.param("thresholds/baseline.json", '{"tau": {', "attack", "attack", id="truncated-thresholds"),
        pytest.param("thresholds/baseline.json", {"columns": {"s0": 0}}, "attack", "attack", id="thresholds-without-tau"),
        pytest.param("thresholds/baseline.json", _drop("columns"), "attack", "attack", id="bare-tau-thresholds"),
        pytest.param("thresholds/baseline.json", {"tau": {}, "columns": ["s0"]}, "attack", "attack", id="columns-as-a-list"),
        pytest.param("thresholds/baseline.json", '{"tau": {', "report", "report", id="report-of-truncated-thresholds"),
        pytest.param("models/bank.json", {"family": "linear"}, "calibrate", "thresholds", id="bank-without-detectors"),
        pytest.param("models/model_s0.json", _drop("w"), "calibrate", "thresholds", id="model-without-w"),
        pytest.param("data/roles.json", '{"columns": [{', "train", "models", id="truncated-roles"),
        pytest.param("data/clean.csv", "s0,s1,s2,s3,s4,s5,s6,s7,u0,u1\n", "train", "models", id="header-only-clean-csv"),
        pytest.param("models/mse_table.csv", "sensor,mse\ns0,0.1\n", "report", "report", id="mse-table-with-another-header"),
        pytest.param("models/mse_table.csv", _MSE_HEAD + "s0,linear,0.1", "report", "report", id="mse-table-cut-mid-row"),
        pytest.param("models/mse_table.csv", _MSE_HEAD + "s0,linear,0.1,0.2,0.3\n", "report", "report", id="mse-table-row-too-long"),
        pytest.param("models/mse_table.csv", _MSE_HEAD, "report", "report", id="header-only-mse-table"),
    ],
)
def test_an_unreadable_artifact_is_a_dependency_error(pipeline_dir, tmp_path, capsys, rel, corrupt, command, written):
    """An upstream artifact that does not load as its stage wrote it exits
    3 and names the file, and the stage writes nothing.  ``simulate``'s CSV
    and role map are read as a pair, so their message names both."""
    out, cfg_path = pipeline_dir
    run = tmp_path / "run"
    shutil.copytree(out, run)
    shutil.rmtree(run / written)
    path = run / rel
    if isinstance(corrupt, str):
        path.write_text(corrupt)
    else:
        path.write_text(json.dumps(corrupt if isinstance(corrupt, dict) else corrupt(json.loads(path.read_text()))))
    assert main([command, "--config", str(cfg_path), "--out", str(run)]) == EXIT_DEPENDENCY
    err = capsys.readouterr().err
    assert "unreadable artifact" in err and f"{path} " in err
    assert not (run / written).exists()


@pytest.mark.parametrize(
    "rel, command, producer",
    [
        pytest.param("thresholds/baseline.json", "attack", "calibrate", id="thresholds/baseline.json"),
        pytest.param("data/roles.json", "attack", "simulate", id="data/roles.json"),
        pytest.param("models/mse_table.csv", "report", "train", id="models/mse_table.csv"),
    ],
)
def test_an_artifact_that_cannot_be_opened_is_a_dependency_error(pipeline_dir, tmp_path, capsys, rel, command, producer):
    """A directory where an upstream artifact should be exits 3 and names
    it and the stage that writes it, as a corrupt file does."""
    out, cfg_path = pipeline_dir
    run = tmp_path / "run"
    shutil.copytree(out, run)
    (run / rel).unlink()
    (run / rel).mkdir()
    assert main([command, "--config", str(cfg_path), "--out", str(run)]) == EXIT_DEPENDENCY
    err = capsys.readouterr().err
    assert f"{run / rel} " in err and f"'{producer}'" in err


@pytest.mark.parametrize(
    "key, fault",
    [("plant.csv", "missing"), ("plant.roles", "missing"), ("plant.csv", "directory"), ("plant.roles", "directory")],
)
def test_a_user_plant_file_that_does_not_load_is_a_config_error(tmp_path, capsys, key, fault):
    """A ``plant.csv`` or ``plant.roles`` that is missing or cannot be read
    is user input, not an artifact: exit 2, naming the config key and the
    path, and no stage output."""
    data = plant.simulate(plant.desk_config(seed=7), 100)
    paths = {"plant.csv": tmp_path / "rows.csv", "plant.roles": tmp_path / "columns.json"}
    plant.save_csv(data, paths["plant.csv"], paths["plant.roles"])
    bad = paths[key]
    bad.unlink()
    if fault == "directory":
        bad.mkdir()
    out = tmp_path / "run"
    cfg_path = tmp_path / "config.json"
    spec = {"csv": str(paths["plant.csv"]), "roles": str(paths["plant.roles"])}
    cfg_path.write_text(json.dumps(SMALL_CONFIG | {"output_dir": str(out), "plant": spec}))
    assert main(["train", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and str(bad) in err
    assert not (out / "models").exists()


def test_an_output_path_that_cannot_be_made_is_a_config_error(pipeline_dir, tmp_path, capsys):
    """A stage whose output directory cannot be created, under a regular
    file or where a regular file stands, exits 2 and names the path."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["simulate", "--out", str(blocker / "run")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(blocker / "run" / "data") in err

    out, cfg_path = pipeline_dir
    run = tmp_path / "run"
    shutil.copytree(out, run)
    shutil.rmtree(run / "attack")
    (run / "attack").write_text("")
    assert main(["attack", "--config", str(cfg_path), "--out", str(run)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(run / "attack") in err


# A small desk pipeline at seed 7 for the tests that run every stage.
SMALL_CONFIG = {
    "version": 1,
    "seed": 7,
    "plant": {"preset": "desk", "steps": 300},
    "attack": {"budgets": [0, 1], "rows": 2},
    "defense": {"n_max": 1, "horizon": 1},
}
STAGES = ("simulate", "train", "calibrate", "attack", "defend", "report")


def _run_stages(config, out, stages):
    cfg_path = out.parent / f"{out.name}.json"
    cfg_path.write_text(json.dumps(config | {"output_dir": str(out)}))
    for command in stages:
        assert main([command, "--config", str(cfg_path)]) == EXIT_OK, command
    return cfg_path


def _artifact_bytes(out):
    return {
        str(p.relative_to(out)): p.read_bytes()
        for stage in ("models", "thresholds", "attack", "defense")
        for p in sorted((out / stage).iterdir())
    }


def test_external_plant_csv_reproduces_the_simulated_pipeline(tmp_path, capsys):
    """``plant.csv`` pointing at a simulated ``clean.csv`` gives every
    artifact of ``train`` through ``defend`` byte for byte, with ``roles``
    given or taken from the ``<csv>.roles.json`` sidecar; a ragged CSV is a
    config error."""
    _run_stages(SMALL_CONFIG, tmp_path / "sim", STAGES[:-1])
    expected = _artifact_bytes(tmp_path / "sim")
    data = tmp_path / "sim" / "data"
    ext = tmp_path / "ext"
    ext.mkdir()
    shutil.copy(data / "clean.csv", ext / "plant.csv")
    shutil.copy(data / "roles.json", ext / "plant.roles.json")
    for name, spec in (
        ("given", {"csv": str(data / "clean.csv"), "roles": str(data / "roles.json")}),
        ("sidecar", {"csv": str(ext / "plant.csv")}),
    ):
        _run_stages(SMALL_CONFIG | {"plant": spec}, tmp_path / name, STAGES[1:-1])
        assert not (tmp_path / name / "data").exists()
        assert _artifact_bytes(tmp_path / name) == expected, name

    lines = (ext / "plant.csv").read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0]
    (ext / "plant.csv").write_text("\n".join(lines) + "\n")
    cfg_path = tmp_path / "ragged.json"
    cfg_path.write_text(json.dumps(SMALL_CONFIG | {"output_dir": str(tmp_path / "ragged"), "plant": {"csv": str(ext / "plant.csv")}}))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "ragged" / "models").exists()


def test_eta_0_pipeline_attacks_nothing(tmp_path):
    """With ``attack.eta`` 0 no sensor can move: every stage exits 0, the
    attack report lists no attackable sensor, and every budget's objective
    is its target's clean value."""
    config = SMALL_CONFIG | {"attack": {"eta": 0.0, "budgets": [0, 1, 2], "rows": 2}}
    out = tmp_path / "run"
    _run_stages(config, out, STAGES)
    with open(out / "attack" / "per_sensor.csv", newline="") as fh:
        clean = {rec["sensor"]: rec["clean_value"] for rec in csv.DictReader(fh)}
    with open(out / "attack" / "budget_sweep.csv", newline="") as fh:
        sweep = list(csv.DictReader(fh))
    assert [int(rec["budget"]) for rec in sweep] == [0, 1, 2]
    for rec in sweep:
        assert rec["objective"] == clean[rec["target"]] and rec["feasible"] == "True"
    report = json.loads((out / "attack" / "attack_report.json").read_text())
    for entry in report["per_target"]:
        assert entry["instance"]["attackable"] == [] and entry["attacked"] == []


def test_paper_preset_pipeline_matches_highs(tmp_path):
    """The ``paper`` preset through every stage at seed 7: five detectors,
    every attack feasible, and the budget-1 sweep point is the best target's
    HiGHS optimum."""
    from resguard.cli import _attack_setup, load_config

    config = {
        "version": 1,
        "seed": 7,
        "plant": {"preset": "paper"},
        "attack": {"budget": 1, "budgets": [0, 1], "rows": 2},
        "defense": {"horizon": 1, "n_max": 1},
    }
    out = tmp_path / "run"
    cfg_path = _run_stages(config, out, STAGES)
    assert len(json.loads((out / "models" / "bank.json").read_text())["detectors"]) == 5
    report = json.loads((out / "attack" / "attack_report.json").read_text())
    assert all(entry["feasible"] for entry in report["per_target"] + report["budget_sweep"])
    with open(out / "attack" / "per_sensor.csv", newline="") as fh:
        assert all(rec["feasible"] == "True" for rec in csv.DictReader(fh))

    _, _, bank, tau, template, _ = _attack_setup(load_config(str(cfg_path)), out)
    inst = replace(template, budget=1)
    best = math.inf
    for t in inst.critical:
        highs = highs_milp(attack.build_attack_milp(bank, tau, inst, t))
        assert highs.status == 0, highs.message
        best = min(best, inst.y[t] + highs.fun)
    sweep_b1 = next(entry for entry in report["budget_sweep"] if entry["budget"] == 1)
    assert sweep_b1["objective"] == pytest.approx(best, abs=1e-6)

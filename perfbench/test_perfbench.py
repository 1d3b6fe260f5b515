"""Tests of the benchmark's own machinery on a small desk-scale pool."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from resguard import attack, defense, detector, lp_milp, plant

from perfbench import harness, tracing
from perfbench.workloads import WORKLOADS, AttackContext, Op, PaperLinearAttack

ROOT = Path(__file__).resolve().parent.parent


class DeskLinearAttack(PaperLinearAttack):
    """The paper workload's ops and checks on a desk plant: fast enough for tests."""

    name = "desk-linear-test"
    ROWS_BY_BUDGET = {1: range(4), 2: range(2)}
    KNOWN_DEFECT = None

    def setup(self, out_dir):
        data = plant.simulate(plant.desk_config(seed=3), 400)
        train, test = plant.split_sequential(data, 0.8)
        bank = detector.train_bank(train, family="linear")
        return AttackContext(train, test, bank, detector.calibrate_baseline(detector.fp_curve(bank, train), 100.0, 2))

    def probes(self, ctx):
        return []


class WrongObjective(DeskLinearAttack):
    """Returns the clean point, a stealthy but suboptimal attack, for one op."""

    def ops(self, ctx):
        ops = super().ops(ctx)
        op = ops[0]
        inst = op.data["inst"]

        def run():
            result = attack.run_attack(ctx.bank, ctx.tau, inst)
            return replace(
                result,
                y_tilde=inst.y.copy(),
                delta=np.zeros_like(inst.y),
                alpha=np.zeros(inst.y.size, dtype=bool),
                objective=float(inst.y[op.data["target"]]),
            )

        ops[0] = Op(op.key, run, op.data)
        return ops


class InProcessRun(harness.Run):
    """Runs the untraced passes in this process instead of fresh ones."""

    def _spawn(self, index):
        return json.loads(json.dumps(harness.child_pass(self.wl, self.seed, index, self.out_dir, 0.1)))


def _execute(wl, tmp_path, trace):
    return InProcessRun(wl, 5, 0.0, trace, ROOT, tmp_path).execute()


def test_metric_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_emitted_metrics_and_gate(tmp_path, trace):
    wl = DeskLinearAttack()
    wl.expected_spans = frozenset({"lp_milp.solve_milp", "lp_milp.solve_lp", "attack.run_attack"})
    out = _execute(wl, tmp_path, trace)
    catalogue = harness.PER_LAYER if trace else harness.END_TO_END
    assert list(out["metrics"]) == [name for name, _, _ in catalogue]
    assert all(out["metrics"][name]["unit"] == unit for name, unit, _ in catalogue)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] == (2 if trace else harness.PASSES) * 12
    if trace:
        assert out["metrics"]["lp_milp.solve_milp.calls"]["value"] == 12
        assert out["metrics"]["attack.milps_per_op"]["value"] == 1.0
    else:
        assert out["metrics"]["impact_mean"]["value"] > 0


def test_wrong_objective_counts_as_failed(tmp_path):
    out = _execute(WrongObjective(), tmp_path, False)
    assert out["failed"] == harness.PASSES and out["attempted"] == harness.PASSES * 12 and not out["correct"]


def test_tail_rule():
    assert harness.tail(range(100, 0, -1)) == (90, 90.0)
    value, pct = harness.tail(np.arange(1, 45))
    assert value == 34 and pct == pytest.approx(100 * 34 / 44)
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_tracer_patches_rebound_names_and_restores():
    originals = {
        "attack.solve_milp": attack.solve_milp,
        "lp_milp.solve_lp": lp_milp.solve_lp,
        "defense.run_attack": defense.run_attack,
        "attack.residuals": attack.residuals,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert attack.solve_milp is not originals["attack.solve_milp"]
        assert defense.run_attack is not originals["defense.run_attack"]
        assert not tracing.all_restored()
        wl = DeskLinearAttack()
        ctx = wl.setup(None)
        wl.ops(ctx)[0].run()
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"attack.run_attack", "lp_milp.solve_milp", "lp_milp.solve_lp", "detector.residuals"} <= names
    assert tracing.all_restored()
    assert attack.solve_milp is originals["attack.solve_milp"]
    assert lp_milp.solve_lp is originals["lp_milp.solve_lp"]
    assert defense.run_attack is originals["defense.run_attack"]
    assert attack.residuals is originals["attack.residuals"]


def test_missed_seam_fails_loudly(tmp_path):
    wl = DeskLinearAttack()
    wl.expected_spans = frozenset({"defense.impact"})
    with pytest.raises(harness.SeamError):
        _execute(wl, tmp_path, True)
    assert tracing.all_restored()


def test_self_times_add_up():
    spans = [
        ["a", 0.0, 10.0, -1, "pass", None],
        ["b", 1.0, 4.0, 0, "pass", None],
        ["a", 2.0, 3.0, 1, "pass", None],
        ["c", 5.0, 6.0, 0, "pass", None],
    ]
    summary = tracing.summarize(spans)
    assert summary["a"] == {"calls": 2, "s": 10.0, "self_s": 6.0 + 1.0}
    assert summary["b"]["self_s"] == 2.0
    assert sum(v["self_s"] for v in summary.values()) == 10.0
    assert tracing.descendants_of(spans, "b", "a") == 1

"""Closed-loop runner, correctness gate and metric assembly.

One client issues a workload's op pool back to back, in an order drawn from
the workload seed.  An untraced run makes at least ``PASSES`` passes over
the pool, each in a fresh process that also sets up from scratch (so no
in-process cache survives from one pass to the next), and more while
another fits in ``--seconds`` of wall time, set-ups and checks included, so
that a slow machine shortens a run by passes instead of stretching it.
Each op is timed alone and its answer is checked after the pass, outside
the timed region.  An op's time is the median of its passes.  On a shared
2-vCPU host a fixed pure-Python loop timed 19-42 ms (median 28 ms) back to
back, with the fast readings rare: the fastest of a few passes chases those
rare moments and spread about twice as much between runs as the median did
(resampled from 30 passes of the desk neural pool: 0.136 vs 0.080
IQR/median for ``op_s_p50`` at 4 passes).

A traced run makes, in one process, a set-up and one traced pass under the
tracer plus one untraced pass, and reports the per-layer metrics, with the
tracing overhead as the difference between the two passes' wall times.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from . import tracing
from .workloads import Workload

PASSES = 3
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10

# (name, unit, better): the order the metrics are printed in.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_s_p50", "s", "lower"),
    ("op_s_tail", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("impact_mean", "sensor_units", "higher"),
)

_CLI_STAGES = ("simulate", "train", "calibrate", "attack", "defend", "report")
PER_LAYER = (
    ("lp_milp.solve_lp.calls", "count", "lower"),
    ("lp_milp.solve_lp.self_s", "s", "lower"),
    ("lp_milp.solve_lp.ms_per_call", "ms", "lower"),
    ("lp_milp.solve_milp.calls", "count", "lower"),
    ("lp_milp.solve_milp.self_s", "s", "lower"),
    ("lp_milp.nodes", "count", "lower"),
    ("lp_milp.lps_per_milp", "count", "lower"),
    ("lp_milp.solve_milp.optimal_frac", "fraction", "higher"),
    ("lp_milp.known_defect_failed", "count", "lower"),
    ("attack.run_attack.calls", "count", "lower"),
    ("attack.run_attack.self_s", "s", "lower"),
    ("attack.build_attack_milp.calls", "count", "lower"),
    ("attack.build_attack_milp.s", "s", "lower"),
    ("attack.milps_per_op", "count", "lower"),
    ("models.taylor_linearize.calls", "count", "lower"),
    ("models.taylor_linearize.s", "s", "lower"),
    ("models.predict_batch.calls", "count", "lower"),
    ("models.predict_batch.s", "s", "lower"),
    ("models.fit_nn.s", "s", "lower"),
    ("models.fit_linear.s", "s", "lower"),
    ("plant.simulate.s", "s", "lower"),
    ("plant.save_csv.s", "s", "lower"),
    ("plant.load_csv.calls", "count", "lower"),
    ("plant.load_csv.s", "s", "lower"),
    ("detector.train_bank.s", "s", "lower"),
    ("detector.fp_curve.s", "s", "lower"),
    ("detector.calibrate_baseline.s", "s", "lower"),
    ("detector.residuals.calls", "count", "lower"),
    ("detector.residuals.s", "s", "lower"),
    ("defense.impact.calls", "count", "lower"),
    ("defense.impact.s", "s", "lower"),
    ("defense.milps_per_impact", "count", "lower"),
    ("defense.accepted_frac", "fraction", "higher"),
    ("defense.gain", "fraction", "higher"),
    *((f"cli.{stage}.s", "s", "lower") for stage in _CLI_STAGES),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.counter_drift", "count", "lower"),
)

# Work counters that must repeat exactly for the same code and pool.
EXACT_COUNTERS = ("lp_milp.nodes", "lp_milp.solve_lp.calls", "attack.milps_per_op", "defense.impact.calls")


class SeamError(RuntimeError):
    """A traced function that the workload must call recorded no call."""


def tail(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile with at
    least ``beyond`` samples above it; the maximum (percentile 100) when the
    sample is too small for any."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    rank = n - beyond if n > beyond else n
    return xs[rank - 1], 100.0 * rank / n


def layer_metrics(spans, op_count: int, gains, probe_failures: int, walls: dict) -> dict:
    """The ``PER_LAYER`` metrics from the spans of a traced section."""
    summary = tracing.summarize(spans)

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    milp_infos = [s[5] for s in spans if s[0] == "lp_milp.solve_milp"]
    defense_infos = [s[5] for s in spans if s[0] == "defense.resilient_thresholds"]
    milp_calls = get("lp_milp.solve_milp", "calls")
    impact_calls = get("defense.impact", "calls")
    out = {
        "lp_milp.solve_lp.calls": get("lp_milp.solve_lp", "calls"),
        "lp_milp.solve_lp.self_s": get("lp_milp.solve_lp", "self_s"),
        "lp_milp.solve_lp.ms_per_call": 1000.0 * ratio(get("lp_milp.solve_lp", "s"), get("lp_milp.solve_lp", "calls")),
        "lp_milp.solve_milp.calls": milp_calls,
        "lp_milp.solve_milp.self_s": get("lp_milp.solve_milp", "self_s"),
        "lp_milp.nodes": sum(info["nodes"] for info in milp_infos),
        "lp_milp.lps_per_milp": ratio(tracing.descendants_of(spans, "lp_milp.solve_milp", "lp_milp.solve_lp"), milp_calls),
        "lp_milp.solve_milp.optimal_frac": ratio(sum(info["optimal"] for info in milp_infos), milp_calls),
        "lp_milp.known_defect_failed": probe_failures,
        "attack.run_attack.calls": get("attack.run_attack", "calls"),
        "attack.run_attack.self_s": get("attack.run_attack", "self_s"),
        "attack.build_attack_milp.calls": get("attack.build_attack_milp", "calls"),
        "attack.build_attack_milp.s": get("attack.build_attack_milp", "s"),
        "attack.milps_per_op": ratio(sum(1 for s in spans if s[0] == "lp_milp.solve_milp" and s[4] != "setup"), op_count),
        "models.taylor_linearize.calls": get("models.taylor_linearize", "calls"),
        "models.taylor_linearize.s": get("models.taylor_linearize", "s"),
        "models.predict_batch.calls": get("models.predict_batch", "calls"),
        "models.predict_batch.s": get("models.predict_batch", "s"),
        "models.fit_nn.s": get("models.fit_nn", "s"),
        "models.fit_linear.s": get("models.fit_linear", "s"),
        "plant.simulate.s": get("plant.simulate", "s"),
        "plant.save_csv.s": get("plant.save_csv", "s"),
        "plant.load_csv.calls": get("plant.load_csv", "calls"),
        "plant.load_csv.s": get("plant.load_csv", "s"),
        "detector.train_bank.s": get("detector.train_bank", "s"),
        "detector.fp_curve.s": get("detector.fp_curve", "s"),
        "detector.calibrate_baseline.s": get("detector.calibrate_baseline", "s"),
        "detector.residuals.calls": get("detector.residuals", "calls"),
        "detector.residuals.s": get("detector.residuals", "s"),
        "defense.impact.calls": impact_calls,
        "defense.impact.s": get("defense.impact", "s"),
        "defense.milps_per_impact": ratio(tracing.descendants_of(spans, "defense.impact", "lp_milp.solve_milp"), impact_calls),
        "defense.accepted_frac": ratio(
            sum(info["accepted"] for info in defense_infos), sum(info["candidates"] for info in defense_infos)
        ),
        "defense.gain": statistics.fmean(gains) if gains else 0.0,
    }
    for stage in _CLI_STAGES:
        out[f"cli.{stage}.s"] = get(f"cli.{stage}", "s")
    out.update(walls)
    return out


def environment(root: Path) -> dict:
    """Machine and library versions recorded beside the numbers."""
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        scipy_version = metadata.version("scipy")  # without importing it
    except metadata.PackageNotFoundError:
        scipy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg_at_start": os.getloadavg(),
    }


def src_fingerprint(root: Path) -> tuple[int, int]:
    """(line count, content hash) of the resguard sources."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src" / "resguard").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, int(digest.hexdigest()[:12], 16)




def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def pass_order(seed: int, index: int, n: int) -> list[int]:
    return np.random.default_rng([seed, index]).permutation(n).tolist()


def timed_pass(ops, order):
    """Issue the ops back to back; returns per-op seconds, results and the pass wall."""
    times, results = {}, {}
    start = time.perf_counter()
    for i in order:
        op = ops[i]
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            result = exc
        times[op.key] = time.perf_counter() - t0
        results[op.key] = result
    return times, results, time.perf_counter() - start


def check_pass(wl: Workload, ctx, ops, results) -> dict:
    """The correctness gate for one pass, run after its timed region."""
    out = {}
    for op in ops:
        result = results[op.key]
        v = wl.check(ctx, op, result)
        out[op.key] = {
            "ok": v.ok, "reason": v.reason, "impact": v.impact, "gain": v.gain, "highs_s": v.highs_s,
            "fingerprint": _digest(wl.fingerprint(result)),
        }
        wl.cleanup(result)
    return out


def run_probes(wl: Workload, ctx) -> list:
    out = []
    for probe in wl.probes(ctx):
        try:
            result = probe.run()
        except Exception as exc:
            result = exc
        v = wl.check(ctx, probe, result)
        wl.cleanup(result)
        out.append([probe.key, v.ok, v.reason])
    return out


def child_pass(wl: Workload, seed: int, index: int, out_dir: Path, import_s: float) -> dict:
    """One untraced pass in a fresh process: set up, run the pool once, check."""
    t0 = time.perf_counter()
    ctx = wl.setup(out_dir)
    setup_s = time.perf_counter() - t0
    ops = wl.ops(ctx)
    times, results, wall = timed_pass(ops, pass_order(seed, index, len(ops)))
    peak_rss = _peak_rss_mb()  # before the gate loads scipy
    checks = check_pass(wl, ctx, ops, results)
    for key, rec in checks.items():
        rec["time"] = times[key]
    return {
        "import_s": import_s,
        "setup_s": setup_s,
        "wall": wall,
        "peak_rss_mb": peak_rss,
        "ops": checks,
        "probes": run_probes(wl, ctx) if index == 0 else [],
    }


class Run:
    """One benchmark run of one workload, as the parent process."""

    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool, root: Path, out_dir: Path):
        self.wl, self.seed, self.seconds, self.trace = wl, seed, seconds, trace
        self.root, self.out_dir = root, out_dir
        self.lines: list[str] = []

    def say(self, text: str) -> None:
        self.lines.append(text)

    def _spawn(self, index: int) -> dict:
        cmd = [
            sys.executable, str(self.root / "perfbench" / "run.py"),
            "--workload", self.wl.name, "--seed", str(self.seed), "--child-pass", str(index),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=self.root)
        if proc.returncode != 0:
            raise RuntimeError(f"pass {index} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def _untraced_passes(self) -> list[dict]:
        passes, start = [], time.perf_counter()
        while True:
            begun = time.perf_counter()
            passes.append(self._spawn(len(passes)))
            now = time.perf_counter()
            if len(passes) >= PASSES and (now - start) + (now - begun) > self.seconds:
                return passes

    def _traced_passes(self, tracer: tracing.Tracer) -> list[dict]:
        """Set-up under the tracer, then an untraced and a traced pass in this process."""
        wl = self.wl
        tracer.op_id = "setup"
        tracer.install()
        try:
            ctx = wl.setup(self.out_dir)
        finally:
            tracer.uninstall()
        ops = wl.ops(ctx)
        passes = []
        for index in range(2):
            if index == 1:
                tracer.op_id = "pass"
                tracer.install()
            try:
                times, results, wall = timed_pass(ops, pass_order(self.seed, index, len(ops)))
            finally:
                tracer.uninstall()
            checks = check_pass(wl, ctx, ops, results)
            for key, rec in checks.items():
                rec["time"] = times[key]
            passes.append({"wall": wall, "ops": checks, "probes": run_probes(wl, ctx) if index == 0 else []})
        if not tracing.all_restored():
            raise SeamError("a traced function was not restored")
        return passes

    def execute(self) -> dict:
        wl = self.wl
        env = environment(self.root)
        tracer = tracing.Tracer() if self.trace else None
        passes = self._traced_passes(tracer) if tracer else self._untraced_passes()

        # An op fails when any pass failed its check or its answers differ.
        first = passes[0]["ops"]
        attempted = failed = 0
        verdicts = {}
        for key, rec in first.items():
            runs = [p["ops"][key] for p in passes]
            ok, reason = rec["ok"], rec["reason"]
            bad = next((r for r in runs if not r["ok"]), None)
            if bad is not None:
                ok, reason = False, bad["reason"]
            elif len({r["fingerprint"] for r in runs}) > 1:
                ok, reason = False, "answer differs between passes (nondeterminism)"
            verdicts[key] = dict(rec, ok=ok, reason=reason, times=[r["time"] for r in runs])
            attempted += len(runs)
            failed += 0 if ok else len(runs)
        probe_failures = 0
        for key, ok, reason in passes[0]["probes"]:
            probe_failures += not ok
            status = "passes" if ok else f"FAILS ({reason})"
            self.say(f"known-defect probe {key} (ROADMAP item 1; not counted in attempted/failed): {status}")
        for key, v in verdicts.items():
            if not v["ok"]:
                self.say(f"FAILED op {key}: {v['reason']}")

        timed = passes[:1] if tracer else passes
        typical = [statistics.median(v["times"][: len(timed)]) for v in verdicts.values()]
        ok_ops = sum(v["ok"] for v in verdicts.values())
        impacts = [v["impact"] for v in verdicts.values() if v["ok"] and not math.isnan(v["impact"])]
        gains = [v["gain"] for v in verdicts.values() if v["ok"] and not math.isnan(v["gain"])]
        highs = [v["highs_s"] for v in verdicts.values() if not math.isnan(v["highs_s"])]
        src_lines, src_hash = src_fingerprint(self.root)
        tail_value, tail_pct = tail(typical)

        self.say(
            f"workload {wl.name}: seed {self.seed}, closed loop, 1 client, pool of {len(verdicts)} ops, "
            f"{len(passes)} passes{' (1 untraced + 1 traced)' if tracer else ', each in a fresh process'}, "
            f"{attempted} op executions, {failed} failed (failed_frac {failed / attempted:.4f})"
        )
        self.say(
            f"op_s_tail is the p{tail_pct:.1f} of the {len(typical)} per-op times (each the median of {len(timed)} passes)"
            + ("; fewer than 11 ops, so no percentile has 10 beyond it and the maximum is reported" if tail_pct == 100 else "")
        )
        self.say("env " + json.dumps(env))
        self.say(f"reference (not gated): src/resguard lines {src_lines}")
        if highs:
            self.say(
                f"reference (not gated): HiGHS ms per MILP on this pool: median {1000 * statistics.median(highs):.2f}, "
                f"mean {1000 * statistics.fmean(highs):.2f} over {len(highs)} MILPs"
            )

        if tracer:
            missing = sorted(name for name in wl.expected_spans if not any(s[0] == name for s in tracer.spans))
            if missing:
                raise SeamError(f"no calls recorded for {missing}; a rebinding was missed")
            untraced, traced = passes[0]["wall"], passes[1]["wall"]
            traced_op_wall = sum(v["times"][1] for v in verdicts.values())
            self_sum = sum(v["self_s"] for v in tracing.summarize(tracer.spans, "pass").values())
            walls = {
                "trace.untraced_wall_s": untraced,
                "trace.traced_wall_s": traced,
                "trace.overhead_s": traced - untraced,
                "trace.unattributed_s": traced_op_wall - self_sum,
            }
            metrics = layer_metrics(tracer.spans, len(verdicts), gains, probe_failures, walls)
            metrics["trace.counter_drift"] = self._counter_drift(metrics, f"{src_hash:x}-{_digest(sorted(verdicts))}")
            # The overhead is a difference of two noisy walls, so compare magnitudes.
            within = abs(walls["trace.unattributed_s"]) <= abs(walls["trace.overhead_s"])
            self.say(
                f"self-time check: per-layer self times sum to {self_sum:.4f} s of {traced_op_wall:.4f} s traced "
                f"op wall; the gap {walls['trace.unattributed_s']:.4f} s is {'within' if within else 'OUTSIDE'} "
                f"the tracing overhead {walls['trace.overhead_s']:.4f} s"
            )
            tracer.write_jsonl(self.out_dir / f"{wl.name}-seed{self.seed}-spans.jsonl")
            catalogue = PER_LAYER
        else:
            setups = [p["import_s"] + p["setup_s"] for p in passes]
            self.say(f"setup_s is the median of {len(setups)} fresh-process set-ups: {', '.join(f'{s:.4f}' for s in setups)} s")
            metrics = {
                "setup_s": statistics.median(setups),
                "ops_per_s": ok_ops / sum(typical),
                "op_s_p50": statistics.median(typical),
                "op_s_tail": tail_value,
                "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
                "impact_mean": statistics.fmean(impacts) if impacts else 0.0,
            }
            catalogue = END_TO_END

        for name, unit, _ in catalogue:
            self.say(f"metric {name} = {metrics[name]!r} {unit}")
        record = {
            "workload": wl.name, "seed": self.seed, "trace": int(self.trace), "env": env,
            "src_lines": src_lines, "passes": len(passes),
            "highs_ms_per_milp": 1000 * statistics.fmean(highs) if highs else None,
            "ops": verdicts, "metrics": metrics,
        }
        with open(self.out_dir / f"{wl.name}-seed{self.seed}-trace{int(self.trace)}.json", "w") as fh:
            json.dump(record, fh, indent=1, default=str)
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in catalogue},
        }

    def _counter_drift(self, metrics: dict, code_key: str) -> int:
        """Compare the exact work counters with the last traced run of the
        same workload on the same sources and pool; returns how many differ."""
        path = self.out_dir / "counters.json"
        try:
            saved = json.loads(path.read_text())
        except (OSError, ValueError):
            saved = {}
        current = {name: metrics[name] for name in EXACT_COUNTERS}
        previous = saved.get(self.wl.name)
        drift = 0
        if previous and previous.get("code") == code_key:
            drift = sum(previous["counters"][k] != v for k, v in current.items())
            if drift:
                self.say(f"NONDETERMINISM: work counters {previous['counters']} -> {current} on the same sources and pool")
            else:
                self.say("work counters repeat exactly: " + json.dumps(current))
        else:
            self.say("work counters (first traced run on these sources and pool): " + json.dumps(current))
        saved[self.wl.name] = {"code": code_key, "counters": current}
        path.write_text(json.dumps(saved, indent=1) + "\n")
        return drift

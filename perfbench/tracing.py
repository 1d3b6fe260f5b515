"""Span tracing of resguard from outside the package.

``Tracer.install`` wraps the public functions listed in ``TRACED`` in every
loaded ``resguard`` module that holds them.  A wrapper only sees calls that
look the name up where it patched it, so each function is replaced wherever
``from .x import y`` rebound it (``attack.solve_milp``, ``defense.run_attack``
...) and in ``cli.COMMANDS``.  Spans stay in memory as
``[name, start, end, parent, op_id, info]`` lists and are aggregated or written
out after the traced section; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# Span name -> (module, attribute).  The CLI stages are named after the
# command they implement.
TRACED = {
    "plant.simulate": ("plant", "simulate"),
    "plant.save_csv": ("plant", "save_csv"),
    "plant.load_csv": ("plant", "load_csv"),
    "models.fit_linear": ("models", "fit_linear"),
    "models.fit_nn": ("models", "fit_nn"),
    "models.taylor_linearize": ("models", "taylor_linearize"),
    "models.predict_batch": ("models", "predict_batch"),
    "detector.train_bank": ("detector", "train_bank"),
    "detector.fp_curve": ("detector", "fp_curve"),
    "detector.calibrate_baseline": ("detector", "calibrate_baseline"),
    "detector.residuals": ("detector", "residuals"),
    "lp_milp.solve_lp": ("lp_milp", "solve_lp"),
    "lp_milp.solve_milp": ("lp_milp", "solve_milp"),
    "attack.run_attack": ("attack", "run_attack"),
    "attack.build_attack_milp": ("attack", "build_attack_milp"),
    "defense.impact": ("defense", "impact"),
    "defense.resilient_thresholds": ("defense", "resilient_thresholds"),
    "cli.simulate": ("cli", "cmd_simulate"),
    "cli.train": ("cli", "cmd_train"),
    "cli.calibrate": ("cli", "cmd_calibrate"),
    "cli.attack": ("cli", "cmd_attack"),
    "cli.defend": ("cli", "cmd_defend"),
    "cli.report": ("cli", "cmd_report"),
}


def _milp_info(sol):
    return {"nodes": int(sol.nodes_explored), "optimal": sol.status.value == "optimal"}


def _defense_info(outcome):
    candidates = [rec for rec in outcome.history if rec["iteration"] >= 1]
    return {"candidates": len(candidates), "accepted": sum(bool(rec["accepted"]) for rec in candidates)}


# Spans whose return value carries a work counter.
INSPECT = {
    "lp_milp.solve_milp": _milp_info,
    "defense.resilient_thresholds": _defense_info,
}


def _resguard_modules():
    return [mod for name, mod in sorted(sys.modules.items()) if name == "resguard" or name.startswith("resguard.")]


class Tracer:
    """Records nested spans around the functions in ``TRACED``."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (container, key, original, is_dict)

    def _wrap(self, name, fn):
        spans, stack, inspect = self.spans, self._stack, INSPECT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if inspect is not None:
                span[5] = inspect(result)
            return result

        wrapper.perfbench_span = name
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _resguard_modules()
        by_name = {mod.__name__: mod for mod in modules}
        for span_name, (mod_name, attr) in TRACED.items():
            original = getattr(by_name[f"resguard.{mod_name}"], attr)
            wrapper = self._wrap(span_name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original, False))
                        setattr(mod, key, wrapper)
                commands = vars(mod).get("COMMANDS")
                if isinstance(commands, dict):
                    for key, value in list(commands.items()):
                        if value is original:
                            self._patched.append((commands, key, original, True))
                            commands[key] = wrapper

    def uninstall(self) -> None:
        for container, key, original, is_dict in reversed(self._patched):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)
        self._patched.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op_id, info in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "op": op_id}
                if info is not None:
                    rec["info"] = info
                fh.write(json.dumps(rec) + "\n")


def all_restored() -> bool:
    """True when no resguard module or command table still holds a wrapper."""
    for mod in _resguard_modules():
        values = list(vars(mod).values())
        commands = vars(mod).get("COMMANDS")
        if isinstance(commands, dict):
            values += list(commands.values())
        if any(hasattr(value, "perfbench_span") for value in values):
            return False
    return True


def summarize(spans, op_id=None) -> dict:
    """Per span name: calls, busy seconds (outermost spans only) and self seconds,
    over the spans of ``op_id`` (all spans when None).

    Self time is a span's duration minus the durations of its direct
    children, so the self times of all spans add up to the time covered by
    the top-level spans.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent, span_op, _) in enumerate(spans):
        if op_id is not None and span_op != op_id:
            continue
        dur = end - start
        agg = out[name]
        agg["calls"] += 1
        agg["self_s"] += dur - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            agg["s"] += dur
    return dict(out)


def descendants_of(spans, ancestor_name: str, name: str) -> int:
    """Number of ``name`` spans that run inside an ``ancestor_name`` span."""
    count = 0
    for span in spans:
        if span[0] != name:
            continue
        p = span[3]
        while p >= 0:
            if spans[p][0] == ancestor_name:
                count += 1
                break
            p = spans[p][3]
    return count

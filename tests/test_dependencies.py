"""numpy is resguard's only runtime dependency: attacks run with scipy
unimportable.  The package holds only the tool: its test oracles live in
``tests/``."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_SCRIPT = r"""
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())

from resguard.attack import default_alg1_config, instance_from_dataset, run_attack
from resguard.detector import calibrate_baseline, fp_curve, train_bank
from resguard.models import TrainConfig
from resguard.plant import Nonlinearity, desk_config, simulate, split_sequential

for family, cfg in [
    ("linear", desk_config(seed=7)),
    ("neural", desk_config(seed=7, nonlinearity=Nonlinearity.TANH, nonlinear_channels=(0,))),
]:
    train, test = split_sequential(simulate(cfg, 600), 0.8)
    bank = train_bank(train, family=family, train_cfg=TrainConfig(epochs=200, seed=7))
    tau = calibrate_baseline(fp_curve(bank, train), 100.0, len(bank.detector_set))
    inst = instance_from_dataset(train, test.values[1], budget=1)
    result = run_attack(bank, tau, inst, default_alg1_config(train))
    assert result.feasible and result.n_attacked <= 1, family
    print(family, result.solver_status, result.objective)
assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
"""


def _run(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)


def test_attacks_run_without_scipy():
    proc = _run(_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[:2] for line in proc.stdout.splitlines()] == [["linear", "optimal"], ["neural", "optimal"]]


def test_package_loads_only_the_tool():
    proc = _run(
        "import sys, resguard\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('resguard.'))))\n"
        "print(' '.join(a for a in dir(resguard) if a.startswith(('oracle_', 'mis_', 'Graph'))))"
    )
    assert proc.returncode == 0, proc.stderr
    loaded, oracle_names = proc.stdout.splitlines()
    modules = ("attack", "defense", "detector", "lp_milp", "models", "plant")
    assert loaded.split() == [f"resguard.{m}" for m in modules]
    assert oracle_names == ""

"""resguard benchmark: certified attack throughput, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-linear-attack --seed 7 --seconds 44 --trace 0

Prints one ``metric <name> = <value> <unit>`` line per metric, the
environment, reference values and any failed op, then one JSON object as the
last line: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  Run
records and spans go to ``perfbench/out/``.  Exits 2 without a result when
the checkout holds no ``src/resguard``.
"""

import os

# Before numpy loads: OpenBLAS would otherwise start one thread per core.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child-pass", type=int, help=argparse.SUPPRESS)  # one untraced pass, as a child
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "resguard" / "__init__.py").is_file():
        print(f"no resguard sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    start = time.perf_counter()
    import resguard  # noqa: F401  (timed: part of set-up)

    import_s = time.perf_counter() - start
    if Path(resguard.__file__).resolve().parent != ROOT / "src" / "resguard":
        print(f"imported resguard from {resguard.__file__}, not from this checkout", file=sys.stderr)
        return 2

    from perfbench.harness import Run, child_pass
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if args.child_pass is not None:
        print(json.dumps(child_pass(WORKLOADS[args.workload], args.seed, args.child_pass, OUT_DIR, import_s)))
        return 0
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT, OUT_DIR)
    result = run.execute()
    for line in run.lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

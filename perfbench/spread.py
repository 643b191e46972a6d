"""Run one workload over several seeds and print each metric's spread.

From the root of a checkout::

    python3 perfbench/spread.py --workload train --seeds 1 2 3 4 5

Runs ``BENCHMARK.json``'s command once per seed, one after another, and
prints for every end-to-end metric its median and the distance between
its first and third quartile as a share of the median, beside the
metric's bound.  Exits 1 if any spread but ``setup_s``'s exceeds its
bound (the benchmark's acceptance rule).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from bench_stats import median, quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace):
    """One benchmark run's result object (its last stdout line)."""
    proc = subprocess.run(
        command
        + [
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        result = run_once(bench["command"], args.workload, seed, args.seconds, 0)
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} checks failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(
            f"seed {seed}: "
            + "  ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True,
        )
    ok = True
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        spread = quartile_spread(values[name])
        steady = spread <= bound / 3
        if spread > bound and name != "setup_s":
            ok = False
        print(
            f"{name:<26} median {median(values[name]):>12.4f} {metric['unit']:<5} "
            f"spread {spread:.4f}  bound {bound}  "
            f"{'steady' if steady else 'NOT below bound/3'}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

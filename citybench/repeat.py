"""Run a workload k times with consecutive seeds and summarise each metric.

    python3 citybench/repeat.py --workload city-pace --runs 10 --first-seed 1 --seconds 30
    python3 citybench/repeat.py --workload all --runs 1     # every workload once

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, plus the share of failed operations in each run.  Runs are
sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


WORKLOADS = ("city-pace", "city-edge", "cli-cold")


def repeat(workload: str, args) -> bool:
    """Run one workload ``args.runs`` times and print its summary; False if a run failed."""
    print(f"== {workload}")
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return False
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        shares.append(result["failed"] / result["attempted"])
        skipped = next((line for line in lines if line.startswith("queries:")), "")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} ({skipped}) " + " ".join(
                  f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print(f"failed share per run: {sorted(set(shares))}")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/median':>10}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:10.3f}  {units[name]}")
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return 0 if all(repeat(w, args) for w in workloads) else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness check: runs every workload repeatedly and prints the spread.

    python3 perfbench/steady.py [--runs 10]

Each pass runs every workload once through run.py for BENCHMARK.json's
run_seconds, with seed 1 on the first pass, 2 on the second, and so on; the
workload order alternates between passes (forward, then reversed), so slow
drift of the host does not always land on the same workload. For each
end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median, and the bound
this spread supports: three times the spread, at most 0.25. The bounds in
BENCHMARK.json and the reference figures in README.md come from this output.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
BENCHMARK = HERE.parent / "BENCHMARK.json"
MAX_BOUND = 0.25


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs failed their checks")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    bench = json.loads(BENCHMARK.read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    values = {w: {} for w in workloads}
    units = {}
    failed_share = {w: set() for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = i + 1
            result = run_once(w, seed, seconds)
            failed_share[w].add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"pass {i + 1}/{args.runs} {w} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)

    for w in workloads:
        print(f"\n{w}  ({args.runs} runs, {seconds} s each, failed share "
              f"{sorted(failed_share[w])})")
        print(f"  {'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vs in values[w].items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:28} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}"
                  f" {min(MAX_BOUND, 3 * spread):6.3f}  {units[name]}")


if __name__ == "__main__":
    main()

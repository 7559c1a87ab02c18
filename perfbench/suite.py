"""Run every workload and report each metric with its spread.

    python3 perfbench/suite.py                 # one run per workload
    python3 perfbench/suite.py --runs 10       # steadiness: ten seeds each
    python3 perfbench/suite.py --trace         # per-layer figures instead

Run from the repository root.  Each run is a fresh `perfbench/run.py`
process with its own seed (first seed, first seed + 1, ...).  For every
workload it prints the operations attempted and failed, whether every
output checked out, and per metric the median; with two runs or more also
the quartiles and the spread, (q3 - q1) / median, next to the metric's
bound from BENCHMARK.json.  Exit status is 1 when a run fails or reports
wrong output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    command = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(name, results, metrics):
    print(f"\n== {name}: {len(results)} runs")
    print(
        "attempted per run: " + " ".join(str(r["attempted"]) for r in results)
        + "\nfailed per run:    " + " ".join(str(r["failed"]) for r in results)
        + f"\ncorrect: {all(r['correct'] for r in results)}"
    )
    header = f"{'metric':34} {'unit':6} {'median':>12}"
    if len(results) > 1:
        header += f" {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'ratio':>6}"
    print(header)
    for metric in metrics:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        line = f"{metric['name']:34} {metric['unit']:6} {statistics.median(values):12.6g}"
        if len(results) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else float("nan")
            line += f" {q1:12.6g} {q3:12.6g} {spread:8.4f}"
            if "bound" in metric:
                line += f" {metric['bound']:6.2f} {spread / metric['bound']:6.2f}"
        print(line)


def main(argv=None):
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    ok = True
    for name in args.workload or names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(name, seed, spec["run_seconds"], args.trace)
            if result is None:
                print(f"{name} seed {seed}: run failed", file=sys.stderr)
                ok = False
                continue
            ok = ok and result["correct"]
            results.append(result)
        if results:
            summarize(name, results, metrics)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

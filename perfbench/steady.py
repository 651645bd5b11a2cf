#!/usr/bin/env python3
"""Steadiness check: runs every workload of BENCHMARK.json N times, each
with another seed, and prints per workload and metric the median and
quartiles with units, the interquartile spread as a share of the median,
and the metric's bound.

    python3 perfbench/steady.py [--runs 10] [--seed-base 0]

Run it from the repository root. Quartiles are Python's
statistics.quantiles(values, n=4). A run that fails or reports an
incorrect output, or a spread above its bound, makes the exit code 1; a
spread above a third of its bound is flagged as noisy. A failed run is
reported and left out of the figures.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    # The benchmark contract builds into .bench_build.
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900,
                          env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        print(f"{workload} seed {seed}: FAILED, exit {proc.returncode}")
        return None, {}
    result = json.loads(lines[-1])
    details = json.loads(lines[-2])["details"] if len(lines) > 1 else {}
    return result, details


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    unsteady = False
    walls = []
    for name in names:
        runs = []
        for i in range(args.runs):
            seed = args.seed_base + i
            started = time.monotonic()
            result, details = run_once(bench["command"], name, seed,
                                       bench["run_seconds"])
            walls.append(time.monotonic() - started)
            if result is None:
                unsteady = True
                continue
            if not result["correct"]:
                print(f"{name} seed {seed}: incorrect: {details.get('problems')}")
                unsteady = True
            runs.append(result["metrics"])
            print(f"  {name} seed {seed} done", file=sys.stderr, flush=True)
        if not runs:
            continue
        print(f"\n{name} ({len(runs)} runs, seeds {args.seed_base}.."
              f"{args.seed_base + args.runs - 1})")
        print(f"  {'metric':28} {'unit':6} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6}")
        for metric, first in runs[0].items():
            values = [r[metric]["value"] for r in runs]
            unit = first["unit"]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag = "OVER BOUND"
                    unsteady = True
                elif spread > bound / 3:
                    flag = "noisy"
            bound_text = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {metric:28} {unit:6} {median:12.4f} {q1:12.4f} "
                  f"{q3:12.4f} {spread:8.4f} {bound_text:>6} {flag}")
    if walls:
        # A full acceptance pass makes 4 + 22 x workloads runs.
        total = (4 + 22 * len(bench["workloads"])) * statistics.mean(walls)
        print(f"\nrun wall: mean {statistics.mean(walls):.1f} s, "
              f"max {max(walls):.1f} s; full pass ~{total:.0f} s "
              f"plus two builds")
    sys.exit(1 if unsteady else 0)


if __name__ == "__main__":
    main()

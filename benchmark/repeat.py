#!/usr/bin/env python3
"""Repeatability check: two sets of N runs of every workload on this tree.

    python3 benchmark/repeat.py [N] [workload ...]

Runs the command in BENCHMARK.json the way the driver does (a fresh
process per run, another --seed each time), N runs per set (default 5),
and prints for each end-to-end metric of each workload the median, the
quartiles, the spread (interquartile distance over the median, the
driver's statistic) and the largest pairwise distance over the median.
Exits 1 when a spread exceeds the metric's bound, or when the second
set's median is worse than the first's by more than the bound: a metric
that fails here cannot resolve a regression of that size.
"""

import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int) -> dict:
    command = MANIFEST["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(MANIFEST["run_seconds"]), "--trace", "0",
    ]  # fmt: skip
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0:
        sys.exit("\n".join(lines[-12:] + [f"{workload} seed {seed}: exit code {done.returncode}"]))
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median, (max(values) - min(values)) / median


def main() -> int:
    args = sys.argv[1:]
    runs = int(args.pop(0)) if args and args[0].isdigit() else 5
    workloads = args or [w["name"] for w in MANIFEST["workloads"]]
    bad = 0
    for workload in workloads:
        sets = [
            [run(workload, 1 + which * runs + i) for i in range(runs)]
            for which in range(2)
        ]
        print(f"\n{workload}: 2 sets of {runs} runs")
        print(f"  {'metric':<24}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'max pair':>10}")
        for metric in MANIFEST["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for which, results in enumerate(sets):
                median, q1, q3, spread, pairwise = summary([r[name] for r in results])
                medians.append(median)
                flag = ""
                if spread > bound and name != "setup_s":
                    flag, bad = f"  spread > bound {bound}", bad + 1
                print(f"  {name:<24}{which + 1:>4}{median:>14.4f}{q1:>14.4f}{q3:>14.4f}"
                      f"{spread:>9.2%}{pairwise:>10.2%}{flag}")
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            if worse > bound:
                bad += 1
                print(f"  {name}: second median worse than the first by {worse:.2%} > bound {bound}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

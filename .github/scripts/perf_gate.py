#!/usr/bin/env python3
"""Usage: perf_gate.py BASE_TREE HEAD_TREE (two source checkouts).

Per BENCHMARK.json workload: PAIRS pairs of 2 s seed-42 cimbench runs, in
alternating order.  Fails when head's median wall_s or peak_rss_mb exceeds
base's by more than BOUND, or a head run is incorrect or fails requests.
Skips when cimbench/ or BENCHMARK.json differ: the benchmark re-baselines.
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 5
BOUND = 0.15
GATED = ("wall_s", "peak_rss_mb")


def run(tree, workload):
    # Each tree builds into its own .bench_build; a shared one would thrash.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    out = subprocess.run(
        [sys.executable, os.path.join(tree, "cimbench", "run.py"),
         "--workload", workload, "--seed", "42", "--seconds", "2",
         "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=False)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), deciles[0], deciles[-1]


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: perf_gate.py BASE_TREE HEAD_TREE")
    base, head = (os.path.abspath(tree) for tree in sys.argv[1:])
    for path in ("cimbench", "BENCHMARK.json"):
        if subprocess.run(["git", "diff", "--no-index", "--quiet", "--",
                           os.path.join(base, path),
                           os.path.join(head, path)]).returncode != 0:
            print(f"perf_gate: {path} differs, so the benchmark re-baselines;"
                  " skipped")
            return 0
    with open(os.path.join(head, "BENCHMARK.json"), encoding="utf-8") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failures = []
    for workload in workloads:
        samples = {side: {m: [] for m in GATED} for side in ("base", "head")}
        for pair in range(PAIRS):
            for side in ("base", "head")[::1 if pair % 2 == 0 else -1]:
                result = run(base if side == "base" else head, workload)
                for m in GATED:
                    samples[side][m].append(result["metrics"][m]["value"])
                if side == "head" and (not result["correct"] or
                                       result["failed"] > 0):
                    failures.append(f"{workload}: head run {pair + 1} has "
                                    f"correct={result['correct']} "
                                    f"failed={result['failed']}")
        for m in GATED:
            (b, b10, b90), (h, h10, h90) = (spread(samples[side][m])
                                            for side in ("base", "head"))
            print(f"{workload} {m}: base median {b:.4g} (p10 {b10:.4g}, p90 "
                  f"{b90:.4g}), head median {h:.4g} (p10 {h10:.4g}, p90 "
                  f"{h90:.4g}), head/base {h / b:.3f}", flush=True)
            if h > (1 + BOUND) * b:
                failures.append(f"{workload}: head {m} median is "
                                f"{h / b:.3f}x base's (bound {1 + BOUND}x)")
    for failure in failures:
        print(f"perf_gate: FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

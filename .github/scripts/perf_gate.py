#!/usr/bin/env python3
"""Usage: perf_gate.py BASE_TREE HEAD_TREE (two source checkouts).

Per BENCHMARK.json workload: PAIRS pairs of 2 s seed-42 cimbench runs, in
alternating order.  Gates every BENCHMARK.json end-to-end metric in its
`better` direction: fails when head's median is worse than base's by more
than min(MAX_BOUND, the metric's own bound), or a head run is incorrect or
fails requests.  Each metric's line also counts the pairs head won (better
than its pair's base run; ties count for neither side).  A run that prints
no result, a base run that is incorrect, or a run that lacks a gated
metric stops the gate with one FAIL line: there is nothing sound to
compare against.  Skips when cimbench/ or BENCHMARK.json differ: the
benchmark re-baselines.

After the gate, one traced 2 s run per tree per workload prints the
per-layer rows in LAYER_ROWS side by side, so a moved median shows which
layer moved.  These rows are not gated: one traced run cannot resolve a
few-percent change.
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 10
MAX_BOUND = 0.15
LAYER_ROWS = ("engine.ns_per_step", "cluster.ns_per_step",
              "scheduler.next_step_ns", "step_cost.miss_share")


def stop(message):
    sys.exit(f"perf_gate: FAIL {message}")


def run(tree, workload, trace=0):
    # Each tree builds into its own .bench_build; a shared one would thrash.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    out = subprocess.run(
        [sys.executable, os.path.join(tree, "cimbench", "run.py"),
         "--workload", workload, "--seed", "42", "--seconds", "2",
         "--trace", str(trace)],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        stop(f"{workload}: {tree} printed no result "
             f"(exit {out.returncode})")


def gated_values(result, gated, side, workload, pair):
    """The gated metrics' values from one run; stops the gate when the
    run cannot be compared."""
    label = f"{workload}: {side} run {pair + 1}"
    if side == "base" and not result.get("correct", False):
        stop(f"{label} is incorrect (correct={result.get('correct')}); "
             "nothing sound to gate against")
    metrics = result.get("metrics", {})
    missing = [name for name, _, _ in gated
               if "value" not in metrics.get(name, {})]
    if missing:
        stop(f"{label} lacks gated metric(s) {', '.join(missing)}")
    return {name: metrics[name]["value"] for name, _, _ in gated}


def head_wins(base_values, head_values, better):
    """Pairs in which head beat its base run; ties count for neither."""
    sign = 1 if better == "lower" else -1
    return sum(1 for b, h in zip(base_values, head_values)
               if sign * (h - b) < 0)


def print_layer_rows(base, head, workloads):
    """One traced run per tree per workload; prints LAYER_ROWS, ungated."""
    for workload in workloads:
        rows = {side: run(tree, workload, trace=1)["metrics"]
                for side, tree in (("base", base), ("head", head))}
        for name in LAYER_ROWS:
            b, h = (rows[side].get(name, {}).get("value")
                    for side in ("base", "head"))
            if b is None or h is None:
                print(f"{workload} {name} (traced, ungated): absent")
                continue
            ratio = f"{h / b:.3f}" if b != 0 else "n/a"
            print(f"{workload} {name} (traced, ungated): base {b:.4g}, "
                  f"head {h:.4g}, head/base {ratio}", flush=True)


def spread(values):
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), deciles[0], deciles[-1]


def worse_by(base, head, better):
    """How much worse head is than base, as a fraction of base (<= 0: not
    worse)."""
    if base == 0:
        return 0.0 if head == base else float("inf")
    change = (head - base) / abs(base)
    return change if better == "lower" else -change


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
        benchmark = json.load(f)
    workloads = [w["name"] for w in benchmark["workloads"]]
    gated = [(m["name"], m["better"], min(MAX_BOUND, m["bound"]))
             for m in benchmark["end_to_end"]]
    failures = []
    for workload in workloads:
        samples = {side: {name: [] for name, _, _ in gated}
                   for side in ("base", "head")}
        for pair in range(PAIRS):
            for side in ("base", "head")[::1 if pair % 2 == 0 else -1]:
                result = run(base if side == "base" else head, workload)
                values = gated_values(result, gated, side, workload, pair)
                for name, _, _ in gated:
                    samples[side][name].append(values[name])
                if side == "head" and (not result["correct"] or
                                       result["failed"] > 0):
                    failures.append(f"{workload}: head run {pair + 1} has "
                                    f"correct={result['correct']} "
                                    f"failed={result['failed']}")
        for name, better, bound in gated:
            (b, b10, b90), (h, h10, h90) = (spread(samples[side][name])
                                            for side in ("base", "head"))
            ratio = h / b if b != 0 else float("nan")
            wins = head_wins(samples["base"][name], samples["head"][name],
                             better)
            print(f"{workload} {name} ({better} is better, bound {bound:g}): "
                  f"base median {b:.4g} (p10 {b10:.4g}, p90 {b90:.4g}), "
                  f"head median {h:.4g} (p10 {h10:.4g}, p90 {h90:.4g}), "
                  f"head/base {ratio:.3f}, head won {wins}/{PAIRS} pairs",
                  flush=True)
            if worse_by(b, h, better) > bound:
                failures.append(f"{workload}: head {name} median is "
                                f"{ratio:.3f}x base's ({better} is better, "
                                f"bound {bound:g})")
    print_layer_rows(base, head, workloads)
    for failure in failures:
        print(f"perf_gate: FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

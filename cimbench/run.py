#!/usr/bin/env python3
"""Builds and runs the cimtpu serving benchmark.

From the repository root:

  python3 cimbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  python3 cimbench/run.py --selftest

The C++ program is built from source into $CARGO_TARGET_DIR/cimbench
(default .bench_build/cimbench) on every call; an up-to-date build is a
no-op.  Build output goes to stderr.  The last line of standard output is
the result object.  See cimbench/README.md for the workloads and metrics.
"""

import fcntl
import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Self-test settings: request counts divided by SELFTEST_SCALE, and the
# held-out seed that later performance claims are re-checked on.
SELFTEST_SCALE = 20
HELD_OUT_SEED = 1009


def fail(message):
    print(f"cimbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; exits 1 if it fails."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}")


def configured_source(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build():
    """Builds the benchmark binary (Release) and returns its path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the cimtpu sources (src/) are missing; cannot build")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "cimbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        source = configured_source(build_dir)
        if source is not None and os.path.realpath(source) != os.path.realpath(BENCH_DIR):
            shutil.rmtree(build_dir, ignore_errors=True)
            os.makedirs(build_dir, exist_ok=True)
            source = None
        if source is None:
            cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            run_logged(cmd, BUILD_TIMEOUT_S)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_logged(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "cimbench")


def run_binary(exe, args, capture=False):
    """Runs the benchmark binary; returns (exit code, stdout or None)."""
    try:
        done = subprocess.run([exe] + args, timeout=RUN_TIMEOUT_S, check=False,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(args)}")
    return done.returncode, done.stdout


def last_json_lines(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def selftest(exe):
    """Reduced-size checks of the benchmark itself; exits 1 on any failure."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    # Every metric is printed with its unit, by both modes, on the held-out
    # seed, and every run passes its own correctness gate.
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", str(HELD_OUT_SEED),
                    "--seconds", "1", "--trace", str(trace),
                    "--scale", str(SELFTEST_SCALE)]
            code, out = run_binary(exe, args, capture=True)
            where = f"{workload} trace={trace}"
            if code != 0:
                problems.append(f"{where}: exit {code}")
                continue
            _, result = last_json_lines(out)
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']}")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected[trace]:
                problems.append(f"{where}: printed {sorted(printed.items())}, "
                                f"expected {sorted(expected[trace].items())}")
            for name, metric in result["metrics"].items():
                if not math.isfinite(metric["value"]):
                    problems.append(f"{where}: {name} is not finite")
    # Both sweep workloads give bit-identical simulated outputs at 1 thread
    # and at min(4, nproc) threads.
    threads = max(1, min(4, os.cpu_count() or 1))
    for workload in ("policy_cluster_grid", "design_sweep"):
        digests = []
        for count in (1, threads):
            code, out = run_binary(exe, [
                "--workload", workload, "--seconds", "1", "--trace", "0",
                "--threads", str(count), "--scale", str(SELFTEST_SCALE)],
                capture=True)
            if code != 0:
                problems.append(f"{workload} threads={count}: exit {code}")
                break
            digests.append(last_json_lines(out)[0]["digest"])
        if len(digests) == 2 and digests[0] != digests[1]:
            problems.append(f"{workload}: digest {digests[0]} at 1 thread, "
                            f"{digests[1]} at {threads} threads")
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print(json.dumps({"selftest": "fail" if problems else "pass",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    argv = sys.argv[1:]
    exe = build()
    if argv == ["--selftest"]:
        return selftest(exe)
    code, _ = run_binary(exe, argv)
    return code


if __name__ == "__main__":
    sys.exit(main())

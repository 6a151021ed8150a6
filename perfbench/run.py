#!/usr/bin/env python3
"""Builds and runs the Panda benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload natural-aix --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (the Panda libraries
from src/ plus panda_perfbench) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs rebuild incrementally. The program's
'#' notes are passed through, and the last stdout line is its JSON
result: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1
its per-layer metrics; this script checks that the names and units
match before passing the result on. The exit code is non-zero on any
build failure, failed collective, mismatching read or determinism
violation.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEADLINE_S = 175  # every run must end within 180 s once built


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds panda_perfbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"Panda sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "panda_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return out / "panda_perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build(build_dir())
    started = time.monotonic()
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail(f"panda_perfbench did not finish within {DEADLINE_S} s")
    lines = run.stdout.splitlines()
    if not lines:
        fail(f"panda_perfbench printed nothing (exit code {run.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last output line is not JSON: " + lines[-1])

    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct"):
        want = expected_metrics(args.trace)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            problems.append("metrics differ from BENCHMARK.json: "
                            f"missing {sorted(set(want) - set(got))}, "
                            f"extra {sorted(set(got) - set(want))}, "
                            "unit mismatches "
                            f"{sorted(k for k in want if k in got and got[k] != want[k])}")
    for problem in problems:
        print(f"# FAILED: {problem}")
    if problems:
        result["correct"] = False
        print(json.dumps(result))
    else:
        print(lines[-1])
    print(f"# benchmark wall time {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    ok = not problems and result.get("correct") and run.returncode == 0
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the FexIoT benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: fed_train, fed_fleet, serve_stream, analyze (see README.md).
The first run configures and builds perfbench/ (and the FexIoT libraries
it links) into .bench_build/perfbench; later runs rebuild incrementally.
The last line of standard output is the result JSON object.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fed_train", "fed_fleet", "serve_stream", "analyze")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def cores():
    return max(1, len(os.sched_getaffinity(0)))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isfile(
        os.path.join(ROOT, "src", "CMakeLists.txt")
    ):
        fail("no FexIoT sources next to perfbench/ (need CMakeLists.txt and src/)")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(
        ["cmake", "--build", out, "-j", str(min(cores(), 8)), "--target", "fexiot_perfbench"]
    )
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries only the result.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out", 1)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 1)
    return os.path.join(out, "fexiot_perfbench")


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("FEXIOT_")}
    # The program sizes both pools (kernel and federated) per workload,
    # unless the caller pins FEXIOT_THREADS.
    if os.environ.get("FEXIOT_THREADS"):
        env["FEXIOT_THREADS"] = os.environ["FEXIOT_THREADS"]
    return env


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (the smoke test)")
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(out, "out")]
    if args.tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        fail(f"{args.workload} exited with code {done.returncode}", 1)


if __name__ == "__main__":
    main()

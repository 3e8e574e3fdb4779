#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload advise|serve_churn|serve_packed \
        --seed N --seconds S --trace 0|1 [--trace-out FILE]

Run it from the root of a checkout. The benchmark binary is built from
source (CMake, Release) into .bench_build/perfbench on first use; later runs
only check that the build is up to date. Journals, the event log and, for traced runs,
the Chrome trace (.bench_build/trace-<workload>.json unless --trace-out says
otherwise) are written under .bench_build. The last line of standard output
is the benchmark's JSON result; build output goes to standard error.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.abspath(".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; returns False on failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not run_quietly(configure):
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    return run_quietly(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                        "--parallel", "4"])


def run_quietly(command):
    """Runs a build step with its output on stderr."""
    try:
        return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {' '.join(command)}: {error}", file=sys.stderr)
        return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["advise", "serve_churn", "serve_packed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(BUILD_ROOT, "run-" + args.workload)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.trace:
        command += ["--trace-out", args.trace_out or
                    os.path.join(BUILD_ROOT, f"trace-{args.workload}.json")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

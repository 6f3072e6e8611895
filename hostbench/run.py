#!/usr/bin/env python3
"""Builds and runs the host-time benchmark of the ColumnSGD simulator.

Run from the repository root:

    python3 hostbench/run.py --workload col-lr-kdd12 --seed 1 --seconds 10 --trace 0

The first call configures and builds hostbench/ (and the library sources
under src/) into .bench_build/hostbench; later calls rebuild incrementally.
Build output goes to stderr. The benchmark's own output goes to stdout, and
its last line is the JSON result. See hostbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "hostbench")
BINARY = os.path.join(BUILD_DIR, "hostbench")
# A run must end well inside three minutes; the build is not counted.
RUN_TIMEOUT_S = 170


def fail(message):
    print("hostbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "api.h")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(min(os.cpu_count() or 1, 4))
    generator = ["-G", "Ninja"] if subprocess.call(
        ["ninja", "--version"], stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL) == 0 else []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("configure failed")
    if subprocess.call(["cmake", "--build", BUILD_DIR, "--target", "hostbench",
                        "-j", jobs], stdout=sys.stderr) != 0:
        fail("build failed")


def git_revision():
    """HEAD of the repository this benchmark sits in, or "unknown" (for
    example in an exported tree, or one nested inside another repository)."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git_rev", git_revision()]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()

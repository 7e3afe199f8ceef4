#!/usr/bin/env python3
"""Builds sfpbench from source and runs one workload.

Run from the repository root:

    python3 sfpbench/run.py --workload serve_steady --seed 1 --seconds 15 --trace 0
    python3 sfpbench/run.py --selftest

The first form builds (CMake, Release, into .bench_build/sfpbench) and
then runs the benchmark binary, whose last line of standard output is
the JSON result. --selftest builds and runs the tests of the
benchmark's statistics helpers. Build failures exit non-zero without
printing a result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "sfpbench")


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("sfpbench: build step failed: %s\n" % " ".join(cmd))
            sys.exit(1)


def main():
    args = sys.argv[1:]
    build()
    if args == ["--selftest"]:
        sys.exit(subprocess.run([os.path.join(BUILD, "sfpbench_stats_test")]).returncode)
    sys.stdout.flush()
    os.execv(os.path.join(BUILD, "sfpbench"), [os.path.join(BUILD, "sfpbench")] + args)


if __name__ == "__main__":
    main()

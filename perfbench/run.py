#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds perfbench/ (which compiles the repository's src/ and
tools/lbpserved.cc) into .bench_build/ at the repository root, then runs
the driver. Build output goes to stderr, so the driver's result line
stays the last line of standard output. Workloads, metrics and the
measurement protocol are described in perfbench/NOTES.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_DIR = os.path.join(ROOT, ".bench_run")

# A benchmark run must end within 180 s; leave room for start and exit.
DRIVER_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def build(targets):
    """Configure, then bring @targets up to date; False on error."""
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", "4", "--target", *targets]]
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as exc:
            print(f"run.py: {' '.join(cmd)}: {exc}", file=sys.stderr)
            return False
        if rc != 0:
            print(f"run.py: build step failed ({rc}): {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def main(argv):
    if argv == ["--self-test"]:
        if not build(["perfbench_tests"]):
            return 1
        return subprocess.run(
            [os.path.join(BUILD, "perfbench_tests")]).returncode

    if not build(["perfbench", "lbpserved"]):
        return 1
    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), *argv,
           "--daemon", os.path.join(BUILD, "lbpserved"),
           "--expected", os.path.join(HERE, "expected_digests.txt"),
           "--work-dir", RUN_DIR]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=DRIVER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: driver exceeded its time limit", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

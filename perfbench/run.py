#!/usr/bin/env python3
"""Build the SpecLens benchmark harness from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload repro-cold --seed 1 --seconds 20 --trace 0

The harness (perfbench/harness) is configured and built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); an
up-to-date build costs about a second.  Build output goes to stderr, so
the last line of stdout is the harness's JSON result.  The exit code is
the harness's, or 1 when the build fails or the run exceeds its time
limit.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("repro-cold", "repro-warm", "serve-warm")
RUN_TIMEOUT_S = 175
BUILD_JOBS = "4"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(out_dir):
    """Configure and build the harness; returns its path or None."""
    tree = os.path.join(out_dir, "perfbench")
    binary = os.path.join(tree, "speclens_perfbench")
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", tree,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", tree, "--target", "speclens_perfbench",
         "-j", BUILD_JOBS],
    ]
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1

    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work", os.path.join(out_dir, "work")]
    sys.stdout.flush()
    # Its own process group, so a timeout also stops the fixture child.
    with subprocess.Popen(command, cwd=ROOT, start_new_session=True) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the e2ebench harness from source and runs one workload.

Usage (from the root of a fadingcr checkout):

    python3 e2ebench/run.py --workload fading-sinr-4096 --seed 1 \
        --seconds 15 --trace 0

The harness and the library are configured as a Release build in
$CARGO_TARGET_DIR (default .bench_build) under the checkout root; the
first run builds, later runs only check that the build is current. The
harness's context lines are forwarded and its last line -- one JSON object
with "correct", "attempted", "failed" and "metrics" -- is the last line
printed here.

Exit code: the harness's (0 = every trial correct), or 1 when the build
or the run fails, without printing a result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("e2ebench/run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench-release")


def run_quiet(cmd, timeout):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail("command failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to e2ebench/; run from "
             "the root of a fadingcr checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", bdir, "--target", "e2ebench", "-j", jobs],
              BUILD_TIMEOUT_S)
    return os.path.join(bdir, "e2ebench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    scratch = os.path.join(bdir, "scratch")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish within %d s" %
             (args.workload, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("workload %s printed nothing (exit %d)" %
             (args.workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
        keys = {"correct", "attempted", "failed", "metrics"}
        if set(result) != keys:
            raise ValueError("unexpected keys %s" % sorted(result))
    except ValueError as e:
        sys.stdout.write(proc.stdout)
        fail("last line is not a result object: %s" % e)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

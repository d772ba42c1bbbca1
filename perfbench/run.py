#!/usr/bin/env python3
"""Builds the st2bench driver from source and runs one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload run-all-cold --seed 1 --seconds 10 --trace 0

The driver is configured once into .bench_build/perfbench (Release) and
rebuilt incrementally on every call; build output goes to stderr, so the
last stdout line is the driver's JSON result. --test builds and runs the
benchmark's own statistics tests instead. See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["run-all-cold", "dse-lattice"]


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no simulator sources at src/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "build.ninja")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "3", "--target"] + targets,
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="store the observed result digests instead of checking them")
    ap.add_argument("--test", action="store_true",
                    help="build and run the statistics tests")
    args = ap.parse_args()
    try:
        if args.test:
            build(["st2bench_stats_test"])
            return subprocess.run(["ctest", "--test-dir", BUILD,
                                   "--output-on-failure"]).returncode
        if args.workload is None:
            ap.error("--workload is required")
        build(["st2bench"])
    except subprocess.CalledProcessError as e:
        sys.exit("perfbench: build failed: %s" % e)
    cmd = [os.path.join(BUILD, "st2bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digests", os.path.join(HERE, "digests.tsv"),
           "--out", os.path.join(ROOT, ".bench_build", "out")]
    if args.record_digests:
        cmd.append("--record-digests")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

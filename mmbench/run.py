#!/usr/bin/env python3
"""Build and run the end-to-end MMLab benchmark.

Usage (from the repository root):

    python3 mmbench/run.py --workload crawl_build|store_query|drive_campaign|all \
        --seed N --seconds S --trace 0|1

The first run configures and builds mmbench/ (a Release build of the
repository's libraries plus the mmbench program) under .bench_build/; later
runs only re-check the build.  The program's output passes through; its last
line is the JSON result.  `--workload all` runs the three workloads one after another and
ends with one JSON object whose metric names are prefixed by the workload.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["crawl_build", "store_query", "drive_campaign"]


def build(build_dir):
    """Configure (once) and build mmbench; returns the binary path."""
    log = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log, "w") as out:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=out, stderr=subprocess.STDOUT, check=True)
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "mmbench", "-j4"],
            stdout=out, stderr=subprocess.STDOUT, check=True)
    return os.path.join(build_dir, "mmbench")


def run_one(binary, workload, args, work_dir):
    """Run one workload; returns the parsed result of its last line."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    if proc.returncode != 0 or not lines:
        sys.exit("mmbench exited with %d" % proc.returncode)
    return lines[-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "mmbench")
    work_dir = os.path.join(root, ".bench_build", "work")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit("mmbench build failed (%s); see %s/build.log"
                 % (err, build_dir))

    if args.workload != "all":
        line, _ = run_one(binary, args.workload, args, work_dir)
        print(line)
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        _, result = run_one(binary, workload, args, work_dir)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()

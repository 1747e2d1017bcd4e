#!/usr/bin/env python3
"""Build and run the whole-grid benchmark from the root of a checkout.

    python3 gridbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds gridbench/ (its own CMake package over the repository's src/ tree)
into $CARGO_TARGET_DIR/gridbench, default .bench_build/gridbench, runs the
benchmark's own tests, then runs one workload. Everything the program prints
is passed through; the last line is one JSON object holding the metrics that
BENCHMARK.json lists for the selected mode (end-to-end with --trace 0,
per-layer with --trace 1).
"""
import argparse
import json
import os
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=1):
    print("gridbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, timeout=timeout)
    if proc.returncode != 0:
        with open(log_path) as log:
            tail = log.read()[-4000:]
        fail("command failed: " + " ".join(cmd) + "\n" + tail)


def build(package_dir, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", package_dir, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   os.path.join(build_dir, "configure.log"), BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", build_dir, "-j", jobs],
               os.path.join(build_dir, "build.log"), BUILD_TIMEOUT_S)
    tests = os.path.join(build_dir, "gridbench_tests")
    if not os.path.isfile(tests):
        fail("the build made no " + tests)
    run_logged([tests], os.path.join(build_dir, "tests.log"), 120)


def git_revision(root):
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    package_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "src", "grid", "grid.hpp")):
        fail("no src/ tree under " + root + "; run from the root of a full checkout", 2)
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: " + str(e), 2)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload " + args.workload + "; one of " + ", ".join(workloads), 2)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(root, target)), "gridbench")
    build(package_dir, build_dir)

    cmd = [os.path.join(build_dir, "gridbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", build_dir,
           "--git-rev", git_revision(root)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace == 1 else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in result["metrics"]:
            fail("metric %s listed in BENCHMARK.json was not reported" % name)
        value = result["metrics"][name]
        if value["unit"] != metric["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, value["unit"], metric["unit"]))
        metrics[name] = value
    print("# run host time %.3f s" % (time.monotonic() - started))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build duo_perfbench (Release) and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds duo_core and the duo_perfbench program under .bench_build/ (configured
once, rebuilt incrementally), generates the workload's inputs from the seed
in a work directory under .bench_build/work/, runs it, and prints the
program's result as the last line of stdout: one JSON object with the keys
correct, attempted, failed and metrics. Build output goes to stderr. The
metric names are checked against BENCHMARK.json: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD, "duo_perfbench")
WORKLOADS = ("uw-stream", "counter-stream", "audit-batch", "stm-tap")
RUN_LIMIT_S = 175  # every run must end within 180 s once built


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "duo_perfbench", "-j",
         str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    work = os.path.join(ROOT, ".bench_build", "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [BINARY, "run", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work", work],
            stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_LIMIT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: duo_perfbench exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    want = declared_metrics(args.trace == 1)
    if set(result["metrics"]) != want:
        print("run.py: metric names differ from BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ want)}", file=sys.stderr)
        return 1
    print(f"run.py: {args.workload} seed {args.seed}: "
          f"{time.monotonic() - started:.1f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

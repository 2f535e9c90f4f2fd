#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <orbital_eval|vmc_graphite|job_service>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds the
library and the benchmark executable (perfbench/CMakeLists.txt) under
.bench_build/; later runs only rebuild what changed.  Build output goes to
stderr.  The executable then runs the workload with its OpenMP threads bound
one per core and prints its report; the last line of stdout is the JSON
result.  The exit code is the executable's (non-zero when a check or guard
failed, or when the build failed).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("orbital_eval", "vmc_graphite", "job_service")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(jobs):
    """Configure (once) and build; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(jobs)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    nproc = os.cpu_count() or 1
    if not build(min(nproc, 4)):
        return 2

    env = dict(os.environ)
    # One OpenMP thread per core, bound to it; the executable pins its own
    # threads and the job queue's workers explicitly.
    env.update({"OMP_NUM_THREADS": str(nproc), "OMP_PROC_BIND": "close",
                "OMP_PLACES": "cores"})
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    sys.stdout.flush()
    with subprocess.Popen(cmd, env=env, cwd=ROOT) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the loopback serving benchmark.

    python3 perfbench/run.py --workload cms_point|cms_bulk|ingest_day \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the repository's libraries from src/ plus the benchmark
binary) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later runs reuse the build. Replica files and reports go under the same
build root. The benchmark's report goes to standard output, ending with
one JSON line: {"correct", "attempted", "failed", "metrics"}.

Exits non-zero without a result line when the sources are missing or do
not build, and non-zero after the result line when a correctness check
failed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", build_dir, "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cms_point", "cms_bulk", "ingest_day"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"repository sources not found under {ROOT}/src")
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    if not build(build_dir):
        log("build failed")
        return 3

    command = [os.path.join(build_dir, "tipsy_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", os.path.join(build_root, "work",
                                         f"{args.workload}-{os.getpid()}"),
               "--outdir", os.path.join(build_root, "reports")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 4
    lines = run.stdout.strip().splitlines()
    if not lines:
        log(f"benchmark printed nothing (exit {run.returncode})")
        return 5
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"last line is not a result (exit {run.returncode})")
        return 5
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("result line has unexpected keys")
        return 5
    print("\n".join(lines), flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

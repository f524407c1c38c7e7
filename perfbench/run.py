#!/usr/bin/env python3
"""Build the perfbench program and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid|ingest|serve --seed N \
        --seconds S --trace 0|1

Configures and builds perfbench/ (Release, the tcgpu libraries from src/)
into .bench_build/ at the checkout root, then replaces itself with the
program. Build output goes to stderr so that the program's JSON result stays
the last line of stdout. Spans of a traced run go to .bench_build/traces/.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: src/ not found next to perfbench/; "
                 "run from a full checkout of the repository")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["grid", "ingest", "serve"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    exe = os.path.join(BUILD, "perfbench")
    sys.stdout.flush()
    os.execv(exe, [exe, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--trace-out", traces])


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds the KBQA performance ladder from this checkout's sources and runs
one workload.

    python3 perfladder/run.py --workload serve_zipf --seed 1 --seconds 20 \
        --trace 0

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfladder (default .bench_build/perfladder); build output
goes to stderr, so the last line on stdout is the benchmark's JSON result.
Traced runs write their spans under the build directory's traces/.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_zipf", "batch_uniform", "live_mixed")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfladder")


def build(out_dir, env):
    """Configures (once) and builds the ladder; returns the binary's path."""
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", out_dir, "--target", "perfladder",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)
    return os.path.join(out_dir, "perfladder")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfladder: the KBQA sources (src/) are not in this checkout")

    out_dir = build_dir()
    os.makedirs(out_dir, exist_ok=True)
    # Compilers and the program keep their temporary files in the checkout.
    tmp_dir = os.path.join(out_dir, "tmp")
    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(tmp_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        binary = build(out_dir, env)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfladder: build failed: {err}")
    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", args.trace,
         "--trace-dir", trace_dir],
        env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the oarbench end-to-end benchmark.

    python3 oarbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Run it from the repository root.  The first call configures and builds the
benchmark (and the library from ../src) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only rebuild what changed.
Every argument is passed on to the oarbench binary (see oarbench/NOTES.md).
Build output goes to stderr, so the last line of stdout is the result JSON.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "oarbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "oarbench")


def main():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "oarbench"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"oarbench: build failed: {e}", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env.pop("OARSMTRL_MODEL", None)  # the benchmark trains its own selector
    cmd = [binary, *sys.argv[1:], "--out-dir", os.path.join(build_dir, "out")]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"oarbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

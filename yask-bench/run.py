#!/usr/bin/env python3
"""yask-bench: builds the benchmark from the checkout's sources, then runs it.

Run from the root of a checkout:

  python3 yask-bench/run.py --workload engine-whynot --seed 1 --seconds 20 --trace 0
  python3 yask-bench/run.py --workload fleet-whynot --seed 1 --seconds 20 --trace 1
  python3 yask-bench/run.py --verify

The build goes to $CARGO_TARGET_DIR/yask-bench (default .bench_build), and
the shard snapshot files and trace files to $CARGO_TARGET_DIR/yask-bench-data.
Build output goes to stderr; the benchmark's result is the last line of
stdout. Exits non-zero, printing no result, when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures once and builds incrementally; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(os.cpu_count() or 1, 4))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "yask_bench")


def main():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(root, "yask-bench"))
    if binary is None:
        print("yask-bench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--verify" not in args:
        args += ["--data-dir", os.path.join(root, "yask-bench-data")]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the repository benchmark described in BENCHMARK.json.

Run from the root of the repository:

    python3 perfbench/run.py --workload imdb_cold --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (the qbe library plus the
qbe_perfbench driver, Release) into $CARGO_TARGET_DIR, or .bench_build when
it is unset; later calls rebuild only what changed. Build output goes to
stderr, so the driver's JSON result stays the last line of stdout. Scratch
files (WALs, compaction snapshots) live in a temporary directory under the
build directory and are removed when the run ends. The exit code is the
driver's; a failed build exits 1 without printing a result.
"""

import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
# Leaves room under the driver's 180-second limit for a no-op rebuild.
RUN_TIMEOUT_S = 170


def build(build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure += generator
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "qbe_perfbench")
    tmp = tempfile.mkdtemp(prefix="run-", dir=root)
    try:
        proc = subprocess.Popen([binary, *sys.argv[1:], "--tmp", tmp])
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark (see wirebench/README.md).

    python3 wirebench/run.py --workload point_hot --seed 1 --seconds 10 --trace 0

Run from the root of a source tree. The benchmark program is built with CMake into
$CARGO_TARGET_DIR/wirebench (default .bench_build/wirebench) from the tree it
runs in; build output goes to stderr so the last line of stdout stays the
program's JSON result. Exits non-zero, without a result, when the tree has no
sources or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("wirebench: no src/ next to wirebench/; nothing to build",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.call(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr) != 0:
            return False
    return subprocess.call(["cmake", "--build", build_dir, "--target",
                            "wirebench", "-j", "4"], stdout=sys.stderr) == 0


def main():
    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(out_root, "wirebench")
    if not build(build_dir):
        print("wirebench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(build_dir, "wirebench"), "--work-dir", build_dir]
    return subprocess.call(cmd + sys.argv[1:], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())

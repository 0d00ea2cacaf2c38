#!/usr/bin/env python3
"""Build perfbench from source in this checkout, then run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The build (the DiCE library, dice_shard_worker and the perfbench binary, a
Release build through perfbench/CMakeLists.txt) goes to
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; it is
incremental, so only the first run in a checkout compiles. Build output goes
to stderr; the last line of stdout is the binary's JSON result. Exits
non-zero without a result when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)  # retry configure next time
            return False
    step = ["cmake", "--build", build_dir, "-j4", "--target", "perfbench"]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    command = [
        os.path.join(build_dir, "perfbench"),
        *sys.argv[1:],
        "--worker", os.path.join(build_dir, "dice", "dice_shard_worker"),
        "--out", os.path.join(build_dir, "out"),
    ]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())

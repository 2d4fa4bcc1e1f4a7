#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs it.

    python3 servebench/run.py --workload <paper_apps|multi_app> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The library (../src) and the benchmark
binary are built with CMake into $CARGO_TARGET_DIR/servebench/build
(default .bench_build/servebench/build), incrementally after the first run;
build output goes to standard error. The binary's standard output is passed
through unchanged, so its last line is the JSON result. Exits non-zero if
the build or the run fails.
"""
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type
RUN_TIMEOUT_S = 175


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, root) if not os.path.isabs(root) else root


def build(work_dir):
    build_dir = os.path.join(work_dir, "build")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    # One build at a time per build tree.
    with open(os.path.join(work_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
            ["cmake", "--build", build_dir, "--target", "servebench",
             "-j", jobs],
        ]
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                return None
    return os.path.join(build_dir, "servebench")


def main():
    work_dir = os.path.join(build_root(), "servebench")
    os.makedirs(work_dir, exist_ok=True)
    binary = build(work_dir)
    if binary is None:
        print("servebench: build failed", file=sys.stderr)
        return 1
    command = [binary] + sys.argv[1:] + ["--work-dir", work_dir]
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("servebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload study_serial|study_wal|serve_tail \\
        [--seed 42] [--seconds 20] [--trace 0|1]
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
program's libraries from src/ plus the benchmark (Release) into the build
directory: $CARGO_TARGET_DIR if set, else .bench_build. Every call after
that only re-checks the build. Build output, temporary files and the
workloads' WAL/checkpoint files all stay inside that directory.

The benchmark's human-readable lines go to stderr; the last line of stdout
is its JSON result. The exit code is the benchmark's (non-zero, with no
result, when the build or a run fails).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j4"])
    for cmd in steps:
        # The build's own output goes to stderr: stdout carries the result.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return build_dir, env


def main():
    args = sys.argv[1:]
    os.chdir(ROOT)
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir, env = build(build_root)
    if args == ["--selftest"]:
        cmd = [os.path.join(build_dir, "perfbench_selftest"),
               os.path.join(build_root, "work", "selftest")]
    else:
        # The benchmark program parses the workload flags and owns their
        # defaults; it exits non-zero with a usage line on bad ones.
        cmd = [os.path.join(build_dir, "perfbench")] + args + [
            "--workdir", os.path.join(build_root, "work")]
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()

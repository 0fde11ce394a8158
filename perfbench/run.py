#!/usr/bin/env python3
"""Build and run the ExplFrame benchmark (explbench).

Run from the repository root:

    python3 perfbench/run.py --workload handbook --seed 0 --seconds 15 --trace 0

The first run configures and builds the simulator plus explbench in Release
mode under $CARGO_TARGET_DIR (default `.bench_build`); later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is always explbench's JSON result. Exits non-zero, without printing
a result, when the build fails (e.g. when the simulator sources are absent).
"""
import argparse
import os
import subprocess
import sys


def commit_id(root):
    """The checked-out commit, or 'none' unless `root` is a git work tree's
    top level (an enclosing repository's commit would be the wrong one)."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return "none"
    if os.path.realpath(lines[0]) != os.path.realpath(root):
        return "none"
    return lines[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [
        ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "--target", "explbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return 2

    cmd = [os.path.join(build, "explbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--repo", root, "--out", os.path.join(build_root, "out"),
           "--commit", commit_id(root)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

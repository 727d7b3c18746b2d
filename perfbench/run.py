#!/usr/bin/env python3
"""Builds and runs the simulator benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package in release mode (into `$CARGO_TARGET_DIR`,
or `perfbench/target`), then runs one workload (`perfbench run`, which
starts its own set-up probes). The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics`. Any failure
exits non-zero without that line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Per-process limit, well inside the benchmark's own time limit.
CHILD_TIMEOUT_S = 150


def build():
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # Build output goes to stderr so that stdout carries only results.
    done = subprocess.run(cmd, stdout=sys.stderr, timeout=850)
    if done.returncode != 0:
        raise RuntimeError("build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(exe):
        raise RuntimeError(f"no executable at {exe}")
    return exe


def run_child(cmd):
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {done.returncode}")
    return done.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    exe = build()

    lines = run_child([
        exe, "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", os.path.join(HERE, "out"),
    ])
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)

#!/usr/bin/env python3
"""Builds and runs the cocopelia two-clock benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: serve-small-predictive, serve-open-fifo, routine-sweep.

The benchmark is a Rust package of its own (perfbench/Cargo.toml) built in
release mode against the repository's crates, into $CARGO_TARGET_DIR
(default: .bench_build at the repository root). Each invocation runs one
workload in its own process, so its peak resident set is its own. The last
line of standard output is the result object; a failed build or a failed
correctness check exits non-zero without printing one.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("serve-small-predictive", "serve-open-fifo", "routine-sweep")
# A run measures for --seconds and then finishes its untimed passes; this
# bounds the whole process well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]", 2)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    if not os.path.isfile(os.path.join(root, "crates", "runtime", "Cargo.toml")):
        fail(f"no cocopelia crates under {root}: run from a repository checkout", 2)

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
        env["CARGO_TARGET_DIR"] = target
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=root,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    binary = os.path.join(target, "release", "cocopelia-perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
    ]
    try:
        run = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    if run.returncode != 0:
        fail(f"{args.workload} exited with code {run.returncode}")
    lines = run.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the run printed no result object")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["correct"] is not True:
        fail("the run printed a malformed or incorrect result")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()

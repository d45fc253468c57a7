#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

usage: python3 perfbench/run.py --workload <train|compile|serve|decode> \
           --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) with path
dependencies on the repository's crates. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root) and run
from the repository root. Build output goes to standard error, so the last
line of standard output is always the benchmark's result object. The exit
code is the benchmark's: non-zero on a failed build, a failed run or a
correctness mismatch.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for at most 60 s after a few seconds of set-up.
RUN_TIMEOUT_S = 170


def commit() -> str:
    """The checkout's git commit, or "unknown" outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_COMMIT"] = commit()
    exe = os.path.join(target, "release", "lancet-perfbench")
    try:
        run = subprocess.run([exe] + sys.argv[1:], env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

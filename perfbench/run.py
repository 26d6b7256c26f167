#!/usr/bin/env python3
"""Builds the `ikrq` binary and the benchmark from source, then runs one
workload.

    python3 perfbench/run.py --workload koe-mega --seed 42 --seconds 20 --trace 0

Run from the root of a checkout. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`); venue files and traces go to `.perfbench/`. Cargo's output
goes to stderr, so the benchmark's result stays the last line of stdout.
"""

import os
import subprocess
import sys


def cargo_build(args, target):
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", *args],
        check=True,
        stdout=sys.stderr,
        env={**os.environ, "CARGO_TARGET_DIR": target},
    )


def commit(root):
    # The ceiling keeps git from reporting an enclosing repository's commit
    # when the checkout itself is not a repository.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)}
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    root = os.getcwd()
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        cargo_build(["--manifest-path", "Cargo.toml", "-p", "ikrq-cli"], target)
        cargo_build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")], target)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--ikrq",
        os.path.join(release, "ikrq"),
        "--commit",
        commit(root),
    ]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())

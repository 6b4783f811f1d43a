#!/usr/bin/env python3
"""Build and run the presky benchmark.

usage: python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package in release mode (a Cargo workspace of its
own that compiles the repository's crates from source, offline), then runs
one workload. Cargo writes to $CARGO_TARGET_DIR, or to `.bench_build` in the
current directory when it is unset. The last line of standard output is the
JSON result; build output goes to standard error. Traced runs write their
spans to perfbench/traces/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = sys.argv[1:]
    if "--trace-out" not in args:
        args += ["--trace-out", os.path.join(HERE, "traces")]
    # One malloc arena: glibc's per-thread arenas otherwise make the peak
    # resident set of the same run land in one of two modes.
    env["MALLOC_ARENA_MAX"] = "1"
    run = subprocess.run([os.path.join(target, "release", "perfbench")] + args, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

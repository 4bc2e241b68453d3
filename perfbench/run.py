#!/usr/bin/env python3
"""Builds the benchmark from source and runs one measurement.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`); cargo runs
offline. With `--trace 1` the spans of the traced run are written to
`perfbench/out/spans-<workload>.jsonl`. The benchmark's own output is passed
through: its last line is the JSON result. The exit code is non-zero when the
build fails, an output check fails, or the arguments are wrong.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def arg_value(argv, flag):
    for i, a in enumerate(argv[:-1]):
        if a == flag:
            return argv[i + 1]
    return None


def main():
    argv = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    cmd = [os.path.join(target, "release", "perfbench")] + argv
    if arg_value(argv, "--trace") == "1":
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        workload = arg_value(argv, "--workload") or "unknown"
        cmd += ["--spans", os.path.join(out_dir, "spans-%s.jsonl" % workload)]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

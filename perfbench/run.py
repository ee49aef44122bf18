#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload svc-hot --seed 1 --seconds 10 --trace 0

Run from the repository root.  The arguments go to the `ccd-perfbench`
binary unchanged (see perfbench/README.md).  The build uses
`CARGO_TARGET_DIR` when it is set, else `perfbench/target`.  The exit
code is the build's when the build fails, else the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"run.py: building the benchmark failed ({build.returncode})", file=sys.stderr)
        return build.returncode
    binary = os.path.join(target, "release", "ccd-perfbench")
    args = sys.argv[1:]
    if "--trace-dir" not in args:
        args += ["--trace-dir", os.path.join(HERE, "traces")]
    return subprocess.run([binary, *args]).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package in release
mode into $CARGO_TARGET_DIR (default `.bench_build`), then runs one
workload in a child process and waits for it. The child's stdout passes
through; its last line is the JSON result. Exits non-zero, printing no
result, when the build or the run fails.
"""

import os
import subprocess
import sys
from pathlib import Path

# A run must finish well inside three minutes; the build is not timed.
RUN_TIMEOUT_S = 170


def main() -> int:
    here = Path(__file__).resolve().parent
    target = Path(os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(here / "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    try:
        run = subprocess.run([str(target / "release" / "perfbench"), *sys.argv[1:]],
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the `car` binary and the benchmark package, then runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload serve-ingest --seed 1 --seconds 10 --trace 0

Both builds go to $CARGO_TARGET_DIR (default `.bench_build`). Build output
goes to standard error; the benchmark's report goes to standard output and
ends with one JSON line. Logs, daemon data directories and Chrome traces go
to `perfbench/out/`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(args):
    result = subprocess.run(
        ["cargo", "build", "--release", "--quiet", *args],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if result.returncode != 0:
        sys.exit(f"perfbench: `cargo build {' '.join(args)}` failed")


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: run from a checkout of the repository (no Cargo.toml)")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    os.environ["CARGO_TARGET_DIR"] = target
    target = os.path.join(ROOT, target)
    build(["-p", "car-cli", "--bin", "car"])
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    bench = os.path.join(target, "release", "car-perfbench")
    car = os.path.join(target, "release", "car")
    out_dir = os.path.join(HERE, "out")
    cmd = [bench, *sys.argv[1:], "--car", car, "--out-dir", out_dir]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()

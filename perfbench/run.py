#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Per-run records and
span files are written to perfbench/out/. The exit status is non-zero when
the build fails, an output check fails, or the run overruns its time limit.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Everything the benchmark's binary is built from, for the provenance digest.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench/Cargo.toml",
           "perfbench/Cargo.lock", "perfbench/src"]


def source_digest():
    """SHA-256 over the benchmark's build inputs (the checkout has no git)."""
    h = hashlib.sha256()
    for top in SOURCES:
        path = ROOT / top
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def command_output(cmd):
    # The ceiling keeps git from reporting an enclosing repository's rev.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, cwd=ROOT, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = target / "release" / "sketchml-perfbench"
    cmd = [str(binary),
           "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--out", str(HERE / "out"),
           "--rev", command_output(["git", "rev-parse", "HEAD"]),
           "--source", source_digest(),
           "--rustc", command_output(["rustc", "--version"])]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs the benchmark on several seeds and checks run-to-run spread.

    python3 perfbench/spread.py [--workload NAME ...] [--runs 10] [--sets 1]
                                [--first-seed 1] [--margin 1.0]

For each workload and end-to-end metric it takes the distance between the
first and third quartile of the per-run values (statistics.quantiles, n=4)
as a share of their median. Every spread except setup_s's must stay within
`margin` x the metric's bound in BENCHMARK.json. With --sets 2 the runs are
repeated on fresh seeds and each metric's second median may not be worse
than the first by more than its bound. Exits non-zero if a check fails.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
EXEMPT_FROM_SPREAD = "setup_s"


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def spread_ok(name, value, bound, margin):
    """Whether a metric's spread passes; setup_s is exempt."""
    return name == EXEMPT_FROM_SPREAD or value <= bound * margin


def drift(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    worse = (first - second) if better == "higher" else (second - first)
    return max(0.0, worse / abs(first))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output\n{out.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--margin", type=float, default=1.0)
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    ok = True
    for w in workloads:
        sets = []
        seed = args.first_seed
        for _ in range(args.sets):
            runs = []
            for _ in range(args.runs):
                runs.append(run_once(w, seed, args.seconds))
                seed += 1
            sets.append(runs)
        for name, m in metrics.items():
            medians = []
            for i, runs in enumerate(sets):
                values = [r[name] for r in runs]
                s = spread(values)
                good = spread_ok(name, s, m["bound"], args.margin)
                ok &= good
                medians.append(statistics.median(values))
                print(f"{w:<22} {name:<24} set {i + 1} median {medians[-1]:<14.6g} "
                      f"spread {s:7.4f} bound {m['bound']:.3f} {'ok' if good else 'TOO WIDE'}")
            if len(medians) == 2:
                d = drift(medians[0], medians[1], m["better"])
                good = d <= m["bound"]
                ok &= good
                print(f"{w:<22} {name:<24} second median worse by {d:.4f} "
                      f"{'ok' if good else 'OVER BOUND'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

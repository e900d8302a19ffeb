#!/usr/bin/env python3
"""Runs the benchmark's workloads through the stackbench binary and
prints what they measured. Called by run.sh, which builds the binary."""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(binary, workload, seed, seconds, scale, trace):
    """One run; echoes its output and returns the result object."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--scale", str(scale),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout, end="")
        sys.exit(f"{workload}: stackbench exited with {proc.returncode}")
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def spread(values):
    """Quartile distance over the median, as the driver takes it; with
    fewer than four values, the whole range over the median."""
    median = statistics.median(values)
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        return (q[2] - q[0]) / median
    return (max(values) - min(values)) / median


def suite(args, workloads):
    failed = 0
    for w in workloads:
        for trace in (0, 1):
            print(f"\n=== {w} ({'traced' if trace else 'untraced'})")
            r = run_once(args.binary, w, args.seed, args.seconds, args.scale, trace)
            failed += r["failed"] + (not r["correct"])
    if failed:
        sys.exit(f"{failed} operation(s) failed: fail_ratio must be 0")


def repeat(args, workloads):
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    over, failed = [], 0
    rows = []
    for w in workloads:
        runs = []
        for i in range(args.repeat):
            print(f"\n=== {w} (untraced, run {i + 1} of {args.repeat})")
            # A fresh seed each run, as the driver's own check does.
            r = run_once(args.binary, w, args.seed + i, args.seconds, args.scale, 0)
            failed += r["failed"] + (not r["correct"])
            runs.append(r["metrics"])
        for name, bound in bounds.items():
            values = [m[name]["value"] for m in runs]
            s = spread(values)
            rows.append((w, name, values, s, bound))
            # Set-up time is held to its bound between medians, not
            # within one set of runs.
            if s > bound and name != "setup_s":
                over.append((w, name, s, bound))
    print(f"\n{'workload':<18} {'metric':<16} {'spread':>8} {'bound':>6}  values")
    for w, name, values, s, bound in rows:
        shown = " ".join(f"{v:.6g}" for v in values)
        print(f"{w:<18} {name:<16} {s:>8.4f} {bound:>6.2f}  {shown}")
    if failed:
        sys.exit(f"{failed} operation(s) failed: fail_ratio must be 0")
    if over:
        for w, name, s, bound in over:
            print(f"{w} {name}: spread {s:.4f} exceeds bound {bound}")
        sys.exit(1)


def main():
    names = [w["name"] for w in SPEC["workloads"]]
    p = argparse.ArgumentParser(prog="benchmark/run.sh")
    p.add_argument("binary")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seconds", type=float)
    p.add_argument("--workload", choices=names)
    p.add_argument("--repeat", type=int, nargs="?", const=2)
    args = p.parse_args()
    workloads = [args.workload] if args.workload else names
    if args.seconds is None:
        # A scaled-down smoke run measures for a scaled-down time.
        args.seconds = max(0.3, SPEC["run_seconds"] * min(1.0, args.scale))
    if args.repeat:
        repeat(args, workloads)
    else:
        suite(args, workloads)


if __name__ == "__main__":
    main()

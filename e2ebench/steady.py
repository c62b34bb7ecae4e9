#!/usr/bin/env python3
"""Steadiness check: run one workload k times, each with its own seed, and
print per end-to-end metric the median and the quartile spread
((q3 - q1) / median) beside the metric's bound.

    python3 e2ebench/steady.py --workload directions --runs 10 --first-seed 1

Each run is a separate ``run.py`` process, one after another. The raw
results go to ``.e2ebench/steady-<workload>.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import definitions as D

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".e2ebench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(D.WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=D.RUN_SECONDS)
    args = ap.parse_args()

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["seed"] = seed
        runs.append(res)
        vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} {res['failed']}/{res['attempted']} failed  {vals}",
              flush=True)

    OUT.mkdir(exist_ok=True)
    (OUT / f"steady-{args.workload}.json").write_text(json.dumps(runs, indent=1))
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"\n{args.workload}: {len(runs)} runs, failed share(s) {sorted(shares)}, "
          f"all correct: {all(r['correct'] for r in runs)}")
    print(f"{'metric':>16} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
    ok = len(shares) == 1
    for m in D.END_TO_END:
        vals = [r["metrics"][m.name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread <= m.bound / 3 else ("  > bound/3" if spread <= m.bound else "  > BOUND")
        if m.name != "setup_s" and spread > m.bound:
            ok = False
        print(f"{m.name:>16} {med:>11.4f} {q1:>11.4f} {q3:>11.4f} {spread:>7.3f} {m.bound:>6.2f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

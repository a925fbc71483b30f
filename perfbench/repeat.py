#!/usr/bin/env python3
"""Run one workload over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workload NAME --seeds 1-10 [--seconds S] [--trace 0|1] [--json OUT]

Runs run.py once per seed, one run at a time, from the repository root.
For every metric it prints the median, the quartiles (statistics.quantiles
with n=4) and the spread, (q3 - q1) / median.  With --json the summary and
every run's result line and output digest are written to OUT as well.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json")
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]

    runs = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        digest = next((ln.split()[-1] for ln in lines if "output digest" in ln), "")
        runs.append({"seed": seed, "digest": digest, **result})
        values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct {result['correct']}, {result['failed']}/{result['attempted']}"
              f" failed, digest {digest[:12]}, {values}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else None,
        }
        spread = f"{(q3 - q1) / med:.4f}" if med else "n/a"
        print(f"{name:32s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": seconds, "trace": args.trace,
                       "summary": summary, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

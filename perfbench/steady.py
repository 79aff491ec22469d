#!/usr/bin/env python3
"""Steadiness report: run workloads over several seeds and summarize the spread.

    python3 perfbench/steady.py --runs 10 [--workload svc-hot ...] [--json out.json]

For every end-to-end metric of each workload prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` against a third of the metric's bound in
``BENCHMARK.json``, and which query each run's p50 and p90 landed on.
With ``--against earlier.json`` also checks that every median is no worse
than the earlier set's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), [line for line in lines if line.startswith("# ")]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--json", type=Path)
    parser.add_argument("--against", type=Path)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else {}
    report, ok = {}, True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [run_once(workload, seed, args.seconds)
                for seed in range(1, args.runs + 1)]
        rows = {}
        print(f"\n## {workload} ({args.runs} runs)")
        for name, metric in bounds.items():
            values = [r["metrics"][name]["value"] for r, _ in runs]
            row = summarize(values)
            row["values"] = values
            flag = ""
            if row["spread"] > metric["bound"] / 3:
                flag, ok = " SPREAD", False
            before = earlier.get(workload, {}).get(name)
            if before:
                worse = (row["median"] - before["median"]) / before["median"]
                if metric["better"] == "higher":
                    worse = -worse
                if worse > metric["bound"]:
                    flag, ok = flag + f" WORSE {worse:+.3f}", False
            print(f"{name:18s} median {row['median']:12.4f}  q1 {row['q1']:12.4f}  "
                  f"q3 {row['q3']:12.4f}  spread {row['spread']:.4f} "
                  f"(bound/3 {metric['bound'] / 3:.4f}){flag}")
            rows[name] = row
        for p in ("p50", "p90"):
            landed = Counter(
                line.split(f"{p}=")[1].split(" on ")[1].split(" | ")[0].split(" ", 1)[1]
                for _, desc in runs for line in desc if f"{p}=" in line
            )
            print(f"{p} lands on: " + "; ".join(f"{k} x{v}" for k, v in landed.most_common()))
        report[workload] = rows
    if args.json:
        args.json.write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

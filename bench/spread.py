"""Run one workload over several seeds and report each metric's median and spread.

    python3 bench/spread.py --workload verify --seeds 1-10 [--seconds 30] [--trace 0]

The spread is the inter-quartile distance over the median, the figure the
bounds in BENCHMARK.json are set against. Runs are sequential, one process
at a time, so they do not disturb each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import spread

BENCH = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    ok = True
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH.parent)
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}: {proc.stderr.strip()}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {shown}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vs in values.items():
        median = statistics.median(vs)
        shown = f"{spread(vs):.4f}" if len(vs) > 1 and median else "n/a"
        print(f"{name}: median {median:.6g} spread {shown}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

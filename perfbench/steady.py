"""Steadiness command: run one workload k times, one seed each, and
print the median and quartiles of every end-to-end metric.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload sweep --runs 10 --seconds 12

Runs ``perfbench/run.py --trace 0`` once per seed (``--first-seed``,
``--first-seed + 1``, ...), one run at a time, and prints per metric the
median, the first and third quartiles (``statistics.quantiles(values,
n=4)``) and the spread ``(q3 - q1) / median``, then the share of failed
operations of every run and the median and largest wall time of a run.
The spreads are what the bounds in ``BENCHMARK.json`` were set from; see
``README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/steady.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    values: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    shares = []
    walls = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(args.seconds), "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=900, check=False)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: run.py exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(float(metric["value"]))
            units[name] = metric["unit"]
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"wall={walls[-1]:.1f}s", file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs of {args.seconds:g} s, "
          f"seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
    print(f"{'metric':38s} {'unit':>9s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s}")
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": spread, "values": vals}
        print(f"{name:38s} {units[name]:>9s} {med:12.5g} {q1:12.5g} "
              f"{q3:12.5g} {spread:8.3f}")
    print(f"failed share per run: {sorted(set(shares))}")
    print(f"wall time per run: median {statistics.median(walls):.1f} s, "
          f"max {max(walls):.1f} s")
    print(json.dumps({"workload": args.workload, "seconds": args.seconds,
                      "metrics": summary, "failed_shares": shares,
                      "wall_s": walls}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

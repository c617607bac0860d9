"""Whole-program benchmark of the mining-game serving stack.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload online --seed 1 --seconds 15 \
        --trace 0

Runs one workload (``online``, ``sweep``, ``stackelberg`` or
``population``) in this process on inputs generated from ``--seed``
and prints, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

* ``--trace 0`` measures an untraced run and prints the end-to-end
  metrics.
* ``--trace 1`` runs the workload untraced and then traced on the same
  inputs, and prints the per-layer metrics, including the tracing
  overhead. ``--trace-file PATH`` also writes every span as JSON lines.

The oracle (``oracle.py``) checks every distinct answer after timing;
a wrong answer counts as a failed operation and makes ``correct``
false, except on a kept-fault operation (a fault of the program that
fails every time), which counts only as failed. Exit codes: 0 ok, 2 the
program cannot be imported, 3 a hygiene check failed (see
``hygiene.py``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

sys.dont_write_bytecode = True
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hygiene  # noqa: E402  (standard library only)

#: Every end-to-end metric an untraced run prints: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("solve_latency_p50_ms", "ms"),
    ("scenarios_per_s", "1/s"),
)

#: Modules whose import counts toward ``setup_s``: every module a
#: workload reaches, including the ones the program imports lazily.
PROGRAM_MODULES = (
    "repro", "repro.service", "repro.serving", "repro.core.gnep",
    "repro.core.stackelberg", "repro.kernels.aggregate",
    "repro.kernels.batched_br", "repro.kernels.multiscenario",
    "repro.kernels.typespace", "repro.population.compress",
)

#: Service/engine builds (plus one warm-up request each) per run; the
#: median enters ``setup_s``.
SETUP_REPEATS = 3

WORKLOAD_NAMES = ("online", "sweep", "stackelberg", "population")

#: Workloads that run on one thread and are pinned to one CPU; ``online``
#: keeps both CPUs for its event loop and solver thread.
PINNED = ("sweep", "stackelberg", "population")


def _import_program() -> float:
    """Import the program from this checkout's ``src``; returns seconds."""
    src = (ROOT / "src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program source under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    elapsed = time.perf_counter() - start
    origin = Path(sys.modules["repro"].__file__ or "").resolve()
    if src not in origin.parents:
        raise ImportError(f"imported repro from {origin}, not {src}")
    return elapsed


def _pin_to_one_cpu() -> None:
    """Keep the process (and the threads it starts) on one CPU: on a
    shared host, timings move far less from run to run than when the
    scheduler migrates the process between CPUs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _setup_once(workload: Any) -> float:
    start = time.perf_counter()
    target = workload.build()
    try:
        workload.warm_up(target)
        return time.perf_counter() - start
    finally:
        workload.close(target)


def _wrong_answers(record: Any) -> Tuple[List[str], int]:
    """Oracle verdicts on one pass: one message per wrong answer, and
    the number of kept-fault answers the oracle rejects (failed
    operations that leave the run correct)."""
    import oracle

    wrong = [f"{record.mismatches} responses differ in bits from an "
             "earlier response for the same key and cache version"
             ] * record.mismatches
    wrong += [m for m in oracle.miner_violations(record.miner_answers)
              if m]
    wrong += [m for m in map(oracle.leader_violation,
                             record.leader_answers) if m]
    wrong += [m for m in (oracle.population_violation(a, bound, slack)
                          for a, bound, slack in record.population_answers)
              if m]
    kept = sum(1 for a in record.kept_answers if oracle.leader_violation(a))
    return wrong, kept


def _end_to_end(record: Any, setup_s: float,
                peak_mb: float) -> Dict[str, float]:
    import numpy as np

    lat = np.asarray(record.latencies, dtype=float)
    solve = np.asarray(record.solve_latencies, dtype=float)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
        "latency_p50_ms": float(np.median(lat)) * 1e3 if lat.size else 0.0,
        "latency_p99_ms": (float(np.quantile(lat, 0.99)) * 1e3
                           if lat.size else 0.0),
        "solve_latency_p50_ms": (float(np.median(solve)) * 1e3
                                 if solve.size else 0.0),
        "scenarios_per_s": (record.answered / record.measured
                            if record.measured > 0 else 0.0),
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", default=None,
                        help="write every span of the traced pass here "
                             "as JSON lines (traced runs only)")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload in PINNED:
        _pin_to_one_cpu()
    before = hygiene.snapshot(ROOT)
    try:
        import_s = _import_program()
    except ImportError as ex:
        print(f"perfbench: cannot import the program: {ex}",
              file=sys.stderr)
        return 2

    from tracing import PER_LAYER, layer_metrics, summary
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    setup_s = import_s + statistics.median(
        _setup_once(workload) for _ in range(SETUP_REPEATS))

    records = [workload.run_pass(args.seed, args.seconds, traced=False)]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        records.append(workload.run_pass(args.seed, args.seconds,
                                         traced=True))

    wrong: List[str] = []
    kept_wrong = 0
    for record in records:
        messages, kept = _wrong_answers(record)
        wrong += messages
        kept_wrong += kept
    for message in wrong[:5]:
        print(f"perfbench: wrong answer: {message}", file=sys.stderr)

    if args.trace:
        untraced, traced = records
        name, base = workload.primary(untraced)
        _, slow = workload.primary(traced)
        overhead = ((base / slow - 1.0) if name == "scenarios_per_s"
                    else (slow / base - 1.0)) * 100.0
        store = traced.tracer.store
        values = layer_metrics(store, warm_entries=traced.warm_entries,
                               late_s=traced.late, overhead_pct=overhead)
        units = dict(PER_LAYER)
        print(summary(store), file=sys.stderr)
        if args.trace_file:
            with open(args.trace_file, "w", encoding="utf-8") as out:
                store.write(out)
    else:
        values = _end_to_end(records[0], setup_s, peak_mb)
        units = dict(END_TO_END)

    bad = hygiene.problems(ROOT, before, [args.trace_file]
                           if args.trace_file else [])
    if bad:
        for message in bad:
            print(f"perfbench: hygiene: {message}", file=sys.stderr)
        return 3
    answered = sum(r.answered for r in records)
    result = {
        "correct": not wrong and answered > 0,
        "attempted": sum(r.attempted for r in records),
        "failed": sum(r.errors for r in records) + len(wrong) + kept_wrong,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: regenerate any paper artifact from the shell.

Usage::

    repro-mining list                 # or: repro-mining --list
    repro-mining fig4
    repro-mining table2 --output table2.json
    repro-mining ext6 --output ext6.csv --quiet
    repro-mining all
    repro-mining serve --grid p_c:0.5:1.3:16 --workers 4 \\
        --cache-dir .repro_cache
    repro-mining metrics --grid p_c:0.8:1.2:8 --format prom
    repro-mining bench --quick --output BENCH_solvers.json
    repro-mining lint src tests --format json
    repro-mining control --check
    repro-mining control --run --scenario retry-storm --events ctrl.jsonl
    repro-mining chaos --with-control
    repro-mining fig4 --trace trace.json
    repro-mining serve-online --port 8765 --ttl 600 --max-inflight 8
    repro-mining loadgen --requests 100000 --seed 7 --output load.json
    repro-mining loadgen --port 8765 --requests 500  # vs a live server

Every subcommand accepts ``--trace PATH``: telemetry is enabled for the
run and the nested span tree is written to PATH as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path
from typing import (Any, Callable, Dict, FrozenSet, Iterator,
                    List, Optional, Sequence, Tuple)

from .analysis import (ablation_dynamic_weights, ablation_gnep_solvers,
                       ablation_transfer_semantics,
                       chaos_control_comparison, chaos_outage_sweep,
                       ext1_rent_dissipation, ext2_fictitious_play,
                       ext3_difficulty_retargeting, ext4_elasticities,
                       ext5_topology_calibration,
                       ext6_edge_competition, ext7_optimal_block_size,
                       ext8_risk_aversion, ext9_private_budgets,
                       fig2_fork_model,
                       fig3_population, fig4_price_sweep, fig5_delay_sweep,
                       fig6_capacity_sweep, fig6_csp_price_crossover,
                       fig7_budget_sweep, fig8_sp_equilibrium,
                       fig9_population_uncertainty, fig9_variance_sweep,
                       table2_closed_forms, welfare_observations)
from .analysis.reporting import save
from .exceptions import ReproError

EXPERIMENTS: Dict[str, Callable[..., Any]] = {
    "fig2": fig2_fork_model,
    "fig3": fig3_population,
    "fig4": fig4_price_sweep,
    "fig5": fig5_delay_sweep,
    "fig6": fig6_capacity_sweep,
    "fig6-cross": fig6_csp_price_crossover,
    "fig7": fig7_budget_sweep,
    "fig8": fig8_sp_equilibrium,
    "fig9a": fig9_population_uncertainty,
    "fig9b": fig9_variance_sweep,
    "table2": table2_closed_forms,
    "welfare": welfare_observations,
    "abl1": ablation_gnep_solvers,
    "abl2": ablation_dynamic_weights,
    "abl3": ablation_transfer_semantics,
    "chaos": chaos_outage_sweep,
    "chaos-control": chaos_control_comparison,
    "ext1": ext1_rent_dissipation,
    "ext2": ext2_fictitious_play,
    "ext3": ext3_difficulty_retargeting,
    "ext4": ext4_elasticities,
    "ext5": ext5_topology_calibration,
    "ext6": ext6_edge_competition,
    "ext7": ext7_optimal_block_size,
    "ext8": ext8_risk_aversion,
    "ext9": ext9_private_budgets,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mining",
        description="Regenerate the evaluation artifacts of 'Hierarchical "
                    "Edge-Cloud Computing for Mobile Blockchain Mining "
                    "Game' (ICDCS 2019).")
    parser.add_argument(
        "experiment", nargs="?", default=None,
        help="experiment id (one of: %s), 'list', 'all', 'report' "
             "(markdown report of the fast experiments; use --ids to "
             "select), 'serve' (batch equilibrium serving; see "
             "'serve --help'), 'serve-online' (asyncio HTTP service; "
             "see 'serve-online --help'), 'loadgen' (seeded load "
             "replay; see 'loadgen --help'), or 'bench' "
             "(solver-kernel benchmark; see 'bench --help')"
             % ", ".join(sorted(EXPERIMENTS)))
    parser.add_argument(
        "--list", action="store_true", dest="list_experiments",
        help="print the available experiment ids and exit")
    parser.add_argument(
        "--ids", default=None, metavar="ID[,ID...]",
        help="comma-separated experiment ids for 'report'")
    parser.add_argument(
        "--output", "-o", default=None, metavar="PATH",
        help="also write the result table to PATH (.json or .csv)")
    parser.add_argument(
        "--quiet", "-q", action="store_true",
        help="suppress the rendered table on stdout")
    parser.add_argument(
        "--with-control", action="store_true",
        help="for 'chaos': run the controlled-vs-baseline comparison "
             "(equivalent to the 'chaos-control' experiment id)")
    _add_trace_flag(parser)
    return parser


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="enable telemetry and write the nested span timing tree "
             "to PATH as JSON")


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mining serve",
        description="Serve a grid of equilibrium scenarios through the "
                    "batch serving engine (cache + warm starts + "
                    "worker pool).")
    parser.add_argument(
        "--grid", default="p_c:0.5:1.3:16", metavar="KNOB:LO:HI:N",
        help="swept knob and range: one of p_c, p_e, beta, e_max, "
             "budget, edge_cost (default: %(default)s)")
    parser.add_argument(
        "--mode", choices=("connected", "standalone"),
        default="connected", help="edge operation mode")
    parser.add_argument(
        "--stackelberg", action="store_true",
        help="serve full leader-stage (Stackelberg) solves instead of "
             "miner-stage equilibria at fixed prices")
    parser.add_argument(
        "--miners", type=int, default=None, metavar="N",
        help="miner count of every grid point (default: the paper "
             "setup's n)")
    parser.add_argument(
        "--n-types", type=int, default=None, metavar="K",
        help="solve in compressed type space with at most K weighted "
             "budget types (certified approximation; default: exact)")
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="process-pool width for cache misses (0/1 = serial)")
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="JSON persistence directory (e.g. .repro_cache); omit "
             "for a memory-only cache")
    parser.add_argument(
        "--no-warm-start", action="store_true",
        help="disable nearest-neighbor warm starts")
    parser.add_argument(
        "--repeat", type=int, default=1, metavar="K",
        help="serve the batch K times (repeats exercise the cache)")
    parser.add_argument(
        "--output", "-o", default=None, metavar="PATH",
        help="write the result table to PATH (.json or .csv)")
    parser.add_argument(
        "--quiet", "-q", action="store_true",
        help="suppress the rendered table on stdout")
    _add_trace_flag(parser)
    return parser


def build_metrics_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mining metrics",
        description="Run a serving grid with telemetry enabled and "
                    "export the collected counters, gauges, and "
                    "histograms.")
    parser.add_argument(
        "--grid", default="p_c:0.5:1.3:16", metavar="KNOB:LO:HI:N",
        help="swept knob and range, as in 'serve' (default: "
             "%(default)s)")
    parser.add_argument(
        "--mode", choices=("connected", "standalone"),
        default="connected", help="edge operation mode")
    parser.add_argument(
        "--stackelberg", action="store_true",
        help="serve full leader-stage solves instead of miner-stage "
             "equilibria")
    parser.add_argument(
        "--miners", type=int, default=None, metavar="N",
        help="miner count of every grid point (default: the paper "
             "setup's n)")
    parser.add_argument(
        "--n-types", type=int, default=None, metavar="K",
        help="solve in compressed type space with at most K weighted "
             "budget types (certified approximation; default: exact)")
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="process-pool width for cache misses (0/1 = serial)")
    parser.add_argument(
        "--repeat", type=int, default=2, metavar="K",
        help="serve the batch K times (default 2: the second pass "
             "exercises the cache counters)")
    parser.add_argument(
        "--format", choices=("json", "prom", "both"), default="both",
        dest="fmt", help="exposition format printed to stdout")
    parser.add_argument(
        "--output", "-o", default=None, metavar="PATH",
        help="also write the exposition to PATH (.json or .prom picked "
             "by --format; 'both' writes PATH.json and PATH.prom)")
    parser.add_argument(
        "--events", default=None, metavar="PATH",
        help="stream structured telemetry events to PATH (JSON lines)")
    _add_trace_flag(parser)
    return parser


def build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mining bench",
        description="Benchmark the solver kernels (scalar / running / "
                    "vectorized) across problem sizes, write the "
                    "perf-trajectory JSON, and flag regressions "
                    "against a baseline report.")
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-smoke preset: sizes (8, 64) and 3 repeats per case")
    parser.add_argument(
        "--sizes", default=None, metavar="N[,N...]",
        help="comma-separated miner counts (overrides the preset)")
    parser.add_argument(
        "--typespace-sizes", default=None, metavar="N[,N...]",
        help="comma-separated miner counts of the compressed "
             "type-space cases ('none' to skip; default: "
             "10000,100000,1000000 on full runs, none with --quick)")
    parser.add_argument(
        "--repeats", type=int, default=None, metavar="K",
        help="timed solves per case (default: 5, or 3 with --quick)")
    parser.add_argument(
        "--output", "-o", default="BENCH_solvers.json", metavar="PATH",
        help="where to write the report (default: %(default)s)")
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline report to compare against; defaults to the "
             "previous contents of --output when that file exists")
    parser.add_argument(
        "--tolerance", type=float, default=0.25, metavar="FRAC",
        help="relative regression tolerance on normalized medians "
             "(default: %(default)s)")
    parser.add_argument(
        "--no-compare", action="store_true",
        help="skip the regression comparison entirely")
    parser.add_argument(
        "--multiscenario", action="store_true",
        help="also time the cross-scenario batched kernel against a "
             "serial loop over the identical grid, and fail unless the "
             "batched path converges and beats per-scenario serial")
    parser.add_argument(
        "--quiet", "-q", action="store_true",
        help="suppress the result table on stdout")
    return parser


def bench_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``bench`` subcommand.

    Exit codes: 0 — benchmark ran (and no regressions), 1 — regressions
    beyond the tolerance, 2 — bad arguments or unreadable baseline.
    """
    from .kernels import (compare_reports, load_report, run_bench,
                          write_report)

    args = build_bench_parser().parse_args(argv)
    sizes = None
    if args.sizes is not None:
        try:
            sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
        except ValueError:
            print(f"bad --sizes {args.sizes!r}: expected integers",
                  file=sys.stderr)
            return 2
    typespace_sizes = None
    if args.typespace_sizes is not None:
        if args.typespace_sizes.strip().lower() == "none":
            typespace_sizes = []
        else:
            try:
                typespace_sizes = [
                    int(s) for s in args.typespace_sizes.split(",")
                    if s.strip()]
            except ValueError:
                print(f"bad --typespace-sizes "
                      f"{args.typespace_sizes!r}: expected integers "
                      f"or 'none'", file=sys.stderr)
                return 2
    baseline = None
    baseline_path = args.baseline
    if baseline_path is None and not args.no_compare and \
            Path(args.output).exists():
        baseline_path = args.output
    if baseline_path is not None and not args.no_compare:
        try:
            baseline = load_report(baseline_path)
        except (OSError, ValueError, KeyError, TypeError) as ex:
            print(f"could not load baseline {baseline_path!r}: {ex}",
                  file=sys.stderr)
            return 2

    try:
        report = run_bench(sizes=sizes, repeats=args.repeats,
                           quick=args.quick,
                           typespace_sizes=typespace_sizes,
                           multiscenario=args.multiscenario)
    except ValueError as ex:
        print(f"bench failed: {ex}", file=sys.stderr)
        return 2
    if not args.quiet:
        print("\n".join(report.summary_lines()))
        for note in report.notes:
            print(f"note: {note}", file=sys.stderr)
    write_report(report, args.output)
    print(f"wrote {args.output}", file=sys.stderr)
    if args.multiscenario:
        failures = []
        batched = [c for c in report.cases
                   if c.kernel == "multiscenario"]
        if not batched:
            failures.append("no multiscenario cases ran")
        for case in batched:
            if not case.converged:
                failures.append(f"{case.case_id}: batched grid did "
                                f"not fully converge")
            speedup = report.speedups.get(
                f"{case.solver}/n={case.n}/multiscenario")
            if speedup is None or speedup <= 1.0:
                failures.append(
                    f"{case.case_id}: batched median does not beat "
                    f"per-scenario serial "
                    f"(speedup {speedup if speedup else 0.0:.2f}x)")
        if failures:
            for line in failures:
                print(f"MULTISCENARIO {line}", file=sys.stderr)
            return 1
        print("multiscenario gate: batched path converged and beat "
              "per-scenario serial at every size", file=sys.stderr)
    if baseline is not None:
        regressions = compare_reports(report, baseline,
                                      tolerance=args.tolerance)
        if regressions:
            for line in regressions:
                print(f"REGRESSION {line}", file=sys.stderr)
            return 1
        print(f"no regressions vs {baseline_path} "
              f"(tolerance {args.tolerance:.0%})", file=sys.stderr)
    return 0


def _run_one(name: str, output: Optional[str], quiet: bool) -> int:
    runner = EXPERIMENTS.get(name)
    if runner is None:
        print(f"unknown experiment {name!r}; try 'repro-mining list'",
              file=sys.stderr)
        return 2
    try:
        table = runner()
    except ReproError as ex:
        # Covers the whole library hierarchy — ConvergenceError from a
        # diverging solver, TransientProviderError surfacing past the
        # retry budget, ConfigurationError, ... — one line, exit code 1.
        print(f"experiment {name!r} failed: "
              f"{type(ex).__name__}: {ex}", file=sys.stderr)
        return 1
    if not quiet:
        print(table)
    if output is not None:
        try:
            path = save(table, output)
        except ReproError as ex:
            print(f"could not write {output!r}: {ex}", file=sys.stderr)
            return 2
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _parse_grid(grid: str) -> "Tuple[str, List[float]]":
    """Parse ``KNOB:LO:HI:N`` into ``(knob, [values...])``."""
    parts = grid.split(":")
    if len(parts) != 4:
        raise ValueError(
            f"grid must look like KNOB:LO:HI:N, got {grid!r}")
    knob, lo, hi, count = parts
    knob = knob.strip().lower()
    valid = ("p_c", "p_e", "beta", "e_max", "budget", "edge_cost")
    if knob not in valid:
        raise ValueError(f"unknown grid knob {knob!r}; pick one of "
                         f"{', '.join(valid)}")
    lo, hi, count = float(lo), float(hi), int(count)
    if count < 1:
        raise ValueError(f"grid needs at least 1 point, got {count}")
    if count == 1:
        return knob, [lo]
    step = (hi - lo) / (count - 1)
    return knob, [round(lo + step * k, 12) for k in range(count)]


def _serve_spec(knob: str, value: float, mode: str, stackelberg: bool,
                n_miners: Optional[int] = None,
                n_types: Optional[int] = None) -> "ScenarioSpec":
    """Build the ScenarioSpec for one grid point off the paper setup."""
    from .analysis.experiments import DEFAULTS as setup
    from .core import EdgeMode, Prices, homogeneous
    from .serving import ScenarioSpec

    fields = {
        "reward": setup.reward, "fork_rate": setup.beta,
        "edge_cost": setup.edge_cost, "cloud_cost": setup.cloud_cost,
    }
    budget = setup.budget
    p_e, p_c = setup.p_e, setup.p_c
    e_max = setup.e_max
    if knob == "beta":
        fields["fork_rate"] = value
    elif knob == "edge_cost":
        fields["edge_cost"] = value
    elif knob == "budget":
        budget = value
    elif knob == "p_e":
        p_e = value
    elif knob == "p_c":
        p_c = value
    elif knob == "e_max":
        e_max = value
    n = setup.n if n_miners is None else int(n_miners)
    if mode == "standalone":
        params = homogeneous(n, budget,
                             mode=EdgeMode.STANDALONE, e_max=e_max,
                             **fields)
    else:
        params = homogeneous(n, budget, h=setup.h, **fields)
    prices = None if stackelberg else Prices(p_e=p_e, p_c=p_c)
    return ScenarioSpec(params, prices, n_types=n_types)


@contextlib.contextmanager
def _maybe_trace(trace_path: Optional[str]) -> "Iterator[None]":
    """Enable telemetry for the block and dump the span tree after.

    A no-op (telemetry stays disabled, nothing written) when
    ``trace_path`` is None.
    """
    if trace_path is None:
        yield
        return
    from .telemetry import telemetry_session
    with telemetry_session() as tel:
        try:
            yield
        finally:
            Path(trace_path).write_text(
                json.dumps(tel.tracer.tree(), indent=1))
            print(f"wrote span tree to {trace_path}", file=sys.stderr)


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``serve`` subcommand."""
    from .analysis.series import ResultTable
    from .serving import ServingEngine

    args = build_serve_parser().parse_args(argv)
    try:
        knob, values = _parse_grid(args.grid)
    except ValueError as ex:
        print(f"bad --grid: {ex}", file=sys.stderr)
        return 2
    if args.repeat < 1:
        print("--repeat must be at least 1", file=sys.stderr)
        return 2
    try:
        specs = [_serve_spec(knob, v, args.mode, args.stackelberg,
                             n_miners=args.miners, n_types=args.n_types)
                 for v in values]
    except ReproError as ex:
        print(f"bad grid point: {type(ex).__name__}: {ex}",
              file=sys.stderr)
        return 2

    engine = ServingEngine(cache_dir=args.cache_dir,
                           max_workers=args.workers,
                           warm_start=not args.no_warm_start)
    start = time.perf_counter()
    with _maybe_trace(args.trace):
        for _ in range(args.repeat):
            results = engine.serve_batch(specs)
    elapsed = time.perf_counter() - start

    table = ResultTable(
        title=f"serve — {len(values)}-point {knob} grid "
              f"({args.mode}{', stackelberg' if args.stackelberg else ''}"
              f", x{args.repeat})",
        columns=[knob, "P_e", "P_c", "E_total", "C_total", "source",
                 "ms"],
        notes=f"workers={args.workers}, "
              f"warm_start={not args.no_warm_start}, "
              f"cache_dir={args.cache_dir or '-'}")
    errors = 0
    for value, res in zip(values, results):
        if not res.ok:
            errors += 1
            table.add_row(value, float("nan"), float("nan"),
                          float("nan"), float("nan"),
                          f"error: {res.error}", 1e3 * res.elapsed)
            continue
        eq = res.value
        miners = getattr(eq, "miners", eq)
        table.add_row(value, eq.prices.p_e, eq.prices.p_c,
                      miners.total_edge, miners.total_cloud,
                      res.source + ("+warm" if res.warm_key else ""),
                      1e3 * res.elapsed)
    if not args.quiet:
        print(table)
    stats = engine.stats.to_dict()
    print(f"served {args.repeat}x{len(values)} scenarios in "
          f"{elapsed:.3f}s; cache: " +
          ", ".join(f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in stats.items()), file=sys.stderr)
    if args.output is not None:
        try:
            path = save(table, args.output)
        except ReproError as ex:
            print(f"could not write {args.output!r}: {ex}",
                  file=sys.stderr)
            return 2
        print(f"wrote {path}", file=sys.stderr)
    return 1 if errors else 0


def metrics_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``metrics`` subcommand."""
    from .serving import ServingEngine
    from .telemetry import (render_json, render_prometheus,
                            telemetry_session)

    args = build_metrics_parser().parse_args(argv)
    try:
        knob, values = _parse_grid(args.grid)
    except ValueError as ex:
        print(f"bad --grid: {ex}", file=sys.stderr)
        return 2
    if args.repeat < 1:
        print("--repeat must be at least 1", file=sys.stderr)
        return 2
    try:
        specs = [_serve_spec(knob, v, args.mode, args.stackelberg,
                             n_miners=args.miners, n_types=args.n_types)
                 for v in values]
    except ReproError as ex:
        print(f"bad grid point: {type(ex).__name__}: {ex}",
              file=sys.stderr)
        return 2

    engine = ServingEngine(max_workers=args.workers)
    errors = 0
    with telemetry_session(event_path=args.events) as tel:
        for _ in range(args.repeat):
            results = engine.serve_batch(specs)
        errors = sum(1 for r in results if not r.ok)
        json_text = render_json(tel.metrics)
        prom_text = render_prometheus(tel.metrics)
        if args.trace is not None:
            Path(args.trace).write_text(
                json.dumps(tel.tracer.tree(), indent=1))
            print(f"wrote span tree to {args.trace}", file=sys.stderr)

    if args.fmt in ("json", "both"):
        print(json_text)
    if args.fmt in ("prom", "both"):
        print(prom_text, end="")
    if args.output is not None:
        base = Path(args.output)
        try:
            if args.fmt == "both":
                base.with_suffix(base.suffix + ".json").write_text(
                    json_text)
                base.with_suffix(base.suffix + ".prom").write_text(
                    prom_text)
            else:
                base.write_text(json_text if args.fmt == "json"
                                else prom_text)
        except OSError as ex:
            print(f"could not write {args.output!r}: {ex}",
                  file=sys.stderr)
            return 2
        print(f"wrote {args.output}", file=sys.stderr)
    return 1 if errors else 0


def build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mining lint",
        description="Domain-aware static analysis (RPR rules) over the "
                    "solver stack; exits 1 when findings remain.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint "
                             "(default: src)")
    parser.add_argument("--format", dest="fmt",
                        choices=("text", "json"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--select", default=None, metavar="IDS",
                        help="comma-separated rule ids to run "
                             "(e.g. RPR001,RPR003)")
    parser.add_argument("--ignore", default=None, metavar="IDS",
                        help="comma-separated rule ids to skip")
    parser.add_argument("--statistics", action="store_true",
                        help="append per-rule counts to the text report")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--output", default=None,
                        help="also write the report to this path")
    parser.add_argument("--project", action="store_true",
                        help="run the whole-program analyzer "
                             "(cross-module call graph, RPR010-RPR013 "
                             "and transitive RPR009) instead of the "
                             "per-file rules")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="with --project: suppress findings "
                             "recorded in this baseline file; only "
                             "regressions gate")
    parser.add_argument("--write-baseline", action="store_true",
                        help="with --project: rewrite the --baseline "
                             "file from the current findings "
                             "(justifications of surviving entries "
                             "are preserved) and exit 0")
    return parser


def _parse_rule_ids(raw: str,
                    known: FrozenSet[str]) -> FrozenSet[str]:
    ids = frozenset(part.strip().upper()
                    for part in raw.split(",") if part.strip())
    unknown = ids - known
    if unknown:
        raise ValueError(
            f"unknown rule id(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(known))}")
    return ids


def _project_lint(args: argparse.Namespace,
                  select: Optional[FrozenSet[str]],
                  ignore: FrozenSet[str]) -> int:
    """The ``lint --project`` path: whole-program rules + baseline."""
    from .lint import (LintConfig, analyze_project, apply_baseline,
                       load_baseline, render_project_json,
                       render_project_text, write_baseline)

    config = LintConfig(select=select, ignore=ignore)
    findings = analyze_project(args.paths, config)
    if args.write_baseline:
        target = args.baseline or "lint-baseline.json"
        previous = load_baseline(target)
        written = write_baseline(findings, target, previous=previous)
        print(f"wrote {target}: {len(written)} entr"
              f"{'y' if len(written) == 1 else 'ies'}",
              file=sys.stderr)
        return 0
    baseline_result = None
    if args.baseline is not None:
        baseline_result = apply_baseline(
            findings, load_baseline(args.baseline))
        findings = baseline_result.new
    if args.fmt == "json":
        report = render_project_json(findings,
                                     baseline=baseline_result)
    else:
        report = render_project_text(findings,
                                     baseline=baseline_result,
                                     statistics=args.statistics)
    print(report)
    if args.output is not None:
        try:
            Path(args.output).write_text(report + "\n")
        except OSError as ex:
            print(f"could not write {args.output!r}: {ex}",
                  file=sys.stderr)
            return 2
        print(f"wrote {args.output}", file=sys.stderr)
    return 1 if findings else 0


def lint_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``lint`` subcommand."""
    from .lint import (ALL_RULES, PROJECT_RULES, LintConfig, lint_paths,
                       project_rule_catalog, render_json, render_text,
                       rule_catalog)

    args = build_lint_parser().parse_args(argv)
    if args.list_rules:
        for entry in rule_catalog():
            print(f"{entry['id']} {entry['name']} "
                  f"[{entry['severity']}]")
            print(f"    {entry['description']}")
        print()
        print("whole-program rules (--project):")
        for entry in project_rule_catalog():
            print(f"{entry['id']} {entry['name']} "
                  f"[{entry['severity']}]")
            print(f"    {entry['description']}")
        return 0
    known = frozenset(rule.id for rule in ALL_RULES)
    if args.project:
        known = frozenset(rule.id for rule in PROJECT_RULES)
    try:
        select = (_parse_rule_ids(args.select, known)
                  if args.select else None)
        ignore = (_parse_rule_ids(args.ignore, known)
                  if args.ignore else frozenset())
    except ValueError as ex:
        print(str(ex), file=sys.stderr)
        return 2
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.project:
        return _project_lint(args, select, ignore)
    config = LintConfig(select=select, ignore=ignore)
    findings = lint_paths(args.paths, config)
    if args.fmt == "json":
        report = render_json(findings)
    else:
        report = render_text(findings, statistics=args.statistics)
    print(report)
    if args.output is not None:
        try:
            Path(args.output).write_text(report + "\n")
        except OSError as ex:
            print(f"could not write {args.output!r}: {ex}",
                  file=sys.stderr)
            return 2
        print(f"wrote {args.output}", file=sys.stderr)
    return 1 if findings else 0


def build_control_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mining control",
        description="The self-tuning control plane: run the golden "
                    "differential battery (--check), or induce a "
                    "seeded anomaly scenario and drive the detect -> "
                    "propose -> verify -> apply loop over it (--run).")
    parser.add_argument(
        "--check", action="store_true",
        help="run the golden/differential checks for --kernel and exit "
             "1 if any disagrees")
    parser.add_argument(
        "--run", action="store_true",
        help="induce --scenario and run the control loop for "
             "--windows windows; exit 1 unless at least one "
             "remediation completed the detected -> verified -> "
             "applied chain")
    parser.add_argument(
        "--dry-run", action="store_true",
        help="with --run: verify every proposal but never apply it "
             "(the exit criterion becomes >= 1 verified proposal)")
    parser.add_argument(
        "--scenario", choices=("cache-collapse", "retry-storm",
                               "solver-divergence", "warm-drift",
                               "slo-breach"),
        default="cache-collapse",
        help="seeded anomaly induction for --run "
             "(default: %(default)s)")
    parser.add_argument(
        "--windows", type=int, default=3, metavar="K",
        help="control windows (loop ticks) to run (default: "
             "%(default)s)")
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="seed of the induction (default: %(default)s)")
    parser.add_argument(
        "--kernel", choices=("scalar", "running", "vectorized", "auto"),
        default="vectorized",
        help="kernel the --check battery exercises (default: "
             "%(default)s; 'auto' picks running/vectorized by miner "
             "count)")
    parser.add_argument(
        "--events", default=None, metavar="PATH",
        help="stream the control decision chain (and all other "
             "telemetry events) to PATH as JSON lines")
    parser.add_argument(
        "--output", "-o", default=None, metavar="PATH",
        help="write the per-window control reports to PATH as JSON")
    parser.add_argument(
        "--quiet", "-q", action="store_true",
        help="suppress the per-window report lines on stdout")
    return parser


def control_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``control`` subcommand.

    Exit codes: 0 — checks passed / the loop completed a verified
    remediation chain, 1 — a check failed or no chain completed,
    2 — bad arguments.
    """
    from .control import (ControlLoop, ControlTarget, induce,
                          run_golden_checks)
    from .serving import ServingEngine
    from .telemetry import telemetry_session

    args = build_control_parser().parse_args(argv)
    if not args.check and not args.run:
        build_control_parser().print_usage(sys.stderr)
        print("one of --check or --run is required", file=sys.stderr)
        return 2
    if args.windows < 1:
        print("--windows must be at least 1", file=sys.stderr)
        return 2

    failed = 0
    if args.check:
        for res in run_golden_checks(args.kernel):
            status = "ok  " if res.ok else "FAIL"
            err = ("" if res.max_error != res.max_error
                   else f" max_error={res.max_error:.3g}")
            detail = f" ({res.detail})" if res.detail else ""
            print(f"{status} {res.name}{err}{detail}")
            failed += 0 if res.ok else 1
        if not args.run:
            return 1 if failed else 0

    with telemetry_session(event_path=args.events) as tel:
        scenario = induce(args.scenario, seed=args.seed)
        engine = scenario.engine or ServingEngine(warm_start=False,
                                                  use_guard=False)
        target = ControlTarget(engine=engine,
                               dispatcher=scenario.dispatcher)
        loop = ControlLoop(target, dry_run=args.dry_run)
        for _ in range(args.windows):
            report = loop.run_once()
            if not args.quiet:
                anomalies = ", ".join(a.kind for a in report.anomalies) \
                    or "none"
                decisions = ", ".join(
                    f"{d.remediation.kind}->{d.outcome}"
                    for d in report.decisions) or "none"
                print(f"window {report.tick}: anomalies [{anomalies}]; "
                      f"decisions [{decisions}]")
        summary = loop.summary()
        if args.events is not None:
            print(f"wrote {len(tel.events)} events to {args.events}",
                  file=sys.stderr)

    print(f"{summary['ticks']} window(s): {summary['anomalies']} "
          f"anomaly(ies), {summary['actions_applied']} applied, "
          f"outcomes {summary['outcomes'] or '{}'}", file=sys.stderr)
    if args.output is not None:
        try:
            Path(args.output).write_text(json.dumps(
                [r.to_dict() for r in loop.reports], indent=1))
        except OSError as ex:
            print(f"could not write {args.output!r}: {ex}",
                  file=sys.stderr)
            return 2
        print(f"wrote {args.output}", file=sys.stderr)
    outcomes = summary["outcomes"]
    chain_done = (outcomes.get("dry-run", 0) if args.dry_run
                  else outcomes.get("applied", 0))
    return 1 if (failed or not chain_done) else 0


def build_serve_online_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mining serve-online",
        description="Run the online equilibrium service: an asyncio "
                    "HTTP server with request coalescing, admission "
                    "control, and a TTL scenario cache. Endpoints: "
                    "POST /solve, GET /healthz /stats /metrics, "
                    "POST /admin/invalidate /admin/admission.")
    parser.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="bind address (default: %(default)s)")
    parser.add_argument(
        "--port", type=int, default=8765, metavar="N",
        help="bind port; 0 picks a free one (default: %(default)s)")
    parser.add_argument(
        "--maxsize", type=int, default=4096, metavar="N",
        help="scenario-cache capacity (default: %(default)s)")
    parser.add_argument(
        "--ttl", type=float, default=None, metavar="SECONDS",
        help="cache entry time-to-live (default: no expiry)")
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="JSON persistence directory; omit for memory-only")
    parser.add_argument(
        "--max-inflight", type=int, default=8, metavar="N",
        help="concurrent solves admitted (default: %(default)s)")
    parser.add_argument(
        "--max-queue", type=int, default=256, metavar="N",
        help="requests allowed to wait for a solve slot before "
             "queue-full shedding (default: %(default)s)")
    parser.add_argument(
        "--rate", type=float, default=None, metavar="RPS",
        help="token-bucket sustained request rate (default: "
             "unlimited)")
    parser.add_argument(
        "--burst", type=float, default=None, metavar="N",
        help="token-bucket burst capacity (default: --rate)")
    parser.add_argument(
        "--solver-threads", type=int, default=1, metavar="N",
        help="solver thread-pool width (default: %(default)s)")
    parser.add_argument(
        "--events", default=None, metavar="PATH",
        help="stream telemetry events to PATH as JSON lines")
    return parser


def serve_online_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``serve-online`` subcommand.

    Runs in the foreground until interrupted; exit code 0 on a clean
    shutdown (Ctrl-C), 2 on bad arguments.
    """
    import asyncio

    from .service import EquilibriumService, ServiceServer
    from .telemetry import telemetry_session

    args = build_serve_online_parser().parse_args(argv)
    try:
        service = EquilibriumService(
            maxsize=args.maxsize, ttl=args.ttl, cache_dir=args.cache_dir,
            max_inflight=args.max_inflight, max_queue=args.max_queue,
            rate=args.rate, burst=args.burst,
            solver_threads=args.solver_threads)
    except ReproError as ex:
        print(f"bad service configuration: {ex}", file=sys.stderr)
        return 2

    async def _serve() -> None:
        server = ServiceServer(service, host=args.host, port=args.port)
        await server.start()
        print(f"serving on http://{args.host}:{server.port} "
              f"(maxsize={args.maxsize}, ttl={args.ttl or '-'}, "
              f"max_inflight={args.max_inflight})", file=sys.stderr)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    with telemetry_session(event_path=args.events):
        try:
            asyncio.run(_serve())
        except KeyboardInterrupt:
            print("shutting down", file=sys.stderr)
        finally:
            service.close()
    return 0


def build_loadgen_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mining loadgen",
        description="Replay a seeded scenario-request stream against "
                    "the online service and report latency quantiles "
                    "from the telemetry histograms. Without --port a "
                    "throwaway in-process service is driven; with "
                    "--port a live serve-online server is.")
    parser.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="server address for HTTP mode (default: %(default)s)")
    parser.add_argument(
        "--port", type=int, default=None, metavar="N",
        help="server port; omit to run against an in-process service")
    parser.add_argument(
        "--requests", type=int, default=100_000, metavar="N",
        help="requests to replay (default: %(default)s)")
    parser.add_argument(
        "--unique", type=int, default=64, metavar="N",
        help="distinct scenarios in the pool (default: %(default)s)")
    parser.add_argument(
        "--mix", choices=("zipf", "uniform"), default="zipf",
        help="key-popularity mix (default: %(default)s)")
    parser.add_argument(
        "--zipf-a", type=float, default=1.2, metavar="A",
        help="zipf exponent (default: %(default)s)")
    parser.add_argument(
        "--burst", type=int, default=64, metavar="N",
        help="requests launched concurrently per wave "
             "(default: %(default)s)")
    parser.add_argument(
        "--seed", type=int, default=7, metavar="N",
        help="seed of the scenario pool and request stream "
             "(default: %(default)s)")
    parser.add_argument(
        "--max-inflight", type=int, default=8, metavar="N",
        help="in-process mode: admitted solve concurrency "
             "(default: %(default)s)")
    parser.add_argument(
        "--slo-p50", type=float, default=None, metavar="SECONDS",
        help="p50 latency SLO bound; breaching it fails the run")
    parser.add_argument(
        "--slo-p95", type=float, default=None, metavar="SECONDS",
        help="p95 latency SLO bound")
    parser.add_argument(
        "--slo-p99", type=float, default=None, metavar="SECONDS",
        help="p99 latency SLO bound")
    parser.add_argument(
        "--output", "-o", default=None, metavar="PATH",
        help="write the JSON load report to PATH")
    parser.add_argument(
        "--quiet", "-q", action="store_true",
        help="suppress the report on stdout")
    return parser


def loadgen_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``loadgen`` subcommand.

    Exit codes: 0 — replay completed with zero errors and every SLO
    met, 1 — errors or an SLO breach, 2 — bad arguments.
    """
    import asyncio

    from .service import (EquilibriumService, HttpClient,
                          InProcessClient, LoadPlan, run_load)
    from .telemetry import telemetry_session

    args = build_loadgen_parser().parse_args(argv)
    try:
        plan = LoadPlan(requests=args.requests, unique=args.unique,
                        mix=args.mix, zipf_a=args.zipf_a,
                        burst=args.burst, seed=args.seed,
                        slo_p50=args.slo_p50, slo_p95=args.slo_p95,
                        slo_p99=args.slo_p99)
    except ReproError as ex:
        print(f"bad load plan: {ex}", file=sys.stderr)
        return 2

    async def _http() -> "object":
        client = HttpClient(host=args.host, port=args.port)
        try:
            return await run_load(client, plan)
        finally:
            await client.close()

    async def _in_process() -> "object":
        service = EquilibriumService(max_inflight=args.max_inflight)
        try:
            return await run_load(InProcessClient(service), plan)
        finally:
            service.close()

    if args.port is not None:
        try:
            report = asyncio.run(_http())
        except (ConnectionError, OSError) as ex:
            print(f"could not reach {args.host}:{args.port}: {ex}",
                  file=sys.stderr)
            return 2
    else:
        with telemetry_session():
            report = asyncio.run(_in_process())

    summary = report.to_dict()
    if not args.quiet:
        print(json.dumps(summary, indent=2))
    print(f"{summary['requests']} requests in "
          f"{summary['elapsed_seconds']:.2f}s "
          f"({summary['rps']:.0f} rps): {summary['ok']} ok, "
          f"{summary['shed_total']} shed, {summary['errors']} errors; "
          f"{summary['coalesced']} coalesced, "
          f"{summary['solves']} solves / "
          f"{summary['unique_ok_keys']} served keys; "
          f"p50={summary['latency']['p50']:.4g}s "
          f"p95={summary['latency']['p95']:.4g}s "
          f"p99={summary['latency']['p99']:.4g}s", file=sys.stderr)
    if args.output is not None:
        try:
            Path(args.output).write_text(json.dumps(summary, indent=2))
        except OSError as ex:
            print(f"could not write {args.output!r}: {ex}",
                  file=sys.stderr)
            return 2
        print(f"wrote {args.output}", file=sys.stderr)
    return 1 if summary["failed"] else 0


def _print_experiments() -> None:
    for key in sorted(EXPERIMENTS):
        doc = (EXPERIMENTS[key].__doc__ or "").strip().splitlines()[0]
        print(f"{key:12s} {doc}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0].lower() == "serve":
        return serve_main(argv[1:])
    if argv and argv[0].lower() == "metrics":
        return metrics_main(argv[1:])
    if argv and argv[0].lower() == "bench":
        return bench_main(argv[1:])
    if argv and argv[0].lower() == "lint":
        return lint_main(argv[1:])
    if argv and argv[0].lower() == "control":
        return control_main(argv[1:])
    if argv and argv[0].lower() == "serve-online":
        return serve_online_main(argv[1:])
    if argv and argv[0].lower() == "loadgen":
        return loadgen_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.list_experiments:
        _print_experiments()
        return 0
    if args.experiment is None:
        build_parser().print_usage(sys.stderr)
        print("an experiment id (or --list) is required",
              file=sys.stderr)
        return 2
    name = args.experiment.lower()
    if name == "chaos" and args.with_control:
        name = "chaos-control"
    if name == "list":
        _print_experiments()
        return 0
    if name == "report":
        from .analysis.report import build_report
        ids = args.ids.split(",") if args.ids else \
            ["fig3", "fig4", "fig5", "fig6", "fig7", "welfare"]
        try:
            with _maybe_trace(args.trace):
                document = build_report(EXPERIMENTS, path=args.output,
                                        ids=ids)
        except ReproError as ex:
            print(str(ex), file=sys.stderr)
            return 2
        if not args.quiet:
            print(document)
        if args.output:
            print(f"wrote {args.output}", file=sys.stderr)
        return 0
    if name == "all":
        if args.output is not None:
            print("--output is per-experiment; run ids individually",
                  file=sys.stderr)
            return 2
        with _maybe_trace(args.trace):
            for key in sorted(EXPERIMENTS):
                code = _run_one(key, None, args.quiet)
                if code != 0:
                    return code
                if not args.quiet:
                    print()
        return 0
    with _maybe_trace(args.trace):
        return _run_one(name, args.output, args.quiet)


if __name__ == "__main__":
    raise SystemExit(main())

"""Perf-trajectory harness for the solver kernels.

:func:`run_bench` times the equilibrium solvers across kernels
(``scalar`` / ``running`` / ``vectorized``) and problem sizes, collects
operator-eval counts from the telemetry registry, and packages
everything into a JSON-serializable :class:`BenchReport`
(``BENCH_solvers.json`` at the repo root is the committed trajectory).
:func:`compare_reports` checks a fresh report against a stored baseline
with a configurable regression tolerance; the comparison is
machine-independent because both reports are normalized by the
geometric mean of their shared cases before timings are compared, so a
uniformly faster or slower machine shifts every case equally and
cancels out.

Timing: every case is planned first, then timed in ``repeats`` rounds
that each run one repeat of every case, so a case's repeats are spread
over the whole run instead of sitting in one window of host load.  The
gate compares each case's fastest repeat (``best_s``); ``median_s`` and
``p95_s`` describe the spread.

Honesty rules (no silent caps):

* The sweeping kernels (``scalar``, ``running``) contract at
  ``1 - O(1/n)`` and need ``~30 n`` sweeps, so full solves at
  ``n >= 256`` take minutes.  Those cases run with an explicit sweep
  cap (``max_iter``), are flagged ``capped`` in the report, and every
  derived speedup is therefore a *lower bound* (the capped scalar time
  undercounts the true scalar solve).
* Standalone-decomposition and extragradient cases that would be
  impractically slow at large ``n`` are skipped entirely and listed in
  the report's ``notes``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Dict, List,
                    Optional, Sequence, Tuple, Union)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.nep import MinerEquilibrium
    from ..core.params import GameParameters, Prices

__all__ = ["BenchCaseResult", "BenchReport", "run_bench",
           "compare_reports", "load_report", "write_report"]

#: Version stamp of the JSON schema (bump on incompatible changes).
SCHEMA_VERSION = 1

#: Problem sizes of the full benchmark run.
DEFAULT_SIZES = (8, 64, 256, 1024)

#: Problem sizes of the ``--quick`` run (CI smoke).
QUICK_SIZES = (8, 64)

#: From this miner count on, the sweeping kernels run with a sweep cap.
SWEEP_CAP_AT = 256

#: The explicit sweep cap (``max_iter``) applied at ``SWEEP_CAP_AT``.
SWEEP_CAP = 150

#: Largest size the scalar standalone decomposition is benchmarked at —
#: every shadow-price evaluation is a full inner NEP solve, so larger
#: sizes take minutes per repeat.
STANDALONE_SCALAR_MAX_N = 8

#: Largest size the extragradient cases are benchmarked at.
EXTRAGRADIENT_MAX_N = 8

#: Miner counts of the compressed type-space cases (full runs only).
TYPESPACE_SIZES = (10_000, 100_000, 1_000_000)

#: Type count of the compressed cases (see
#: :mod:`repro.kernels.typespace`).
TYPESPACE_K = 512

#: Largest type-space size the exact vectorized reference also runs at
#: (the differential anchor; beyond it the exact solve is only skipped
#: with a note, never silently).
TYPESPACE_EXACT_MAX_N = 10_000

#: ``(P_e, P_c)`` of the ``connected`` and ``connected-bound`` cases.
#: It lies above the mixed-region bound ``(1-β)P_e/D`` (1.667 for their
#: games), where no closed form applies and every kernel iterates; below
#: it every kernel but ``scalar`` answers from the certified closed form.
ITERATIVE_PRICES = (2.0, 1.8)

_SOLVERS = ("connected", "connected-bound", "standalone",
            "extragradient")


@dataclass
class BenchCaseResult:
    """Timing and convergence record of one (solver, kernel, n) case.

    Attributes:
        solver: ``"connected"``, ``"connected-bound"``,
            ``"standalone"``, or ``"extragradient"``.
        kernel: Kernel the case ran with (``scalar`` / ``running`` /
            ``vectorized``).
        n: Miner count.
        median_s: Median seconds per solve over ``repeats`` timed
            repeats (each repeat loops the solve for at least
            :data:`MIN_REPEAT_SECONDS`).
        p95_s: Interpolated 95th percentile of the same.
        best_s: Fastest of the same repeats, the figure
            :func:`compare_reports` gates on (``None`` in reports that
            predate it).
        repeats: Number of timed repeats.
        converged: Whether the final solve reported convergence
            (capped sweeping cases legitimately report ``False``).
        iterations: Iteration count of the final solve (sweeps for the
            sweeping kernels, consistency evals for the aggregate
            kernel, extragradient steps for the VI).
        max_iter: Iteration budget the case ran with.
        capped: True when ``max_iter`` was deliberately lowered to keep
            the case tractable and the solve stopped at it; timings
            are then lower bounds on the uncapped solve.
        counters: Operator-eval counts from one telemetry-instrumented
            solve — ``br_sweeps`` (best-response sweeps / kernel
            solves) and ``operator_evals`` (VI operator evaluations).
        error_bound: Certified approximation bound of a compressed
            type-space case (``None`` for exact cases) — the report
            never presents an approximate solve as exact.
    """

    solver: str
    kernel: str
    n: int
    median_s: float
    p95_s: float
    repeats: int
    converged: bool
    iterations: int
    max_iter: int
    capped: bool
    counters: Dict[str, int] = field(default_factory=dict)
    error_bound: Optional[float] = None
    best_s: Optional[float] = None

    @property
    def case_id(self) -> str:
        """Stable identifier used to match cases across reports."""
        return f"{self.solver}/{self.kernel}/n={self.n}"


@dataclass
class _Plan:
    """A case waiting to be timed: its identity, solve and budget."""

    solver: str
    kernel: str
    n: int
    solve: Callable[[], object]
    max_iter: int
    capped: bool

    @property
    def case_id(self) -> str:
        return f"{self.solver}/{self.kernel}/n={self.n}"


@dataclass
class BenchReport:
    """One benchmark run: settings, cases, and derived speedups.

    Attributes:
        schema: JSON schema version (:data:`SCHEMA_VERSION`).
        quick: Whether this was a ``--quick`` (CI smoke) run.
        repeats: Timed solves per case.
        sizes: Miner counts the run covered.
        cases: Per-case results (see :class:`BenchCaseResult`).
        speedups: ``{"<solver>/n=<n>": scalar_median /
            vectorized_median}`` for every size where both kernels ran.
        notes: Human-readable record of every cap and skip — a report
            never truncates coverage silently.
    """

    schema: int = SCHEMA_VERSION
    quick: bool = False
    repeats: int = 0
    sizes: List[int] = field(default_factory=list)
    cases: List[BenchCaseResult] = field(default_factory=list)
    speedups: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable view (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BenchReport":
        """Rebuild a report from :meth:`to_dict` output."""
        cases = [BenchCaseResult(**c) for c in payload.get("cases", [])]
        return cls(schema=int(payload.get("schema", SCHEMA_VERSION)),
                   quick=bool(payload.get("quick", False)),
                   repeats=int(payload.get("repeats", 0)),
                   sizes=[int(s) for s in payload.get("sizes", [])],
                   cases=cases,
                   speedups={str(k): float(v) for k, v in
                             payload.get("speedups", {}).items()},
                   notes=[str(x) for x in payload.get("notes", [])])

    def summary_lines(self) -> List[str]:
        """Fixed-width table of the cases, for terminal output."""
        lines = [f"{'case':34s} {'best':>11s} {'median':>11s} "
                 f"{'p95':>11s} {'iters':>6s} {'conv':>5s} {'cap':>4s}"]
        for case in self.cases:
            best = case.median_s if case.best_s is None else case.best_s
            lines.append(
                f"{case.case_id:34s} {best * 1e3:9.2f}ms "
                f"{case.median_s * 1e3:9.2f}ms "
                f"{case.p95_s * 1e3:9.2f}ms {case.iterations:6d} "
                f"{'yes' if case.converged else 'NO':>5s} "
                f"{'yes' if case.capped else '-':>4s}")
        for key in sorted(self.speedups):
            if key.endswith("/typespace"):
                what = "exact vectorized / typespace"
            elif key.endswith("/multiscenario"):
                what = "serial vectorized / batched"
            else:
                what = "scalar / vectorized"
            lines.append(f"speedup {key}: {self.speedups[key]:.1f}x "
                         f"({what})")
        return lines


def _p95(samples: Sequence[float]) -> float:
    """Interpolated 95th percentile of a small sample."""
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = 0.95 * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] + frac * (ordered[hi] - ordered[lo])


def _collect_counters(solve: Callable[[], object]) -> Dict[str, int]:
    """Run one instrumented solve and harvest operator-eval counters.

    Opens a fresh (reset) telemetry window, so this must not run inside
    an enabled telemetry session the caller wants to keep.
    """
    from ..telemetry import telemetry_session

    with telemetry_session() as tel:
        solve()
        snapshot = tel.metrics.snapshot()
    counters: Dict[str, int] = {}
    sweeps = snapshot.get("br_sweep_seconds")
    if sweeps is not None:
        counters["br_sweeps"] = int(sum(
            entry["count"] for entry in sweeps["values"]))
    evals = snapshot.get("vi_operator_evals_total")
    if evals is not None:
        counters["operator_evals"] = int(sum(
            entry["value"] for entry in evals["values"]))
    return counters


#: Shortest wall clock one timed repeat spans.  A repeat calls the
#: solve in a loop until this much time has passed and records seconds
#: per call, so a sub-millisecond case is not timed from the jitter of
#: a single call.
MIN_REPEAT_SECONDS = 0.02


def _time_repeat(solve: Callable[[], object]) -> Tuple[float, object]:
    """Seconds per call of one repeat, and the last call's result."""
    calls = 0
    start = time.perf_counter()
    while True:
        result = solve()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_REPEAT_SECONDS:
            return elapsed / calls, result


def _finish_case(plan: _Plan, times: List[float],
                 result: object) -> BenchCaseResult:
    """Statistics of a timed plan plus one instrumented solve."""
    report = getattr(result, "report", None)
    converged = bool(getattr(report, "converged", True))
    bound = getattr(result, "error_bound", None)
    times = sorted(times)
    median = times[len(times) // 2] if len(times) % 2 else \
        0.5 * (times[len(times) // 2 - 1] + times[len(times) // 2])
    # A lowered cap that the solve finished under leaves an exact
    # timing, not a lower bound.
    return BenchCaseResult(
        solver=plan.solver, kernel=plan.kernel, n=plan.n,
        median_s=median, p95_s=_p95(times), repeats=len(times),
        converged=converged,
        iterations=int(getattr(report, "iterations", 0)),
        max_iter=plan.max_iter, capped=plan.capped and not converged,
        counters=_collect_counters(plan.solve),
        error_bound=None if bound is None else float(bound),
        best_s=times[0])


def _connected_cases(sizes: Sequence[int]) -> List[_Plan]:
    from ..core.nep import solve_connected_equilibrium
    from ..core.params import Prices, homogeneous

    prices = Prices(*ITERATIVE_PRICES)
    out = []
    for n in sizes:
        params = homogeneous(n, 200.0, reward=1000.0, fork_rate=0.2,
                             h=0.8)
        for kernel in ("scalar", "running", "vectorized"):
            capped = kernel != "vectorized" and n >= SWEEP_CAP_AT
            max_iter = SWEEP_CAP if capped else 3000

            def solve(params: "GameParameters" = params,
                      kernel: str = kernel,
                      max_iter: int = max_iter) -> "MinerEquilibrium":
                return solve_connected_equilibrium(
                    params, prices, max_iter=max_iter, kernel=kernel)

            out.append(_Plan("connected", kernel, n, solve, max_iter,
                             capped))
    return out


def _connected_bound_cases(sizes: Sequence[int]) -> List[_Plan]:
    """Connected solves whose budgets bind for most of the miners.

    Budgets ramp evenly from 0.5x to 1.5x the Corollary 1 spend
    (:func:`~repro.core.closed_form.binding_budget_threshold`), so the
    sweeping kernels spend their time in the budget-multiplier solve
    (Eq. 15) that the ``connected`` cases, slack at ``B = 200``, never
    reach. Same prices, game and capping policy as ``connected``.
    """
    import numpy as np

    from ..core.closed_form import binding_budget_threshold
    from ..core.nep import solve_connected_equilibrium
    from ..core.params import GameParameters, Prices

    prices = Prices(*ITERATIVE_PRICES)
    out = []
    for n in sizes:
        spend = binding_budget_threshold(n, 1000.0, 0.2, 0.8)
        params = GameParameters(reward=1000.0, fork_rate=0.2, h=0.8,
                                budgets=spend * np.linspace(0.5, 1.5, n))
        for kernel in ("scalar", "running"):
            capped = n >= SWEEP_CAP_AT
            max_iter = SWEEP_CAP if capped else 3000

            def solve(params: "GameParameters" = params,
                      kernel: str = kernel,
                      max_iter: int = max_iter) -> "MinerEquilibrium":
                return solve_connected_equilibrium(
                    params, prices, max_iter=max_iter, kernel=kernel)

            out.append(_Plan("connected-bound", kernel, n, solve,
                             max_iter, capped))
    return out


def _standalone_cases(sizes: Sequence[int],
                      notes: List[str]) -> List[_Plan]:
    from ..core.gnep import solve_standalone_equilibrium
    from ..core.params import EdgeMode, Prices, homogeneous

    prices = Prices(p_e=2.0, p_c=1.0)
    out = []
    for n in sizes:
        params = homogeneous(n, 1000.0, reward=1000.0, fork_rate=0.2,
                             mode=EdgeMode.STANDALONE, e_max=80.0)
        for kernel in ("scalar", "vectorized"):
            if kernel == "scalar" and n > STANDALONE_SCALAR_MAX_N:
                notes.append(
                    f"standalone/scalar/n={n}: skipped (every "
                    f"shadow-price evaluation is a full inner NEP "
                    f"solve; minutes per repeat at this size)")
                continue

            def solve(params: "GameParameters" = params,
                      kernel: str = kernel) -> "MinerEquilibrium":
                return solve_standalone_equilibrium(params, prices,
                                                    kernel=kernel)

            out.append(_Plan("standalone", kernel, n, solve, 3000, False))
    return out


def _extragradient_cases(sizes: Sequence[int],
                         notes: List[str]) -> List[_Plan]:
    from ..core.gnep import solve_standalone_extragradient
    from ..core.params import EdgeMode, Prices, homogeneous

    prices = Prices(p_e=2.0, p_c=1.0)
    out = []
    for n in sizes:
        if n > EXTRAGRADIENT_MAX_N:
            notes.append(f"extragradient/n={n}: skipped (tens of "
                         f"thousands of projection steps at this size)")
            continue
        params = homogeneous(n, 1000.0, reward=1000.0, fork_rate=0.2,
                             mode=EdgeMode.STANDALONE, e_max=80.0)
        for kernel in ("scalar", "vectorized"):

            def solve(params: "GameParameters" = params,
                      kernel: str = kernel) -> "MinerEquilibrium":
                return solve_standalone_extragradient(params, prices,
                                                      kernel=kernel)

            out.append(_Plan("extragradient", kernel, n, solve, 50000,
                             False))
    return out


#: Scenario count of the cross-scenario batched cases.
MULTISCENARIO_BATCH = 64


def _multiscenario_cases(sizes: Sequence[int],
                         notes: List[str]) -> List[_Plan]:
    """Cross-scenario batched solves vs the same grid solved serially.

    Each size times one :data:`MULTISCENARIO_BATCH`-scenario sweep grid
    (a deterministic budget x reward x price lattice above the mixed
    price region, ``P_c ∈ [1.7, 1.95]``) twice:
    ``kernel="multiscenario"`` solves the whole grid in one batched
    kernel call,
    ``kernel="multiscenario-serial"`` loops ``kernel="vectorized"``
    solves over the identical scenarios.  The two are bit-identical by
    construction (the equivalence suite pins this), so the ratio is a
    pure dispatch/batching win.  Sizes past the batching crossover
    (:data:`~repro.kernels.multiscenario.MULTISCENARIO_MAX_N`) are
    note-skipped: the serving engine declines to auto-batch them, so
    timing them would gate a path nothing takes.
    """
    from types import SimpleNamespace

    from ..core.nep import solve_connected_equilibrium
    from ..core.params import Prices, homogeneous
    from .multiscenario import (MULTISCENARIO_MAX_N,
                                solve_connected_multiscenario)

    out = []
    for n in sizes:
        if n > MULTISCENARIO_MAX_N:
            notes.append(
                f"connected/multiscenario/n={n}: skipped — past the "
                f"batching crossover (MULTISCENARIO_MAX_N="
                f"{MULTISCENARIO_MAX_N}); a solo vectorized solve is "
                f"already efficient at this size and the engine's "
                f"auto-batching declines it too")
            continue
        scenarios: List[Tuple[GameParameters, Prices]] = []
        for i in range(MULTISCENARIO_BATCH):
            params = homogeneous(n, 200.0 + 2.0 * i, reward=1000.0 + 5.0 * i,
                                 fork_rate=0.2, h=0.8)
            # P_c sits above the mixed-region bound (1-β)P_e/D, where
            # the batched aggregate kernel answers; below it both twins
            # would time the same closed form.
            prices = Prices(p_e=2.0 + 0.005 * i, p_c=1.7 + 0.004 * i)
            scenarios.append((params, prices))

        def solve_batched(
                scenarios: List[Tuple[GameParameters, Prices]]
                = scenarios) -> object:
            results = solve_connected_multiscenario(scenarios)
            iters = [r.report.iterations for r in results
                     if r is not None]
            return SimpleNamespace(report=SimpleNamespace(
                converged=all(r is not None for r in results),
                iterations=max(iters, default=0)))

        def solve_serial(
                scenarios: List[Tuple[GameParameters, Prices]]
                = scenarios) -> object:
            results = [solve_connected_equilibrium(p, pr,
                                                   kernel="vectorized")
                       for p, pr in scenarios]
            return SimpleNamespace(report=SimpleNamespace(
                converged=all(r.report.converged for r in results),
                iterations=max(r.report.iterations for r in results)))

        notes.append(
            f"connected/multiscenario/n={n}: "
            f"{MULTISCENARIO_BATCH}-scenario grid per solve; the "
            f"-serial twin solves the identical grid one scenario at "
            f"a time with kernel=vectorized")
        out.append(_Plan("connected", "multiscenario", n, solve_batched,
                         3000, False))
        out.append(_Plan("connected", "multiscenario-serial", n,
                         solve_serial, 3000, False))
    return out


def _typespace_cases(sizes: Sequence[int],
                     notes: List[str]) -> List[_Plan]:
    """Compressed connected-mode cases on heterogeneous populations.

    Budgets are drawn once from a seeded lognormal (deterministic
    across runs and machines), so the committed report's error bounds
    are reproducible.  At every size the compressed case runs with
    ``k = TYPESPACE_K`` types; the exact vectorized reference runs
    alongside it up to :data:`TYPESPACE_EXACT_MAX_N` and is skipped
    with a note above that (the differential test suite anchors
    correctness at small n instead).
    """
    import numpy as np

    from ..core.nep import solve_connected_equilibrium
    from ..core.params import GameParameters, Prices

    prices = Prices(p_e=2.0, p_c=1.0)
    out = []
    for n in sizes:
        # Reward scales with n so per-miner equilibrium spending stays
        # O(1/n) *relative to the drawn budgets*: a heterogeneous
        # fraction of the population is genuinely budget-bound at every
        # size (the hard mixed regime), instead of budgets going slack
        # and the compression degenerating to the homogeneous case.
        rng = np.random.default_rng(20260809 + n)
        budgets = (600.0 / n) * rng.lognormal(mean=0.0, sigma=0.75,
                                              size=n)
        params = GameParameters(reward=1000.0 * n, fork_rate=0.2,
                                budgets=budgets, h=0.8)
        k = min(TYPESPACE_K, n)

        def solve_compressed(params: "GameParameters" = params,
                             k: int = k) -> "MinerEquilibrium":
            return solve_connected_equilibrium(
                params, prices, kernel="vectorized", n_types=k)

        out.append(_Plan("connected", "typespace", n, solve_compressed,
                         3000, False))

        if n <= TYPESPACE_EXACT_MAX_N:

            def solve_exact(params: "GameParameters" = params
                            ) -> "MinerEquilibrium":
                return solve_connected_equilibrium(
                    params, prices, kernel="vectorized")

            out.append(_Plan("connected", "vectorized-het", n,
                             solve_exact, 3000, False))
        else:
            notes.append(
                f"connected/vectorized-het/n={n}: exact per-miner "
                f"reference skipped (O(n) per consistency eval at "
                f"n={n}; correctness is anchored by the differential "
                f"suite at small n and the certified bound)")
    return out


def run_bench(sizes: Optional[Sequence[int]] = None,
              repeats: Optional[int] = None,
              quick: bool = False,
              solvers: Optional[Sequence[str]] = None,
              typespace_sizes: Optional[Sequence[int]] = None,
              multiscenario: bool = False) -> BenchReport:
    """Run the kernel benchmark suite and return a :class:`BenchReport`.

    Args:
        sizes: Miner counts to cover; defaults to
            :data:`QUICK_SIZES` when ``quick`` else
            :data:`DEFAULT_SIZES`.
        repeats: Timed repeats per case, one per round over all
            cases (best/median/p95 statistics); defaults to 3 when
            ``quick`` else 5.
        quick: CI-smoke preset — small sizes, fewer repeats.
        solvers: Subset of ``("connected", "connected-bound",
            "standalone", "extragradient")`` to run; ``None`` runs all
            four.
        typespace_sizes: Miner counts of the compressed type-space
            cases (heterogeneous budgets, ``k = TYPESPACE_K``);
            defaults to :data:`TYPESPACE_SIZES` on full *preset* runs
            (``sizes=None``, not ``quick``) and to none otherwise.
            Pass an empty sequence to skip explicitly.
        multiscenario: Also time the cross-scenario batched kernel
            against a serial loop over the identical scenario grid at
            every size (:func:`_multiscenario_cases`).

    Each case is also solved once inside a fresh telemetry session to
    record operator-eval counters (sweeps, VI operator evaluations);
    see the module docstring for the capping policy.
    """
    preset_run = sizes is None
    if sizes is None:
        sizes = QUICK_SIZES if quick else DEFAULT_SIZES
    sizes = [int(n) for n in sizes]
    if any(n < 2 for n in sizes):
        raise ValueError(f"sizes need at least 2 miners, got {sizes}")
    if repeats is None:
        repeats = 3 if quick else 5
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    chosen = _SOLVERS if solvers is None else tuple(solvers)
    unknown = [s for s in chosen if s not in _SOLVERS]
    if unknown:
        raise ValueError(f"unknown solvers {unknown}; pick from "
                         f"{_SOLVERS}")
    if typespace_sizes is None:
        typespace_sizes = (TYPESPACE_SIZES
                           if preset_run and not quick else ())
    typespace_sizes = [int(n) for n in typespace_sizes]
    if any(n < 2 for n in typespace_sizes):
        raise ValueError(
            f"typespace sizes need at least 2 miners, got "
            f"{typespace_sizes}")

    notes: List[str] = []
    plans: List[_Plan] = []
    if "connected" in chosen:
        plans.extend(_connected_cases(sizes))
    if "connected-bound" in chosen:
        plans.extend(_connected_bound_cases(sizes))
    if "standalone" in chosen:
        plans.extend(_standalone_cases(sizes, notes))
    if "extragradient" in chosen:
        plans.extend(_extragradient_cases(sizes, notes))
    if "connected" in chosen and multiscenario:
        plans.extend(_multiscenario_cases(sizes, notes))
    if "connected" in chosen and typespace_sizes:
        plans.extend(_typespace_cases(typespace_sizes, notes))

    # One repeat of every case per round: a slow stretch of host load
    # then costs each case at most one of its repeats.
    times: List[List[float]] = [[] for _ in plans]
    results: List[object] = [None] * len(plans)
    for _ in range(repeats):
        for i, plan in enumerate(plans):
            seconds, results[i] = _time_repeat(plan.solve)
            times[i].append(seconds)
    cases = [_finish_case(plan, spent, result)
             for plan, spent, result in zip(plans, times, results)]
    for case in cases:
        if case.capped:
            notes.append(
                f"{case.case_id}: sweep cap max_iter={case.max_iter}; "
                f"timings and derived speedups are lower bounds")
        if case.error_bound is not None:
            notes.append(
                f"{case.case_id}: k={min(TYPESPACE_K, case.n)} "
                f"compressed solve, certified per-coordinate error "
                f"bound {case.error_bound:.3e} (approximate, not exact)")

    by_id = {c.case_id: c for c in cases}
    speedups: Dict[str, float] = {}
    for case in cases:
        if case.median_s <= 0:
            continue
        if case.kernel == "vectorized":
            scalar = by_id.get(f"{case.solver}/scalar/n={case.n}")
            if scalar is not None and scalar.median_s > 0:
                speedups[f"{case.solver}/n={case.n}"] = \
                    scalar.median_s / case.median_s
        elif case.kernel == "multiscenario":
            serial = by_id.get(
                f"{case.solver}/multiscenario-serial/n={case.n}")
            if serial is not None and serial.median_s > 0:
                speedups[f"{case.solver}/n={case.n}/multiscenario"] = \
                    serial.median_s / case.median_s
        elif case.kernel == "typespace":
            exact = by_id.get(
                f"{case.solver}/vectorized-het/n={case.n}")
            if exact is not None and exact.median_s > 0:
                speedups[f"{case.solver}/n={case.n}/typespace"] = \
                    exact.median_s / case.median_s
    return BenchReport(schema=SCHEMA_VERSION, quick=quick,
                       repeats=repeats, sizes=sizes, cases=cases,
                       speedups=speedups, notes=notes)


def compare_reports(current: BenchReport, baseline: BenchReport,
                    tolerance: float = 0.25) -> List[str]:
    """Regression check of ``current`` against ``baseline``.

    Both reports are normalized by the geometric mean of the case
    times over their *shared* cases (same ``case_id``, same capping
    state, and same convergence state), which cancels uniform
    machine-speed differences; a case regresses when its normalized
    time grew by more than ``tolerance`` (relative).  The time is each
    case's fastest repeat (``best_s``) when both reports carry it for
    every shared case, and the median otherwise.  Returns one
    human-readable line per regression — an empty list means the check
    passed.

    A case that converged in the baseline but not in the current run
    is **never** silently dropped into the geomean: it is excluded
    from normalization (its timing is meaningless — it gave up, it did
    not finish) *and* reported as a regression in its own right.
    Capped sweeping cases legitimately report non-convergence in both
    reports and stay comparable; an uncapped case losing convergence
    is a correctness regression, not a timing artifact.

    The common set itself is policed: a baseline case absent from the
    current run is a coverage regression **unless** the whole
    ``(solver, n)`` combination is absent (a deliberate subset run —
    different ``--sizes``/solvers), the kernel label appears nowhere
    in the current run (an opt-in case family the run did not attempt,
    e.g. ``bench`` without ``--multiscenario`` compared against a full
    baseline), or that combination gained a kernel label the baseline
    lacks (a rename: e.g. rows migrating to ``auto``/``multiscenario``
    labels).  Renamed and brand-new labels enter future baselines as
    new cases instead of silently shrinking the geomean gate.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    cur = {c.case_id: c for c in current.cases}
    base = {c.case_id: c for c in baseline.cases}
    regressions = []
    cur_kernels: Dict[tuple, set] = {}
    base_kernels: Dict[tuple, set] = {}
    for c in current.cases:
        cur_kernels.setdefault((c.solver, c.n), set()).add(c.kernel)
    for c in baseline.cases:
        base_kernels.setdefault((c.solver, c.n), set()).add(c.kernel)
    all_cur_kernels = {c.kernel for c in current.cases}
    for key in sorted(set(base) - set(cur)):
        lost = base[key]
        combo = (lost.solver, lost.n)
        if combo not in cur_kernels:
            continue  # subset run: the whole (solver, n) was skipped
        if lost.kernel not in all_cur_kernels:
            continue  # case family not attempted by this run at all
        if cur_kernels[combo] - base_kernels.get(combo, set()):
            continue  # kernel label renamed/superseded: new, not missing
        regressions.append(
            f"{key}: case missing from the current run with no "
            f"replacement kernel at {lost.solver}/n={lost.n} "
            f"(coverage shrank)")
    for key in sorted(set(cur) & set(base)):
        if base[key].converged and not cur[key].converged:
            regressions.append(
                f"{key}: did not converge (baseline converged; "
                f"excluded from the timing geomean)")
    common = sorted(
        key for key in cur
        if key in base
        and cur[key].capped == base[key].capped
        and cur[key].converged == base[key].converged
        and cur[key].median_s > 0 and base[key].median_s > 0)
    if len(common) < 2:
        # One shared case normalizes to exactly 1.0 against itself;
        # nothing meaningful to compare.
        return regressions

    def geomean(values: List[float]) -> float:
        return math.exp(sum(math.log(v) for v in values) / len(values))

    use_best = all(cur[k].best_s is not None and base[k].best_s is not None
                   for k in common)
    stat = "best" if use_best else "median"

    def seconds(case: BenchCaseResult) -> float:
        if use_best and case.best_s is not None:
            return case.best_s
        return case.median_s

    norm_cur = geomean([seconds(cur[k]) for k in common])
    norm_base = geomean([seconds(base[k]) for k in common])
    for key in common:
        rel_cur = seconds(cur[key]) / norm_cur
        rel_base = seconds(base[key]) / norm_base
        if rel_cur > rel_base * (1.0 + tolerance):
            growth = rel_cur / rel_base - 1.0
            regressions.append(
                f"{key}: normalized {stat} {rel_cur:.3f} vs baseline "
                f"{rel_base:.3f} (+{100.0 * growth:.0f}% > "
                f"{100.0 * tolerance:.0f}% tolerance)")
    return regressions


def write_report(report: BenchReport,
                 path: Union[str, Path]) -> Path:
    """Write a report to ``path`` as indented, sorted JSON."""
    path = Path(path)
    path.write_text(json.dumps(report.to_dict(), indent=1,
                               sort_keys=True) + "\n")
    return path


def load_report(path: Union[str, Path]) -> BenchReport:
    """Load a report previously written by :func:`write_report`."""
    return BenchReport.from_dict(json.loads(Path(path).read_text()))

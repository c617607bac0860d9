"""The batch equilibrium-serving engine.

:class:`ServingEngine` answers batches of equilibrium queries the way
an inference server answers model queries:

1. every scenario is keyed canonically (:mod:`repro.serving.keys`) and
   looked up in the :class:`~repro.serving.cache.ScenarioCache`
   (memory, then the optional JSON disk layer);
2. the remaining misses are **deduplicated** — identical keys inside
   one batch are solved once;
3. each unique miss gets a **warm start** from the nearest previously
   solved neighbor (:mod:`repro.serving.warmstart`);
4. compatible miss groups — connected-mode miner queries sharing
   ``(n, tol)`` whose kernel resolves to the aggregate solver — are
   answered by one **cross-scenario batched** kernel call
   (:mod:`repro.kernels.multiscenario`), bit-identical to per-scenario
   solves; the rest are partitioned into chunks and fanned out over a
   ``concurrent.futures.ProcessPoolExecutor`` (``max_workers <= 1``
   solves inline, serially) through a picklable pure-function worker;
5. failures are captured **per scenario** — one diverging corner case
   returns an errored :class:`ScenarioResult` instead of aborting the
   batch — with :class:`repro.resilience.SolverGuard` fallback chains
   absorbing salvageable solver pathologies inside each worker.

Results come back in the order the scenarios were submitted, solved
results are cached and indexed for future batches, and the cache
counters make the hit rate observable.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core.gnep import (solve_standalone_equilibrium,
                         solve_standalone_extragradient)
from ..core.nep import KERNELS, resolve_kernel, solve_connected_equilibrium
from ..core.params import EdgeMode
from ..core.stackelberg import solve_stackelberg
from ..exceptions import ConfigurationError
from ..resilience.guard import (SolverGuard, guarded_miner_equilibrium,
                                guarded_stackelberg)
from ..telemetry import TELEMETRY as _TEL
from .cache import CacheStats, ScenarioCache
from .fanout import (BudgetHandle, SharedBudgetBlock, plan_fanout,
                     read_budgets)
from .keys import DEFAULT_QUANTUM, ScenarioSpec, scenario_key
from .warmstart import WarmStart, WarmStartIndex

__all__ = ["ScenarioResult", "ServingEngine"]

#: Valid miner-stage schemes (leader-stage schemes are validated by
#: :func:`~repro.core.stackelberg.solve_stackelberg` itself).
_MINER_SCHEMES = ("auto", "best-response", "decomposition",
                  "extragradient")

#: Valid values of :class:`ServingEngine`'s ``batch_mode``.
_BATCH_MODES = ("multiscenario", "none")


@dataclass
class ScenarioResult:
    """Outcome of serving one scenario.

    Attributes:
        spec: The scenario as submitted.
        key: Its canonical cache key.
        value: The equilibrium (``None`` when ``error`` is set).
        error: Exception summary when the solve failed; ``None`` on
            success. One failing scenario never aborts its batch.
        source: ``"memory"``/``"disk"`` (cache layers), ``"solved"``
            (computed this batch), or ``"dedup"`` (identical key solved
            earlier in the same batch).
        warm_key: Key of the neighbor whose equilibrium warm-started
            this solve, if any.
        solver: Name of the solver (guard fallback step) that answered.
        degraded: True when the resilience guard fell back or accepted
            a stalled approximation.
        elapsed: Wall-clock seconds spent on this scenario (lookup time
            for hits, solve time for misses).
    """

    spec: ScenarioSpec
    key: str
    value: Any = None
    error: Optional[str] = None
    source: str = "solved"
    warm_key: Optional[str] = None
    solver: Optional[str] = None
    degraded: bool = False
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the scenario produced an equilibrium."""
        return self.error is None


def _solve_scenario(spec: ScenarioSpec, warm: Optional[WarmStart],
                    use_guard: bool) -> Tuple[Any, Optional[str], bool]:
    """Solve one scenario; returns ``(value, solver_name, degraded)``.

    Pure function of its arguments (no engine state), so it is safe to
    ship to a worker process.
    """
    params = spec.params

    if spec.kind == "stackelberg":
        warm_prices = warm.prices if warm is not None else None
        if use_guard:
            guarded = guarded_stackelberg(
                params, guard=SolverGuard(), scheme=spec.scheme,
                demand_tol=spec.tol, warm_start=warm_prices,
                kernel=spec.kernel, n_types=spec.n_types)
            return guarded.value, guarded.solver, guarded.degraded
        se = solve_stackelberg(params, scheme=spec.scheme,
                               demand_tol=spec.tol,
                               warm_start=warm_prices,
                               kernel=spec.kernel,
                               n_types=spec.n_types)
        return se, f"stackelberg-{se.scheme}", False

    warm_profile = warm.profile if warm is not None else None
    if spec.scheme not in _MINER_SCHEMES:
        raise ConfigurationError(
            f"unknown miner scheme {spec.scheme!r}; expected one of "
            f"{_MINER_SCHEMES}")
    prices = spec.prices
    if spec.scheme == "extragradient":
        if params.mode is not EdgeMode.STANDALONE:
            raise ConfigurationError(
                "the extragradient scheme requires standalone mode")
        eq = solve_standalone_extragradient(params, prices, tol=spec.tol,
                                            initial=warm_profile,
                                            kernel=spec.kernel)
        return eq, "vi-extragradient", False
    if use_guard and spec.scheme in ("auto", "decomposition",
                                     "best-response"):
        guarded = guarded_miner_equilibrium(
            params, prices, guard=SolverGuard(), tol=spec.tol,
            initial=warm_profile, kernel=spec.kernel,
            n_types=spec.n_types)
        return guarded.value, guarded.solver, guarded.degraded
    if params.mode is EdgeMode.STANDALONE:
        eq = solve_standalone_equilibrium(params, prices, tol=spec.tol,
                                          initial=warm_profile,
                                          kernel=spec.kernel,
                                          n_types=spec.n_types)
        return eq, "gnep-decomposition", False
    eq = solve_connected_equilibrium(params, prices, tol=spec.tol,
                                     initial=warm_profile,
                                     kernel=spec.kernel,
                                     n_types=spec.n_types)
    return eq, "nep-best-response", False


def _solve_chunk(chunk: Sequence[Tuple[int, ScenarioSpec,
                                       Optional[WarmStart], bool]]
                 ) -> List[Tuple[int, Any, Optional[str], Optional[str],
                                 bool, float]]:
    """Worker entry point: solve a chunk of scenarios independently.

    Returns one ``(position, value, error, solver, degraded, elapsed)``
    tuple per scenario; exceptions are captured per scenario so a bad
    corner point cannot take down its siblings in the same chunk.
    """
    out = []
    for position, spec, warm, use_guard in chunk:
        start = time.perf_counter()
        try:
            value, solver, degraded = _solve_scenario(spec, warm,
                                                      use_guard)
            error = None
        except Exception as ex:  # repro: noqa[RPR007] — per-scenario
            # capture boundary: one bad corner never aborts the batch.
            value, solver, degraded = None, None, False
            error = f"{type(ex).__name__}: {ex}"
        out.append((position, value, error, solver, degraded,
                    time.perf_counter() - start))
    return out


def _solve_chunk_shm(payload: Tuple[str,
                                    Sequence[Tuple[int, ScenarioSpec,
                                                   BudgetHandle,
                                                   Optional[WarmStart],
                                                   bool]]]
                     ) -> List[Tuple[int, Any, Optional[str],
                                     Optional[str], bool, float]]:
    """Worker entry point for the zero-copy fan-out path.

    Like :func:`_solve_chunk` but each scenario carries a
    :class:`~repro.serving.fanout.BudgetHandle` instead of its budget
    vector: the real budgets are read from the named shared-memory
    segment published by the parent, so large populations are mapped
    rather than pickled into every task.
    """
    name, chunk = payload
    out = []
    for position, spec, handle, warm, use_guard in chunk:
        start = time.perf_counter()
        try:
            budgets = read_budgets(name, handle)
            restored = replace(spec,
                               params=spec.params.with_budgets(budgets))
            value, solver, degraded = _solve_scenario(restored, warm,
                                                      use_guard)
            error = None
        except Exception as ex:  # repro: noqa[RPR007] — per-scenario
            # capture boundary: one bad corner never aborts the batch.
            value, solver, degraded = None, None, False
            error = f"{type(ex).__name__}: {ex}"
        out.append((position, value, error, solver, degraded,
                    time.perf_counter() - start))
    return out


class ServingEngine:
    """Batch equilibrium server: cache + warm starts + worker pool.

    Args:
        cache: An existing :class:`ScenarioCache` to serve from (shared
            caches let several engines cooperate); mutually exclusive
            with ``cache_dir``/``maxsize``.
        cache_dir: Directory for the JSON persistence layer (e.g.
            ``".repro_cache"``); ``None`` keeps the cache memory-only.
        maxsize: In-memory LRU bound of the internally created cache.
        max_workers: Process-pool width for solving cache misses.
            ``None``, 0, or 1 solve inline (serial, no processes) —
            the right choice for small batches and single-core hosts.
        warm_start: Whether misses are warm-started from the nearest
            solved neighbor. Disable to reproduce cold solves exactly.
        use_guard: Whether workers wrap solves in the
            :class:`~repro.resilience.SolverGuard` fallback chains.
        quantum: Float-quantization step of the cache keys (see
            :mod:`repro.serving.keys`).
        chunk_size: Scenarios per worker task; default balances ~4
            tasks per worker.
        batch_mode: ``"multiscenario"`` (default) groups compatible
            cache-miss scenarios — connected-mode miner queries with
            the same ``(n, tol)`` whose kernel resolves to
            ``"vectorized"``, no type-space compression — into one
            cross-scenario batched kernel call
            (:mod:`repro.kernels.multiscenario`), bit-identical to
            solving them one at a time; scenarios the batch cannot
            certify fall back to the per-scenario path. ``"none"``
            disables grouping.
        use_shared_memory: Whether the process fan-out publishes miss
            budget vectors through one ``multiprocessing.shared_memory``
            segment (:mod:`repro.serving.fanout`) instead of pickling
            them into every worker task. Falls back to the pickled
            path automatically when the platform cannot create shared
            memory.
        bench_path: Bench trajectory (``BENCH_solvers.json``) used by
            :func:`~repro.serving.fanout.plan_fanout` to calibrate the
            dynamic pool size from measured per-solve cost; ``None``
            tries the working directory and otherwise falls back to a
            conservative default estimate.
    """

    def __init__(self, cache: Optional[ScenarioCache] = None,
                 cache_dir: Optional[Union[str, Path]] = None,
                 maxsize: int = 4096,
                 max_workers: Optional[int] = None,
                 warm_start: bool = True,
                 use_guard: bool = True,
                 quantum: float = DEFAULT_QUANTUM,
                 chunk_size: Optional[int] = None,
                 batch_mode: str = "multiscenario",
                 use_shared_memory: bool = True,
                 bench_path: Optional[Union[str, Path]] = None) -> None:
        if cache is not None and cache_dir is not None:
            raise ConfigurationError(
                "pass either an existing cache or a cache_dir, not both")
        if batch_mode not in _BATCH_MODES:
            raise ConfigurationError(
                f"unknown batch_mode {batch_mode!r}; expected one of "
                f"{_BATCH_MODES}")
        self.cache = cache if cache is not None else \
            ScenarioCache(maxsize=maxsize, cache_dir=cache_dir)
        self.max_workers = max_workers
        self.warm_start = warm_start
        self.use_guard = use_guard
        self.quantum = quantum
        self.chunk_size = chunk_size
        self.batch_mode = batch_mode
        self.use_shared_memory = use_shared_memory
        self.bench_path = bench_path
        self.warm_index = WarmStartIndex()
        self.kernel_override: Optional[str] = None

    # ------------------------------------------------------------------

    @property
    def stats(self) -> CacheStats:
        """The underlying cache's :class:`CacheStats` counters."""
        return self.cache.stats

    def key_for(self, spec: ScenarioSpec) -> str:
        """Canonical cache key, under this engine's quantum, of the
        scenario this engine serves for ``spec`` (its kernel override
        applied)."""
        return scenario_key(self._served(spec), quantum=self.quantum)

    def _served(self, spec: ScenarioSpec) -> ScenarioSpec:
        """``spec`` as this engine serves it: on the override kernel
        when one is set."""
        override = self.kernel_override
        if override is None or spec.kernel == override:
            return spec
        return replace(spec, kernel=override)

    def _admit(self, spec: ScenarioSpec, key: str, value: Any) -> None:
        """Insert a solved equilibrium into the cache and warm index."""
        meta = {"scheme": spec.scheme, "tol": spec.tol,
                "kind": spec.kind}
        self.cache.put(key, value, meta=meta)
        self.warm_index.add(spec, key, value)

    def serve(self, spec: ScenarioSpec) -> ScenarioResult:
        """Serve a single scenario (batch of one)."""
        return self.serve_batch([spec])[0]

    # ------------------------------------------------------------------
    # Control-plane actuator seams. Each is safe to call between
    # batches; none of them changes the engine's behavior unless the
    # control plane (or an operator) invokes it explicitly, so with the
    # control loop disabled serving stays bit-identical.
    # ------------------------------------------------------------------

    def set_kernel_override(self, kernel: Optional[str]) -> None:
        """Force every served scenario onto ``kernel`` (None restores
        the per-spec kernels). The override participates in cache keys
        exactly as if callers had requested that kernel themselves."""
        if kernel is not None and kernel not in KERNELS:
            raise ConfigurationError(
                f"unknown kernel {kernel!r}; expected one of {KERNELS}")
        self.kernel_override = kernel

    def resize_cache(self, maxsize: int) -> int:
        """Resize the scenario cache's LRU bound; returns evictions."""
        return self.cache.resize(maxsize)

    def flush_cache(self) -> None:
        """Drop every in-memory cache entry (disk layer untouched)."""
        self.cache.clear()

    def rebuild_warm_index(self) -> None:
        """Drop the warm-start index; it repopulates incrementally from
        subsequent admissions. The remediation for index drift (warm
        starts landing slower than cold solves): stale neighbors are
        forgotten instead of poisoning future suggestions."""
        self.warm_index = WarmStartIndex()

    def serve_batch(self, specs: Sequence[ScenarioSpec]
                    ) -> List[ScenarioResult]:
        """Serve a batch of scenarios; results align with the input order.

        Cache hits are answered immediately; the deduplicated misses
        are solved (in parallel when ``max_workers > 1``), admitted to
        the cache, and every submitted position — including duplicate
        keys — receives its result. Individual failures surface as
        ``error`` strings on their own :class:`ScenarioResult` only.
        """
        if self.kernel_override is not None:
            specs = [self._served(spec) for spec in specs]
        results: List[Optional[ScenarioResult]] = [None] * len(specs)
        first_seen: Dict[str, int] = {}
        misses: List[Tuple[int, ScenarioSpec, str]] = []
        duplicates: List[Tuple[int, ScenarioSpec, str, int]] = []

        batch_span = _TEL.span("serving.batch", size=len(specs))
        batch_span.__enter__()
        for i, spec in enumerate(specs):
            start = time.perf_counter()
            key = self.key_for(spec)
            if key in first_seen:
                duplicates.append((i, spec, key, first_seen[key]))
                continue
            value, layer = self.cache.lookup(key)
            elapsed = time.perf_counter() - start
            if value is not None:
                results[i] = ScenarioResult(spec=spec, key=key,
                                            value=value, source=layer,
                                            elapsed=elapsed)
                if self.warm_start and layer == "disk":
                    # What this engine admitted is indexed already; a
                    # disk hit has not been indexed this process yet.
                    self.warm_index.add(spec, key, value)
            else:
                first_seen[key] = i
                misses.append((i, spec, key))

        if misses:
            self._solve_misses(misses, results)

        for i, spec, key, primary in duplicates:
            primary_result = results[primary]
            assert primary_result is not None
            results[i] = ScenarioResult(
                spec=spec, key=key, value=primary_result.value,
                error=primary_result.error,
                source=("dedup" if primary_result.source
                        in ("solved", "dedup") else primary_result.source),
                warm_key=primary_result.warm_key,
                solver=primary_result.solver,
                degraded=primary_result.degraded, elapsed=0.0)
        out = [r for r in results if r is not None]
        if _TEL.enabled:
            self._record_batch(out, misses=len(misses),
                               duplicates=len(duplicates))
            batch_span.set(misses=len(misses), dedup=len(duplicates))
        batch_span.__exit__(None, None, None)
        return out

    def _record_batch(self, results: List[ScenarioResult],
                      misses: int, duplicates: int) -> None:
        """Export one batch's outcome to the metrics registry."""
        metrics = _TEL.metrics
        metrics.counter("serving_batches_total",
                        "Batches served").inc()
        metrics.gauge("serving_last_batch_size",
                      "Scenario count of the most recent batch").set(
            len(results))
        metrics.counter("serving_dedup_total",
                        "In-batch duplicate scenarios answered by the "
                        "first solve").inc(duplicates)
        latency = metrics.histogram(
            "serving_scenario_seconds",
            "Per-scenario wall clock (lookup for hits, solve for "
            "misses)")
        for res in results:
            metrics.counter("serving_results_total",
                            "Scenario results by source",
                            labels={"source": res.source}).inc()
            latency.observe(res.elapsed)
            if res.error is not None:
                metrics.counter("serving_errors_total",
                                "Scenarios that failed to solve").inc()
                _TEL.emit(  # repro: noqa[RPR008] — caller holds guard
                    "serving.error", key=res.key, error=res.error)
            if res.degraded:
                metrics.counter("serving_degraded_total",
                                "Scenarios answered by a fallback or "
                                "stalled approximation").inc()
                _TEL.emit(  # repro: noqa[RPR008] — caller holds guard
                    "serving.degraded", key=res.key, solver=res.solver)
        solve_latency = metrics.histogram(
            "serving_solve_seconds",
            "Wall clock of cache-miss solves, split warm vs cold",
            labels={"warm": "true"})
        cold_latency = metrics.histogram(
            "serving_solve_seconds",
            "Wall clock of cache-miss solves, split warm vs cold",
            labels={"warm": "false"})
        for res in results:
            if res.source == "solved" and res.ok:
                (solve_latency if res.warm_key is not None
                 else cold_latency).observe(res.elapsed)
        # The dedup ratio the throughput benchmark prints, exported:
        # duplicates avoided per submitted scenario.
        if results:
            metrics.gauge("serving_dedup_ratio",
                          "Duplicates per submitted scenario in the "
                          "last batch").set(duplicates / len(results))
        metrics.gauge("serving_cache_hit_rate",
                      "Lifetime cache hit rate").set(
            self.cache.stats.hit_rate)
        metrics.gauge("serving_cache_entries",
                      "In-memory cache entries").set(len(self.cache))

    # ------------------------------------------------------------------

    def _batch_eligible(self, spec: ScenarioSpec) -> bool:
        """Whether a miss can join a cross-scenario batched solve.

        The batched kernel covers exactly the connected-mode miner
        solves that the vectorized aggregate kernel would answer:
        everything else (standalone shadow-price searches, type-space
        compression, leader-stage queries, sweeping kernels) keeps the
        per-scenario path.  Past ``MULTISCENARIO_MAX_N`` miners a solo
        vectorized solve is already efficient and lockstep batching is
        measured overhead, so large games stay per-scenario too.
        """
        from ..kernels.multiscenario import MULTISCENARIO_MAX_N

        return (spec.kind == "miner"
                and spec.params.mode is EdgeMode.CONNECTED
                and spec.n_types is None
                and spec.params.n <= MULTISCENARIO_MAX_N
                and spec.scheme in ("auto", "best-response",
                                    "decomposition")
                and spec.kernel in KERNELS
                and resolve_kernel(spec.kernel,
                                   spec.params.n) == "vectorized")

    def _solve_multiscenario(
            self, misses: List[Tuple[int, ScenarioSpec, str]],
            results: List[Optional[ScenarioResult]]
    ) -> List[Tuple[int, ScenarioSpec, str]]:
        """Answer compatible miss groups with one batched kernel call.

        Returns the misses still unanswered: ineligible scenarios,
        groups of one (no batching win), and scenarios the batched
        kernel could not certify at tolerance — those keep the exact
        per-scenario fallback (guard chains included).
        """
        from ..kernels.multiscenario import solve_connected_multiscenario

        groups: Dict[Tuple[int, float],
                     List[Tuple[int, ScenarioSpec, str]]] = {}
        remaining: List[Tuple[int, ScenarioSpec, str]] = []
        for item in misses:
            spec = item[1]
            if self._batch_eligible(spec):
                groups.setdefault((spec.params.n, spec.tol),
                                  []).append(item)
            else:
                remaining.append(item)
        for (_, tol), group in groups.items():
            if len(group) < 2:
                remaining.extend(group)
                continue
            start = time.perf_counter()
            try:
                solved = solve_connected_multiscenario(
                    [(spec.params, spec.prices)
                     for _, spec, _ in group], tol=tol)
            except Exception:  # repro: noqa[RPR007] — batch-level
                # capture boundary: a failed group falls back to the
                # per-scenario path, which reports errors properly.
                remaining.extend(group)
                continue
            elapsed = (time.perf_counter() - start) / len(group)
            for (i, spec, key), value in zip(group, solved):
                if value is None:
                    remaining.append((i, spec, key))
                    continue
                results[i] = ScenarioResult(
                    spec=spec, key=key, value=value, source="solved",
                    solver="nep-multiscenario", elapsed=elapsed)
                self._admit(spec, key, value)
        # Restore submission order so the serial fallback's in-batch
        # warm-start chaining stays deterministic.
        remaining.sort(key=lambda item: item[0])
        return remaining

    def _solve_misses(self, misses: List[Tuple[int, ScenarioSpec, str]],
                      results: List[Optional[ScenarioResult]]) -> None:
        if self.batch_mode == "multiscenario" and len(misses) > 1:
            misses = self._solve_multiscenario(misses, results)
            if not misses:
                return
        workers = self.max_workers or 0
        if workers > 1 and len(misses) > 1:
            self._solve_parallel(misses, results, workers)
        else:
            self._solve_serial(misses, results)

    def _solve_serial(self, misses: List[Tuple[int, ScenarioSpec, str]],
                      results: List[Optional[ScenarioResult]]) -> None:
        # Inline serial path: solve in submission order, admitting
        # each equilibrium before the next solve so warm starts
        # chain *within* the batch (a sweep's point k warm-starts
        # from point k-1, exactly like a hand-rolled sweep would).
        for i, spec, key in misses:
            warm = self.warm_index.suggest(spec) if self.warm_start \
                else None
            (_, value, error, solver, degraded,
             elapsed) = _solve_chunk(
                [(0, spec, warm, self.use_guard)])[0]
            results[i] = ScenarioResult(
                spec=spec, key=key, value=value, error=error,
                source="solved",
                warm_key=warm.key if warm is not None else None,
                solver=solver, degraded=degraded, elapsed=elapsed)
            if error is None:
                self._admit(spec, key, value)

    def _solve_parallel(self, misses: List[Tuple[int, ScenarioSpec, str]],
                        results: List[Optional[ScenarioResult]],
                        workers: int) -> None:
        # Pool width and chunk size come from the measured solver
        # trajectory (BENCH_solvers.json): workers are only added while
        # each still receives enough solve work to amortize its startup.
        plan = plan_fanout(
            len(misses), n=max(spec.params.n for _, spec, _ in misses),
            max_workers=workers, bench_path=self.bench_path,
            chunk_size=self.chunk_size)
        if plan.inline:
            # Too little work to pay for even one extra process —
            # the serial path also chains warm starts within the batch.
            self._solve_serial(misses, results)
            return
        if _TEL.enabled:
            _TEL.metrics.gauge(
                "serving_fanout_workers",
                "Process-pool width chosen by the fan-out planner for "
                "the most recent parallel miss batch").set(plan.workers)

        # Suggestions are computed up front from the pre-batch index:
        # worker processes cannot see equilibria admitted mid-batch.
        payloads = []
        warm_keys: Dict[int, Optional[str]] = {}
        for position, (i, spec, key) in enumerate(misses):
            warm = self.warm_index.suggest(spec) if self.warm_start \
                else None
            warm_keys[position] = warm.key if warm is not None else None
            payloads.append((position, spec, warm, self.use_guard))

        size = plan.chunk_size
        solved = []
        block: Optional[SharedBudgetBlock] = None
        if self.use_shared_memory:
            try:
                block = SharedBudgetBlock(
                    [spec.params.budget_array
                     for _, spec, _ in misses])
            except (OSError, ValueError):
                block = None  # platform without usable shared memory
        try:
            with ProcessPoolExecutor(max_workers=plan.workers) as pool:
                if block is not None:
                    # Zero-copy path: ship specs with a minimal
                    # placeholder budget vector plus an
                    # (offset, length) handle into the shared segment;
                    # workers restore the real vector before solving.
                    shm_payloads = [
                        (position,
                         replace(spec,
                                 params=spec.params.with_budgets(
                                     (1.0, 1.0))),
                         block.handles[position], warm, use_guard)
                        for position, spec, warm, use_guard in payloads]
                    chunks = [(block.name, shm_payloads[i:i + size])
                              for i in range(0, len(shm_payloads), size)]
                    for chunk_result in pool.map(_solve_chunk_shm,
                                                 chunks):
                        solved.extend(chunk_result)
                else:
                    chunks = [payloads[i:i + size]
                              for i in range(0, len(payloads), size)]
                    for chunk_result in pool.map(_solve_chunk, chunks):
                        solved.extend(chunk_result)
        finally:
            if block is not None:
                block.close()

        for position, value, error, solver, degraded, elapsed in solved:
            i, spec, key = misses[position]
            results[i] = ScenarioResult(
                spec=spec, key=key, value=value, error=error,
                source="solved", warm_key=warm_keys[position],
                solver=solver, degraded=degraded, elapsed=elapsed)
            if error is None:
                self._admit(spec, key, value)

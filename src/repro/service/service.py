"""The online equilibrium service: coalescing front end over the engine.

:class:`EquilibriumService` is the asyncio core the HTTP server and
the in-process client both call. One request takes this path:

1. **rate gate** — the optional token bucket sheds over-rate traffic
   with an explicit 429-style response (reason ``"rate"``);
2. **coalescing** — the request's quantized scenario key is probed
   against the in-flight future map; a concurrent duplicate awaits the
   winner's future and shares the *same* result object (one solve per
   unique key, bit-identical answers for every waiter);
3. **cache fast path** — keys already servable from the engine's
   :class:`~repro.serving.cache.ScenarioCache` are answered inline on
   the event loop (a memory lookup, no executor round-trip, no solve
   slot consumed);
4. **admitted solve** — misses take a slot from the
   :class:`~repro.service.admission.AdmissionController` (bounded
   queue, ``"queue-full"`` sheds past it), probe steps 2–3 again (a
   duplicate admitted first may have started or finished the solve
   while this one queued), and run ``ServingEngine.serve`` on the
   solver thread pool, registering a future other tasks coalesce onto.

The coalescing map is only touched between awaits on the single event
loop, so no lock is needed: a key is either absent, or mapped to the
future of exactly one running solve.

Every stage is observable through :mod:`repro.telemetry` —
``service_requests_total{outcome}``, ``service_coalesced_total``,
``service_request_seconds`` (the histogram the load harness reads its
p50/p95/p99 from), plus the admission gauges — alongside the engine's
own ``serving_*`` metrics.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from ..exceptions import ConfigurationError
from ..serving.cache import ScenarioCache
from ..serving.engine import ScenarioResult, ServingEngine
from ..serving.keys import ScenarioSpec
from ..telemetry import TELEMETRY as _TEL
from .admission import AdmissionController, TokenBucket

__all__ = ["ServiceResponse", "EquilibriumService"]


@dataclass
class ServiceResponse:
    """What one request produced, HTTP-shaped but transport-neutral.

    Attributes:
        status: 200 (served), 429 (shed), or 500 (solve failed).
        result: The engine's :class:`ScenarioResult` (None when shed).
        key: Canonical scenario key ("" when shed before keying).
        coalesced: True when this request shared another request's
            in-flight solve instead of starting its own.
        shed_reason: ``"rate"`` or ``"queue-full"`` on a 429.
        elapsed: Wall-clock seconds from arrival to response,
            including any time queued for a solve slot.
    """

    status: int
    result: Optional[ScenarioResult] = None
    key: str = ""
    coalesced: bool = False
    shed_reason: Optional[str] = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == 200


class EquilibriumService:
    """Async facade serving equilibrium scenarios online.

    Args:
        engine: An existing :class:`ServingEngine` to front; mutually
            exclusive with the cache-shaping arguments below.
        maxsize: Capacity of the internally built
            :class:`~repro.serving.cache.ScenarioCache`.
        ttl: Cache entry TTL in seconds (None = no expiry).
        cache_dir: Directory of the cache's JSON disk layer (None =
            memory-only).
        max_inflight: Concurrent solves admitted.
        max_queue: Requests allowed to wait for a solve slot.
        rate: Sustained requests/second admitted (None = unlimited).
        burst: Token-bucket burst capacity (defaults to ``rate``).
        solver_threads: Width of the solver thread pool. The default
            of 1 keeps warm-start chaining deterministic (solves admit
            in submission order); raise it to trade determinism of the
            warm-start path for solve parallelism.
        clock: Monotonic time source shared by the cache TTL and the
            token bucket (injectable for deterministic tests).
    """

    def __init__(self, engine: Optional[ServingEngine] = None, *,
                 maxsize: int = 4096,
                 ttl: Optional[float] = None,
                 cache_dir: Optional[Union[str, Path]] = None,
                 max_inflight: int = 8, max_queue: int = 256,
                 rate: Optional[float] = None,
                 burst: Optional[float] = None,
                 solver_threads: int = 1,
                 clock: Optional[Callable[[], float]] = None) -> None:
        if engine is not None and cache_dir is not None:
            raise ConfigurationError(
                "pass either an existing engine or a cache_dir, not "
                "both")
        if solver_threads < 1:
            raise ConfigurationError(
                f"solver_threads must be at least 1, got "
                f"{solver_threads}")
        self._clock = clock if clock is not None else time.monotonic
        if engine is None:
            engine = ServingEngine(cache=ScenarioCache(
                maxsize=maxsize, cache_dir=cache_dir, ttl=ttl,
                clock=self._clock))
        self.engine = engine
        bucket = (None if rate is None
                  else TokenBucket(rate, burst, clock=self._clock))
        self.admission = AdmissionController(
            max_inflight=max_inflight, max_queue=max_queue,
            bucket=bucket)
        self._executor = ThreadPoolExecutor(
            max_workers=solver_threads,
            thread_name_prefix="repro-service-solver")
        self._inflight: Dict[str, "asyncio.Future[ScenarioResult]"] = {}
        self.requests = 0
        self.coalesced = 0
        self.solves = 0
        self.errors = 0

    # ------------------------------------------------------------------

    async def handle(self, spec: ScenarioSpec) -> ServiceResponse:
        """Serve one scenario request end to end."""
        start = time.perf_counter()
        self.requests += 1
        reason = self.admission.check_rate()
        if reason is not None:
            return self._respond(ServiceResponse(
                status=429, shed_reason=reason), start)

        key = self.engine.key_for(spec)
        pending = self._inflight.get(key)
        if pending is not None or key in self.engine.cache:
            return await self._join_or_hit(spec, key, pending, start)

        reason = await self.admission.acquire()
        if reason is not None:
            return self._respond(ServiceResponse(
                status=429, key=key, shed_reason=reason), start)
        # Re-probe after the queue wait: a duplicate that was admitted
        # first may have started (or finished and cached) this solve.
        pending = self._inflight.get(key)
        if pending is not None or key in self.engine.cache:
            await self.admission.release()
            return await self._join_or_hit(spec, key, pending, start)

        loop = asyncio.get_running_loop()
        future: "asyncio.Future[ScenarioResult]" = loop.create_future()
        self._inflight[key] = future
        try:
            result = await loop.run_in_executor(
                self._executor, self.engine.serve, spec)
            self.solves += 1
            future.set_result(result)
        except BaseException as ex:  # repro: noqa[RPR007] — waiters
            # coalesced onto this future must be answered (or
            # cancelled) no matter how the solve died.
            if isinstance(ex, asyncio.CancelledError):
                future.cancel()
            else:
                future.set_exception(ex)
                future.exception()  # mark retrieved: waiters are optional
            raise
        finally:
            self._inflight.pop(key, None)
            await self.admission.release()
        return self._respond(ServiceResponse(
            status=200 if result.ok else 500, result=result, key=key),
            start)

    async def _join_or_hit(
            self, spec: ScenarioSpec, key: str,
            pending: Optional["asyncio.Future[ScenarioResult]"],
            start: float) -> ServiceResponse:
        """Answer a request, without a solve slot, whose key is in
        flight (``pending``: join the winner's solve) or else cached."""
        if pending is None:
            # Servable from memory: answer inline on the event loop (a
            # dict lookup — cheaper than an executor round-trip).  The
            # transitive disk-I/O path inside serve() is unreachable
            # here: the caller's `key in cache` just proved the
            # in-memory entry exists, so lookup() never falls through
            # to _disk_load().
            result = self.engine.serve(spec)  # repro: noqa[RPR009]
            return self._respond(ServiceResponse(
                status=200 if result.ok else 500, result=result,
                key=key), start)
        self.coalesced += 1
        if _TEL.enabled:
            _TEL.metrics.counter(
                "service_coalesced_total",
                "Requests that joined an in-flight solve for the "
                "same scenario key").inc()
        try:
            result = await asyncio.shield(pending)
        except Exception as ex:  # repro: noqa[RPR007] — the winner's
            # failure must answer every waiter, not crash the transport
            # task.
            return self._respond(ServiceResponse(
                status=500, key=key,
                result=ScenarioResult(
                    spec=spec, key=key,
                    error=f"{type(ex).__name__}: {ex}")), start)
        return self._respond(ServiceResponse(
            status=200 if result.ok else 500, result=result, key=key,
            coalesced=True), start)

    def _respond(self, response: ServiceResponse,
                 start: float) -> ServiceResponse:
        response.elapsed = time.perf_counter() - start
        if response.status == 500:
            self.errors += 1
        if _TEL.enabled:
            outcome = {200: "ok", 429: "shed"}.get(
                response.status, "error")
            _TEL.metrics.counter(
                "service_requests_total", "Service requests by outcome",
                labels={"outcome": outcome}).inc()
            _TEL.metrics.histogram(
                "service_request_seconds",
                "End-to-end request latency, including queueing"
                ).observe(response.elapsed)
        return response

    # ------------------------------------------------------------------
    # Operational seams (control plane, admin endpoints)
    # ------------------------------------------------------------------

    def invalidate(self) -> int:
        """Bump the cache version: every cached equilibrium (memory
        and disk) lazily becomes a miss. The online parameter-update
        path — no restart, no flush pause. Returns the new version."""
        cache = self.engine.cache
        version = cache.invalidate()
        if _TEL.enabled:
            _TEL.emit("service.invalidate", version=version)
        return int(version)

    def set_max_inflight(self, max_inflight: int) -> None:
        """Resize the solve-concurrency bound (thread-safe; the
        control plane's admission actuator seam)."""
        self.admission.resize(max_inflight)

    @property
    def max_inflight(self) -> int:
        return self.admission.max_inflight

    def stats(self) -> Dict[str, Any]:
        """JSON-shaped operational snapshot for the stats endpoint."""
        cache = self.engine.cache
        return {"requests": self.requests,
                "coalesced": self.coalesced,
                "solves": self.solves,
                "errors": self.errors,
                "inflight_keys": len(self._inflight),
                "admission": self.admission.to_dict(),
                "cache": {"maxsize": cache.maxsize, "ttl": cache.ttl,
                          "version": cache.version,
                          "entries": len(cache),
                          "stats": cache.stats.to_dict()}}

    def close(self) -> None:
        """Shut down the solver thread pool (idempotent)."""
        self._executor.shutdown(wait=True, cancel_futures=True)

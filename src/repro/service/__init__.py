"""Online equilibrium serving: an asyncio service over the engine.

Where :mod:`repro.serving` answers *batches* (one caller, many
scenarios), this subpackage answers *traffic* (many concurrent
callers, overlapping scenarios) — the paper's edge-cloud operator run
as a long-lived service:

* :mod:`repro.service.service` — :class:`EquilibriumService`, the
  asyncio core: request coalescing (concurrent duplicates share one
  solve via a future map), admission control with explicit shedding,
  and a solver thread pool behind the event loop, all in front of one
  :class:`~repro.serving.cache.ScenarioCache` with TTL expiry and
  versioned invalidation for online parameter updates;
* :mod:`repro.service.admission` — :class:`TokenBucket` rate limiting
  plus the bounded-queue :class:`AdmissionController`;
* :mod:`repro.service.server` / :mod:`repro.service.client` — a
  stdlib asyncio-streams HTTP front end and matching clients (HTTP
  and in-process);
* :mod:`repro.service.loadgen` — the seeded 10^5–10^6-request load
  harness with SLO verdicts from the telemetry histograms.

Quickstart::

    import asyncio
    from repro import homogeneous, Prices
    from repro.serving import ScenarioSpec
    from repro.service import EquilibriumService, InProcessClient

    async def main():
        service = EquilibriumService(max_inflight=4, ttl=300.0)
        client = InProcessClient(service)
        spec = ScenarioSpec(
            homogeneous(5, 200.0, reward=1500.0, fork_rate=0.2, h=0.8),
            Prices(2.0, 1.0))
        payload = await client.solve(spec)
        print(payload["status"], payload["key"])
        service.close()

    asyncio.run(main())
"""

from .admission import (SHED_QUEUE_FULL, SHED_RATE, AdmissionController,
                        TokenBucket)
from .client import HttpClient, InProcessClient
from .loadgen import (LoadPlan, LoadReport, quantiles_from_prometheus,
                      request_indices, run_load, scenario_pool)
from .server import ServiceServer, response_payload
from .service import EquilibriumService, ServiceResponse

__all__ = [
    "AdmissionController",
    "EquilibriumService",
    "HttpClient",
    "InProcessClient",
    "LoadPlan",
    "LoadReport",
    "SHED_QUEUE_FULL",
    "SHED_RATE",
    "ServiceResponse",
    "ServiceServer",
    "TokenBucket",
    "quantiles_from_prometheus",
    "request_indices",
    "response_payload",
    "run_load",
    "scenario_pool",
]

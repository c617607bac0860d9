"""The service core: coalescing determinism, shedding, TTL/versioned
invalidation, and the operational seams."""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.core import Prices, homogeneous
from repro.exceptions import ConfigurationError
from repro.service import EquilibriumService
from repro.serving import ScenarioSpec, ServingEngine
from repro.telemetry import TELEMETRY as _TEL
from repro.telemetry import telemetry_session


def miner_spec(budget=200.0, label=""):
    params = homogeneous(5, budget, reward=1500.0, fork_rate=0.2,
                         h=0.8)
    return ScenarioSpec(params, Prices(p_e=2.0, p_c=1.0), label=label)


class TestCoalescing:
    def test_concurrent_identical_requests_solve_once(self):
        """N concurrent requests for one key: exactly one solve, the
        rest coalesce — asserted on the telemetry counters too."""
        n = 12

        async def run(service):
            return await asyncio.gather(
                *(service.handle(miner_spec()) for _ in range(n)))

        with telemetry_session():
            service = EquilibriumService(max_inflight=4, max_queue=64)
            responses = asyncio.run(run(service))
            coalesced_total = _TEL.metrics.counter(
                "service_coalesced_total").value
            ok_total = _TEL.metrics.counter(
                "service_requests_total",
                labels={"outcome": "ok"}).value
            service.close()

        assert all(r.ok for r in responses)
        assert service.solves == 1
        assert service.coalesced == n - 1
        assert coalesced_total == n - 1
        assert ok_total == n
        assert sum(1 for r in responses if r.coalesced) == n - 1

    def test_coalesced_results_bit_identical_to_direct_serve(self):
        async def run(service):
            return await asyncio.gather(
                *(service.handle(miner_spec()) for _ in range(8)))

        service = EquilibriumService()
        responses = asyncio.run(run(service))
        service.close()

        direct = ServingEngine().serve(miner_spec())
        assert direct.ok
        for response in responses:
            np.testing.assert_array_equal(response.result.value.e,
                                          direct.value.e)
            np.testing.assert_array_equal(response.result.value.c,
                                          direct.value.c)
        # Waiters share the winner's result object outright.
        winners = {id(r.result) for r in responses}
        assert len(winners) == 1

    def test_distinct_keys_do_not_coalesce(self):
        async def run(service):
            specs = [miner_spec(150.0), miner_spec(250.0)]
            return await asyncio.gather(
                *(service.handle(s) for s in specs))

        service = EquilibriumService()
        responses = asyncio.run(run(service))
        service.close()
        assert all(r.ok for r in responses)
        assert service.solves == 2
        assert service.coalesced == 0

    def test_cache_hit_answers_inline(self):
        async def run(service):
            first = await service.handle(miner_spec())
            second = await service.handle(miner_spec())
            return first, second

        service = EquilibriumService()
        first, second = asyncio.run(run(service))
        service.close()
        assert first.result.source == "solved"
        assert second.result.source == "memory"
        assert service.solves == 1


class TestShedding:
    def test_queue_full_sheds_with_429(self):
        async def run(service):
            specs = [miner_spec(100.0 + 10.0 * i) for i in range(8)]
            return await asyncio.gather(
                *(service.handle(s) for s in specs))

        service = EquilibriumService(max_inflight=1, max_queue=1)
        responses = asyncio.run(run(service))
        service.close()
        shed = [r for r in responses if r.status == 429]
        served = [r for r in responses if r.ok]
        assert len(shed) == 6 and len(served) == 2
        assert {r.shed_reason for r in shed} == {"queue-full"}

    def test_rate_gate_sheds_before_keying(self):
        now = [0.0]

        async def run(service):
            return [await service.handle(miner_spec())
                    for _ in range(3)]

        service = EquilibriumService(rate=1.0, burst=2.0,
                                     clock=lambda: now[0])
        responses = asyncio.run(run(service))
        service.close()
        assert [r.status for r in responses] == [200, 200, 429]
        assert responses[2].shed_reason == "rate"
        assert responses[2].key == ""


class TestTtlAndInvalidation:
    def test_ttl_expiry_forces_a_fresh_solve(self):
        now = [0.0]

        async def run(service):
            a = await service.handle(miner_spec())
            b = await service.handle(miner_spec())
            now[0] = 6.0  # beyond the 5s TTL
            c = await service.handle(miner_spec())
            return a, b, c

        service = EquilibriumService(ttl=5.0, clock=lambda: now[0])
        a, b, c = asyncio.run(run(service))
        service.close()
        assert a.result.source == "solved"
        assert b.result.source == "memory"
        assert c.result.source == "solved"
        assert service.solves == 2

    def test_invalidate_bumps_version_and_resolves(self):
        async def run(service):
            a = await service.handle(miner_spec())
            version = service.invalidate()
            b = await service.handle(miner_spec())
            return a, version, b

        service = EquilibriumService()
        a, version, b = asyncio.run(run(service))
        service.close()
        assert version == 1
        assert a.result.source == "solved"
        assert b.result.source == "solved"
        assert service.solves == 2
        # Equality is to solver tolerance, not bitwise: at n=5 the
        # default kernel="auto" resolves to the running sweep, which
        # accepts warm starts — the re-solve seeds from the retired
        # answer's warm-index entry and takes a different (equally
        # converged) trajectory.  The vectorized kernel (n >= 20)
        # ignores initial iterates and re-solves bit-identically.
        np.testing.assert_allclose(a.result.value.e,
                                   b.result.value.e,
                                   rtol=1e-7, atol=1e-7)


class TestSeams:
    def test_set_max_inflight_reflected_in_stats(self):
        service = EquilibriumService(max_inflight=8)
        service.set_max_inflight(2)
        assert service.max_inflight == 2
        doc = service.stats()
        assert doc["admission"]["max_inflight"] == 2.0
        assert set(doc["cache"]) == {"maxsize", "ttl", "version",
                                     "entries", "stats"}
        assert doc["cache"]["entries"] == 0
        service.close()

    def test_engine_and_cache_dir_mutually_exclusive(self, tmp_path):
        with pytest.raises(ConfigurationError):
            EquilibriumService(engine=ServingEngine(),
                               cache_dir=tmp_path)

    def test_kernel_override_applied_before_keying(self):
        async def run(service):
            return await service.handle(miner_spec())

        service = EquilibriumService()
        service.engine.set_kernel_override("scalar")
        response = asyncio.run(run(service))
        service.close()
        assert response.ok
        assert response.result.spec.kernel == "scalar"
        # The coalescing key matches what the engine cached under —
        # not the key of the kernel the caller asked for.
        assert response.key == service.engine.key_for(
            response.result.spec)
        assert response.key != ServingEngine().key_for(miner_spec())


class GatedEngine(ServingEngine):
    """Engine whose serve of a gated budget blocks until the test opens
    its gate, so requests can be parked at chosen points of the
    service's path. Every serve records the admission slots held when
    it started."""

    def __init__(self, *budgets):
        super().__init__()
        self.gates = {b: threading.Event() for b in budgets}
        self.solving = set()
        self.calls = []
        self.admission = None

    def serve(self, spec):
        budget = float(spec.params.budgets[0])
        self.calls.append((budget, self.admission.inflight))
        gate = self.gates.get(budget)
        if gate is not None and not gate.is_set():
            self.solving.add(budget)
            gate.wait(timeout=30.0)
        return super().serve(spec)


async def until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        await asyncio.sleep(0.001)


class TestPostAdmissionReprobe:
    """A request that queued for a slot re-probes its key on waking:
    a key solved meanwhile is served from memory, a key in flight is
    joined. Either way the slot goes back before the request waits."""

    def _service(self, engine, max_inflight):
        service = EquilibriumService(engine, max_inflight=max_inflight,
                                     max_queue=8, solver_threads=2)
        engine.admission = service.admission
        return service

    def _run(self, engine, service, run):
        try:
            return asyncio.run(run())
        finally:
            for gate in engine.gates.values():
                gate.set()
            service.close()

    def test_queued_duplicate_finds_its_key_cached(self):
        engine = GatedEngine(150.0, 200.0)
        service = self._service(engine, max_inflight=1)

        async def run():
            x = asyncio.ensure_future(service.handle(miner_spec(150.0)))
            await until(lambda: engine.solving == {150.0})
            a = asyncio.ensure_future(service.handle(miner_spec(200.0)))
            await until(lambda: service.admission.queued == 1)
            b = asyncio.ensure_future(service.handle(miner_spec(200.0)))
            await until(lambda: service.admission.queued == 2)
            engine.gates[150.0].set()
            await until(lambda: 200.0 in engine.solving)
            assert service.solves == 1
            engine.gates[200.0].set()
            return await asyncio.gather(x, a, b)

        x, a, b = self._run(engine, service, run)
        assert all(r.ok for r in (x, a, b))
        assert a.result.source == "solved"
        assert b.result.source == "memory" and not b.coalesced
        assert service.solves == 2 and service.coalesced == 0
        # A solved holding its slot; B served inline after releasing its.
        assert [c for c in engine.calls if c[0] == 200.0] == [
            (200.0, 1), (200.0, 0)]
        assert service._inflight == {}
        assert service.admission.inflight == 0
        assert service.admission.queued == 0

    def test_queued_duplicate_joins_its_key_in_flight(self):
        engine = GatedEngine(150.0, 200.0, 250.0)
        service = self._service(engine, max_inflight=2)

        async def run():
            x1 = asyncio.ensure_future(service.handle(miner_spec(150.0)))
            x2 = asyncio.ensure_future(service.handle(miner_spec(250.0)))
            await until(lambda: engine.solving == {150.0, 250.0})
            a = asyncio.ensure_future(service.handle(miner_spec(200.0)))
            await until(lambda: service.admission.queued == 1)
            b = asyncio.ensure_future(service.handle(miner_spec(200.0)))
            await until(lambda: service.admission.queued == 2)
            engine.gates[150.0].set()
            await until(lambda: 200.0 in engine.solving)
            engine.gates[250.0].set()
            await until(lambda: service.coalesced == 1)
            # B waits on A's solve without holding a slot.
            assert service.admission.inflight == 1
            assert service.admission.queued == 0
            engine.gates[200.0].set()
            return await asyncio.gather(x1, x2, a, b)

        x1, x2, a, b = self._run(engine, service, run)
        assert all(r.ok for r in (x1, x2, a, b))
        assert b.coalesced and not a.coalesced
        assert b.result is a.result
        assert service.solves == 3 and service.coalesced == 1
        # A started solving while X2 still held the other slot.
        assert [c for c in engine.calls if c[0] == 200.0] == [(200.0, 2)]
        assert service._inflight == {}
        assert service.admission.inflight == 0
        assert service.admission.queued == 0

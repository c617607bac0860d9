"""ServingEngine: batching, dedup, warm chaining, workers, errors."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (EdgeMode, Prices, homogeneous,
                        solve_connected_equilibrium, solve_stackelberg)
from repro.exceptions import ConfigurationError
from repro.serving import ScenarioCache, ScenarioSpec, ServingEngine


def _params(**overrides):
    defaults = dict(reward=1500.0, fork_rate=0.2, h=0.8)
    defaults.update(overrides)
    return homogeneous(5, 200.0, **defaults)


def _grid(n=8, lo=0.5, hi=1.3):
    step = 0.0 if n == 1 else (hi - lo) / (n - 1)
    return [ScenarioSpec(_params(), Prices(2.0, round(lo + k * step, 9)))
            for k in range(n)]


class TestServeBatch:
    def test_results_align_with_input_order(self):
        engine = ServingEngine(max_workers=0)
        specs = _grid(5)
        results = engine.serve_batch(specs)
        assert [r.spec for r in results] == specs
        assert all(r.ok and r.source == "solved" for r in results)
        assert all(r.elapsed > 0 for r in results)

    def test_counters_track_misses_then_hits(self):
        engine = ServingEngine(max_workers=0)
        specs = _grid(6)
        engine.serve_batch(specs)
        assert engine.stats.misses == 6
        assert engine.stats.hits == 0
        results = engine.serve_batch(specs)
        assert engine.stats.hits == 6
        assert engine.stats.misses == 6
        assert engine.stats.hit_rate == pytest.approx(0.5)
        assert all(r.source == "memory" for r in results)

    def test_dedup_within_batch_solves_once(self):
        engine = ServingEngine(max_workers=0)
        spec = _grid(1)[0]
        results = engine.serve_batch([spec, spec, spec])
        assert engine.stats.misses == 1 and engine.stats.puts == 1
        assert results[0].source == "solved"
        assert {r.source for r in results[1:]} == {"dedup"}
        assert results[1].value is results[0].value

    def test_matches_direct_solver_exactly_when_cold(self):
        # Acceptance: the engine must be a transparent wrapper — a cold
        # serial solve is bit-identical to calling the solver directly.
        engine = ServingEngine(max_workers=0, warm_start=False,
                               use_guard=False)
        spec = _grid(1)[0]
        direct = solve_connected_equilibrium(spec.params, spec.prices,
                                             tol=spec.tol,
                                             kernel=spec.kernel)
        served = engine.serve(spec).value
        assert np.array_equal(served.e, direct.e)
        assert np.array_equal(served.c, direct.c)

    def test_warm_starts_chain_within_serial_batch(self):
        engine = ServingEngine(max_workers=0, warm_start=True)
        results = engine.serve_batch(_grid(8))
        warm_keys = [r.warm_key for r in results]
        assert warm_keys[0] is None  # nothing to warm-start from yet
        assert all(k is not None for k in warm_keys[1:])
        # Warm equilibria agree with cold ones within solver tolerance.
        cold = ServingEngine(max_workers=0, warm_start=False)
        for r_warm, r_cold in zip(results, cold.serve_batch(_grid(8))):
            np.testing.assert_allclose(r_warm.value.e, r_cold.value.e,
                                       atol=1e-6)
            np.testing.assert_allclose(r_warm.value.c, r_cold.value.c,
                                       atol=1e-6)

    def test_per_scenario_error_capture(self):
        engine = ServingEngine(max_workers=0, use_guard=False)
        good = _grid(1)[0]
        bad = ScenarioSpec(_params(), Prices(2.0, 1.0), scheme="bogus")
        results = engine.serve_batch([good, bad, good])
        assert results[0].ok
        assert not results[1].ok
        assert "bogus" in results[1].error
        assert results[1].value is None
        assert results[2].ok  # the batch survived the bad scenario
        assert engine.stats.puts == 1  # failures are never cached

    def test_stackelberg_scenarios(self):
        engine = ServingEngine(max_workers=0, warm_start=False,
                               use_guard=False)
        spec = ScenarioSpec(_params())
        result = engine.serve(spec)
        assert result.ok
        direct = solve_stackelberg(spec.params, demand_tol=spec.tol,
                                   kernel=spec.kernel)
        assert result.value.prices == direct.prices

    def test_extragradient_scheme_requires_standalone(self):
        engine = ServingEngine(max_workers=0, use_guard=False)
        bad = ScenarioSpec(_params(), Prices(2.0, 1.0),
                           scheme="extragradient")
        assert "standalone" in engine.serve(bad).error
        params = homogeneous(5, 200.0, reward=1500.0, fork_rate=0.2,
                             mode=EdgeMode.STANDALONE, e_max=80.0)
        ok = ScenarioSpec(params, Prices(2.0, 1.0),
                          scheme="extragradient")
        result = engine.serve(ok)
        assert result.ok and result.solver == "vi-extragradient"


class TestParallel:
    def test_parallel_matches_serial(self):
        specs = _grid(8)
        serial = ServingEngine(max_workers=0, warm_start=False,
                               use_guard=False).serve_batch(specs)
        parallel = ServingEngine(max_workers=2, warm_start=False,
                                 use_guard=False).serve_batch(specs)
        for s, p in zip(serial, parallel):
            assert np.array_equal(s.value.e, p.value.e)
            assert np.array_equal(s.value.c, p.value.c)

    def test_parallel_error_capture(self):
        specs = _grid(3) + [ScenarioSpec(_params(), Prices(2.0, 1.0),
                                         scheme="bogus")]
        results = ServingEngine(max_workers=2, warm_start=False,
                                use_guard=False).serve_batch(specs)
        assert sum(r.ok for r in results) == 3
        assert not results[-1].ok


class TestPersistence:
    def test_engine_survives_restart_via_disk(self, tmp_path):
        specs = _grid(4)
        first = ServingEngine(max_workers=0, cache_dir=tmp_path)
        originals = first.serve_batch(specs)
        fresh = ServingEngine(max_workers=0, cache_dir=tmp_path)
        reloaded = fresh.serve_batch(specs)
        assert fresh.stats.disk_hits == 4
        assert fresh.stats.misses == 0
        assert {r.source for r in reloaded} == {"disk"}
        for orig, back in zip(originals, reloaded):
            np.testing.assert_allclose(back.value.e, orig.value.e,
                                       rtol=1e-12)

    def test_shared_cache_between_engines(self):
        cache = ScenarioCache()
        a = ServingEngine(cache=cache, max_workers=0)
        b = ServingEngine(cache=cache, max_workers=0)
        spec = _grid(1)[0]
        a.serve(spec)
        assert b.serve(spec).source == "memory"
        assert cache.stats.hits == 1

    def test_cache_and_cache_dir_are_exclusive(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ServingEngine(cache=ScenarioCache(), cache_dir=tmp_path)


class TestWarmIndex:
    def test_memory_hits_leave_the_index_unchanged(self):
        engine = ServingEngine(max_workers=0)
        specs = _grid(3)
        engine.serve_batch(specs)
        assert len(engine.warm_index) == 3
        for _ in range(3):
            results = engine.serve_batch(specs)
            assert {r.source for r in results} == {"memory"}
        assert len(engine.warm_index) == 3

    def test_disk_hit_in_a_fresh_engine_adds_one_entry(self, tmp_path):
        spec = _grid(1)[0]
        ServingEngine(max_workers=0, cache_dir=tmp_path).serve(spec)
        fresh = ServingEngine(max_workers=0, cache_dir=tmp_path)
        assert len(fresh.warm_index) == 0
        assert fresh.serve(spec).source == "disk"
        assert len(fresh.warm_index) == 1
        assert fresh.serve(spec).source == "memory"
        assert len(fresh.warm_index) == 1


class TestKeying:
    def test_key_for_is_stable_and_quantized(self):
        engine = ServingEngine()
        a = ScenarioSpec(_params(), Prices(2.0, 1.0))
        b = ScenarioSpec(_params(), Prices(2.0 + 1e-13, 1.0))
        assert engine.key_for(a) == engine.key_for(b)

    def test_key_for_applies_the_kernel_override(self):
        engine = ServingEngine(max_workers=0)
        spec = ScenarioSpec(_params(), Prices(2.0, 1.0))
        engine.set_kernel_override("scalar")
        key = engine.key_for(spec)
        assert key == engine.key_for(replace(spec, kernel="scalar"))
        assert key != ServingEngine().key_for(spec)
        result = engine.serve(spec)
        assert result.key == key and result.spec.kernel == "scalar"

    def test_sub_quantum_queries_share_cache_entries(self):
        engine = ServingEngine(max_workers=0)
        a = ScenarioSpec(_params(), Prices(2.0, 1.0))
        b = ScenarioSpec(_params(), Prices(2.0 + 1e-13, 1.0))
        engine.serve(a)
        assert engine.serve(b).source == "memory"

"""Nearest-neighbor warm-start index."""

import numpy as np

from repro.core import Prices, homogeneous, solve_connected_equilibrium
from repro.serving import (ScenarioSpec, ServingEngine, WarmStartIndex,
                           scenario_key)


def _scenario(p_c=1.0, reward=1500.0):
    params = homogeneous(5, 200.0, reward=reward, fork_rate=0.2, h=0.8)
    return ScenarioSpec(params, Prices(p_e=2.0, p_c=p_c))


def _solve(spec):
    return solve_connected_equilibrium(spec.params, spec.prices)


class TestWarmStartIndex:
    def test_empty_index_suggests_nothing(self):
        assert WarmStartIndex().suggest(_scenario()) is None

    def test_nearest_neighbor_wins(self):
        index = WarmStartIndex()
        for p_c in (0.8, 1.0, 1.2):
            spec = _scenario(p_c)
            index.add(spec, scenario_key(spec), _solve(spec))
        hit = index.suggest(_scenario(1.05))
        assert hit is not None
        assert hit.key == scenario_key(_scenario(1.0))
        assert hit.prices == Prices(2.0, 1.0)
        e, c = hit.profile
        assert e.shape == (5,) and c.shape == (5,)
        assert hit.distance < 0.1

    def test_far_neighbor_suppressed(self):
        index = WarmStartIndex(max_relative_distance=0.1)
        spec = _scenario(1.0)
        index.add(spec, scenario_key(spec), _solve(spec))
        assert index.suggest(_scenario(1.02)) is not None
        # reward 3x away: relative distance far beyond the cutoff
        assert index.suggest(_scenario(1.02, reward=4500.0)) is None

    def test_families_are_isolated(self):
        index = WarmStartIndex()
        miner = _scenario(1.0)
        index.add(miner, scenario_key(miner), _solve(miner))
        stackelberg = ScenarioSpec(miner.params)  # leader-stage family
        assert index.suggest(stackelberg) is None

    def test_retention_drops_oldest(self):
        index = WarmStartIndex(max_entries=2)
        specs = [_scenario(p) for p in (0.8, 1.0, 1.2)]
        for spec in specs:
            index.add(spec, scenario_key(spec), _solve(spec))
        assert len(index) == 2
        # 0.8 was evicted; nearest to 0.8 is now 1.0
        hit = index.suggest(_scenario(0.8))
        assert hit.key == scenario_key(_scenario(1.0))

    def test_foreign_result_types_ignored(self):
        index = WarmStartIndex()
        spec = _scenario()
        index.add(spec, scenario_key(spec), object())
        assert len(index) == 0

    def test_suggestion_profile_is_a_copy(self):
        index = WarmStartIndex()
        spec = _scenario()
        index.add(spec, scenario_key(spec), _solve(spec))
        hit = index.suggest(spec)
        hit.profile[0][:] = np.nan
        again = index.suggest(spec)
        assert np.all(np.isfinite(again.profile[0]))

    def test_re_adding_a_key_replaces_its_entry(self):
        index = WarmStartIndex()
        spec = _scenario(1.0)
        first = _solve(spec)
        newer = _solve(_scenario(1.1))
        index.add(spec, scenario_key(spec), first)
        index.add(spec, scenario_key(spec), newer)
        assert len(index) == 1
        hit = index.suggest(spec)
        assert np.array_equal(hit.profile[0], newer.e)
        assert np.array_equal(hit.profile[1], newer.c)

    def test_re_added_key_becomes_newest(self):
        index = WarmStartIndex(max_entries=2)
        a, b, c = (_scenario(p) for p in (0.8, 1.0, 1.2))
        for spec in (a, b, a, c):
            index.add(spec, scenario_key(spec), _solve(spec))
        # a was refreshed after b, so b is the oldest and leaves first.
        assert len(index) == 2
        assert index.suggest(_scenario(1.0)).key != scenario_key(b)


class TestEngineWarmIndex:
    def test_re_solve_after_invalidate_keeps_one_entry(self):
        engine = ServingEngine()
        specs = [_scenario(p) for p in (0.8, 1.0, 1.2)]
        engine.serve_batch(specs)
        entries = len(engine.warm_index)
        assert entries == len(specs)
        engine.cache.invalidate()
        again = engine.serve_batch(specs)
        assert all(r.source == "solved" for r in again)
        assert len(engine.warm_index) == entries
        hit = engine.warm_index.suggest(specs[1])
        assert hit.key == again[1].key
        assert np.array_equal(hit.profile[0], again[1].value.e)

"""Differential battery for the type-space compressed solver.

Three contracts, each checked against the exact per-miner aggregate
solve at sizes where the exact solve is cheap:

1. **Certified bound**: the measured per-coordinate error of the
   compressed solve never exceeds its reported ``error_bound`` — at
   every tested ``(n, k)``, in both the budget-slack and the
   budget-bound regime.
2. **Identity**: ``k >= n`` reproduces the exact per-miner solution
   **bit-for-bit** (not just within tolerance).
3. **Monotone certificate**: the certified bound is non-increasing as
   ``k`` grows (the measured error itself is noisy — a coarse
   compression can get lucky — but the certificate must tighten).

Plus the plumbing: ``n_types=`` threading through
``solve_connected_equilibrium`` / ``solve_standalone_equilibrium``,
``error_bound`` on the result, and the serving cache key separating
compressed from exact scenarios.
"""

import numpy as np
import pytest

from repro.core.gnep import solve_standalone_equilibrium
from repro.core.nep import solve_connected_equilibrium
from repro.core.params import (EdgeMode, GameParameters, Prices,
                               homogeneous)
from repro.exceptions import ConfigurationError
from repro.kernels.aggregate import solve_connected_aggregate
from repro.kernels.typespace import solve_connected_typespace
from repro.population import compress_budgets

PRICES = Prices(p_e=2.0, p_c=1.0)


def _slack_game(n, seed):
    """Heterogeneous budgets far above the interior spend (slack)."""
    rng = np.random.default_rng(seed)
    budgets = 200.0 * rng.lognormal(mean=0.0, sigma=0.5, size=n)
    return GameParameters(reward=1000.0, fork_rate=0.2,
                          budgets=budgets, h=0.8)


def _bound_game(n, seed):
    """Budgets at the interior-spend scale: a mixed bound/slack
    population — the regime where bucket widths genuinely matter."""
    rng = np.random.default_rng(seed)
    budgets = (600.0 / n) * rng.lognormal(mean=0.0, sigma=0.75, size=n)
    return GameParameters(reward=1000.0 * n, fork_rate=0.2,
                          budgets=budgets, h=0.8)


def _max_err(ts, exact):
    return max(float(np.max(np.abs(ts.e - exact.e))),
               float(np.max(np.abs(ts.c - exact.c))))


class TestCertifiedBound:
    @pytest.mark.parametrize("make", [_slack_game, _bound_game])
    @pytest.mark.parametrize("n", [32, 128, 512])
    def test_error_within_bound(self, make, n):
        params = make(n, seed=n)
        exact = solve_connected_aggregate(params, PRICES)
        for k in (4, 16, 64):
            if k >= n:
                continue  # identity path, covered by TestIdentity
            ts = solve_connected_typespace(params, PRICES, k)
            assert not ts.exact
            assert _max_err(ts, exact) <= ts.error_bound
            # The compressed profile never violates any true budget.
            spend = PRICES.p_e * ts.e + PRICES.p_c * ts.c
            assert np.all(spend <= params.budget_array * (1 + 1e-12))

    def test_bound_respects_nu(self):
        params = _bound_game(128, seed=5)
        exact = solve_connected_aggregate(params, PRICES, nu=0.3)
        ts = solve_connected_typespace(params, PRICES, 16, nu=0.3)
        assert _max_err(ts, exact) <= ts.error_bound

    def test_precomputed_compression_reused(self):
        params = _slack_game(64, seed=9)
        comp = compress_budgets(params.budget_array, 8)
        ts = solve_connected_typespace(params, PRICES, 8,
                                       compression=comp)
        assert ts.compression is comp
        with pytest.raises(ConfigurationError):
            solve_connected_typespace(
                _slack_game(32, seed=1), PRICES, 8, compression=comp)

    def test_homogeneous_collapses_exactly(self):
        params = homogeneous(256, 200.0, reward=1000.0, fork_rate=0.2,
                             h=0.8)
        ts = solve_connected_typespace(params, PRICES, 4)
        exact = solve_connected_aggregate(params, PRICES)
        assert ts.exact and ts.error_bound == 0.0
        assert _max_err(ts, exact) == 0.0


class TestIdentity:
    @pytest.mark.parametrize("n", [16, 128])
    def test_k_equal_n_bit_for_bit(self, n):
        params = _slack_game(n, seed=n + 1)
        exact = solve_connected_aggregate(params, PRICES)
        ts = solve_connected_typespace(params, PRICES, n)
        assert ts.exact and ts.error_bound == 0.0
        assert np.array_equal(ts.e, exact.e)
        assert np.array_equal(ts.c, exact.c)

    def test_equilibrium_entrypoint_k_ge_n_bit_for_bit(self):
        # n_types >= n falls through to the standard kernel path: the
        # result must be indistinguishable from never passing n_types.
        params = _slack_game(64, seed=3)
        plain = solve_connected_equilibrium(params, PRICES,
                                            kernel="vectorized")
        via = solve_connected_equilibrium(params, PRICES,
                                          kernel="vectorized",
                                          n_types=64)
        assert via.error_bound is None
        assert np.array_equal(via.e, plain.e)
        assert np.array_equal(via.c, plain.c)


class TestMonotoneCertificate:
    @pytest.mark.parametrize("make", [_slack_game, _bound_game])
    def test_bound_tightens_with_k(self, make):
        params = make(512, seed=11)
        exact = solve_connected_aggregate(params, PRICES)
        bounds = []
        for k in (4, 16, 64, 256, 512):
            ts = solve_connected_typespace(params, PRICES, k)
            assert _max_err(ts, exact) <= ts.error_bound
            bounds.append(ts.error_bound)
        for coarse, fine in zip(bounds, bounds[1:]):
            # Non-increasing up to a little root-finding noise.
            assert fine <= coarse * 1.05 + 1e-12
        assert bounds[-1] == 0.0  # k = n is exact


class TestSolverThreading:
    def test_connected_equilibrium_carries_bound(self):
        params = _bound_game(256, seed=21)
        eq = solve_connected_equilibrium(params, PRICES,
                                         kernel="vectorized",
                                         n_types=16)
        assert eq.converged
        assert eq.error_bound is not None and eq.error_bound > 0.0
        assert "type-space" in eq.report.message
        exact = solve_connected_aggregate(params, PRICES)
        assert _max_err(eq, exact) <= eq.error_bound

    def test_standalone_equilibrium_respects_capacity(self):
        rng = np.random.default_rng(31)
        budgets = 1000.0 * rng.lognormal(mean=0.0, sigma=0.3, size=128)
        params = GameParameters(reward=1000.0, fork_rate=0.2,
                                budgets=budgets,
                                mode=EdgeMode.STANDALONE, e_max=2.0)
        eq = solve_standalone_equilibrium(params, PRICES,
                                          kernel="vectorized",
                                          n_types=8)
        assert eq.total_edge <= 2.0 * (1.0 + 1e-6)
        assert eq.nu > 0.0  # the capacity constraint binds
        exact = solve_standalone_equilibrium(params, PRICES,
                                             kernel="vectorized")
        assert eq.total <= exact.total * 1.2
        assert eq.total >= exact.total * 0.8

    def test_rejects_bad_n_types(self):
        params = _slack_game(16, seed=2)
        with pytest.raises(ConfigurationError):
            solve_connected_equilibrium(params, PRICES, n_types=0)


class TestServingIntegration:
    def test_cache_key_separates_compression_levels(self):
        from repro.serving import ScenarioSpec, scenario_key
        params = _slack_game(32, seed=8)
        exact = ScenarioSpec(params, PRICES)
        k8 = ScenarioSpec(params, PRICES, n_types=8)
        k16 = ScenarioSpec(params, PRICES, n_types=16)
        keys = {scenario_key(s) for s in (exact, k8, k16)}
        assert len(keys) == 3

    def test_codec_roundtrips_n_types_and_bound(self):
        from repro.serving import ScenarioSpec
        from repro.serving.codec import (decode_result, decode_spec,
                                         encode_result, encode_spec)
        params = _bound_game(64, seed=13)
        spec = ScenarioSpec(params, PRICES, n_types=8)
        assert decode_spec(encode_spec(spec)) == spec
        eq = solve_connected_equilibrium(params, PRICES,
                                         kernel="vectorized",
                                         n_types=8)
        back = decode_result(encode_result(eq))
        assert back.error_bound == eq.error_bound
        # An exact solve round-trips its absent bound too.
        plain = solve_connected_equilibrium(params, PRICES,
                                            kernel="vectorized")
        assert decode_result(encode_result(plain)).error_bound is None

    def test_engine_serves_compressed_scenario(self):
        from repro.serving import ScenarioSpec, ServingEngine
        params = _bound_game(128, seed=17)
        engine = ServingEngine(warm_start=False)
        res = engine.serve(ScenarioSpec(params, PRICES, n_types=8))
        assert res.ok
        assert res.value.error_bound is not None
        again = engine.serve(ScenarioSpec(params, PRICES, n_types=8))
        assert again.source in ("memory", "disk")

    def test_guarded_compressed_answer_is_not_degraded(self):
        # The certified bound travels as a one-entry residual history;
        # the guard must not read it as a stalled solve.
        from repro.serving import ScenarioSpec, ServingEngine
        params = _bound_game(128, seed=17)
        engine = ServingEngine(warm_start=False, use_guard=True)
        res = engine.serve(ScenarioSpec(params, PRICES, n_types=8))
        assert res.ok and res.value.report.converged
        assert res.value.error_bound > 0.0
        assert not res.degraded

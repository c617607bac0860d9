"""Demand oracle and SP best-response pricing."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (DemandOracle, EdgeMode, GameParameters, Prices,
                        csp_best_response, esp_best_response,
                        solve_connected_equilibrium,
                        solve_standalone_equilibrium)
from repro.core.closed_form import binding_budget_threshold
from repro.core.homogeneous_demand import homogeneous_demand
from repro.exceptions import ConfigurationError, InfeasibleGameError
from repro.serving import ScenarioSpec, ServingEngine


class TestDemandOracle:
    def test_caches_repeated_queries(self, connected_params, prices):
        oracle = DemandOracle(connected_params)
        oracle.equilibrium(prices)
        n0 = oracle.evaluations
        oracle.equilibrium(prices)
        assert oracle.evaluations == n0

    def test_fast_path_used_for_homogeneous(self, connected_params, prices):
        oracle = DemandOracle(connected_params)
        eq = oracle.equilibrium(prices)
        assert "closed form" in (eq.report.message or "")

    def test_slow_path_matches_fast(self, connected_params, prices):
        fast = DemandOracle(connected_params, fast=True)
        slow = DemandOracle(connected_params, fast=False)
        assert fast.edge_demand(prices) == pytest.approx(
            slow.edge_demand(prices), rel=1e-5)
        assert fast.cloud_demand(prices) == pytest.approx(
            slow.cloud_demand(prices), rel=1e-5)

    def test_heterogeneous_uses_numeric(self, heterogeneous_params):
        # P_c above (1-β)P_e/D: no separable closed form applies.
        oracle = DemandOracle(heterogeneous_params)
        eq = oracle.equilibrium(Prices(2.0, 1.8))
        assert eq.converged
        assert not (eq.report.message or "").startswith("closed form")

    def test_fast_forced_on_heterogeneous_accepted(self,
                                                   heterogeneous_params,
                                                   prices):
        # ``fast`` is a plain switch: heterogeneous games have a closed
        # form too, so there is no "auto" left to resolve.
        eq = DemandOracle(heterogeneous_params,
                          fast=True).equilibrium(prices)
        assert eq.report.message.startswith("closed form (separable")
        with pytest.raises(ConfigurationError):
            DemandOracle(heterogeneous_params, fast="auto")

    def test_unknown_kernel_rejected_eagerly(self, heterogeneous_params):
        # In-region probes never reach a solver that would reject it.
        with pytest.raises(ValueError):
            DemandOracle(heterogeneous_params, kernel="bogus")

    def test_profit_definitions(self, connected_params, prices):
        oracle = DemandOracle(connected_params)
        v_e = oracle.esp_profit(prices)
        v_c = oracle.csp_profit(prices)
        assert v_e == pytest.approx(
            (prices.p_e - 0.2) * oracle.edge_demand(prices))
        assert v_c == pytest.approx(
            (prices.p_c - 0.1) * oracle.cloud_demand(prices))


class TestESPBestResponse:
    def test_interior_optimum(self, binding_params):
        oracle = DemandOracle(binding_params)
        p_e = esp_best_response(oracle, p_c=1.0)
        v_star = oracle.esp_profit(Prices(p_e, 1.0))
        for f in (0.9, 0.97, 1.03, 1.1):
            cand = p_e * f
            if cand > 1.0:
                assert oracle.esp_profit(Prices(cand, 1.0)) <= \
                    v_star * (1 + 1e-5)

    def test_capped_when_cloud_below_cost(self, binding_params):
        """P_c <= C_e: profit rises toward its asymptote; the search
        returns the capped optimum instead of erroring."""
        oracle = DemandOracle(binding_params)
        p_e = esp_best_response(oracle, p_c=0.15, max_expansions=6)
        assert p_e > 1.0  # pushed far right


class TestCSPBestResponse:
    def test_interior_optimum(self, binding_params):
        oracle = DemandOracle(binding_params)
        p_c = csp_best_response(oracle, p_e=2.0)
        v_star = oracle.csp_profit(Prices(2.0, p_c))
        for f in (0.9, 0.97, 1.03, 1.1):
            cand = p_c * f
            if 0 < cand < 2.0:
                assert oracle.csp_profit(Prices(2.0, cand)) <= \
                    v_star * (1 + 1e-5)

    def test_never_above_esp_price(self, binding_params):
        oracle = DemandOracle(binding_params)
        p_c = csp_best_response(oracle, p_e=2.0)
        assert p_c < 2.0

    def test_infeasible_when_esp_below_cloud_cost(self, binding_params):
        oracle = DemandOracle(binding_params)
        with pytest.raises(InfeasibleGameError):
            csp_best_response(oracle, p_e=0.05)


def _separable_game(n, beta, h, factors, reward=1000.0):
    """A connected game whose budgets are ``factors`` times the
    Corollary 1 threshold, so some budgets bind and some do not."""
    threshold = binding_budget_threshold(n, reward, beta, h)
    return GameParameters(reward=reward, fork_rate=beta, h=h,
                          budgets=[threshold * f for f in factors])


def _in_region(params, p_e, frac):
    return Prices(p_e, frac * params.mixed_price_bound(p_e))


@st.composite
def _separable_draws(draw):
    n = draw(st.integers(2, 8))
    factors = draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))
    assume(max(factors) > min(factors) * (1.0 + 1e-6))
    params = _separable_game(n, draw(st.floats(0.05, 0.5)),
                             draw(st.floats(0.3, 1.0)), factors)
    return params, _in_region(params, draw(st.floats(0.5, 3.0)),
                              draw(st.floats(0.05, 0.95)))


class TestSeparableDemand:
    """Closed-form heterogeneous demand in the mixed region."""

    @settings(max_examples=15, deadline=None)
    @given(game=_separable_draws())
    def test_matches_scalar_kernel(self, game):
        # Only the scalar kernel still iterates in the region; converge
        # it tighter than the comparison so its truncation stays out.
        params, prices = game
        eq = DemandOracle(params).equilibrium(prices)
        assert eq.report.message.startswith("closed form (separable")
        assert eq.report.residual <= 1e-12
        ref = solve_connected_equilibrium(params, prices, tol=1e-12,
                                          max_iter=20000)
        assert ref.converged and ref.report.iterations > 0
        scale = max(1.0, float(np.max(ref.e)), float(np.max(ref.c)))
        np.testing.assert_allclose(eq.e, ref.e, rtol=1e-9,
                                   atol=1e-9 * scale)
        np.testing.assert_allclose(eq.c, ref.c, rtol=1e-9,
                                   atol=1e-9 * scale)

    @pytest.mark.parametrize("case", ["outside-region", "standalone",
                                      "no-edge-bonus", "n_types"])
    def test_other_games_keep_the_iterative_answer(self, case):
        params = _separable_game(4, 0.2, 0.8, (0.5, 0.9, 1.2, 2.0))
        prices = Prices(2.0, 1.0)
        kwargs = {}
        if case == "outside-region":
            prices = Prices(2.0, 1.02 * params.mixed_price_bound(2.0))
        elif case == "standalone":
            params = params.with_mode(EdgeMode.STANDALONE, e_max=50.0)
        elif case == "no-edge-bonus":
            params = _separable_game(4, 0.0, 0.8, (0.5, 0.9, 1.2, 2.0))
        else:
            kwargs = {"n_types": 2}
        eq = DemandOracle(params, kernel="auto",
                          **kwargs).equilibrium(prices)
        if params.mode is EdgeMode.STANDALONE:
            ref = solve_standalone_equilibrium(params, prices,
                                               kernel="auto")
        else:
            ref = solve_connected_equilibrium(params, prices,
                                              kernel="auto", **kwargs)
        np.testing.assert_array_equal(eq.e, ref.e)
        np.testing.assert_array_equal(eq.c, ref.c)

    def test_sigma_and_shares_do_not_depend_on_prices(self):
        params = _separable_game(6, 0.2, 0.8, (0.3, 0.6, 0.9, 1.1, 1.5, 2.5))
        oracle = DemandOracle(params)
        first = oracle.equilibrium(_in_region(params, 1.5, 0.3))
        second = oracle.equilibrium(_in_region(params, 2.7, 0.8))
        assert first.prices.p_c * first.total == pytest.approx(
            second.prices.p_c * second.total, rel=1e-14)
        shares = first.e / first.total_edge
        # One share w_i of both pools, at every in-region price.
        for eq in (first, second):
            np.testing.assert_allclose(eq.e / eq.total_edge, shares,
                                       rtol=1e-14)
            np.testing.assert_allclose(eq.c / eq.total_cloud, shares,
                                       rtol=1e-14)

    def test_homogeneous_keeps_homogeneous_demand_bits(self, binding_params,
                                                       prices):
        eq = DemandOracle(binding_params).equilibrium(prices)
        demand = homogeneous_demand(binding_params, prices)
        np.testing.assert_array_equal(eq.e, np.full(5, demand.e))
        np.testing.assert_array_equal(eq.c, np.full(5, demand.c))

    def test_sweep_collapse_case(self):
        # An undamped sweep from the initial profile lands on the
        # absorbing e = (0, 0), and so does every undamped restart. The
        # sweeping kernels and a served answer must still reach the
        # equilibrium the closed form and the aggregate kernel agree on.
        params = GameParameters(reward=1500.0, fork_rate=0.2, h=0.8,
                                budgets=(20.07220061, 260.20568035))
        prices = Prices(1.3457659475254546, 0.5913311752748003)
        ref = solve_connected_equilibrium(params, prices,
                                          kernel="vectorized")
        served = ServingEngine().serve(ScenarioSpec(params, prices))
        assert served.ok and not served.degraded
        answers = {"closed form": (DemandOracle(params).equilibrium(prices),
                                   1e-9),
                   "served": (served.value, 1e-7)}
        for kernel in ("scalar", "running", "auto"):
            answers[kernel] = (solve_connected_equilibrium(
                params, prices, kernel=kernel), 1e-7)
        for name, (eq, rtol) in answers.items():
            assert eq.report.converged, name
            np.testing.assert_allclose(eq.e, [4.434, 33.124], atol=1e-3,
                                       err_msg=name)
            np.testing.assert_allclose(eq.e, ref.e, rtol=rtol, err_msg=name)
            np.testing.assert_allclose(eq.c, ref.c, rtol=rtol, err_msg=name)

    def test_csp_reaction_matches_its_closed_form(self,
                                                  heterogeneous_params):
        # In the region C* = σ(1/P_c − βh/((1-β)(P_e − P_c))), so the
        # CSP's best response is P_e / (1 + √(βh(P_e − C_c)/((1-β)C_c)))
        # (docs/THEORY.md §3); the bounded search must find it.
        p_e, cost = 2.0, heterogeneous_params.cloud_cost
        exact = p_e / (1.0 + np.sqrt(0.16 * (p_e - cost) / (0.8 * cost)))
        oracle = DemandOracle(heterogeneous_params)
        assert csp_best_response(oracle, p_e) == pytest.approx(exact,
                                                               rel=1e-6)

    @pytest.mark.parametrize("prices", [Prices(2.0, 1.0), Prices(2.0, 1.8)],
                             ids=["closed-form", "iterative"])
    def test_demand_does_not_depend_on_probe_order(self, prices):
        params = _separable_game(5, 0.2, 0.8, (0.4, 0.8, 1.0, 1.3, 2.0))
        chained = DemandOracle(params, kernel="auto")
        for earlier in (Prices(1.5, 0.5), Prices(3.0, 2.9)):
            chained.equilibrium(earlier)
        fresh = DemandOracle(params, kernel="auto")
        a, b = chained.equilibrium(prices), fresh.equilibrium(prices)
        np.testing.assert_array_equal(a.e, b.e)
        np.testing.assert_array_equal(a.c, b.c)

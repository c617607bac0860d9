"""Full Stackelberg solves (Algorithms 1/2 and the Theorem-4 scheme)."""

import pytest

from repro.core import (EdgeMode, GameParameters, Prices, homogeneous,
                        solve_stackelberg, table2_standalone,
                        verify_sp_equilibrium)
from repro.serving import ScenarioSpec, ServingEngine


class TestConnected:
    def test_auto_scheme_converges(self, binding_params):
        se = solve_stackelberg(binding_params, tol=1e-5)
        assert se.scheme == "esp-anticipates"
        assert se.converged
        assert se.prices.p_e > se.prices.p_c
        assert se.v_e > 0 and se.v_c > 0

    def test_simultaneous_best_response_cycles(self, binding_params):
        """The connected simultaneous leader game has no pure NE: the ESP
        replies with the pure-edge kink, the CSP undercuts, and the
        iteration cycles (see EXPERIMENTS.md). The solver must report the
        non-convergence honestly."""
        se = solve_stackelberg(binding_params, scheme="best-response",
                               tol=1e-6, max_iter=30)
        assert not se.converged

    def test_followers_at_equilibrium(self, binding_params):
        from repro.core import verify_miner_equilibrium
        se = solve_stackelberg(binding_params, tol=1e-5)
        assert verify_miner_equilibrium(se.miners, rel_tol=1e-4)

    def test_esp_anticipates_scheme(self, binding_params):
        se = solve_stackelberg(binding_params, scheme="esp-anticipates")
        assert se.scheme == "esp-anticipates"
        assert se.prices.p_e > se.prices.p_c

    def test_unknown_scheme_rejected(self, binding_params):
        with pytest.raises(ValueError):
            solve_stackelberg(binding_params, scheme="nope")

    def test_summary_contains_prices(self, binding_params):
        se = solve_stackelberg(binding_params, tol=1e-5)
        assert "P_e=" in se.summary()


class TestStandalone:
    def test_price_bargaining_converges(self):
        params = homogeneous(5, 100.0, reward=1000.0, fork_rate=0.2,
                             mode=EdgeMode.STANDALONE, e_max=30.0,
                             edge_cost=0.2, cloud_cost=0.1)
        se = solve_stackelberg(params, tol=1e-4)
        assert se.prices.p_e > se.prices.p_c
        assert se.miners.total_edge <= 30.0 * (1 + 1e-6)

    def test_matches_table2_closed_form(self):
        """Sufficient budgets: the anticipating SE tracks Table II, with
        the ESP shading its price slightly below the clearing point (the
        CSP undercuts discontinuously right at clearing — see
        EXPERIMENTS.md)."""
        params = homogeneous(5, 10000.0, reward=1000.0, fork_rate=0.2,
                             mode=EdgeMode.STANDALONE, e_max=80.0,
                             edge_cost=0.2, cloud_cost=0.1)
        se = solve_stackelberg(params, scheme="esp-anticipates",
                               price_xatol=1e-7)
        cf = table2_standalone(5, 1000.0, 0.2, 80.0, 0.2, 0.1)
        assert se.prices.p_c == pytest.approx(cf.prices.p_c, rel=0.02)
        assert se.prices.p_e == pytest.approx(cf.prices.p_e, rel=0.05)
        assert se.prices.p_e <= cf.prices.p_e * (1 + 1e-6)
        assert se.miners.e[0] == pytest.approx(cf.miner.e, rel=0.05)


class TestVerification:
    def test_equilibrium_passes_deviation_scan(self, binding_params):
        se = solve_stackelberg(binding_params, tol=1e-6,
                               price_xatol=1e-8)
        ok, worst = verify_sp_equilibrium(se, grid=21, span=0.3)
        assert ok, f"profitable deviation of {worst:.3%} found"

    def test_perturbed_prices_fail_scan(self, binding_params):
        se = solve_stackelberg(binding_params, tol=1e-6, price_xatol=1e-8)
        from repro.core.stackelberg import StackelbergEquilibrium
        bad = StackelbergEquilibrium(
            prices=Prices(se.prices.p_e * 2.5, se.prices.p_c * 0.3),
            miners=se.miners, v_e=0.0, v_c=0.0, report=se.report,
            scheme=se.scheme)
        ok, worst = verify_sp_equilibrium(bad, grid=21, span=0.4)
        assert not ok
        assert worst > 0


def _sweep_game(edge_cost):
    """The n=5 heterogeneous game of a ``C_e`` sweep at paper costs."""
    return GameParameters(reward=1500.0, fork_rate=0.2, h=0.8,
                          budgets=(110.92802276436515, 146.53150958614899,
                                   215.60462878526013, 250.01261243782557,
                                   283.2139282184616),
                          edge_cost=edge_cost, cloud_cost=0.1)


class TestWarmStart:
    """Follower demand does not depend on the order of the price probes,
    so a warm start only narrows the price bracket of the leader search.

    The two searches still stop at different points of a flat optimum:
    the ESP's anticipating objective carries the ~1e-8 relative noise of
    the inner bounded CSP search, which resolves prices to ~1e-4
    relative. The answers therefore agree in the ESP's profit to 1e-6
    and in prices to the search's resolution; the warm-start fault this
    pins returned prices 10% off.
    """

    def test_warm_answer_equals_cold(self):
        engine = ServingEngine()
        first = engine.serve(ScenarioSpec(_sweep_game(0.26093)))
        served = engine.serve(ScenarioSpec(_sweep_game(0.28093)))
        assert first.ok and served.ok
        assert served.warm_key == first.key
        direct = solve_stackelberg(_sweep_game(0.28093), kernel="auto",
                                   warm_start=first.value.prices)
        cold = solve_stackelberg(_sweep_game(0.28093), kernel="auto")
        for warm in (served.value, direct):
            assert warm.v_e == pytest.approx(cold.v_e, rel=1e-6)
            assert warm.prices.p_e == pytest.approx(cold.prices.p_e,
                                                    rel=1e-3)
            assert warm.prices.p_c == pytest.approx(cold.prices.p_c,
                                                    rel=1e-3)

"""Generic-game adapter vs the specialized NEP solver."""

import numpy as np
import pytest

from repro.core import Prices, solve_connected_equilibrium
from repro.core.generic_adapter import (MinerPlayer, OpponentAggregates,
                                        build_miner_game,
                                        solve_via_generic)
from repro.game.best_response import BestResponseOptions


class TestMinerPlayer:
    def test_payoff_matches_utility_module(self, connected_params, prices):
        from repro.core.utility import miner_utilities
        player = MinerPlayer(0, connected_params, prices)
        e = np.array([10.0, 12.0, 8.0, 9.0, 11.0])
        c = np.array([30.0, 25.0, 35.0, 28.0, 32.0])
        ctx = OpponentAggregates(
            e_others=float(e[1:].sum()),
            s_others=float(e[1:].sum() + c[1:].sum()))
        expected = float(miner_utilities(e, c, connected_params,
                                         prices)[0])
        assert player.payoff(np.array([e[0], c[0]]),
                             ctx) == pytest.approx(expected)

    def test_gradient_matches_finite_difference(self, connected_params,
                                                prices):
        player = MinerPlayer(0, connected_params, prices)
        ctx = OpponentAggregates(e_others=40.0, s_others=160.0)
        x = np.array([10.0, 30.0])
        grad = player.payoff_gradient(x, ctx)
        eps = 1e-6
        for j in range(2):
            hi = x.copy(); hi[j] += eps
            lo = x.copy(); lo[j] -= eps
            fd = (player.payoff(hi, ctx) - player.payoff(lo, ctx)) / (2 * eps)
            assert grad[j] == pytest.approx(fd, abs=1e-4)

    def test_best_response_feasible(self, connected_params, prices):
        player = MinerPlayer(2, connected_params, prices)
        ctx = OpponentAggregates(e_others=40.0, s_others=160.0)
        br = player.best_response(ctx)
        assert player.space.contains(br, tol=1e-6)


class TestCrossValidation:
    def test_generic_matches_specialized(self, connected_params, prices):
        generic = solve_via_generic(connected_params, prices)
        special = solve_connected_equilibrium(connected_params, prices)
        assert generic.converged
        assert np.allclose(generic.e, special.e, atol=1e-5)
        assert np.allclose(generic.c, special.c, atol=1e-5)

    def test_heterogeneous(self, heterogeneous_params, prices):
        generic = solve_via_generic(heterogeneous_params, prices)
        special = solve_connected_equilibrium(heterogeneous_params, prices)
        assert np.allclose(generic.e, special.e, atol=1e-5)

    def test_gradient_fallback_reaches_same_ne(self, connected_params):
        """Without analytic best responses the generic solver falls back
        to projected gradient ascent and still finds the unique NE.

        Prices 30x the Section VI point shrink the equilibrium 30x and
        raise the payoff curvature ~900x, so the diminishing-step ascent
        settles each response within its step budget and the iteration
        converges in a few dozen sweeps.
        """
        prices = Prices(p_e=60.0, p_c=30.0)
        opts = BestResponseOptions(tol=1e-6, damping=0.5, max_iter=300)
        generic = solve_via_generic(connected_params, prices,
                                    options=opts, use_analytic_br=False)
        special = solve_connected_equilibrium(connected_params, prices)
        assert generic.converged
        assert np.allclose(generic.e, special.e, atol=0.05)
        assert np.allclose(generic.c, special.c, atol=0.2)
        # The absolute bounds are loose at this scale; pin the relative
        # error as well.
        np.testing.assert_allclose(generic.e, special.e, rtol=1e-5)
        np.testing.assert_allclose(generic.c, special.c, rtol=1e-5)

    def test_result_supports_downstream_tools(self, connected_params,
                                              prices):
        from repro.core import verify_miner_equilibrium, welfare_report
        generic = solve_via_generic(connected_params, prices)
        assert verify_miner_equilibrium(generic)
        assert welfare_report(generic).transfers_balance == pytest.approx(
            0.0, abs=1e-6)

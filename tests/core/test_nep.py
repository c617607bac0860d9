"""Connected-mode miner subgame: Theorem 2 (existence/uniqueness) and the
closed-form cross-checks of Section IV-B."""

import itertools

import numpy as np
import pytest

from repro.core import (Prices, corollary1_interior, homogeneous,
                        solve_connected_equilibrium, theorem3_binding,
                        verify_miner_equilibrium)
from repro.core.nep import best_response_profile, initial_profile
from repro.exceptions import ConvergenceError


class TestConvergence:
    def test_converges_from_default_start(self, connected_params, prices):
        eq = solve_connected_equilibrium(connected_params, prices)
        assert eq.converged
        assert eq.total > 0

    def test_uniqueness_across_starts(self, connected_params, prices, rng):
        """Theorem 2: the NE is unique — random starts agree."""
        reference = None
        budgets = connected_params.budget_array
        for _ in range(5):
            e0 = rng.uniform(0.5, 20.0, connected_params.n)
            c0 = rng.uniform(0.5, 40.0, connected_params.n)
            # Stay within budgets.
            spend = prices.p_e * e0 + prices.p_c * c0
            scale = np.minimum(budgets / spend, 1.0)
            eq = solve_connected_equilibrium(connected_params, prices,
                                             initial=(e0 * scale,
                                                      c0 * scale))
            assert eq.converged
            if reference is None:
                reference = (eq.e.copy(), eq.c.copy())
            else:
                assert np.allclose(eq.e, reference[0], atol=1e-5)
                assert np.allclose(eq.c, reference[1], atol=1e-5)

    def test_large_budget_does_not_collapse(self, prices):
        params = homogeneous(5, 1e6, reward=1000.0, fork_rate=0.2, h=0.8)
        eq = solve_connected_equilibrium(params, prices)
        assert eq.converged
        assert eq.total_edge > 1.0

    def test_raise_on_failure(self, connected_params, prices):
        with pytest.raises(ConvergenceError):
            solve_connected_equilibrium(connected_params, prices,
                                        tol=1e-16, max_iter=2,
                                        raise_on_failure=True)

    def test_invalid_damping(self, connected_params, prices):
        with pytest.raises(ValueError):
            solve_connected_equilibrium(connected_params, prices,
                                        damping=0.0)

    def test_wrong_initial_shape(self, connected_params, prices):
        with pytest.raises(ValueError):
            solve_connected_equilibrium(connected_params, prices,
                                        initial=(np.ones(3), np.ones(3)))


class TestClosedFormAgreement:
    def test_interior_matches_corollary1(self, connected_params, prices):
        eq = solve_connected_equilibrium(connected_params, prices)
        cf = corollary1_interior(5, 1000.0, 0.2, 0.8, prices)
        assert np.allclose(eq.e, cf.e, rtol=1e-6)
        assert np.allclose(eq.c, cf.c, rtol=1e-6)

    def test_binding_matches_theorem3(self, binding_params, prices):
        eq = solve_connected_equilibrium(binding_params, prices)
        cf = theorem3_binding(5, 100.0, 0.2, 0.8, prices)
        assert np.allclose(eq.e, cf.e, rtol=1e-5)
        assert np.allclose(eq.c, cf.c, rtol=1e-5)
        assert np.allclose(eq.spending, 100.0, rtol=1e-6)


class TestEquilibriumProperties:
    def test_no_profitable_deviation(self, connected_params, prices):
        eq = solve_connected_equilibrium(connected_params, prices)
        assert verify_miner_equilibrium(eq)

    def test_no_profitable_deviation_heterogeneous(self,
                                                   heterogeneous_params,
                                                   prices):
        eq = solve_connected_equilibrium(heterogeneous_params, prices)
        assert eq.converged
        assert verify_miner_equilibrium(eq)

    def test_budgets_respected(self, heterogeneous_params, prices):
        eq = solve_connected_equilibrium(heterogeneous_params, prices)
        assert np.all(eq.spending
                      <= heterogeneous_params.budget_array * (1 + 1e-9))

    def test_richer_miner_requests_more(self, heterogeneous_params, prices):
        """Fig. 7's monotonicity: requests grow with budget while budgets
        bind."""
        eq = solve_connected_equilibrium(heterogeneous_params, prices)
        totals = eq.e + eq.c
        binding = eq.spending >= heterogeneous_params.budget_array - 1e-6
        # Among budget-bound miners, richer => strictly more units.
        bound_totals = totals[binding]
        assert np.all(np.diff(bound_totals) > -1e-9)

    def test_summary_mentions_mode(self, connected_params, prices):
        eq = solve_connected_equilibrium(connected_params, prices)
        assert "connected" in eq.summary()

    def test_derived_quantities(self, connected_params, prices):
        eq = solve_connected_equilibrium(connected_params, prices)
        assert eq.total == pytest.approx(eq.total_edge + eq.total_cloud)
        v_e, v_c = eq.sp_profits
        assert v_e == pytest.approx(
            (prices.p_e - 0.2) * eq.total_edge)
        assert v_c == pytest.approx(
            (prices.p_c - 0.1) * eq.total_cloud)


class TestSweeps:
    def test_higher_cloud_price_shifts_to_edge(self, connected_params):
        """Fig. 4 shape: raising P_c monotonically raises E*."""
        previous = -np.inf
        for p_c in (0.6, 0.9, 1.2, 1.5):
            eq = solve_connected_equilibrium(connected_params,
                                             Prices(2.0, p_c))
            assert eq.total_edge > previous
            previous = eq.total_edge

    def test_higher_fork_rate_cuts_cloud(self, prices):
        """Fig. 5 shape: larger β reduces cloud units sold."""
        previous = np.inf
        for beta in (0.05, 0.15, 0.25, 0.35):
            params = homogeneous(5, 200.0, reward=1000.0, fork_rate=beta,
                                 h=0.8)
            eq = solve_connected_equilibrium(params, prices)
            assert eq.total_cloud < previous
            previous = eq.total_cloud

    def test_lower_h_discourages_edge(self, prices):
        """Connected mode discourages ESP purchases as transfers rise."""
        previous = -np.inf
        for h in (0.2, 0.5, 0.8, 1.0):
            params = homogeneous(5, 2000.0, reward=1000.0, fork_rate=0.2,
                                 h=h)
            eq = solve_connected_equilibrium(params, prices)
            assert eq.total_edge > previous
            previous = eq.total_edge


class TestHelpers:
    def test_initial_profile_feasible(self, connected_params, prices):
        e, c = initial_profile(connected_params, prices)
        spend = prices.p_e * e + prices.p_c * c
        assert np.all(spend <= connected_params.budget_array + 1e-9)
        assert np.all(e > 0) and np.all(c > 0)

    def test_best_response_profile_jacobi_vs_gs_fixed_point(
            self, connected_params, prices):
        eq = solve_connected_equilibrium(connected_params, prices)
        e_gs, c_gs = best_response_profile(eq.e, eq.c, connected_params,
                                           prices, sweep="gauss-seidel")
        e_j, c_j = best_response_profile(eq.e, eq.c, connected_params,
                                         prices, sweep="jacobi")
        # At the fixed point both sweeps return (approximately) the input.
        assert np.allclose(e_gs, eq.e, atol=1e-6)
        assert np.allclose(e_j, eq.e, atol=1e-6)
        assert np.allclose(c_j, eq.c, atol=1e-6)


class TestAutoKernel:
    def test_resolve_kernel_crossover(self):
        from repro.core.nep import AUTO_VECTORIZED_MIN_N, resolve_kernel
        assert resolve_kernel("auto", AUTO_VECTORIZED_MIN_N - 1) == \
            "running"
        assert resolve_kernel("auto", AUTO_VECTORIZED_MIN_N) == \
            "vectorized"
        # Explicit kernels pass through unchanged at every size.
        for kernel in ("scalar", "running", "vectorized"):
            assert resolve_kernel(kernel, 2) == kernel
            assert resolve_kernel(kernel, 10_000) == kernel
        with pytest.raises(ValueError):
            resolve_kernel("simd", 8)

    def test_auto_matches_resolved_kernel(self, prices):
        from repro.core.nep import AUTO_VECTORIZED_MIN_N
        small = homogeneous(5, 200.0, reward=1000.0, fork_rate=0.2,
                            h=0.8)
        big = homogeneous(AUTO_VECTORIZED_MIN_N + 4, 200.0,
                          reward=1000.0, fork_rate=0.2, h=0.8)
        # ``prices`` takes the closed form; above the mixed-region bound
        # (1-β)P_e/D = 1.667 the resolved kernel iterates.
        out_of_region = Prices(p_e=2.0, p_c=1.8)
        for (params, resolved), at in itertools.product(
                ((small, "running"), (big, "vectorized")),
                (prices, out_of_region)):
            auto = solve_connected_equilibrium(params, at, kernel="auto")
            direct = solve_connected_equilibrium(params, at,
                                                 kernel=resolved)
            assert (auto.report.iterations > 0) == (at is out_of_region)
            np.testing.assert_array_equal(auto.e, direct.e)
            np.testing.assert_array_equal(auto.c, direct.c)

    def test_auto_choice_visible_in_telemetry(self):
        from repro.telemetry import telemetry_session
        params = homogeneous(25, 200.0, reward=1000.0, fork_rate=0.2,
                             h=0.8)

        def labels(p_c):
            with telemetry_session() as tel:
                solve_connected_equilibrium(params, Prices(2.0, p_c),
                                            kernel="auto")
            snap = tel.metrics.snapshot()
            return {v["labels"]["kernel"]
                    for v in snap["br_sweep_seconds"]["values"]}

        # In the mixed region the closed form runs; above its bound
        # (1-β)P_e/D = 1.667 the aggregate kernel does.
        assert labels(1.0) == {"auto:separable"}
        assert labels(1.8) == {"auto:vectorized"}

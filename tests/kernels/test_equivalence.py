"""Vectorized kernels against the scalar reference oracle.

The scalar per-miner solvers in :mod:`repro.core` are the golden,
bit-stable reference; every kernel in :mod:`repro.kernels` must agree
with them within ``1e-9``. Full-solve comparisons converge the scalar
reference *tighter* (``tol=1e-12``) than the comparison tolerance:
Gauss–Seidel stops on the step residual, which lags the true fixed
point by ``O(n * tol)``, so comparing against a same-tolerance scalar
solve would measure the reference's truncation, not the kernel's error.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core import (EdgeMode, GameParameters, Prices, homogeneous,
                        solve_connected_equilibrium,
                        solve_standalone_equilibrium)
from repro.core import miner_best_response as mbr
from repro.core.closed_form import binding_budget_threshold
from repro.core.gnep import solve_standalone_extragradient
from repro.core.miner_best_response import (ResponseContext,
                                            solve_best_response)
from repro.core.nep import KERNELS, best_response_profile, \
    separable_applies
from repro.kernels import (batched_best_response,
                           gauss_seidel_sweep_running, jacobi_sweep)

PRICES = Prices(p_e=2.0, p_c=1.0)
#: Above the mixed-region bound (1-β)P_e/D = 1.667 of the β = 0.2,
#: h = 0.8 games: no closed form, the iterative kernels answer.
OUT_OF_REGION = Prices(p_e=2.0, p_c=1.8)


def connected_params(n=5, budget=200.0):
    return homogeneous(n, budget, reward=1000.0, fork_rate=0.2, h=0.8)


def random_params(rng, n=None):
    n = int(rng.integers(2, 12)) if n is None else n
    return GameParameters(budgets=rng.uniform(0.5, 50.0, size=n),
                          reward=float(rng.uniform(50.0, 3000.0)),
                          fork_rate=float(rng.uniform(0.0, 0.9)),
                          h=float(rng.uniform(0.1, 1.0)))


class TestBatchedBestResponse:
    @given(st.floats(0.5, 300.0), st.floats(0.0, 300.0),
           st.floats(0.0, 0.9), st.floats(0.1, 1.0),
           st.floats(0.3, 4.0), st.floats(0.2, 3.0),
           st.floats(5.0, 500.0), st.floats(0.0, 3.0))
    @settings(max_examples=80, deadline=None)
    # No edge pool with p_e < p_c < p_e + nu: the budget sits inside the
    # spending jump where the goods swap order, so both kernels must
    # return the mix that spends it exactly.
    @example(e_o=1.0, s_extra=0.0, beta=0.0, h=1.0, p_e=1.0, p_c=2.0,
             budget=11.0, nu=3.0)
    def test_single_lane_matches_scalar(self, e_o, s_extra, beta, h,
                                        p_e, p_c, budget, nu):
        s_o = e_o + s_extra
        scalar = solve_best_response(
            ResponseContext(e_others=e_o, s_others=s_o), reward=800.0,
            beta=beta, h=h, p_e=p_e, p_c=p_c, budget=budget, nu=nu)
        batch = batched_best_response(
            np.array([e_o]), np.array([s_o]), reward=800.0, beta=beta,
            h=h, p_e=p_e, p_c=p_c, budgets=np.array([budget]), nu=nu)
        scale = max(1.0, abs(scalar.e), abs(scalar.c))
        assert abs(batch.e[0] - scalar.e) / scale < 1e-9
        assert abs(batch.c[0] - scalar.c) / scale < 1e-9
        assert p_e * batch.e[0] + p_c * batch.c[0] <= budget * (1 + 1e-9)

    @given(st.integers(0, 2 ** 32 - 1),
           st.one_of(st.just(0.0), st.floats(0.01, 3.0)))
    @settings(max_examples=30, deadline=None)
    def test_binding_lanes_match_scalar(self, seed, nu):
        # Every lane binds (budgets below the λ = 0 spend); mixed lanes
        # take Eq. (15) in both kernels and agree to rounding, corner
        # lanes take the bracketed roots and agree within the contract.
        rng = np.random.default_rng(seed)
        n = 48
        e_o = rng.uniform(0.5, 60.0, size=n)
        s_o = e_o + rng.uniform(0.5, 300.0, size=n)
        beta = float(rng.uniform(0.05, 0.9))
        h = float(rng.uniform(0.3, 1.0))
        p_c = float(rng.uniform(0.2, 3.0))
        p_e = p_c + float(rng.uniform(-0.15, 3.0))
        kw = dict(reward=800.0, beta=beta, h=h, p_e=p_e, p_c=p_c, nu=nu)
        free = batched_best_response(e_o, s_o, budgets=np.full(n, 1e12),
                                     **kw)
        budgets = free.spending * rng.uniform(0.05, 0.98, size=n)
        assume(np.all(budgets > 1e-3))
        batch = batched_best_response(e_o, s_o, budgets=budgets, **kw)
        for i in range(n):
            ctx = ResponseContext(e_others=float(e_o[i]),
                                  s_others=float(s_o[i]))
            scalar = solve_best_response(ctx, budget=float(budgets[i]),
                                         **kw)
            lam = mbr._interior_multiplier(800.0, beta, beta * h, ctx,
                                           p_e, p_c, float(budgets[i]), nu)
            mixed = lam is not None and scalar.e > 0.0 and scalar.c > 0.0
            tol = 1e-12 if mixed else 1e-9
            scale = max(1.0, abs(scalar.e), abs(scalar.c))
            assert abs(batch.e[i] - scalar.e) / scale < tol
            assert abs(batch.c[i] - scalar.c) / scale < tol
            assert batch.spending[i] == pytest.approx(budgets[i],
                                                      rel=1e-12)

    def test_many_lanes_match_scalar_loop(self):
        rng = np.random.default_rng(7)
        n = 300
        e_o = rng.uniform(0.0, 400.0, size=n)
        s_o = e_o + rng.uniform(0.0, 400.0, size=n)
        budgets = rng.uniform(1.0, 600.0, size=n)
        for beta, h, nu in ((0.2, 0.8, 0.0), (0.6, 1.0, 1.3),
                            (0.0, 0.5, 0.0)):
            batch = batched_best_response(
                e_o, s_o, reward=1000.0, beta=beta, h=h, p_e=2.0,
                p_c=1.0, budgets=budgets, nu=nu)
            for i in range(n):
                scalar = solve_best_response(
                    ResponseContext(e_others=float(e_o[i]),
                                    s_others=float(s_o[i])),
                    reward=1000.0, beta=beta, h=h, p_e=2.0, p_c=1.0,
                    budget=float(budgets[i]), nu=nu)
                scale = max(1.0, abs(scalar.e), abs(scalar.c))
                assert abs(batch.e[i] - scalar.e) / scale < 1e-9
                assert abs(batch.c[i] - scalar.c) / scale < 1e-9

    def test_budget_multiplier_and_spending_reported(self):
        batch = batched_best_response(
            np.array([50.0, 50.0]), np.array([200.0, 200.0]),
            reward=1000.0, beta=0.2, h=0.8, p_e=2.0, p_c=1.0,
            budgets=np.array([5.0, 1e6]))
        assert batch.budget_multiplier[0] > 0.0  # tight budget
        assert batch.budget_multiplier[1] == 0.0  # slack budget
        assert batch.spending[0] == pytest.approx(5.0, rel=1e-6)


class TestSweeps:
    def test_jacobi_sweep_matches_scalar_jacobi(self):
        rng = np.random.default_rng(3)
        for params in (connected_params(),
                       random_params(rng), random_params(rng)):
            n = params.n
            e = rng.uniform(0.1, 30.0, size=n)
            c = rng.uniform(0.1, 60.0, size=n)
            e_ref, c_ref = best_response_profile(e, c, params, PRICES,
                                                 sweep="jacobi")
            e_vec, c_vec = jacobi_sweep(e, c, params, PRICES)
            np.testing.assert_allclose(e_vec, e_ref, rtol=1e-9,
                                       atol=1e-9)
            np.testing.assert_allclose(c_vec, c_ref, rtol=1e-9,
                                       atol=1e-9)

    def test_running_sweep_matches_scalar_gauss_seidel(self):
        rng = np.random.default_rng(4)
        for params in (connected_params(),
                       random_params(rng), random_params(rng)):
            n = params.n
            e = rng.uniform(0.1, 30.0, size=n)
            c = rng.uniform(0.1, 60.0, size=n)
            e_ref, c_ref = best_response_profile(e, c, params, PRICES,
                                                 sweep="gauss-seidel")
            e_run, c_run = gauss_seidel_sweep_running(e, c, params,
                                                      PRICES)
            np.testing.assert_allclose(e_run, e_ref, rtol=1e-9,
                                       atol=1e-9)
            np.testing.assert_allclose(c_run, c_ref, rtol=1e-9,
                                       atol=1e-9)

    def test_sweeps_respect_nu(self):
        params = connected_params()
        e = np.full(5, 10.0)
        c = np.full(5, 40.0)
        e_jac, c_jac = best_response_profile(e, c, params, PRICES,
                                             nu=0.7, sweep="jacobi")
        e_vec, c_vec = jacobi_sweep(e, c, params, PRICES, nu=0.7)
        np.testing.assert_allclose(e_vec, e_jac, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(c_vec, c_jac, rtol=1e-9, atol=1e-9)
        e_gs, c_gs = best_response_profile(e, c, params, PRICES, nu=0.7)
        e_run, c_run = gauss_seidel_sweep_running(e, c, params, PRICES,
                                                  nu=0.7)
        np.testing.assert_allclose(e_run, e_gs, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(c_run, c_gs, rtol=1e-9, atol=1e-9)
        # nu raises the perceived edge price: edge demand must drop.
        assert float(np.sum(e_vec)) < float(np.sum(
            jacobi_sweep(e, c, params, PRICES, nu=0.0)[0]))


def _assert_profiles_close(eq_a, eq_b, tol=1e-9):
    scale = max(1.0, float(np.max(np.abs(eq_a.e))),
                float(np.max(np.abs(eq_a.c))))
    assert float(np.max(np.abs(eq_a.e - eq_b.e))) / scale < tol
    assert float(np.max(np.abs(eq_a.c - eq_b.c))) / scale < tol


class TestConnectedSolveEquivalence:
    def test_kernels_enumerated(self):
        assert KERNELS == ("scalar", "running", "vectorized", "auto")
        with pytest.raises(ValueError):
            solve_connected_equilibrium(connected_params(), PRICES,
                                        kernel="simd")

    def test_running_matches_scalar_same_tolerance(self):
        # PRICES takes the closed form, OUT_OF_REGION the running sweep.
        for params, prices in itertools.product(
                (connected_params(), connected_params(8, 40.0)),
                (PRICES, OUT_OF_REGION)):
            ref = solve_connected_equilibrium(params, prices)
            run = solve_connected_equilibrium(params, prices,
                                              kernel="running")
            assert run.converged
            assert (run.report.iterations > 0) == (prices is OUT_OF_REGION)
            _assert_profiles_close(ref, run)

    def test_vectorized_matches_tight_scalar(self):
        # PRICES takes the closed form, OUT_OF_REGION the aggregate kernel.
        for params, prices in itertools.product(
                (connected_params(), connected_params(8, 40.0),
                 connected_params(32, 500.0)), (PRICES, OUT_OF_REGION)):
            ref = solve_connected_equilibrium(params, prices,
                                              tol=1e-12,
                                              max_iter=20000)
            vec = solve_connected_equilibrium(params, prices,
                                              kernel="vectorized")
            assert vec.converged
            _assert_profiles_close(ref, vec)

    @given(st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_vectorized_matches_tight_scalar_random(self, seed):
        rng = np.random.default_rng(seed)
        params = random_params(rng, n=int(rng.integers(2, 9)))
        prices = Prices(p_e=float(rng.uniform(0.3, 4.0)),
                        p_c=float(rng.uniform(0.2, 3.0)))
        ref = solve_connected_equilibrium(params, prices, tol=1e-12,
                                          max_iter=20000)
        # The comparison is only well-posed when the tight scalar
        # reference is trustworthy: it must have converged, and the
        # equilibrium must be interior. At an e = 0 / c = 0 boundary
        # (unattractive pricing for one resource) the game admits
        # multiple equilibria and the kernels may legitimately select
        # different ones; scalar-solver convergence itself is covered
        # by its own suite.
        assume(ref.converged)
        assume(float(np.min(ref.e)) > 1e-6
               and float(np.min(ref.c)) > 1e-6)
        vec = solve_connected_equilibrium(params, prices,
                                          kernel="vectorized")
        _assert_profiles_close(ref, vec)

    def test_warm_start_agreement(self):
        params = connected_params()
        for prices in (PRICES, OUT_OF_REGION):
            near = solve_connected_equilibrium(
                params, Prices(p_e=prices.p_e, p_c=prices.p_c + 0.1))
            warm = (near.e, near.c)
            ref = solve_connected_equilibrium(params, prices, initial=warm)
            run = solve_connected_equilibrium(params, prices, initial=warm,
                                              kernel="running")
            assert (run.report.iterations > 0) == (prices is OUT_OF_REGION)
            _assert_profiles_close(ref, run)
            # Neither the closed form nor the aggregate kernel iterates
            # from a start; a warm start must not change their answer.
            cold_vec = solve_connected_equilibrium(params, prices,
                                                   kernel="vectorized")
            warm_vec = solve_connected_equilibrium(params, prices,
                                                   initial=warm,
                                                   kernel="vectorized")
            assert np.array_equal(cold_vec.e, warm_vec.e)
            assert np.array_equal(cold_vec.c, warm_vec.c)

    def test_vectorized_report_is_flagged(self):
        # Above the mixed-region bound (1.667 here) the aggregate kernel
        # answers; below it the closed form does (TestClosedFormSolve).
        vec = solve_connected_equilibrium(connected_params(), OUT_OF_REGION,
                                          kernel="vectorized")
        assert vec.converged
        assert "aggregate kernel" in vec.report.message
        assert vec.report.residual < 1e-9


class TestStandaloneSolveEquivalence:
    def standalone_params(self, n=5):
        return homogeneous(n, 1000.0, reward=1000.0, fork_rate=0.2,
                           mode=EdgeMode.STANDALONE, e_max=80.0)

    def test_decomposition_vectorized_matches_scalar(self):
        params = self.standalone_params()
        ref = solve_standalone_equilibrium(params, PRICES, tol=1e-11)
        vec = solve_standalone_equilibrium(params, PRICES,
                                           kernel="vectorized")
        # The shadow-price search stops at capacity_tol (1e-7 relative
        # on E), which dominates the kernel difference.
        _assert_profiles_close(ref, vec, tol=1e-5)
        assert vec.nu == pytest.approx(ref.nu, rel=1e-4, abs=1e-6)
        assert vec.total_edge == pytest.approx(80.0, rel=1e-4)

    def test_extragradient_vectorized_matches_scalar(self):
        params = self.standalone_params()
        ref = solve_standalone_extragradient(params, PRICES)
        vec = solve_standalone_extragradient(params, PRICES,
                                             kernel="vectorized")
        _assert_profiles_close(ref, vec, tol=1e-6)


#: Budget regimes of the closed-form draws, as multiples of the
#: Corollary 1 spend: all slack, all binding, the near-threshold band
#: where the aggregate kernel's multiplier search is slowest, and a mix.
BUDGET_REGIMES = {"slack": (1.2, 3.0), "binding": (0.2, 0.8),
                  "near-threshold": (0.9, 1.1), "mixed": (0.3, 2.0)}


@st.composite
def in_region_games(draw):
    """A heterogeneous connected game at mixed-region prices."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    regime = draw(st.sampled_from(sorted(BUDGET_REGIMES)))
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    reward = float(rng.uniform(200.0, 3000.0))
    beta = float(rng.uniform(0.05, 0.6))
    h = float(rng.uniform(0.2, 1.0))
    lo, hi = BUDGET_REGIMES[regime]
    spend = binding_budget_threshold(n, reward, beta, h)
    params = GameParameters(budgets=spend * rng.uniform(lo, hi, size=n),
                            reward=reward, fork_rate=beta, h=h)
    p_e = float(rng.uniform(0.5, 4.0))
    p_c = float(rng.uniform(0.05, 0.98)) * params.mixed_price_bound(p_e)
    return params, Prices(p_e=p_e, p_c=p_c)


class TestClosedFormSolve:
    """Every kernel but ``scalar`` answers mixed-region prices from the
    certified separable closed form; everything else still iterates."""

    @given(in_region_games())
    @settings(max_examples=30, deadline=None)
    @example(game=(GameParameters(reward=1000.0, fork_rate=0.2, h=0.8,
                                  budgets=binding_budget_threshold(
                                      8, 1000.0, 0.2, 0.8)
                                  * np.linspace(0.9, 1.1, 8)),
                   PRICES))
    def test_matches_tight_scalar(self, game):
        params, prices = game
        ref = solve_connected_equilibrium(params, prices, tol=1e-12,
                                          max_iter=20000)
        assert ref.converged
        assert ref.report.iterations > 0
        for kernel in ("running", "vectorized", "auto"):
            eq = solve_connected_equilibrium(params, prices,
                                             kernel=kernel)
            assert eq.report.message.startswith("closed form (separable")
            assert eq.report.iterations == 0
            assert eq.report.residual < eq.report.tolerance
            _assert_profiles_close(ref, eq)

    def test_kernels_share_one_answer(self):
        params = random_params(np.random.default_rng(11), n=6)
        prices = Prices(2.0, 0.5 * params.mixed_price_bound(2.0))
        answers = [solve_connected_equilibrium(params, prices, kernel=k)
                   for k in ("running", "vectorized", "auto")]
        for eq in answers[1:]:
            assert np.array_equal(eq.e, answers[0].e)
            assert np.array_equal(eq.c, answers[0].c)

    @pytest.mark.parametrize("case", ["out-of-region", "no-edge-bonus",
                                      "standalone-nu", "n_types"])
    @pytest.mark.parametrize("kernel", ["running", "vectorized", "auto"])
    def test_iterative_outside_the_closed_form(self, case, kernel):
        budgets = (50.0, 100.0, 150.0, 300.0)
        params = GameParameters(reward=1000.0, fork_rate=0.2, h=0.8,
                                budgets=budgets)
        prices = PRICES
        if case == "out-of-region":
            eq = solve_connected_equilibrium(params, OUT_OF_REGION,
                                             kernel=kernel)
        elif case == "no-edge-bonus":
            no_bonus = GameParameters(reward=1000.0, fork_rate=0.0, h=0.8,
                                      budgets=budgets)
            eq = solve_connected_equilibrium(no_bonus, prices,
                                             kernel=kernel)
        elif case == "standalone-nu":
            eq = solve_standalone_equilibrium(
                params.with_mode(EdgeMode.STANDALONE, e_max=10.0),
                prices, kernel=kernel)
            assert eq.nu > 0.0
            assert separable_applies(params, prices)
            assert not separable_applies(params, prices, nu=eq.nu)
        else:
            eq = solve_connected_equilibrium(params, prices,
                                             kernel=kernel, n_types=2)
            assert eq.report.message.startswith("type-space")
        assert eq.converged
        assert eq.report.iterations > 0
        message = eq.report.message or ""
        assert not message.startswith("closed form")
        if case != "n_types" and kernel == "vectorized":
            assert message.startswith("aggregate kernel")

    def test_scalar_never_takes_the_closed_form(self):
        eq = solve_connected_equilibrium(connected_params(), PRICES)
        assert eq.report.iterations > 0
        assert not (eq.report.message or "").startswith("closed form")

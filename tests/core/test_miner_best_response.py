"""Semi-analytic miner best response vs an independent SLSQP optimizer."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from repro.core import miner_best_response as mbr
from repro.core.miner_best_response import (BestResponse, ResponseContext,
                                            solve_best_response)
from repro.exceptions import ConfigurationError


def _utility(e, c, ctx, reward, beta, h, q_e, q_c):
    S = ctx.s_others + e + c
    E = ctx.e_others + e
    base = (1 - beta) * (e + c) / S if S > 0 else 0.0
    bonus = beta * h * e / E if E > 0 else 0.0
    return reward * (base + bonus) - q_e * e - q_c * c


def _slsqp_reference(ctx, reward, beta, h, p_e, p_c, budget, nu=0.0):
    """Multi-start SLSQP solution of the same program."""
    q_e = p_e + nu

    def neg(x):
        return -_utility(x[0], x[1], ctx, reward, beta, h, q_e, p_c)

    cons = [{"type": "ineq",
             "fun": lambda x: budget - p_e * x[0] - p_c * x[1]}]
    best_val, best_x = -np.inf, np.zeros(2)
    starts = [
        np.array([budget / (4 * p_e), budget / (4 * p_c)]),
        np.array([budget / (2 * p_e), 1e-6]),
        np.array([1e-6, budget / (2 * p_c)]),
        np.array([1e-3, 1e-3]),
    ]
    for x0 in starts:
        res = minimize(neg, x0, method="SLSQP",
                       bounds=[(0, None), (0, None)], constraints=cons,
                       options={"maxiter": 500, "ftol": 1e-14})
        if res.success and -res.fun > best_val:
            best_val, best_x = -res.fun, np.asarray(res.x)
    return best_val, best_x


class TestAgainstSLSQP:
    CASES = [
        # (e_others, s_others, reward, beta, h, p_e, p_c, budget, nu)
        (40.0, 160.0, 1000.0, 0.2, 0.8, 2.0, 1.0, 200.0, 0.0),
        (40.0, 160.0, 1000.0, 0.2, 0.8, 2.0, 1.0, 50.0, 0.0),    # binding
        (40.0, 160.0, 1000.0, 0.2, 1.0, 2.0, 1.0, 500.0, 3.0),   # with nu
        (5.0, 300.0, 1000.0, 0.3, 0.5, 3.0, 0.5, 100.0, 0.0),
        (100.0, 120.0, 500.0, 0.1, 1.0, 1.5, 1.2, 80.0, 0.0),
        (40.0, 160.0, 1000.0, 0.2, 0.8, 2.0, 1.9, 200.0, 0.0),   # near bound
        (40.0, 160.0, 1000.0, 0.2, 0.8, 1.0, 2.0, 200.0, 0.0),   # p_e < p_c
        (40.0, 160.0, 1000.0, 0.0, 0.8, 2.0, 1.0, 200.0, 0.0),   # beta 0
        # No edge pool, p_e < p_c < p_e + nu: the budget falls inside the
        # spending jump where the goods swap order (lambda_0 = 2).
        (1.0, 1.0, 800.0, 0.0, 1.0, 1.0, 2.0, 11.0, 3.0),
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_reference(self, case):
        e_o, s_o, reward, beta, h, p_e, p_c, budget, nu = case
        ctx = ResponseContext(e_others=e_o, s_others=s_o)
        br = solve_best_response(ctx, reward=reward, beta=beta, h=h,
                                 p_e=p_e, p_c=p_c, budget=budget, nu=nu)
        u_analytic = _utility(br.e, br.c, ctx, reward, beta, h,
                              p_e + nu, p_c)
        u_ref, x_ref = _slsqp_reference(ctx, reward, beta, h, p_e, p_c,
                                        budget, nu)
        # The analytic solution must be at least as good as SLSQP's.
        assert u_analytic >= u_ref - 1e-5 * max(abs(u_ref), 1.0)
        # And feasible.
        assert br.e >= -1e-12 and br.c >= -1e-12
        assert p_e * br.e + p_c * br.c <= budget * (1 + 1e-9)

    # e_others stays strictly positive: at ē = 0 the edge bonus is
    # discontinuous and its supremum is not attained (see the module
    # docstring of repro.core.miner_best_response); equilibrium iteration
    # never reaches that state for n >= 2.
    @given(st.floats(1.0, 300.0), st.floats(0.5, 300.0),
           st.floats(0.02, 0.6), st.floats(0.1, 1.0),
           st.floats(0.3, 4.0), st.floats(0.2, 3.0),
           st.floats(5.0, 500.0))
    @settings(max_examples=60, deadline=None)
    def test_never_worse_than_slsqp(self, s_extra, e_o, beta, h, p_e, p_c,
                                    budget):
        s_o = e_o + s_extra
        ctx = ResponseContext(e_others=e_o, s_others=s_o)
        br = solve_best_response(ctx, reward=800.0, beta=beta, h=h,
                                 p_e=p_e, p_c=p_c, budget=budget)
        u_analytic = _utility(br.e, br.c, ctx, 800.0, beta, h, p_e, p_c)
        u_ref, _ = _slsqp_reference(ctx, 800.0, beta, h, p_e, p_c, budget)
        assert u_analytic >= u_ref - 1e-4 * max(abs(u_ref), 1.0)


REWARD = 800.0


def _lagrangian_candidate(ctx, beta, h, p_e, p_c, nu):
    """The kernel's stationary point at a fixed budget multiplier."""
    def candidate(lam):
        return mbr._candidate(REWARD, beta, beta * h, ctx, p_e + nu, p_c,
                              p_e, p_c, lam)
    return candidate


def _bracketed_reference(ctx, beta, h, p_e, p_c, budget, nu):
    """Bracket + brentq on the spending curve: the reference multiplier."""
    candidate = _lagrangian_candidate(ctx, beta, h, p_e, p_c, nu)

    def spend(lam):
        e, c = candidate(lam)
        return p_e * e + p_c * c

    lam = mbr._bracketed_multiplier(spend, budget)
    e, c = candidate(lam)
    scale = budget / (p_e * e + p_c * c)
    return lam, e * scale, c * scale


def _binding_budget(ctx, beta, h, p_e, p_c, nu, frac):
    """``frac`` of the unconstrained (λ = 0) spend, which then binds."""
    e0, c0 = _lagrangian_candidate(ctx, beta, h, p_e, p_c, nu)(0.0)
    return frac * (p_e * e0 + p_c * c0)


def _closed_form_accepted(ctx, beta, h, p_e, p_c, budget, nu):
    lam = mbr._interior_multiplier(REWARD, beta, beta * h, ctx, p_e, p_c,
                                   budget, nu)
    if lam is None:
        return False
    e, c = _lagrangian_candidate(ctx, beta, h, p_e, p_c, nu)(lam)
    return e > 0.0 and c > 0.0


NUS = st.one_of(st.just(0.0), st.floats(0.01, 3.0))


class TestBudgetMultiplier:
    """Eq. (15) closed form / Newton against the bracketed root."""

    @given(st.floats(0.5, 30.0), st.floats(0.5, 300.0),
           st.floats(0.1, 0.9), st.floats(0.3, 1.0),
           st.floats(0.2, 3.0), st.floats(0.05, 3.0), NUS,
           st.floats(0.5, 0.98))
    @settings(max_examples=80, deadline=None)
    def test_closed_form_matches_bracketed_root(self, e_o, s_extra, beta,
                                                h, p_c, dp, nu, frac):
        ctx = ResponseContext(e_others=e_o, s_others=e_o + s_extra)
        p_e = p_c + dp
        budget = _binding_budget(ctx, beta, h, p_e, p_c, nu, frac)
        assume(budget > 0.0)
        assume(_closed_form_accepted(ctx, beta, h, p_e, p_c, budget, nu))
        with mock.patch.object(mbr, "_bracketed_multiplier",
                               wraps=mbr._bracketed_multiplier) as spy:
            br = solve_best_response(ctx, reward=REWARD, beta=beta, h=h,
                                     p_e=p_e, p_c=p_c, budget=budget,
                                     nu=nu)
        assert not spy.called
        lam, e_ref, c_ref = _bracketed_reference(ctx, beta, h, p_e, p_c,
                                                 budget, nu)
        assert br.e == pytest.approx(e_ref, rel=1e-12)
        assert br.c == pytest.approx(c_ref, rel=1e-12)
        assert br.budget_multiplier == pytest.approx(lam, rel=1e-9,
                                                     abs=1e-12)
        assert br.spending == budget
        assert p_e * br.e + p_c * br.c == pytest.approx(budget, rel=1e-12)

    def test_nu_zero_is_eq15(self):
        # At ν = 0 the multiplier is the paper's Eq. (15) in closed form.
        ctx = ResponseContext(e_others=40.0, s_others=160.0)
        reward, beta, h, p_e, p_c, budget = 1000.0, 0.2, 0.8, 2.0, 1.0, 50.0
        sigma1 = np.sqrt(beta * h * reward / (p_e - p_c))
        sigma2 = np.sqrt((1.0 - beta) * reward / p_c)
        t = (budget + (p_e - p_c) * 40.0 + p_c * 160.0) / (
            (p_e - p_c) * sigma1 * np.sqrt(40.0)
            + p_c * sigma2 * np.sqrt(160.0))
        br = solve_best_response(ctx, reward=reward, beta=beta, h=h,
                                 p_e=p_e, p_c=p_c, budget=budget)
        assert br.budget_multiplier == pytest.approx(1.0 / t ** 2 - 1.0,
                                                     rel=1e-12)

    # β >= 0.02 keeps an edge pool (γ ē > 0), so the only way past the
    # closed form is a binding corner and the bracketed root.
    @given(st.floats(0.5, 300.0), st.floats(0.5, 300.0),
           st.floats(0.02, 0.6), st.floats(0.1, 1.0),
           st.floats(0.3, 4.0), st.floats(0.2, 3.0), NUS,
           st.floats(0.02, 0.98))
    @settings(max_examples=40, deadline=None)
    def test_corner_takes_fallback_and_matches_slsqp(self, e_o, s_extra,
                                                     beta, h, p_e, p_c,
                                                     nu, frac):
        ctx = ResponseContext(e_others=e_o, s_others=e_o + s_extra)
        budget = _binding_budget(ctx, beta, h, p_e, p_c, nu, frac)
        assume(budget > 1e-3)
        assume(not _closed_form_accepted(ctx, beta, h, p_e, p_c, budget,
                                         nu))
        with mock.patch.object(mbr, "_bracketed_multiplier",
                               wraps=mbr._bracketed_multiplier) as spy:
            br = solve_best_response(ctx, reward=REWARD, beta=beta, h=h,
                                     p_e=p_e, p_c=p_c, budget=budget,
                                     nu=nu)
        assert spy.called
        assert br.e >= 0.0 and br.c >= 0.0
        assert p_e * br.e + p_c * br.c <= budget * (1 + 1e-9)
        u_analytic = _utility(br.e, br.c, ctx, REWARD, beta, h, p_e + nu,
                              p_c)
        u_ref, _ = _slsqp_reference(ctx, REWARD, beta, h, p_e, p_c,
                                    budget, nu)
        assert u_analytic >= u_ref - 1e-5 * max(abs(u_ref), 1.0)


class TestStructure:
    def test_budget_binding_flag(self):
        ctx = ResponseContext(e_others=40.0, s_others=160.0)
        tight = solve_best_response(ctx, reward=1000.0, beta=0.2, h=0.8,
                                    p_e=2.0, p_c=1.0, budget=20.0)
        loose = solve_best_response(ctx, reward=1000.0, beta=0.2, h=0.8,
                                    p_e=2.0, p_c=1.0, budget=1e6)
        assert tight.budget_binding
        assert not loose.budget_binding
        assert tight.spending == pytest.approx(20.0, rel=1e-6)

    def test_nu_reduces_edge_demand(self):
        ctx = ResponseContext(e_others=40.0, s_others=160.0)
        base = solve_best_response(ctx, reward=1000.0, beta=0.2, h=1.0,
                                   p_e=2.0, p_c=1.0, budget=1e6)
        taxed = solve_best_response(ctx, reward=1000.0, beta=0.2, h=1.0,
                                    p_e=2.0, p_c=1.0, budget=1e6, nu=2.0)
        assert taxed.e < base.e

    def test_high_cloud_price_gives_edge_corner(self):
        ctx = ResponseContext(e_others=40.0, s_others=160.0)
        br = solve_best_response(ctx, reward=1000.0, beta=0.2, h=0.8,
                                 p_e=2.0, p_c=1.99, budget=1e6)
        assert br.c == 0.0
        assert br.e > 0.0

    def test_degenerate_opponents_give_zero(self):
        ctx = ResponseContext(e_others=0.0, s_others=0.0)
        br = solve_best_response(ctx, reward=1000.0, beta=0.2, h=0.8,
                                 p_e=2.0, p_c=1.0, budget=100.0)
        assert br.e == 0.0 and br.c == 0.0

    def test_cloud_only_opponents(self):
        # ē = 0: the smoothed model yields e = 0 (documented discontinuity).
        ctx = ResponseContext(e_others=0.0, s_others=100.0)
        br = solve_best_response(ctx, reward=1000.0, beta=0.2, h=0.8,
                                 p_e=2.0, p_c=1.0, budget=1e6)
        assert br.e == 0.0
        assert br.c > 0.0

    def test_beta_zero_buys_cheapest(self):
        ctx = ResponseContext(e_others=40.0, s_others=160.0)
        br = solve_best_response(ctx, reward=1000.0, beta=0.0, h=0.8,
                                 p_e=2.0, p_c=1.0, budget=1e6)
        assert br.e == 0.0
        assert br.c > 0.0


class TestValidation:
    def test_invalid_prices(self):
        ctx = ResponseContext(e_others=1.0, s_others=2.0)
        with pytest.raises(ConfigurationError):
            solve_best_response(ctx, reward=1.0, beta=0.1, h=1.0,
                                p_e=0.0, p_c=1.0, budget=1.0)

    def test_invalid_budget(self):
        ctx = ResponseContext(e_others=1.0, s_others=2.0)
        with pytest.raises(ConfigurationError):
            solve_best_response(ctx, reward=1.0, beta=0.1, h=1.0,
                                p_e=1.0, p_c=1.0, budget=0.0)

    def test_negative_nu(self):
        ctx = ResponseContext(e_others=1.0, s_others=2.0)
        with pytest.raises(ConfigurationError):
            solve_best_response(ctx, reward=1.0, beta=0.1, h=1.0,
                                p_e=1.0, p_c=1.0, budget=1.0, nu=-1.0)

    def test_context_validation(self):
        with pytest.raises(ConfigurationError):
            ResponseContext(e_others=-1.0, s_others=2.0)
        with pytest.raises(ConfigurationError):
            ResponseContext(e_others=5.0, s_others=2.0)

    def test_invalid_beta(self):
        ctx = ResponseContext(e_others=1.0, s_others=2.0)
        with pytest.raises(ConfigurationError):
            solve_best_response(ctx, reward=1.0, beta=1.0, h=1.0,
                                p_e=1.0, p_c=1.0, budget=1.0)

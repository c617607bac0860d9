"""Semi-analytic best response of one miner (Section IV-A, Eqs. 12-15).

Each miner solves a 2-variable concave program

    maximize  R (1-β)(e+c)/(s̄+e+c) + R γ e/(ē+e) - q_e e - q_c c
    s.t.      p_e e + p_c c <= B,   e >= 0,   c >= 0

where ``ē``/``s̄`` are the opponents' aggregate edge/total requests,
``γ = β h`` and, in the plain NEP, the *objective* prices ``q`` equal the
*budget* prices ``p``. The distinction matters for the GNEP decomposition of
standalone mode: the shared-capacity multiplier ``ν`` raises the perceived
edge price to ``q_e = p_e + ν`` while the budget is still charged at ``p_e``.

The KKT system is solved exactly:

* for a fixed budget multiplier ``λ``, the stationarity conditions give the
  aggregates in closed form — ``S* = sqrt(R(1-β) s̄ / (q_c + λ p_c))`` and
  ``E* = sqrt(R γ ē / Δ(λ))`` with ``Δ(λ) = (q_e + λ p_e) - (q_c + λ p_c)``
  (Eq. 14 of the paper, generalized) — with corner fallbacks resolved by
  scalar root-finding;
* the complementary-slackness value of ``λ`` of a mixed (interior)
  response is Eq. (15) in ``t = 1/√(1+λ)``: with ``dp = p_e - p_c`` the
  interior spend minus the budget is
  ``h(t) = a t/√(ν t² + dp) + b t - K``, linear at ``ν = 0`` (the
  paper's closed form) and concave increasing otherwise, so Newton's
  method from ``t = 0`` rises monotonically to its root. The root is
  kept only when the response at that ``λ`` is interior and spends the
  budget; otherwise a corner binds and ``λ`` is found by bracketing +
  ``brentq`` on the (monotone decreasing) spending curve;
* with no edge pool (``γ ē = 0``) the two goods are perfect substitutes
  and swap order at ``λ₀ = (q_e - q_c)/(p_c - p_e)``, where spending
  jumps; a budget inside the jump is met by the mix at ``λ₀`` that
  spends it exactly.

Degenerate pools: when ``ē = 0`` the edge bonus ``β h e/E`` jumps to
``β h`` for any ``e > 0`` (a removable model discontinuity noted in
DESIGN.md). The KKT solution then has ``e = 0``; equilibrium iteration from
interior starting points never reaches this state for ``n >= 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from scipy.optimize import brentq

from ..exceptions import ConfigurationError

__all__ = ["ResponseContext", "BestResponse", "solve_best_response"]

_TOL = 1e-13

#: Relative budget miss within which a root-found response is re-scaled
#: onto the budget plane (and a closed-form ``λ`` is accepted).
_RESCALE_BAND = 1e-6

#: Newton steps allowed for the interior multiplier before the bracketed
#: root takes over (monotone convergence needs a handful).
_NEWTON_STEPS = 64


@dataclass(frozen=True)
class ResponseContext:
    """Opponent aggregates seen by one miner.

    Attributes:
        e_others: ``ē = Σ_{j≠i} e_j``.
        s_others: ``s̄ = Σ_{j≠i} (e_j + c_j)``.
    """

    e_others: float
    s_others: float

    def __post_init__(self) -> None:
        if self.e_others < 0 or self.s_others < 0:
            raise ConfigurationError("opponent aggregates must be >= 0")
        if self.e_others > self.s_others + 1e-9:
            raise ConfigurationError(
                f"e_others={self.e_others} cannot exceed "
                f"s_others={self.s_others}")


@dataclass(frozen=True)
class BestResponse:
    """Solution of one miner's optimization problem.

    Attributes:
        e: Optimal ESP request ``e_i*``.
        c: Optimal CSP request ``c_i*``.
        budget_multiplier: KKT multiplier ``λ`` of the budget constraint
            (0 when the budget is slack).
        spending: ``p_e e + p_c c`` at the optimum.
    """

    e: float
    c: float
    budget_multiplier: float
    spending: float

    @property
    def budget_binding(self) -> bool:
        return self.budget_multiplier > 0.0


def _edge_only(reward: float, beta: float, gamma: float, ctx: ResponseContext,
               a_e: float) -> float:
    """Maximize the e-only objective: marginal ``g_S(s̄+e) + g_E(ē+e) = a_e``.

    The left side is strictly decreasing in ``e``; returns the non-negative
    root (0 when even the first unit is unprofitable).
    """
    s_bar, e_bar = ctx.s_others, ctx.e_others

    def marginal(e: float) -> float:
        total = s_bar + e
        g_s = reward * (1.0 - beta) * s_bar / (total * total) \
            if total > 0 else 0.0
        pool = e_bar + e
        g_e = reward * gamma * e_bar / (pool * pool) if pool > 0 else 0.0
        return g_s + g_e

    # Exact opponents-at-origin corner check below.
    if marginal(0.0) <= a_e or (
            s_bar == 0.0 and e_bar == 0.0):  # repro: noqa[RPR002]
        return 0.0
    hi = 1.0
    while marginal(hi) > a_e:
        hi *= 2.0
        if hi > 1e16:
            raise ConfigurationError(
                "edge-only best response diverged; check prices > 0")
    return float(brentq(lambda x: marginal(x) - a_e, 0.0, hi,
                        xtol=1e-14, rtol=8.9e-16))


def _cloud_only(reward: float, beta: float, ctx: ResponseContext,
                a_c: float) -> float:
    """Maximize the c-only objective: ``g_S(s̄+c) = a_c`` in closed form."""
    s_bar = ctx.s_others
    if s_bar <= 0.0:
        return 0.0
    target = math.sqrt(reward * (1.0 - beta) * s_bar / a_c)
    return max(target - s_bar, 0.0)


def _candidate(reward: float, beta: float, gamma: float, ctx: ResponseContext,
               q_e: float, q_c: float, p_e: float, p_c: float,
               lam: float) -> Tuple[float, float]:
    """Stationary point for a fixed budget multiplier ``λ`` (Eq. 14 form)."""
    a_e = q_e + lam * p_e
    a_c = q_c + lam * p_c
    delta = a_e - a_c
    s_bar, e_bar = ctx.s_others, ctx.e_others

    if s_bar <= 0.0:
        # Opponents buy nothing: cloud units yield zero marginal income.
        if e_bar <= 0.0 or gamma <= 0.0:
            return 0.0, 0.0
        return _edge_only(reward, beta, gamma, ctx, a_e), 0.0

    if delta <= 0.0 or gamma <= 0.0 or e_bar <= 0.0:
        if gamma > 0.0 and e_bar > 0.0 and delta <= 0.0:
            # Edge is no pricier than cloud but strictly more valuable:
            # cloud is dominated.
            return _edge_only(reward, beta, gamma, ctx, a_e), 0.0
        # No extra value from the edge pool (γ=0 or ē=0): pick the cheaper
        # objective price for the pure (1-β)/S income stream.
        if a_e < a_c:
            return _edge_only(reward, beta, gamma, ctx, a_e), 0.0
        return 0.0, _cloud_only(reward, beta, ctx, a_c)

    # Mixed interior attempt (Eq. 14): closed-form target aggregates.
    s_target = math.sqrt(reward * (1.0 - beta) * s_bar / a_c)
    e_target = math.sqrt(reward * gamma * e_bar / delta)
    e = e_target - e_bar
    c = (s_target - s_bar) - e
    if e < 0.0:
        return 0.0, _cloud_only(reward, beta, ctx, a_c)
    if c < 0.0:
        return _edge_only(reward, beta, gamma, ctx, a_e), 0.0
    return e, c


def solve_best_response(ctx: ResponseContext, *, reward: float, beta: float,
                        h: float, p_e: float, p_c: float, budget: float,
                        nu: float = 0.0) -> BestResponse:
    """Exact best response of one miner.

    Args:
        ctx: Opponent aggregates ``(ē, s̄)``.
        reward: Mining reward ``R``.
        beta: Fork rate ``β`` in ``[0, 1)``.
        h: Edge satisfaction probability (``γ = β h`` enters the objective).
        p_e: ESP unit price (budget and, plus ``nu``, objective).
        p_c: CSP unit price.
        budget: Miner budget ``B_i``.
        nu: Shared-capacity multiplier of the standalone GNEP decomposition;
            the perceived edge price becomes ``p_e + nu`` while spending is
            still charged at ``p_e``. Zero for the plain NEP.

    Returns:
        The optimal :class:`BestResponse`.
    """
    if p_e <= 0 or p_c <= 0:
        raise ConfigurationError("prices must be positive")
    if budget <= 0:
        raise ConfigurationError("budget must be positive")
    if nu < 0:
        raise ConfigurationError("capacity multiplier nu must be >= 0")
    if not 0.0 <= beta < 1.0:
        raise ConfigurationError("beta must be in [0, 1)")
    gamma = beta * h
    q_e = p_e + nu
    q_c = p_c

    def candidate(lam: float) -> Tuple[float, float]:
        return _candidate(reward, beta, gamma, ctx, q_e, q_c, p_e, p_c, lam)

    def spend(lam: float) -> float:
        e, c = candidate(lam)
        return p_e * e + p_c * c

    e0, c0 = candidate(0.0)
    cost0 = p_e * e0 + p_c * c0
    if cost0 <= budget + _TOL:
        return BestResponse(e=e0, c=c0, budget_multiplier=0.0,
                            spending=cost0)

    # Budget binds: Eq. (15) for a mixed response, else a bracketed root.
    lam = _interior_multiplier(reward, beta, gamma, ctx, p_e, p_c,
                               budget, nu)
    if lam is not None:
        e, c = candidate(lam)
        if not (e > 0.0 and c > 0.0 and abs(
                budget / (p_e * e + p_c * c) - 1.0) < _RESCALE_BAND):
            lam = None
    if lam is None:
        tie = _tie_mix(reward, beta, gamma, ctx, q_e, q_c, p_e, p_c,
                       budget)
        if tie is not None:
            lam, e, c = tie
        else:
            lam = _bracketed_multiplier(spend, budget)
            e, c = candidate(lam)
    # Re-scale exactly onto the budget plane to remove root-finding slack.
    cost = p_e * e + p_c * c
    if cost > 0.0:
        scale = budget / cost
        # Only apply when it is a shrink/grow of at most the solver slack.
        if abs(scale - 1.0) < _RESCALE_BAND:
            e *= scale
            c *= scale
            cost = budget
    return BestResponse(e=e, c=c, budget_multiplier=lam, spending=cost)


def _interior_multiplier(reward: float, beta: float, gamma: float,
                         ctx: ResponseContext, p_e: float, p_c: float,
                         budget: float, nu: float) -> Optional[float]:
    """Budget multiplier of a mixed response (Eq. 15), or ``None``.

    Solves ``h(t) = a t/√(ν t² + dp) + b t - K = 0`` for
    ``t = 1/√(1+λ)`` by Newton's method from ``t = 0``: ``h`` is linear
    at ``ν = 0`` (one step lands on Eq. 15) and concave increasing with
    ``h(0) = -K < 0`` otherwise, so the iterates rise monotonically to
    the root and stop when a step no longer rises. ``None`` outside the
    domain ``γ > 0``, ``p_e > p_c``, ``ē > 0``, ``s̄ > 0``, or for
    ``λ < 0``; the caller still checks that the response is interior.
    """
    dp = p_e - p_c
    if not (gamma > 0.0 and dp > 0.0 and ctx.e_others > 0.0
            and ctx.s_others > 0.0):
        return None
    a = dp * math.sqrt(reward * gamma * ctx.e_others)
    b = math.sqrt(p_c * reward * (1.0 - beta) * ctx.s_others)
    k = budget + dp * ctx.e_others + p_c * ctx.s_others
    t = 0.0
    for _ in range(_NEWTON_STEPS):
        root = math.sqrt(nu * t * t + dp)
        h = a * t / root + b * t - k
        step = t - h / (a * dp / (root * root * root) + b)
        if not step > t:
            break
        t = step
    else:
        return None
    if not 0.0 < t <= 1.0:
        return None
    return 1.0 / (t * t) - 1.0


def _tie_mix(reward: float, beta: float, gamma: float, ctx: ResponseContext,
             q_e: float, q_c: float, p_e: float, p_c: float,
             budget: float) -> Optional[Tuple[float, float, float]]:
    """``(λ₀, e, c)`` when the budget falls inside the substitution jump.

    With no edge pool (``γ ē = 0``) the miner buys whichever good has the
    lower objective price ``q + λ p``. When ``p_e < p_c <= q_e`` the order
    flips at ``λ₀ = (q_e - q_c)/(p_c - p_e)``, and spending jumps there
    from ``p_c x`` down to ``p_e x`` for the common total ``x``. Every mix
    of total ``x`` is then optimal, and the one spending ``B`` exactly is
    the best response. ``None`` when there is no such jump or ``B`` is
    outside it.
    """
    s_bar = ctx.s_others
    if (gamma > 0.0 and ctx.e_others > 0.0) or s_bar <= 0.0 \
            or not (p_e < p_c and q_e >= q_c):
        return None
    lam0 = (q_e - q_c) / (p_c - p_e)
    x = _cloud_only(reward, beta, ctx, q_c + lam0 * p_c)
    if not p_e * x < budget < p_c * x:
        return None
    c = (budget - p_e * x) / (p_c - p_e)
    return lam0, x - c, c


def _bracketed_multiplier(spend: Callable[[float], float],
                          budget: float) -> float:
    """Root of the monotone decreasing ``spend(λ) = B`` (bracket + brentq)."""
    lo, hi = 0.0, 1.0
    while spend(hi) > budget:
        lo = hi
        hi *= 2.0
        if hi > 1e18:
            raise ConfigurationError(
                "budget multiplier bracket diverged; model is degenerate")
    return float(brentq(lambda x: spend(x) - budget, lo, hi,
                        xtol=1e-14, rtol=8.9e-16))

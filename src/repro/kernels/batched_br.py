"""Batched miner best responses: the vectorized form of Eqs. (12)-(15).

The scalar reference (:mod:`repro.core.miner_best_response`) solves one
miner's 2-variable concave program semi-analytically: closed-form
Eq. (14) candidates for a fixed budget multiplier ``λ``, corner
fallbacks via scalar root-finding, and ``brentq`` on the monotone
spending curve for the complementary-slackness ``λ`` (Eq. 15).  This
module evaluates the same KKT system for **all miners at once**:

* every closed-form branch (mixed interior, cloud-only, and the
  single-pool edge-only corners) is an array expression over the
  per-miner opponent aggregates ``(ē_i, s̄_i)`` and budgets ``B_i``;
* the two-pool edge-only marginal equation
  ``R(1-β) s̄/(s̄+e)² + Rγ ē/(ē+e)² = a_e`` — the only branch with no
  closed form — is solved by vectorized bisection on its strictly
  decreasing left-hand side;
* the budget multiplier of a mixed response is Eq. (15), solved per
  lane by the scalar kernel's monotone Newton iteration in
  ``t = 1/√(1+λ)`` (one step at ``ν = 0``), each lane frozen once it
  stops rising; a lane is accepted only when its response at that
  ``λ`` is interior and spends the budget;
* the rejected lanes (a corner binds) find ``λ_i`` by vectorized
  bracketing + bisection on the (monotone decreasing) batched spending
  curve, all advanced in lockstep, except lanes whose budget falls
  inside the substitution jump of a pool-less miner, which take the
  scalar kernel's exact mix at ``λ₀``.

The closed-form lanes repeat the scalar arithmetic; bisection is run to
~1e-15 relative bracket width, so batched and scalar responses agree
far inside the ``1e-9`` contract pinned by
``tests/kernels/test_equivalence.py`` (they are not bit-identical:
``brentq`` and bisection stop on different ulps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from ..exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.params import GameParameters, Prices

__all__ = ["BatchedBestResponse", "batched_best_response",
           "jacobi_sweep", "certify_sweep", "gauss_seidel_sweep_running"]

#: Absolute spending slack below which the budget is considered free,
#: matching ``repro.core.miner_best_response._TOL``.
_TOL = 1e-13

#: Relative budget miss accepted for (and re-scaled out of) a solved
#: multiplier, matching ``repro.core.miner_best_response._RESCALE_BAND``.
_RESCALE_BAND = 1e-6

#: Newton steps of the interior multiplier, as in the scalar kernel.
_NEWTON_STEPS = 64

#: Bisection sweeps for the implicit equations.  The bracket halves each
#: sweep, so 110 sweeps shrink any double-precision bracket to its ulp
#: floor; loops exit early once every lane's bracket is degenerate.
_BISECT_SWEEPS = 110


@dataclass(frozen=True)
class BatchedBestResponse:
    """All miners' best responses, solved simultaneously.

    Attributes:
        e: Optimal ESP requests ``e_i*`` (shape ``(n,)``).
        c: Optimal CSP requests ``c_i*`` (shape ``(n,)``).
        budget_multiplier: Per-miner KKT multipliers ``λ_i`` (0 where
            the budget is slack).
        spending: ``P_e e_i + P_c c_i`` at the optimum.
    """

    e: np.ndarray
    c: np.ndarray
    budget_multiplier: np.ndarray
    spending: np.ndarray


def _edge_only_batch(s_bar: np.ndarray, e_bar: np.ndarray,
                     a_e: np.ndarray, reward: float, beta: float,
                     gamma: float) -> np.ndarray:
    """Vectorized e-only maximizer: ``g_S(s̄+e) + g_E(ē+e) = a_e``.

    Mirrors the case split of the scalar ``_edge_only``/``_cloud_only``
    helpers: single-pool corners reduce to closed forms, and only the
    genuinely two-pool marginal needs (vectorized) bisection.
    """
    e = np.zeros_like(a_e)
    ks = reward * (1.0 - beta)
    ke = reward * gamma

    # Single-pool closed forms: with one pool empty the marginal is
    # k x̄/(x̄+e)^2 = a_e, i.e. e = sqrt(k x̄ / a_e) - x̄.
    s_only = (s_bar > 0.0) & ((e_bar <= 0.0) | (gamma <= 0.0))
    if np.any(s_only):
        e[s_only] = np.maximum(
            np.sqrt(ks * s_bar[s_only] / a_e[s_only]) - s_bar[s_only], 0.0)
    e_only = (s_bar <= 0.0) & (e_bar > 0.0) & (gamma > 0.0)
    if np.any(e_only):
        e[e_only] = np.maximum(
            np.sqrt(ke * e_bar[e_only] / a_e[e_only]) - e_bar[e_only], 0.0)

    both = (s_bar > 0.0) & (e_bar > 0.0) & (gamma > 0.0)
    if not np.any(both):
        return e
    sb = s_bar[both]
    eb = e_bar[both]
    ae = a_e[both]

    def marginal(x: np.ndarray) -> np.ndarray:
        ts = sb + x
        te = eb + x
        return ks * sb / (ts * ts) + ke * eb / (te * te)

    profitable = marginal(np.zeros_like(ae)) > ae
    if not np.any(profitable):
        return e
    sb, eb, ae = sb[profitable], eb[profitable], ae[profitable]

    def marg(x: np.ndarray) -> np.ndarray:
        ts = sb + x
        te = eb + x
        return ks * sb / (ts * ts) + ke * eb / (te * te)

    hi = np.ones_like(ae)
    for _ in range(64):
        grow = marg(hi) > ae
        if not np.any(grow):
            break
        hi[grow] *= 2.0
        if np.any(hi > 1e16):
            raise ConfigurationError(
                "edge-only best response diverged; check prices > 0")
    else:
        if np.any(marg(hi) > ae):
            raise ConfigurationError(
                "edge-only best response diverged; check prices > 0")
    lo = np.zeros_like(ae)
    for _ in range(_BISECT_SWEEPS):
        mid = 0.5 * (lo + hi)
        if np.all((mid <= lo) | (mid >= hi)):
            break
        high = marg(mid) > ae
        lo = np.where(high, mid, lo)
        hi = np.where(high, hi, mid)
    root = 0.5 * (lo + hi)
    sub = e[both]
    sub[profitable] = root
    e[both] = sub
    return e


def _candidate_batch(s_bar: np.ndarray, e_bar: np.ndarray,
                     lam: np.ndarray, reward: float, beta: float,
                     gamma: float, q_e: float, q_c: float,
                     p_e: float, p_c: float
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized stationary point for fixed multipliers ``λ_i``.

    Branch-for-branch mirror of the scalar ``_candidate`` (Eq. 14 and
    its corner fallbacks), evaluated through boolean masks so every
    miner lands in exactly the branch the scalar code would take.
    """
    a_e = q_e + lam * p_e
    a_c = q_c + lam * p_c
    delta = a_e - a_c
    e = np.zeros_like(s_bar)
    c = np.zeros_like(s_bar)
    ks = reward * (1.0 - beta)
    pool = (gamma > 0.0) & (e_bar > 0.0)

    deg = s_bar <= 0.0                  # opponents buy nothing
    edge_deg = deg & pool               # ... but the edge pool pays
    corner = ~deg & (~pool | (delta <= 0.0))
    edge_corner = corner & ((pool & (delta <= 0.0)) | (~pool & (a_e < a_c)))
    cloud_corner = corner & ~edge_corner
    mixed = ~deg & ~corner              # interior Eq. (14) attempt

    if np.any(mixed):
        sb = s_bar[mixed]
        eb = e_bar[mixed]
        s_target = np.sqrt(ks * sb / a_c[mixed])
        e_target = np.sqrt(reward * gamma * eb / delta[mixed])
        e_m = e_target - eb
        c_m = (s_target - sb) - e_m
        drop_to_cloud = e_m < 0.0
        drop_to_edge = ~drop_to_cloud & (c_m < 0.0)
        interior = ~drop_to_cloud & ~drop_to_edge
        sub_idx = np.flatnonzero(mixed)
        e[sub_idx[interior]] = e_m[interior]
        c[sub_idx[interior]] = c_m[interior]
        cloud_corner = cloud_corner.copy()
        cloud_corner[sub_idx[drop_to_cloud]] = True
        edge_corner = edge_corner.copy()
        edge_corner[sub_idx[drop_to_edge]] = True

    edge_mask = edge_deg | edge_corner
    if np.any(edge_mask):
        e[edge_mask] = _edge_only_batch(
            s_bar[edge_mask], e_bar[edge_mask], a_e[edge_mask],
            reward, beta, gamma)
    if np.any(cloud_corner):
        sb = s_bar[cloud_corner]
        c[cloud_corner] = np.maximum(
            np.sqrt(ks * sb / a_c[cloud_corner]) - sb, 0.0)
    return e, c


def batched_best_response(e_others: np.ndarray, s_others: np.ndarray, *,
                          reward: float, beta: float, h: float,
                          p_e: float, p_c: float, budgets: np.ndarray,
                          nu: float = 0.0) -> BatchedBestResponse:
    """Exact best responses of all ``n`` miners, vectorized.

    Args:
        e_others: Opponent edge aggregates ``ē_i`` (shape ``(n,)``).
        s_others: Opponent total aggregates ``s̄_i`` (shape ``(n,)``).
        reward: Mining reward ``R``.
        beta: Fork rate ``β`` in ``[0, 1)``.
        h: Edge satisfaction probability (``γ = β h``).
        p_e: ESP unit price (budget and, plus ``nu``, objective).
        p_c: CSP unit price.
        budgets: Per-miner budgets ``B_i`` (shape ``(n,)``).
        nu: Shared-capacity multiplier of the GNEP decomposition.

    Returns:
        :class:`BatchedBestResponse` with all per-miner optima.
    """
    if p_e <= 0 or p_c <= 0:
        raise ConfigurationError("prices must be positive")
    if nu < 0:
        raise ConfigurationError("capacity multiplier nu must be >= 0")
    if not 0.0 <= beta < 1.0:
        raise ConfigurationError("beta must be in [0, 1)")
    e_bar = np.asarray(e_others, dtype=float)
    s_bar = np.asarray(s_others, dtype=float)
    budgets = np.asarray(budgets, dtype=float)
    if e_bar.shape != s_bar.shape or e_bar.shape != budgets.shape:
        raise ConfigurationError(
            "e_others, s_others, and budgets must share one shape")
    if np.any(budgets <= 0):
        raise ConfigurationError("budget must be positive")
    if np.any(e_bar < 0) or np.any(s_bar < 0):
        raise ConfigurationError("opponent aggregates must be >= 0")
    gamma = beta * h
    q_e = p_e + nu
    q_c = p_c

    lam = np.zeros_like(budgets)
    e, c = _candidate_batch(s_bar, e_bar, lam, reward, beta, gamma,
                            q_e, q_c, p_e, p_c)
    cost = p_e * e + p_c * c
    over = np.flatnonzero(cost > budgets + _TOL)
    if over.size:
        sb = s_bar[over]
        eb = e_bar[over]
        bb = budgets[over]
        # Eq. (15) for the mixed lanes; the rest fall through below.
        lam_b, eb_opt, cb_opt, done = _interior_multiplier_batch(
            sb, eb, bb, reward, beta, gamma, p_e, p_c, nu)
        tie = _tie_lanes(sb, eb, bb, reward, beta, gamma, q_e, q_c,
                         p_e, p_c, lam_b, eb_opt, cb_opt)
        rest = np.flatnonzero(~done & ~tie)
        if rest.size:
            lam_r = _bisect_multiplier(sb[rest], eb[rest], bb[rest],
                                       reward, beta, gamma, q_e, q_c,
                                       p_e, p_c)
            lam_b[rest] = lam_r
            eb_opt[rest], cb_opt[rest] = _candidate_batch(
                sb[rest], eb[rest], lam_r, reward, beta, gamma, q_e,
                q_c, p_e, p_c)
        # Re-scale exactly onto the budget plane (same slack rule as the
        # scalar kernel): only when the correction is within the root-
        # finder's own tolerance band.
        cost_b = p_e * eb_opt + p_c * cb_opt
        safe = np.where(cost_b > 0.0, cost_b, 1.0)
        scale = np.where(
            (cost_b > 0.0) & (np.abs(bb / safe - 1.0) < _RESCALE_BAND),
            bb / safe, 1.0)
        eb_opt *= scale
        cb_opt *= scale
        # scale is exactly 1.0 where untouched. # repro: noqa[RPR002]
        cost_b = np.where(scale != 1.0, bb, cost_b)  # repro: noqa[RPR002]
        e[over] = eb_opt
        c[over] = cb_opt
        cost[over] = cost_b
        lam[over] = lam_b
    return BatchedBestResponse(e=e, c=c, budget_multiplier=lam,
                               spending=cost)


def _interior_multiplier_batch(s_bar: np.ndarray, e_bar: np.ndarray,
                               budgets: np.ndarray, reward: float,
                               beta: float, gamma: float, p_e: float,
                               p_c: float, nu: float
                               ) -> Tuple[np.ndarray, np.ndarray,
                                          np.ndarray, np.ndarray]:
    """Eq. (15) multipliers of budget-bound lanes, with their responses.

    Lane-wise mirror of the scalar ``_interior_multiplier``: monotone
    Newton on ``h(t) = a t/√(ν t² + dp) + b t - K`` from ``t = 0``, each
    lane frozen once a step no longer rises. Returns ``(λ, e, c, done)``
    where ``done`` marks the lanes whose response at ``λ`` (from
    :func:`_candidate_batch`) is interior and spends the budget within
    the re-scale band; the other lanes hold zeros.
    """
    lam = np.zeros_like(budgets)
    e = np.zeros_like(budgets)
    c = np.zeros_like(budgets)
    done = np.zeros(budgets.shape, dtype=bool)
    dp = p_e - p_c
    if not (gamma > 0.0 and dp > 0.0):
        return lam, e, c, done
    lanes = np.flatnonzero((e_bar > 0.0) & (s_bar > 0.0))
    if not lanes.size:
        return lam, e, c, done
    a = dp * np.sqrt(reward * gamma * e_bar[lanes])
    b = np.sqrt(p_c * reward * (1.0 - beta) * s_bar[lanes])
    k = budgets[lanes] + dp * e_bar[lanes] + p_c * s_bar[lanes]
    t = np.zeros_like(a)
    active = np.arange(lanes.size)
    for _ in range(_NEWTON_STEPS):
        ti = t[active]
        root = np.sqrt(nu * ti * ti + dp)
        h = a[active] * ti / root + b[active] * ti - k[active]
        step = ti - h / (a[active] * dp / (root * root * root)
                         + b[active])
        rising = step > ti
        t[active[rising]] = step[rising]
        active = active[rising]
        if not active.size:
            break
    ok = (t > 0.0) & (t <= 1.0)
    ok[active] = False
    lanes, t = lanes[ok], t[ok]
    lam_l = 1.0 / (t * t) - 1.0
    e_l, c_l = _candidate_batch(s_bar[lanes], e_bar[lanes], lam_l, reward,
                                beta, gamma, p_e + nu, p_c, p_e, p_c)
    spent = p_e * e_l + p_c * c_l
    good = (e_l > 0.0) & (c_l > 0.0)
    good[good] = np.abs(budgets[lanes][good] / spent[good] - 1.0) \
        < _RESCALE_BAND
    lanes = lanes[good]
    lam[lanes] = lam_l[good]
    e[lanes] = e_l[good]
    c[lanes] = c_l[good]
    done[lanes] = True
    return lam, e, c, done


def _tie_lanes(s_bar: np.ndarray, e_bar: np.ndarray, budgets: np.ndarray,
               reward: float, beta: float, gamma: float, q_e: float,
               q_c: float, p_e: float, p_c: float, lam: np.ndarray,
               e: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Fill the lanes whose budget sits inside the substitution jump.

    Lane-wise mirror of the scalar ``_tie_mix``: with no edge pool the
    goods swap order at ``λ₀ = (q_e - q_c)/(p_c - p_e)``, and a budget
    between ``p_e x`` and ``p_c x`` is met by the mix of total ``x``
    that spends it exactly. Writes ``λ₀`` and the mix into ``lam``,
    ``e``, ``c`` in place and returns the mask of those lanes.
    """
    tie = np.zeros(budgets.shape, dtype=bool)
    if not (p_e < p_c and q_e >= q_c):
        return tie
    lam0 = (q_e - q_c) / (p_c - p_e)
    lanes = np.flatnonzero(((gamma <= 0.0) | (e_bar <= 0.0))
                           & (s_bar > 0.0))
    sb = s_bar[lanes]
    x = np.maximum(np.sqrt(reward * (1.0 - beta) * sb
                           / (q_c + lam0 * p_c)) - sb, 0.0)
    bb = budgets[lanes]
    inside = (p_e * x < bb) & (bb < p_c * x)
    lanes, x, bb = lanes[inside], x[inside], bb[inside]
    c_t = (bb - p_e * x) / (p_c - p_e)
    lam[lanes] = lam0
    e[lanes] = x - c_t
    c[lanes] = c_t
    tie[lanes] = True
    return tie


def _bisect_multiplier(s_bar: np.ndarray, e_bar: np.ndarray,
                       budgets: np.ndarray, reward: float, beta: float,
                       gamma: float, q_e: float, q_c: float, p_e: float,
                       p_c: float) -> np.ndarray:
    """Per-lane root of the decreasing ``spend(λ) = B``: bracket + bisect."""

    def spend(lams: np.ndarray) -> np.ndarray:
        es, cs = _candidate_batch(s_bar, e_bar, lams, reward, beta, gamma,
                                  q_e, q_c, p_e, p_c)
        return p_e * es + p_c * cs

    lo = np.zeros_like(budgets)
    hi = np.ones_like(budgets)
    for _ in range(70):
        grow = spend(hi) > budgets
        if not np.any(grow):
            break
        lo = np.where(grow, hi, lo)
        hi = np.where(grow, 2.0 * hi, hi)
        if np.any(hi > 1e18):
            raise ConfigurationError(
                "budget multiplier bracket diverged; model is "
                "degenerate")
    else:
        if np.any(spend(hi) > budgets):
            raise ConfigurationError(
                "budget multiplier bracket diverged; model is "
                "degenerate")
    for _ in range(_BISECT_SWEEPS):
        mid = 0.5 * (lo + hi)
        if np.all((mid <= lo) | (mid >= hi)):
            break
        high = spend(mid) > budgets
        lo = np.where(high, mid, lo)
        hi = np.where(high, hi, mid)
    return 0.5 * (lo + hi)


def jacobi_sweep(e: np.ndarray, c: np.ndarray, params: "GameParameters",
                 prices: "Prices",
                 nu: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
    """One simultaneous best-response sweep over all miners.

    The Jacobi counterpart of
    :func:`repro.core.nep.best_response_profile`: every miner responds
    to the *frozen* profile, so the opponent aggregates are plain array
    expressions and one batched solve replaces ``n`` scalar solves.

    Args:
        e, c: Current profile (not modified).
        params: :class:`~repro.core.params.GameParameters`.
        prices: :class:`~repro.core.params.Prices`.
        nu: Shared-capacity multiplier (GNEP decomposition).
    """
    e = np.asarray(e, dtype=float)
    c = np.asarray(c, dtype=float)
    E = float(np.sum(e))
    S = E + float(np.sum(c))
    e_others = np.maximum(E - e, 0.0)
    s_others = np.maximum(S - e - c, 0.0)
    # Guard ulp-level inversions: ``s̄_i >= ē_i`` holds exactly in real
    # arithmetic but the two subtractions can disagree in the last bit.
    s_others = np.maximum(s_others, e_others)
    br = batched_best_response(
        e_others, s_others, reward=params.reward, beta=params.fork_rate,
        h=params.effective_h, p_e=prices.p_e, p_c=prices.p_c,
        budgets=params.budget_array, nu=nu)
    return br.e, br.c


def certify_sweep(e: np.ndarray, c: np.ndarray, params: "GameParameters",
                  prices: "Prices", nu: float = 0.0
                  ) -> Tuple[np.ndarray, np.ndarray, float]:
    """One exact :func:`jacobi_sweep` from ``(e, c)`` and its residual.

    At the true equilibrium ``BR(x*) = x*``, so the sweep's largest
    move, relative to ``max(1, ‖BR(x)‖_∞)``, bounds a candidate
    profile's error through the BR map's local Lipschitz constant.
    Returns the sweep output ``(e_br, c_br)`` and that residual.
    """
    e_br, c_br = jacobi_sweep(e, c, params, prices, nu=nu)
    scale = max(1.0, float(np.max(np.abs(e_br))),
                float(np.max(np.abs(c_br))))
    residual = max(float(np.max(np.abs(e_br - e))),
                   float(np.max(np.abs(c_br - c)))) / scale
    return e_br, c_br, residual


def gauss_seidel_sweep_running(e: np.ndarray, c: np.ndarray,
                               params: "GameParameters", prices: "Prices",
                               nu: float = 0.0
                               ) -> Tuple[np.ndarray, np.ndarray]:
    """Asynchronous sweep with running aggregates: ``O(n)`` per sweep.

    The paper's Gauss–Seidel scheme updates miners in place, so each
    miner's opponent aggregates depend on the miners already updated
    this sweep.  The reference path re-sums the profile for every miner
    (``O(n^2)`` per sweep); this variant maintains running totals
    ``E``, ``S`` and applies single-element deltas — the results agree
    with the reference to within 1 ulp per aggregate but are **not**
    bit-identical (incremental and re-summed floating-point addition
    round differently; measured in ``docs/PERFORMANCE.md``), which is
    why the reference arithmetic remains the golden-pinned default.
    """
    from ..core.miner_best_response import (ResponseContext,
                                            solve_best_response)

    e_new = np.array(e, dtype=float, copy=True)
    c_new = np.array(c, dtype=float, copy=True)
    budgets = params.budget_array
    h = params.effective_h
    E = float(np.sum(e_new))
    C = float(np.sum(c_new))
    for i in range(params.n):
        old_e = float(e_new[i])
        old_c = float(c_new[i])
        e_others = E - old_e
        s_others = e_others + C - old_c
        ctx = ResponseContext(e_others=max(e_others, 0.0),
                              s_others=max(s_others, 0.0))
        br = solve_best_response(
            ctx, reward=params.reward, beta=params.fork_rate, h=h,
            p_e=prices.p_e, p_c=prices.p_c, budget=float(budgets[i]),
            nu=nu)
        e_new[i] = br.e
        c_new[i] = br.c
        E += br.e - old_e
        C += br.c - old_c
    return e_new, c_new

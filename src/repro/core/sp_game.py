"""SP (leader) subgame: pricing against the induced miner demand.

Problems 2a/2c of the paper. Each SP maximizes its profit taking the *miner
subgame equilibrium* as the demand curve:

    V_e(P_e, P_c) = (P_e - C_e) * E*(P_e, P_c)
    V_c(P_e, P_c) = (P_c - C_c) * C*(P_e, P_c)

where ``(E*, C*)`` come from the mode-appropriate follower solver (NEP in
connected mode, GNEP variational equilibrium in standalone mode). Demand
evaluation is memoized because every scalar price optimization queries
it many times, and answered in closed form wherever one applies.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np
from scipy.optimize import minimize_scalar

from ..exceptions import ConfigurationError, InfeasibleGameError
from ..game.diagnostics import ConvergenceReport
from .gnep import solve_standalone_equilibrium
from .homogeneous_demand import homogeneous_demand
from .nep import MinerEquilibrium, resolve_kernel, separable_applies, \
    separable_equilibrium, separable_shares, solve_connected_equilibrium
from .params import EdgeMode, GameParameters, Prices

__all__ = ["DemandOracle", "esp_best_response", "csp_best_response"]


class DemandOracle:
    """Memoized miner-equilibrium demand ``(E*, C*)(P)``.

    The oracle dispatches on the game's edge operation mode and caches
    equilibria keyed by rounded prices.  With ``fast=True`` (the
    default) it answers from exact closed forms wherever they apply,
    whatever ``kernel`` is:

    * homogeneous games: :mod:`repro.core.homogeneous_demand`, falling
      back to the iterative solvers in corner regimes it does not cover;
    * heterogeneous connected games with ``βh > 0`` and no ``n_types``,
      at prices in the mixed region ``P_c < (1-β)P_e/D``: the separable
      equilibrium ``e_i = w_i E*``, ``c_i = w_i (σ/P_c − E*)`` with
      ``E* = βhσ/((1-β)(P_e − P_c))``, where ``σ`` and the shares
      ``w_i`` are solved once per game
      (:func:`~repro.core.nep.separable_shares`).  Each answer is
      certified by one exact best-response sweep whose residual goes
      into its report (:func:`~repro.core.nep.separable_equilibrium`);
      a miss falls back.

    Everything else — ``fast=False``, standalone mode, ``n_types``,
    prices outside the mixed region — runs the solver selected by
    ``kernel`` (see
    :func:`~repro.core.nep.solve_connected_equilibrium`, which takes
    the same separable closed form for every kernel but ``scalar``),
    compressed into weighted budget types when ``n_types`` is set
    (:mod:`repro.kernels.typespace`).  Every iterative solve starts
    from :func:`~repro.core.nep.initial_profile`, so the demand at a
    price never depends on the order of the probes.
    """

    #: Rounding (decimal places) for the memo key.
    _KEY_DECIMALS = 12

    def __init__(self, params: GameParameters, tol: float = 1e-9,
                 max_iter: int = 3000, fast: bool = True,
                 kernel: str = "scalar",
                 n_types: Optional[int] = None) -> None:
        if not isinstance(fast, bool):
            raise ConfigurationError("fast must be True or False")
        # Closed forms never reach the solver, so check the kernel here.
        resolve_kernel(kernel, params.n)
        self.params = params
        self.tol = tol
        self.max_iter = max_iter
        self.kernel = kernel
        self.n_types = n_types
        self.fast = fast
        self._homogeneous = params.is_homogeneous
        self._separable = (fast and not self._homogeneous
                           and params.mode is EdgeMode.CONNECTED
                           and n_types is None)
        self._shares: Optional[Tuple[float, np.ndarray, int]] = None
        self._cache: Dict[Tuple[float, float], MinerEquilibrium] = {}
        self.evaluations = 0
        self.fallbacks = 0

    def _homogeneous_form(self, prices: Prices) -> MinerEquilibrium:
        demand = homogeneous_demand(self.params, prices)
        n = self.params.n
        report = ConvergenceReport(converged=True, iterations=0,
                                   residual=0.0, tolerance=self.tol,
                                   message=f"closed form ({demand.regime})")
        return MinerEquilibrium(e=np.full(n, demand.e),
                                c=np.full(n, demand.c),
                                params=self.params, prices=prices,
                                report=report, nu=demand.nu)

    def equilibrium(self, prices: Prices) -> MinerEquilibrium:
        """Miner-subgame equilibrium at ``prices`` (cached)."""
        key = (round(prices.p_e, self._KEY_DECIMALS),
               round(prices.p_c, self._KEY_DECIMALS))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        self.evaluations += 1
        eq = None
        if self.fast and self._homogeneous:
            try:
                eq = self._homogeneous_form(prices)
            except ConfigurationError:
                self.fallbacks += 1
        elif self._separable and separable_applies(self.params, prices):
            if self._shares is None:
                self._shares = separable_shares(self.params)
            eq = separable_equilibrium(self.params, prices, self.tol,
                                       shares=self._shares)
            if eq is None:
                self.fallbacks += 1
        if eq is None:
            if self.params.mode is EdgeMode.STANDALONE:
                eq = solve_standalone_equilibrium(self.params, prices,
                                                  tol=self.tol,
                                                  kernel=self.kernel,
                                                  n_types=self.n_types)
            else:
                eq = solve_connected_equilibrium(self.params, prices,
                                                 tol=self.tol,
                                                 max_iter=self.max_iter,
                                                 kernel=self.kernel,
                                                 n_types=self.n_types)
        self._cache[key] = eq
        return eq

    def edge_demand(self, prices: Prices) -> float:
        """``E*(P)``."""
        return self.equilibrium(prices).total_edge

    def cloud_demand(self, prices: Prices) -> float:
        """``C*(P)``."""
        return self.equilibrium(prices).total_cloud

    def esp_profit(self, prices: Prices) -> float:
        """``V_e(P)`` on the induced demand."""
        return (prices.p_e - self.params.edge_cost) * self.edge_demand(prices)

    def csp_profit(self, prices: Prices) -> float:
        """``V_c(P)`` on the induced demand."""
        return (prices.p_c - self.params.cloud_cost) * \
            self.cloud_demand(prices)


def _bounded_argmax(fn: Callable[[float], float], lo: float, hi: float,
                    xatol: float) -> float:
    res = minimize_scalar(lambda x: -fn(x), bounds=(lo, hi),
                          method="bounded", options={"xatol": xatol})
    return float(res.x)


def esp_best_response(oracle: DemandOracle, p_c: float,
                      max_expansions: int = 12,
                      xatol: float = 1e-8) -> float:
    """ESP profit-maximizing price given the CSP price ``p_c``.

    Searches ``(max(C_e, p_c) + ε, hi)`` with an expanding upper bracket.
    When ``p_c <= C_e`` the model's ESP profit increases toward a finite
    asymptote and the supremum is not attained (edge demand is hyperbolic
    in the premium — a genuine feature of the paper's demand system, see
    DESIGN.md); in that regime the search returns the capped optimum so
    the leader iteration can continue — the CSP's reply then raises
    ``P_c`` above ``C_e`` and subsequent ESP responses are interior.
    """
    params = oracle.params
    lo = max(params.edge_cost, p_c) * (1.0 + 1e-7) + 1e-9
    hi = max(4.0 * lo, 8.0 * p_c, 1.0)

    def profit(p_e: float) -> float:
        return oracle.esp_profit(Prices(p_e=p_e, p_c=p_c))

    best = lo
    for _ in range(max_expansions):
        best = _bounded_argmax(profit, lo, hi, xatol)
        if best < 0.99 * hi:
            return best
        hi *= 2.0
    return best


def csp_best_response(oracle: DemandOracle, p_e: float,
                      xatol: float = 1e-8) -> float:
    """CSP profit-maximizing price given the ESP price ``p_e``.

    The CSP never prices above ``p_e`` (edge would dominate and cloud
    demand vanish), so the search interval is ``(C_c + ε, p_e)``.
    """
    params = oracle.params
    lo = params.cloud_cost * (1.0 + 1e-7) + 1e-9
    hi = p_e * (1.0 - 1e-9)
    if hi <= lo:
        raise InfeasibleGameError(
            f"no feasible CSP price below P_e={p_e} and above "
            f"C_c={params.cloud_cost}")

    def profit(p_c: float) -> float:
        return oracle.csp_profit(Prices(p_e=p_e, p_c=p_c))

    return _bounded_argmax(profit, lo, hi, xatol)

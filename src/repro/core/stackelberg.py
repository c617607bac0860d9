"""Stackelberg-equilibrium solvers: Algorithm 1 and Algorithm 2.

Backward induction ties the two stages together: for any leader price pair,
the follower stage is resolved by the mode-appropriate miner solver; the
leaders then play a non-cooperative pricing game on that induced demand.

* :func:`solve_stackelberg` with ``scheme="best-response"`` implements
  **Algorithm 1** (connected mode) and **Algorithm 2** (standalone mode):
  asynchronous best-response / price-bargaining iteration between the two
  SPs, each move solving the full follower equilibrium. Both algorithms in
  the paper share this loop; the modes differ only in the follower solver.
* ``scheme="esp-anticipates"`` is the sequential refinement used in
  Theorem 4, where the ESP optimizes against the CSP's best-response curve
  ``P_c*(P_e)`` rather than a fixed price.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.optimize import minimize_scalar

from ..exceptions import ConvergenceError
from ..game.diagnostics import ConvergenceReport, ResidualRecorder
from ..telemetry import TELEMETRY as _TEL
from .nep import MinerEquilibrium
from .params import GameParameters, Prices
from .sp_game import DemandOracle, csp_best_response, esp_best_response

__all__ = ["StackelbergEquilibrium", "solve_stackelberg",
           "verify_sp_equilibrium"]


@dataclass
class StackelbergEquilibrium:
    """A subgame-perfect equilibrium of the full two-stage game.

    Attributes:
        prices: Leader-stage equilibrium prices ``(P_e*, P_c*)``.
        miners: Follower-stage equilibrium at those prices.
        v_e: ESP profit at equilibrium.
        v_c: CSP profit at equilibrium.
        report: Convergence diagnostics of the leader iteration.
        scheme: Leader-stage solution concept used.
    """

    prices: Prices
    miners: MinerEquilibrium
    v_e: float
    v_c: float
    report: ConvergenceReport
    scheme: str

    @property
    def converged(self) -> bool:
        return self.report.converged

    def summary(self) -> str:
        return (
            f"SE ({self.miners.params.mode.value}, {self.scheme}): "
            f"P_e={self.prices.p_e:.6f}, P_c={self.prices.p_c:.6f}, "
            f"E={self.miners.total_edge:.4f}, "
            f"C={self.miners.total_cloud:.4f}, "
            f"V_e={self.v_e:.4f}, V_c={self.v_c:.4f}; {self.report}"
        )


def _initial_prices(params: GameParameters,
                    initial: Optional[Prices]) -> Prices:
    if initial is not None:
        return initial
    # Start the CSP strictly above BOTH unit costs: while P_c <= C_e the
    # ESP's best response runs to its bracket cap (see esp_best_response).
    p_c = max(2.0 * params.cloud_cost, 1.5 * params.edge_cost,
              params.cloud_cost + 0.1, 0.2)
    p_e = max(2.0 * params.edge_cost, 1.5 * p_c, p_c + 0.1)
    return Prices(p_e=p_e, p_c=p_c)


def solve_stackelberg(params: GameParameters,
                      initial: Optional[Prices] = None,
                      scheme: str = "auto",
                      tol: float = 1e-6,
                      max_iter: int = 200,
                      demand_tol: float = 1e-9,
                      price_xatol: float = 1e-9,
                      damping: float = 1.0,
                      raise_on_failure: bool = False,
                      warm_start: Optional[Prices] = None,
                      kernel: str = "scalar",
                      n_types: Optional[int] = None,
                      ) -> StackelbergEquilibrium:
    """Compute a Stackelberg equilibrium of the full game.

    Args:
        params: Game parameters (either edge operation mode).
        initial: Starting prices for the leader iteration (Algorithm 1/2:
            "choose any feasible starting point").
        scheme: ``"best-response"`` — asynchronous best-response between
            the SPs: the literal Algorithm 1 (connected) / Algorithm 2
            (standalone) loop. ``"esp-anticipates"`` — the ESP maximizes
            against the CSP's reaction curve (Theorem 4's sequential
            concept). ``"auto"`` (default) uses the anticipating scheme:
            the simultaneous leader game generally has **no pure Nash
            equilibrium** — in connected mode the ESP's reply is the
            pure-edge kink ``D·P_c/(1-β)`` which the CSP then undercuts;
            in standalone mode the CSP's reaction jumps at the ESP's
            capacity-clearing price — so Algorithm 1/2 can cycle (the
            solver detects 2-cycles and reports them; see EXPERIMENTS.md).
            Theorem 4's own proof uses the anticipating structure.
        tol: Relative convergence tolerance on price updates.
        max_iter: Maximum leader-stage sweeps.
        demand_tol: Tolerance of the inner follower solves.
        price_xatol: Absolute tolerance of the scalar price optimizations.
        damping: Step of the damped price update in the best-response
            scheme (1.0 = undamped Algorithm 1/2). The CSP's reaction has
            a jump at the ESP's capacity-clearing price; damping settles
            the iteration just below the jump instead of cycling on it.
        raise_on_failure: Raise :class:`ConvergenceError` instead of
            returning a non-converged result.
        warm_start: Equilibrium prices of a *nearby* scenario (e.g. from
            :mod:`repro.serving`). Unlike ``initial`` — which only picks
            the starting point of the best-response iteration — a warm
            start also narrows the anticipating scheme's coarse search
            bracket around the hint, falling back to the full global
            search whenever the localized optimum is not interior.
            ``None`` (the default) keeps every path bit-identical to the
            cold solve.
        kernel: Follower-solver kernel threaded into the demand oracle
            (see :func:`~repro.core.nep.solve_connected_equilibrium`);
            price points the oracle answers in closed form ignore it.
        n_types: Compress heterogeneous miners into weighted budget
            types for every follower solve behind the demand oracle
            (certified approximation, :mod:`repro.kernels.typespace`);
            ``None`` keeps the exact per-miner follower solver.

    Returns:
        :class:`StackelbergEquilibrium`.
    """
    if scheme == "auto":
        scheme = "esp-anticipates"
    if scheme not in ("best-response", "esp-anticipates"):
        raise ValueError(f"unknown scheme {scheme!r}")
    oracle = DemandOracle(params, tol=demand_tol, kernel=kernel,
                          n_types=n_types)
    if initial is None and warm_start is not None:
        initial = warm_start
    prices = _initial_prices(params, initial)

    if scheme == "esp-anticipates":
        with _TEL.span("stackelberg.solve", scheme=scheme,
                       mode=params.mode.value, kernel=kernel) as sp:
            se = _solve_esp_anticipates(params, oracle, prices, tol,
                                        max_iter, price_xatol,
                                        warm=warm_start)
            if _TEL.enabled:
                sp.set(oracle_calls=oracle.evaluations)
                _record_stackelberg(scheme, params, oracle, se)
        return se

    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must be in (0, 1], got {damping}")
    recorder = ResidualRecorder(tol)
    converged = False
    iterations = 0
    message = None
    history = []
    leader_span = _TEL.span("stackelberg.solve", scheme=scheme,
                            mode=params.mode.value, kernel=kernel)
    leader_span.__enter__()
    for it in range(max_iter):
        iterations = it + 1
        # Asynchronous best responses (Algorithm 1 / Algorithm 2 loop).
        p_e_br = esp_best_response(oracle, prices.p_c, xatol=price_xatol)
        p_e_new = (1.0 - damping) * prices.p_e + damping * p_e_br
        p_c_br = csp_best_response(oracle, p_e_new, xatol=price_xatol)
        p_c_new = (1.0 - damping) * prices.p_c + damping * p_c_br
        scale = max(1.0, prices.p_e, prices.p_c)
        residual = max(abs(p_e_new - prices.p_e),
                       abs(p_c_new - prices.p_c)) / scale
        prices = Prices(p_e=p_e_new, p_c=p_c_new)
        history.append(prices)
        if recorder.record(residual):
            converged = True
            break
        # 2-cycle detection: the reaction curves are discontinuous at
        # kink/clearing prices, where the pure leader game has no Nash
        # equilibrium — Algorithm 1/2 then alternates between two points.
        if len(history) >= 3:
            prev2 = history[-3]
            gap2 = max(abs(prices.p_e - prev2.p_e),
                       abs(prices.p_c - prev2.p_c)) / scale
            if gap2 < tol and residual >= tol:
                other = history[-2]
                # Return the cycle point with the larger joint profit.
                if (oracle.esp_profit(other) + oracle.csp_profit(other)
                        > oracle.esp_profit(prices)
                        + oracle.csp_profit(prices)):
                    prices = other
                message = ("2-cycle detected: no pure-strategy leader "
                           "equilibrium at the reaction-curve jump; "
                           "returned the better cycle point")
                break
    report = recorder.report(converged, iterations, message=message)
    leader_span.set(iterations=iterations,
                    oracle_calls=oracle.evaluations)
    leader_span.__exit__(None, None, None)
    if not converged and message is None and raise_on_failure:
        raise ConvergenceError(f"leader iteration failed: {report}", report)

    miners = oracle.equilibrium(prices)
    se = StackelbergEquilibrium(
        prices=prices, miners=miners, v_e=oracle.esp_profit(prices),
        v_c=oracle.csp_profit(prices), report=report, scheme="best-response")
    if _TEL.enabled:
        _TEL.metrics.counter(
            "stackelberg_leader_iterations_total",
            "Leader best-response sweeps across all solves",
            labels={"scheme": "best-response"}).inc(iterations)
        _record_stackelberg("best-response", params, oracle, se)
    return se


def _record_stackelberg(scheme: str, params: GameParameters,
                        oracle: DemandOracle,
                        se: "StackelbergEquilibrium") -> None:
    """Aggregate metrics for one finished leader-stage solve."""
    labels = {"scheme": scheme, "mode": params.mode.value}
    _TEL.metrics.counter("stackelberg_solves_total",
                         "Completed leader-stage solves",
                         labels=labels).inc()
    _TEL.metrics.counter("stackelberg_oracle_calls_total",
                         "Follower demand-oracle evaluations",
                         labels=labels).inc(oracle.evaluations)
    if not se.report.converged:
        _TEL.emit("stackelberg.nonconverged", scheme=scheme,
                  mode=params.mode.value, message=se.report.message)


def _solve_esp_anticipates(params: GameParameters, oracle: DemandOracle,
                           start: Prices, tol: float, max_iter: int,
                           price_xatol: float,
                           warm: Optional[Prices] = None,
                           ) -> StackelbergEquilibrium:
    """ESP maximizes over ``P_e`` with the CSP reaction curve substituted."""

    def esp_profit_anticipating(p_e: float) -> float:
        p_c = csp_best_response(oracle, p_e, xatol=price_xatol)
        return oracle.esp_profit(Prices(p_e=p_e, p_c=p_c))

    lo = max(params.edge_cost, params.cloud_cost) * (1.0 + 1e-7) + 1e-9
    hi = max(4.0 * lo, 2.0 * start.p_e, 1.0)
    best_p_e = None
    if warm is not None:
        # Localized coarse search: a nearby scenario's optimum bounds the
        # bracket, cutting the number of (expensive) reaction-curve
        # evaluations. Accept only an interior optimum — anything pinned
        # to a warm bracket edge falls through to the global search, so a
        # bad hint degrades to the cold path rather than a wrong answer.
        lo_w = max(lo, 0.6 * warm.p_e)
        hi_w = max(1.6 * warm.p_e, 1.5 * lo_w)
        if hi_w > lo_w:
            res = minimize_scalar(
                lambda x: -esp_profit_anticipating(x),
                bounds=(lo_w, hi_w), method="bounded",
                options={"xatol": price_xatol * max(1.0, hi_w)})
            cand = float(res.x)
            margin = 0.01 * (hi_w - lo_w)
            interior_lo = cand > lo_w + margin or lo_w <= lo * (1 + 1e-12)
            if interior_lo and cand < hi_w - margin:
                best_p_e = cand
    if best_p_e is None:
        for _ in range(60):
            res = minimize_scalar(
                lambda x: -esp_profit_anticipating(x),
                bounds=(lo, hi), method="bounded",
                options={"xatol": price_xatol * max(1.0, hi)})
            best_p_e = float(res.x)
            if best_p_e < 0.99 * hi:
                break
            hi *= 2.0
            if _TEL.enabled:
                _TEL.metrics.counter(
                    "stackelberg_bracket_expansions_total",
                    "Price-search bracket doublings in the "
                    "anticipating scheme").inc()
    # Polish pass: the anticipating objective carries inner-optimizer noise
    # and a market-clearing kink in standalone mode; a tighter local search
    # around the coarse optimum recovers the kink accurately.
    span = 0.2 * best_p_e
    res = minimize_scalar(lambda x: -esp_profit_anticipating(x),
                          bounds=(max(lo, best_p_e - span),
                                  best_p_e + span),
                          method="bounded",
                          options={"xatol": price_xatol})
    if -res.fun >= esp_profit_anticipating(best_p_e):
        best_p_e = float(res.x)
    p_c = csp_best_response(oracle, best_p_e, xatol=price_xatol)
    prices = Prices(p_e=best_p_e, p_c=p_c)
    miners = oracle.equilibrium(prices)
    report = ConvergenceReport(converged=True, iterations=1, residual=0.0,
                               tolerance=tol,
                               message="nested scalar optimization")
    return StackelbergEquilibrium(
        prices=prices, miners=miners, v_e=oracle.esp_profit(prices),
        v_c=oracle.csp_profit(prices), report=report,
        scheme="esp-anticipates")


def verify_sp_equilibrium(se: StackelbergEquilibrium,
                          oracle: Optional[DemandOracle] = None,
                          rel_tol: float = 1e-4,
                          grid: int = 41,
                          span: float = 0.5,
                          concept: Optional[str] = None,
                          ) -> Tuple[bool, float]:
    """No-profitable-deviation check for the leader stage.

    Scans a multiplicative price grid around each SP's equilibrium price
    and returns ``(ok, worst_gain)`` where ``worst_gain`` is the largest
    relative profit improvement found (negative or ~0 at an equilibrium).

    The deviation model follows the solution concept (defaults to the one
    ``se`` was solved with):

    * ``"nash"`` — both SPs deviate with the rival's price held fixed
      (matches ``scheme="best-response"``).
    * ``"stackelberg"`` — the CSP deviates with ``P_e`` fixed (it moves
      last); the ESP deviates **along the CSP's reaction curve** (matches
      ``scheme="esp-anticipates"``, where a fixed-price ESP deviation is
      not the relevant counterfactual).
    """
    params = se.miners.params
    if oracle is None:
        oracle = DemandOracle(params)
    if concept is None:
        concept = ("stackelberg" if se.scheme == "esp-anticipates"
                   else "nash")
    if concept not in ("nash", "stackelberg"):
        raise ValueError(f"unknown concept {concept!r}")
    factors = np.linspace(1.0 - span, 1.0 + span, grid)
    v_e_star = oracle.esp_profit(se.prices)
    v_c_star = oracle.csp_profit(se.prices)
    denom_e = max(abs(v_e_star), 1e-12)
    denom_c = max(abs(v_c_star), 1e-12)
    worst = -np.inf
    for f in factors:
        p_e_dev = se.prices.p_e * f
        if p_e_dev > params.edge_cost:
            if concept == "nash":
                if p_e_dev > se.prices.p_c:
                    gain = (oracle.esp_profit(Prices(p_e_dev,
                                                     se.prices.p_c))
                            - v_e_star) / denom_e
                    worst = max(worst, gain)
            else:
                try:
                    p_c_react = csp_best_response(oracle, p_e_dev)
                # Any CSP-reaction failure means "no profitable
                # reaction" for the deviation check, whatever scipy
                # raises. # repro: noqa[RPR007]
                except Exception:  # repro: noqa[RPR007]
                    p_c_react = None
                if p_c_react is not None:
                    gain = (oracle.esp_profit(Prices(p_e_dev, p_c_react))
                            - v_e_star) / denom_e
                    worst = max(worst, gain)
        p_c_dev = se.prices.p_c * f
        if 0 < p_c_dev < se.prices.p_e:
            gain = (oracle.csp_profit(Prices(se.prices.p_e, p_c_dev))
                    - v_c_star) / denom_c
            worst = max(worst, gain)
    return bool(worst <= rel_tol), float(worst)

"""Independent correctness oracle for the benchmark's answers.

Nothing here imports the program's best-response, utility, closed-form
or verification code: every check is recomputed from the paper's model.

* Miner utility is Eq. (9): ``U_i = R[(1-β) s_i/S + βh e_i/E] - P_e e_i
  - P_c c_i`` (``h = 1`` in standalone mode).
* A miner's best response (Eq. 15) is found by reducing its concave
  two-variable program to one variable: for a fixed edge request ``e``
  the optimal cloud request is the clipped stationary point
  ``c*(e) = clip(sqrt(R(1-β)s̄/P_c) - s̄ - e, 0, (B - P_e e)/P_c)``, and
  the resulting value ``g(e)`` is concave, so the root of its envelope
  derivative is bisected on ``[0, min(B/P_e, cap)]``.
* Leader answers are checked with the oracle's own follower solver
  (Gauss–Seidel on that best response) and a local price-step test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import brentq, minimize_scalar

#: A connected or standalone miner answer is rejected when some miner
#: gains more than this share of ``|U_i| + spend_i`` by deviating.
MINER_RTOL = {"connected": 1e-7, "standalone": 1e-5}
#: Absolute floor of the deviation test, as a share of the reward.
MINER_ATOL = 1e-12
#: Feasibility slack (relative) on budgets and the shared capacity.
FEASIBILITY_RTOL = 1e-9
#: Relative price step of the leader check, either way.
PRICE_STEP = 1e-2
#: A leader answer is rejected when an SP gains more than this share of
#: its profit by moving its price one step.
SP_RTOL = 1e-6
#: Bisection steps of the vectorized best response.
_BISECT = 100


@dataclass
class MinerAnswer:
    """One miner-stage answer to check.

    Attributes:
        e, c: Per-miner edge and cloud requests.
        budgets: Per-miner budgets.
        reward, beta, h: Game parameters ``R``, ``β`` and ``h``.
        p_e, p_c: Announced prices.
        e_max: Shared edge capacity (standalone mode) or ``None``.
    """

    e: np.ndarray
    c: np.ndarray
    budgets: np.ndarray
    reward: float
    beta: float
    h: float
    p_e: float
    p_c: float
    e_max: Optional[float] = None

    @property
    def mode(self) -> str:
        return "connected" if self.e_max is None else "standalone"


def _value(e, c, K1, K2, pe, pc, eb, sb):
    """Eq. (9) utility of own requests ``(e, c)`` against others'
    aggregates ``(eb, sb)``; shares of an empty pool are 0."""
    s = e + c
    with np.errstate(divide="ignore", invalid="ignore"):
        share = np.where(sb + s > 0, s / (sb + s), 0.0)
        edge = np.where(eb + e > 0, e / (eb + e), 0.0)
    return K1 * share + K2 * edge - pe * e - pc * c


def best_response_value(K1, K2, pe, pc, budget, eb, sb, cap):
    """Vectorized best-response utility of every miner.

    All arguments broadcast. ``cap`` bounds the edge request (``inf``
    in connected mode, the capacity left by the others in standalone
    mode).
    """
    K1, K2, pe, pc, budget, eb, sb, cap = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in
          (K1, K2, pe, pc, budget, eb, sb, cap)))
    e_hi = np.maximum(np.minimum(budget / pe, cap), 0.0)
    with np.errstate(invalid="ignore"):
        t_u = np.where(sb > 0, np.sqrt(K1 * sb / pc) - sb, 0.0)

    def cloud(e):
        c_max = np.maximum((budget - pe * e) / pc, 0.0)
        return np.clip(t_u - e, 0.0, c_max)

    def slope(e):
        c_max = (budget - pe * e) / pc
        want = t_u - e
        total = e + cloud(e)
        with np.errstate(divide="ignore", invalid="ignore"):
            edge = np.where(eb > 0, K2 * eb / (eb + e) ** 2, 0.0)
            pool = np.where(sb + total > 0,
                            K1 * sb / (sb + total) ** 2, 0.0)
        no_cloud = pool + edge - pe
        interior = pc + edge - pe
        on_budget = pool * (1.0 - pe / pc) + edge
        return np.where(want <= 0, no_cloud,
                        np.where(want < c_max, interior, on_budget))

    lo = np.zeros_like(e_hi)
    hi = e_hi.copy()
    for _ in range(_BISECT):
        mid = 0.5 * (lo + hi)
        up = slope(mid) > 0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    e_star = np.where(slope(np.zeros_like(e_hi)) <= 0, 0.0,
                      np.where(slope(e_hi) >= 0, e_hi, 0.5 * (lo + hi)))
    best = _value(e_star, cloud(e_star), K1, K2, pe, pc, eb, sb)
    # The concave reduction holds only while the opponents' edge pool is
    # non-empty; comparing the interval ends keeps the answer honest at
    # the pool's jump.
    for cand in (np.zeros_like(e_hi), e_hi):
        best = np.maximum(best, _value(cand, cloud(cand), K1, K2, pe, pc,
                                       eb, sb))
    return best


def miner_violations(answers: Sequence[MinerAnswer]) -> List[str]:
    """One message per answer that is infeasible or admits a profitable
    deviation (an empty string where the answer passes).

    The best responses of every miner of every answer are computed in
    one vectorized call over the concatenated miners.
    """
    out = [_infeasibility(a) for a in answers]
    live = [i for i, msg in enumerate(out) if not msg]
    if not live:
        return out
    cols: dict = {k: [] for k in ("K1", "K2", "pe", "pc", "budget", "eb",
                                   "sb", "cap", "now", "allowed")}
    sizes = []
    for i in live:
        a = answers[i]
        e = np.maximum(np.asarray(a.e, dtype=float), 0.0)
        c = np.maximum(np.asarray(a.c, dtype=float), 0.0)
        n = e.shape[0]
        E = float(np.sum(e))
        S = E + float(np.sum(c))
        h = a.h if a.e_max is None else 1.0
        K1 = a.reward * (1.0 - a.beta)
        K2 = a.reward * a.beta * h
        eb = np.maximum(E - e, 0.0)
        sb = np.maximum(S - e - c, 0.0)
        now = _value(e, c, K1, K2, a.p_e, a.p_c, eb, sb)
        spend = a.p_e * e + a.p_c * c
        cols["K1"].append(np.full(n, K1))
        cols["K2"].append(np.full(n, K2))
        cols["pe"].append(np.full(n, a.p_e))
        cols["pc"].append(np.full(n, a.p_c))
        cols["budget"].append(np.asarray(a.budgets, dtype=float))
        cols["eb"].append(eb)
        cols["sb"].append(sb)
        cols["cap"].append(np.full(n, np.inf) if a.e_max is None
                           else np.maximum(a.e_max - eb, 0.0))
        cols["now"].append(now)
        cols["allowed"].append(MINER_RTOL[a.mode] * (np.abs(now) + spend)
                               + MINER_ATOL * a.reward)
        sizes.append(n)
    flat = {k: np.concatenate(v) for k, v in cols.items()}
    best = best_response_value(flat["K1"], flat["K2"], flat["pe"],
                               flat["pc"], flat["budget"], flat["eb"],
                               flat["sb"], flat["cap"])
    gain = best - flat["now"]
    excess = gain - flat["allowed"]
    start = 0
    for i, n in zip(live, sizes):
        part = slice(start, start + n)
        start += n
        worst = int(np.argmax(excess[part]))
        if excess[part][worst] > 0:
            out[i] = (f"miner {worst} gains {float(gain[part][worst]):.3e}"
                      f" by deviating (allowed "
                      f"{float(flat['allowed'][part][worst]):.3e})")
    return out


def _infeasibility(a: MinerAnswer) -> str:
    """Why an answer is not a feasible profile, or an empty string."""
    e = np.asarray(a.e, dtype=float)
    c = np.asarray(a.c, dtype=float)
    budgets = np.asarray(a.budgets, dtype=float)
    if e.shape != budgets.shape or c.shape != budgets.shape:
        return "profile shape does not match the budgets"
    if not (np.all(np.isfinite(e)) and np.all(np.isfinite(c))):
        return "non-finite requests"
    scale = max(1.0, float(np.max(budgets)))
    if np.min(e) < -1e-12 * scale or np.min(c) < -1e-12 * scale:
        return "negative request"
    over = a.p_e * e + a.p_c * c - budgets * (1.0 + FEASIBILITY_RTOL)
    if np.max(over) > 0:
        return f"budget exceeded by {float(np.max(over)):.3e}"
    E = float(np.sum(np.maximum(e, 0.0)))
    if a.e_max is not None and E > a.e_max * (1.0 + FEASIBILITY_RTOL):
        return f"capacity exceeded: E={E!r} > E_max={a.e_max!r}"
    return ""


# ---------------------------------------------------------------------
# Follower solver and leader check
# ---------------------------------------------------------------------


def _br_scalar(K1: float, K2: float, pe: float, pc: float, budget: float,
               eb: float, sb: float) -> Tuple[float, float]:
    """Scalar best response (connected mode) by a root of the envelope
    derivative of the reduced concave program."""
    e_hi = budget / pe
    t_u = math.sqrt(K1 * sb / pc) - sb if sb > 0 else 0.0

    def slope(e: float) -> float:
        c_max = (budget - pe * e) / pc
        want = t_u - e
        edge = K2 * eb / (eb + e) ** 2 if eb > 0 else 0.0
        if want <= 0:
            return K1 * sb / (sb + e) ** 2 + edge - pe if sb + e > 0 \
                else edge - pe
        if want < c_max:
            return pc + edge - pe
        total = e + c_max
        return K1 * sb / (sb + total) ** 2 * (1.0 - pe / pc) + edge

    if slope(0.0) <= 0:
        e = 0.0
    elif slope(e_hi) >= 0:
        e = e_hi
    else:
        e = brentq(slope, 0.0, e_hi, xtol=1e-15 * max(e_hi, 1e-300),
                   rtol=8.9e-16)
    c = min(max(t_u - e, 0.0), max((budget - pe * e) / pc, 0.0))
    return e, c


@dataclass
class Followers:
    """The oracle's own connected-mode follower equilibrium."""

    e: np.ndarray
    c: np.ndarray

    @property
    def total_edge(self) -> float:
        return float(np.sum(self.e))

    @property
    def total_cloud(self) -> float:
        return float(np.sum(self.c))


class FollowerSolver:
    """Gauss–Seidel on the oracle's best response, warm-started from
    the last solution (leader checks only move prices by small steps).

    Args:
        budgets, reward, beta, h: The connected-mode game.
        start: Initial profile ``(e, c)``.
    """

    def __init__(self, budgets: np.ndarray, reward: float, beta: float,
                 h: float, start: Tuple[np.ndarray, np.ndarray]) -> None:
        self.budgets = [float(b) for b in budgets]
        self.K1 = reward * (1.0 - beta)
        self.K2 = reward * beta * h
        self.start = ([float(x) for x in start[0]],
                      [float(x) for x in start[1]])

    def solve(self, p_e: float, p_c: float, tol: float = 1e-13,
              max_sweeps: int = 20000) -> Followers:
        e = list(self.start[0])
        c = list(self.start[1])
        n = len(e)
        E = sum(e)
        S = E + sum(c)
        for _ in range(max_sweeps):
            change = 0.0
            for i in range(n):
                eb = max(E - e[i], 0.0)
                sb = max(S - e[i] - c[i], 0.0)
                ei, ci = _br_scalar(self.K1, self.K2, p_e, p_c,
                                    self.budgets[i], eb, sb)
                change = max(change, abs(ei - e[i]), abs(ci - c[i]))
                E = eb + ei
                S = sb + ei + ci
                e[i], c[i] = ei, ci
            # Re-sum to keep the running totals exact.
            E = sum(e)
            S = E + sum(c)
            if change <= tol * max(1.0, max(e), max(c)):
                break
        else:
            raise RuntimeError("oracle follower sweep did not converge")
        self.start = (e, c)
        return Followers(np.asarray(e), np.asarray(c))


@dataclass
class LeaderAnswer:
    """One leader-stage answer to check (connected mode)."""

    p_e: float
    p_c: float
    miners: MinerAnswer
    edge_cost: float
    cloud_cost: float


def leader_violation(a: LeaderAnswer) -> str:
    """Empty when the answer passes: the miner profile is an equilibrium
    at the returned prices, the CSP gains nothing by a price step either
    way with ``P_e`` fixed, and the ESP gains nothing by a step either
    way with the CSP replying (the ESP anticipates the reply)."""
    m = a.miners
    bad = miner_violations([m])[0]
    if bad:
        return f"followers: {bad}"
    solver = FollowerSolver(m.budgets, m.reward, m.beta, m.h,
                            (m.e, m.c))

    def v_e(p_e: float, p_c: float) -> float:
        return (p_e - a.edge_cost) * solver.solve(p_e, p_c).total_edge

    def v_c(p_e: float, p_c: float) -> float:
        return (p_c - a.cloud_cost) * solver.solve(p_e, p_c).total_cloud

    def csp_reply(p_e: float) -> float:
        lo = max(a.p_c * (1.0 - 4 * PRICE_STEP), a.cloud_cost * 1.0000001)
        hi = min(a.p_c * (1.0 + 4 * PRICE_STEP), p_e)
        res = minimize_scalar(lambda x: -v_c(p_e, x), bounds=(lo, hi),
                              method="bounded",
                              options={"xatol": 1e-9 * a.p_c})
        return float(res.x)

    base_c = v_c(a.p_e, a.p_c)
    for step in (-PRICE_STEP, PRICE_STEP):
        p_c = a.p_c * (1.0 + step)
        if not a.cloud_cost < p_c < a.p_e:
            continue
        gain = v_c(a.p_e, p_c) - base_c
        if gain > SP_RTOL * abs(base_c):
            return (f"CSP gains {gain:.3e} by moving P_c to {p_c!r} "
                    f"(profit {base_c:.6g})")
    # The ESP's profit at the returned price is taken with the same
    # anticipated reply as at the deviations: the returned P_c agrees
    # with that reply only to the program's price tolerance.
    base_e = v_e(a.p_e, csp_reply(a.p_e))
    for step in (-PRICE_STEP, PRICE_STEP):
        p_e = a.p_e * (1.0 + step)
        if p_e <= max(a.edge_cost, a.p_c):
            continue
        gain = v_e(p_e, csp_reply(p_e)) - base_e
        if gain > SP_RTOL * abs(base_e):
            return (f"ESP gains {gain:.3e} by moving P_e to {p_e!r} "
                    f"(profit {base_e:.6g})")
    return ""


# ---------------------------------------------------------------------
# Population checks
# ---------------------------------------------------------------------


def corollary1_profile(reward: float, beta: float, h: float, n: int,
                       p_e: float, p_c: float) -> Tuple[float, float]:
    """Corollary 1 interior equilibrium ``(e*, c*)`` per miner (budgets
    slack): ``e* = Rβh(n-1)/(n²(P_e-P_c))`` and
    ``e* + c* = R(1-β)(n-1)/(n² P_c)``."""
    k = reward * (n - 1) / (n * n)
    e_star = k * beta * h / (p_e - p_c)
    return e_star, k * (1.0 - beta) / p_c - e_star


def population_violation(a: MinerAnswer, error_bound: Optional[float],
                         slack: bool) -> str:
    """Feasibility for every miner; for a slack population, every miner
    within the returned certificate of Corollary 1's closed form."""
    bad = _infeasibility(a)
    if bad:
        return bad
    e = np.asarray(a.e, dtype=float)
    c = np.asarray(a.c, dtype=float)
    budgets = np.asarray(a.budgets, dtype=float)
    if not slack:
        return ""
    e_star, c_star = corollary1_profile(a.reward, a.beta, a.h, len(e),
                                        a.p_e, a.p_c)
    if np.min(budgets) < a.p_e * e_star + a.p_c * c_star:
        return "population is not slack at Corollary 1's spend"
    bound = (0.0 if error_bound is None else float(error_bound))
    allowed = bound + 1e-9 * max(1.0, e_star + c_star)
    worst = float(max(np.max(np.abs(e - e_star)),
                      np.max(np.abs(c - c_star))))
    if worst > allowed:
        return (f"slack population is {worst:.3e} from Corollary 1 "
                f"(certificate {bound:.3e})")
    return ""

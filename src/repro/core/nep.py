"""Connected-mode miner subgame (Problem 1a, NEP_MINER) and its solver.

Theorem 2 establishes a unique Nash equilibrium; the distributed iterative
algorithm sketched below Eq. (15) — every miner repeatedly plays its exact
best response to the others' aggregates — converges to it. This module
implements that iteration with optional damping plus convergence
diagnostics, and packages the result with every quantity downstream code
needs (aggregates, utilities, SP profits).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..exceptions import ConvergenceError
from ..game.diagnostics import ConvergenceReport, ResidualRecorder
from ..telemetry import DEFAULT_BUCKETS, Histogram, TELEMETRY as _TEL
from . import utility
from .miner_best_response import ResponseContext, solve_best_response
from .params import GameParameters, Prices

__all__ = ["MinerEquilibrium", "solve_connected_equilibrium",
           "initial_profile", "best_response_profile", "KERNELS",
           "AUTO_VECTORIZED_MIN_N", "resolve_kernel", "separable_shares",
           "separable_applies", "separable_equilibrium"]

#: Valid values of the ``kernel`` parameter of
#: :func:`solve_connected_equilibrium`.
KERNELS = ("scalar", "running", "vectorized", "auto")

#: Smallest ``n`` at which ``kernel="auto"`` picks the aggregate
#: (vectorized) kernel.  ``BENCH_solvers.json`` puts the crossover
#: between the running sweep and the aggregate solve at n ≈ 20: the
#: sweep needs ``O(n)`` sweeps of ``O(n)`` work while the aggregate
#: kernel's iteration count is n-independent, so the ratio
#: running/vectorized climbs from ~0.1x at n=8 through ~0.4x at n=16
#: to ~1.6x at n=24 and ~180x at n=1024.
AUTO_VECTORIZED_MIN_N = 20


def resolve_kernel(kernel: str, n: int) -> str:
    """Resolve ``"auto"`` to a concrete kernel for an ``n``-miner game.

    Deterministic in ``n`` alone (no timing probes) so cache keys,
    serving results, and telemetry labels stay reproducible: ``auto``
    becomes ``"running"`` below :data:`AUTO_VECTORIZED_MIN_N` miners
    and ``"vectorized"`` at or above it.  Concrete kernel names pass
    through unchanged.
    """
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    if kernel != "auto":
        return kernel
    return "vectorized" if n >= AUTO_VECTORIZED_MIN_N else "running"


@dataclass
class MinerEquilibrium:
    """A miner-subgame equilibrium profile with derived quantities.

    Attributes:
        e: ESP requests ``e_i`` (shape ``(n,)``).
        c: CSP requests ``c_i`` (shape ``(n,)``).
        params: Game parameters the profile was solved under.
        prices: SP prices the profile responds to.
        report: Convergence diagnostics of the solver run.
        nu: Shared-capacity multiplier (standalone mode; 0 in connected).
        error_bound: Certified per-coordinate approximation bound when
            the profile came from a type-space compressed solve
            (``n_types``); ``None`` for exact solves.
    """

    e: np.ndarray
    c: np.ndarray
    params: GameParameters
    prices: Prices
    report: ConvergenceReport
    nu: float = 0.0
    error_bound: Optional[float] = None

    def __post_init__(self) -> None:
        self.e = np.asarray(self.e, dtype=float)
        self.c = np.asarray(self.c, dtype=float)

    @property
    def total_edge(self) -> float:
        """``E = Σ e_i``."""
        return float(np.sum(self.e))

    @property
    def total_cloud(self) -> float:
        """``C = Σ c_i``."""
        return float(np.sum(self.c))

    @property
    def total(self) -> float:
        """``S = E + C``."""
        return self.total_edge + self.total_cloud

    @property
    def utilities(self) -> np.ndarray:
        """Per-miner utilities ``U_i`` at the equilibrium."""
        return utility.miner_utilities(self.e, self.c, self.params,
                                       self.prices)

    @property
    def spending(self) -> np.ndarray:
        """Per-miner spending at the equilibrium."""
        return utility.spending(self.e, self.c, self.prices)

    @property
    def sp_profits(self) -> Tuple[float, float]:
        """SP profits ``(V_e, V_c)`` induced by this profile."""
        return utility.sp_profits(self.e, self.c, self.params, self.prices)

    @property
    def converged(self) -> bool:
        return self.report.converged

    def summary(self) -> str:
        """One-paragraph human-readable description."""
        v_e, v_c = self.sp_profits
        return (
            f"{self.params.mode.value} equilibrium, n={self.params.n}: "
            f"E={self.total_edge:.4f}, C={self.total_cloud:.4f}, "
            f"S={self.total:.4f}; V_e={v_e:.4f}, V_c={v_c:.4f}; "
            f"{self.report}"
        )


def initial_profile(params: GameParameters,
                    prices: Prices) -> Tuple[np.ndarray, np.ndarray]:
    """A strictly interior feasible starting profile.

    Starts near the interior (Corollary 1) magnitudes rather than a fixed
    budget fraction: very large budgets would otherwise start the
    iteration far above the equilibrium, where the undamped best response
    can collapse the whole profile onto the spurious all-zero fixed point
    of the smoothed model.
    """
    n = params.n
    beta = params.fork_rate
    h = params.effective_h
    k = params.reward * (n - 1) / (n * n)
    budgets = params.budget_array
    if prices.p_e > prices.p_c and beta * h > 0:
        e_scale = k * beta * h / prices.premium()
    else:
        e_scale = k * 0.1 / prices.p_e
    total_scale = k * max(1.0 - beta, 0.05) / prices.p_c
    c_scale = max(total_scale - e_scale, 0.1 * total_scale)
    e_cap = budgets / (4.0 * prices.p_e)
    c_cap = budgets / (4.0 * prices.p_c)
    e = np.minimum(np.full(n, 0.5 * max(e_scale, 1e-9)), e_cap)
    c = np.minimum(np.full(n, 0.5 * max(c_scale, 1e-9)), c_cap)
    return e, c


def best_response_profile(e: np.ndarray, c: np.ndarray,
                          params: GameParameters, prices: Prices,
                          nu: float = 0.0,
                          sweep: str = "gauss-seidel",
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """One full best-response sweep over all miners.

    Args:
        e, c: Current profile (modified copies are returned).
        params: Game parameters.
        prices: Current SP prices.
        nu: Shared-capacity multiplier (GNEP decomposition; 0 in connected).
        sweep: ``"gauss-seidel"`` updates in place (the paper's asynchronous
            scheme); ``"jacobi"`` best-responds to the frozen profile.
    """
    e_new = np.array(e, dtype=float, copy=True)
    c_new = np.array(c, dtype=float, copy=True)
    source_e = e_new if sweep == "gauss-seidel" else np.array(e, dtype=float)
    source_c = c_new if sweep == "gauss-seidel" else np.array(c, dtype=float)
    budgets = params.budget_array
    h = params.effective_h
    for i in range(params.n):
        e_others = float(np.sum(source_e)) - float(source_e[i])
        s_others = e_others + float(np.sum(source_c)) - float(source_c[i])
        ctx = ResponseContext(e_others=max(e_others, 0.0),
                              s_others=max(s_others, 0.0))
        br = solve_best_response(
            ctx, reward=params.reward, beta=params.fork_rate, h=h,
            p_e=prices.p_e, p_c=prices.p_c, budget=float(budgets[i]), nu=nu)
        e_new[i] = br.e
        c_new[i] = br.c
        if sweep == "gauss-seidel":
            source_e[i] = br.e
            source_c[i] = br.c
    return e_new, c_new


def _sweep_histogram(label: str) -> Optional[Histogram]:
    """The ``br_sweep_seconds{kernel=label}`` histogram, or ``None``
    while telemetry is off."""
    if not _TEL.enabled:
        return None
    return _TEL.metrics.histogram(
        "br_sweep_seconds", "Best-response sweep / kernel-solve latency",
        labels={"kernel": label}, buckets=DEFAULT_BUCKETS)


def separable_shares(params: GameParameters
                     ) -> Tuple[float, np.ndarray, int]:
    """``σ = P_c·S*``, the shares ``w_i`` and the number of binding
    budgets of the mixed-region equilibrium (docs/THEORY.md §3,
    "Heterogeneous budgets").

    ``σ`` and ``w_i`` are price-free: ``σ`` is the root of the strictly
    decreasing ``Σ_i min(1 − σ/(aR), a B_i/(D σ)) = 1`` and ``w_i`` is
    that min.
    The binding miners are the ``m`` smallest budgets, so ``σ`` is the
    positive root of one quadratic per prefix,
    ``(n−m)σ²/(aR) − (n−m−1)σ = a Σ_{i≤m} B_(i)/D``; the prefix whose
    root keeps exactly its own miners binding is the answer.
    """
    a = 1.0 - params.fork_rate
    d = a + params.fork_rate * params.effective_h
    ar = a * params.reward
    budgets = params.budget_array
    n = budgets.shape[0]
    ranked = np.sort(budgets)
    free = n - np.arange(n + 1, dtype=float)
    spend = a * np.concatenate(([0.0], np.cumsum(ranked))) / d
    quad = np.where(free > 0.0, free / ar, 1.0)
    sigma = np.where(free > 0.0,
                     (free - 1.0 + np.sqrt((free - 1.0) ** 2
                                           + 4.0 * quad * spend))
                     / (2.0 * quad),
                     spend)
    # Miner i binds at σ iff B_i < (D/a)·σ·(1 − σ/(aR)).  Prefix m is
    # consistent when B_(m) ≤ that bar ≤ B_(m+1); rounding at a tie can
    # leave none exactly so, and the least violated prefix is then exact
    # to rounding (certification decides).
    bar = d * sigma * (1.0 - sigma / ar) / a
    miss = np.maximum(np.concatenate(([-np.inf], ranked)) - bar,
                      bar - np.concatenate((ranked, [np.inf])))
    m = int(np.argmin(miss))
    s = float(sigma[m])
    return s, np.minimum(1.0 - s / ar, a * budgets / (d * s)), m


def separable_applies(params: GameParameters, prices: Prices,
                      nu: float = 0.0) -> bool:
    """Whether :func:`separable_equilibrium` covers this exact solve.

    It needs an edge bonus (``βh > 0``), no capacity multiplier
    (``ν = 0``) and prices in the mixed region ``P_c < (1-β)P_e/D``.
    """
    return (not nu > 0.0 and params.fork_rate * params.effective_h > 0.0
            and prices.p_c < params.mixed_price_bound(prices.p_e))


def separable_equilibrium(params: GameParameters, prices: Prices,
                          tol: float,
                          shares: Optional[Tuple[float, np.ndarray,
                                                 int]] = None,
                          ) -> Optional[MinerEquilibrium]:
    """Certified closed-form equilibrium at mixed-region prices.

    Every miner plays one share ``w_i`` of both pools:
    ``e_i = w_i E*`` and ``c_i = w_i (σ/P_c − E*)`` with
    ``E* = βhσ/((1-β)(P_e − P_c))`` (docs/THEORY.md §3).  ``shares``
    is :func:`separable_shares` of ``params`` when the caller keeps it
    across prices.  One exact best-response sweep
    (:func:`~repro.kernels.batched_br.certify_sweep`) certifies the
    profile; its residual goes into the report, and a residual that
    misses ``tol`` returns ``None`` so the caller falls back.  The
    profile returned is the closed form itself, not the sweep output.
    The caller checks :func:`separable_applies` first.
    """
    from ..kernels.batched_br import certify_sweep

    sigma, w, bound = separable_shares(params) if shares is None \
        else shares
    edge = (params.fork_rate * params.effective_h * sigma
            / ((1.0 - params.fork_rate) * (prices.p_e - prices.p_c)))
    e = w * edge
    c = w * (sigma / prices.p_c - edge)
    residual = certify_sweep(e, c, params, prices)[2]
    if not residual < tol:
        return None
    report = ConvergenceReport(
        converged=True, iterations=0, residual=residual, tolerance=tol,
        history=[residual],
        message=(f"closed form (separable, {bound} of {params.n} "
                 "budgets bind; residual of one exact sweep)"))
    return MinerEquilibrium(e=e, c=c, params=params, prices=prices,
                            report=report)


def _solve_vectorized(params: GameParameters, prices: Prices, tol: float,
                      _nu: float, label: str = "vectorized"
                      ) -> Optional[Tuple[np.ndarray, np.ndarray,
                                          ConvergenceReport]]:
    """Aggregate-kernel solve plus batched fixed-point verification.

    Returns ``None`` when the verification residual misses ``tol`` (the
    caller falls back to the sweeping solver) — the vectorized path
    never silently degrades accuracy.  ``label`` is the telemetry
    kernel label (``"auto:vectorized"`` when ``kernel="auto"`` resolved
    here).
    """
    from ..kernels.aggregate import solve_connected_aggregate
    from ..kernels.batched_br import certify_sweep

    sweep_hist = _sweep_histogram(label)
    t0 = time.perf_counter() if sweep_hist is not None else 0.0
    sol = solve_connected_aggregate(params, prices, nu=_nu)
    if sweep_hist is not None:
        sweep_hist.observe(time.perf_counter() - t0)
    # One exact batched best-response sweep certifies the profile.
    e_br, c_br, residual = certify_sweep(sol.e, sol.c, params, prices,
                                         nu=_nu)
    if not residual < tol:
        return None
    report = ConvergenceReport(
        converged=True, iterations=sol.evals, residual=residual,
        tolerance=tol, history=[residual],
        message="aggregate kernel (iterations = consistency evals)")
    return np.asarray(e_br, dtype=float), np.asarray(c_br, dtype=float), \
        report


def _solve_typespace(params: GameParameters, prices: Prices, tol: float,
                     _nu: float, n_types: int) -> MinerEquilibrium:
    """Compressed type-space solve (see :mod:`repro.kernels.typespace`)."""
    from ..kernels.typespace import solve_connected_typespace

    sweep_hist = _sweep_histogram("typespace")
    t0 = time.perf_counter() if sweep_hist is not None else 0.0
    ts = solve_connected_typespace(params, prices, n_types, nu=_nu)
    if sweep_hist is not None:
        sweep_hist.observe(time.perf_counter() - t0)
    report = ConvergenceReport(
        converged=True, iterations=ts.evals, residual=ts.error_bound,
        tolerance=tol, history=[ts.error_bound],
        message=(f"type-space compression k={ts.compression.k}: "
                 f"certified per-coordinate bound {ts.error_bound:.3e}"
                 + (" (exact)" if ts.exact else "")))
    return MinerEquilibrium(e=ts.e, c=ts.c, params=params, prices=prices,
                            report=report, nu=_nu,
                            error_bound=None if ts.exact
                            else ts.error_bound)


def solve_connected_equilibrium(params: GameParameters, prices: Prices,
                                tol: float = 1e-9, max_iter: int = 3000,
                                damping: float = 1.0,
                                initial: Optional[Tuple[np.ndarray,
                                                        np.ndarray]] = None,
                                raise_on_failure: bool = False,
                                _nu: float = 0.0,
                                kernel: str = "scalar",
                                n_types: Optional[int] = None,
                                ) -> MinerEquilibrium:
    """Solve NEP_MINER by damped asynchronous best response.

    Args:
        params: Game parameters (connected mode expected; the standalone
            GNEP solver reuses this routine internally via ``_nu``).
        prices: Announced SP prices.
        tol: Relative convergence tolerance on the strategy update.
        max_iter: Maximum sweeps.
        damping: Step in ``x <- (1-α) x + α BR(x)``; 1.0 is undamped.
        initial: Optional warm-start profile ``(e, c)``.
        raise_on_failure: Raise :class:`ConvergenceError` on non-convergence
            instead of returning a flagged result.
        _nu: Internal — shared-capacity multiplier for the GNEP
            decomposition.
        kernel: ``"scalar"`` (default) sweeps with the per-miner
            reference kernel and re-summed aggregates — the golden,
            bit-stable path, and it always iterates.  Every other
            kernel first takes the certified closed form
            (:func:`separable_equilibrium`, telemetry label
            ``"separable"``, or ``"auto:separable"`` under ``"auto"``)
            when the solve is exact, ``_nu`` is 0, ``βh > 0`` and
            ``P_c < params.mixed_price_bound(P_e)``; the
            report then shows 0 iterations and a ``"closed form
            (separable, …)"`` message.  Outside those cases, or when
            certification misses, the iterative kernels run:
            ``"running"`` sweeps with ``O(n)`` running aggregates
            (within 1 ulp of scalar per sweep, not bit-identical).
            ``"vectorized"`` solves the aggregate consistency system
            directly (:mod:`repro.kernels`), verifies the result is a
            fixed point of the exact batched best-response map, and
            falls back to ``"running"`` sweeps if verification fails.
            ``"auto"`` picks ``"running"`` or ``"vectorized"`` by miner
            count (:func:`resolve_kernel` /
            :data:`AUTO_VECTORIZED_MIN_N`); the resolved choice is
            recorded in telemetry kernel labels as ``"auto:running"``
            / ``"auto:vectorized"``.  ``damping``, ``initial`` and
            ``max_iter`` only affect the sweeping solves.
        n_types: Compress the population into at most this many weighted
            budget types and solve in type space with a certified
            approximation bound (:mod:`repro.kernels.typespace`);
            ``None`` (default) or ``n_types >= n`` solves exactly with
            the selected ``kernel``.

    Returns:
        The unique :class:`MinerEquilibrium` (Theorem 2).
    """
    requested = kernel
    kernel = resolve_kernel(kernel, params.n)
    label = f"auto:{kernel}" if requested == "auto" else kernel
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must be in (0, 1], got {damping}")
    if n_types is not None and n_types < params.n:
        return _solve_typespace(params, prices, tol, _nu, n_types)
    if kernel != "scalar" and separable_applies(params, prices, _nu):
        sweep_hist = _sweep_histogram(
            "auto:separable" if requested == "auto" else "separable")
        t0 = time.perf_counter() if sweep_hist is not None else 0.0
        closed = separable_equilibrium(params, prices, tol)
        if sweep_hist is not None:
            sweep_hist.observe(time.perf_counter() - t0)
        if closed is not None:
            return closed
    if kernel == "vectorized":
        solved = _solve_vectorized(params, prices, tol, _nu, label=label)
        if solved is not None:
            e, c, report = solved
            return MinerEquilibrium(e=e, c=c, params=params, prices=prices,
                                    report=report, nu=_nu)
        kernel = "running"
        label = "running"
    if initial is None:
        e, c = initial_profile(params, prices)
    else:
        e = np.array(initial[0], dtype=float, copy=True)
        c = np.array(initial[1], dtype=float, copy=True)
        if e.shape != (params.n,) or c.shape != (params.n,):
            raise ValueError("initial profile shape mismatch")

    if kernel == "running":
        from ..kernels.batched_br import gauss_seidel_sweep_running

        def sweep(e: np.ndarray,
                  c: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            return gauss_seidel_sweep_running(e, c, params, prices, nu=_nu)
    else:
        def sweep(e: np.ndarray,
                  c: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            return best_response_profile(e, c, params, prices, nu=_nu)

    sweep_hist = _sweep_histogram(label)
    recorder = ResidualRecorder(tol)
    converged = False
    iterations = 0
    restarts = 0
    gamma = params.fork_rate * params.effective_h
    for it in range(max_iter):
        iterations = it + 1
        if sweep_hist is not None:
            t0 = time.perf_counter()
            e_br, c_br = sweep(e, c)
            sweep_hist.observe(time.perf_counter() - t0)
        else:
            e_br, c_br = sweep(e, c)
        if gamma > 0.0 and float(np.sum(e_br)) <= 0.0 and restarts < 10:
            # An all-zero edge profile is absorbing for the smoothed model
            # (the edge marginal is proportional to opponents' edge units)
            # but is never a true equilibrium while βh > 0: the first ε of
            # edge power earns the full βh bonus. Restart the edge side
            # closer to the origin instead of accepting the collapse, and
            # damp from here on: an undamped sweep from the restarted
            # profile collapses the same way again.
            restarts += 1
            damping = min(damping, 0.5)
            e = np.maximum(e, 1e-12) / 10.0 ** restarts
            c = np.asarray(c_br, dtype=float)
            continue
        e_next = (1.0 - damping) * e + damping * e_br
        c_next = (1.0 - damping) * c + damping * c_br
        scale = max(1.0, float(np.max(np.abs(e_next))),
                    float(np.max(np.abs(c_next))))
        residual = max(float(np.max(np.abs(e_next - e))),
                       float(np.max(np.abs(c_next - c)))) / scale
        e, c = e_next, c_next
        # Past the restart cap the sweep may still land on the absorbing
        # profile; no sweep leaves it, so stop and report no convergence.
        collapsed = gamma > 0.0 and float(np.sum(e)) <= 0.0
        if recorder.record(residual) or collapsed:
            converged = not collapsed
            break

    report = recorder.report(converged, iterations)
    if not converged and raise_on_failure:
        raise ConvergenceError(f"NEP_MINER iteration failed: {report}",
                               report)
    return MinerEquilibrium(e=e, c=c, params=params, prices=prices,
                            report=report, nu=_nu)

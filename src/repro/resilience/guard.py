"""Solver guards: numerical sanity, divergence detection, deadlines, and a
declarative fallback chain around the iterative equilibrium solvers.

The NEP/GNEP/Stackelberg iterations can fail in ways a bare
:class:`~repro.exceptions.ConvergenceError` hides from callers who just
want *an* answer: residual series that diverge or 2-cycle, NaN/Inf leaking
out of an ill-conditioned best response, or a solve that simply takes too
long. :class:`SolverGuard` wraps any chain of solver callables: each step
runs in order until one produces a finite, non-pathological result; the
survivor is returned inside a :class:`GuardedSolution` that says exactly
which solver answered and why the earlier ones were rejected — a
degraded-but-labeled equilibrium instead of an exception.

The zero-overhead contract: when the primary solver succeeds, its result
object is returned unmodified (``GuardedSolution.value is`` the primary's
return value), so guarded and unguarded paths are bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConvergenceError, ReproError
from ..game.diagnostics import classify_residuals

__all__ = ["FallbackStep", "GuardedSolution", "SolverGuard",
           "guarded_miner_equilibrium", "guarded_stackelberg"]


@dataclass(frozen=True)
class FallbackStep:
    """One link of a fallback chain: a label and a zero-arg solver."""

    name: str
    solve: Callable[[], Any]


@dataclass
class GuardedSolution:
    """Outcome of a guarded solve.

    Attributes:
        value: The accepted solver result (unmodified).
        solver: Name of the fallback step that produced it.
        degraded: True when any step before the accepted one failed, or
            the accepted result itself is only a stalled approximation
            (a non-converged report whose residuals plateaued).
        attempts: Step names tried, in order.
        failures: Step name -> reason it was rejected.
        diagnosis: :func:`~repro.game.diagnostics.classify_residuals`
            verdict on the accepted result's residual history (when the
            result carries a ``report``).
    """

    value: Any
    solver: str
    degraded: bool
    attempts: List[str] = field(default_factory=list)
    failures: Dict[str, str] = field(default_factory=dict)
    diagnosis: Optional[str] = None

    @property
    def fallbacks_used(self) -> Tuple[str, ...]:
        """Names of the steps that failed before the accepted one."""
        return tuple(n for n in self.attempts if n in self.failures)


def _find_report(value: Any) -> Optional[Any]:
    report = getattr(value, "report", None)
    if report is not None and hasattr(report, "history"):
        return report
    miners = getattr(value, "miners", None)
    if miners is not None:
        return _find_report(miners)
    return None


def _finite(value: Any) -> bool:
    """Recursively check the numeric payload of a solver result."""
    if value is None:
        return True
    if isinstance(value, (int, float)):
        return bool(np.isfinite(value))
    if isinstance(value, np.ndarray):
        return bool(np.all(np.isfinite(value)))
    for attr in ("e", "c", "p_e", "p_c", "v_e", "v_c", "nu"):
        if hasattr(value, attr) and not _finite(getattr(value, attr)):
            return False
    for attr in ("prices", "miners"):
        if hasattr(value, attr) and not _finite(getattr(value, attr)):
            return False
    return True


class SolverGuard:
    """Runs a fallback chain of solvers under numerical and time guards.

    Args:
        deadline: Optional wall-clock budget (seconds) across the whole
            chain; once exceeded, remaining steps are skipped and the
            best stalled result so far (if any) is returned degraded.
        accept_stalled: Whether a non-converged result whose residuals
            merely plateaued ("stalled") is acceptable (degraded) or
            should trip the next fallback.
        clock: Injectable monotonic clock (tests).
    """

    def __init__(self, deadline: Optional[float] = None,
                 accept_stalled: bool = True,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.deadline = deadline
        self.accept_stalled = accept_stalled
        self._clock = clock

    def _reject_reason(self, value: Any) -> Optional[str]:
        """Why a result is unacceptable, or None if it is fine."""
        if not _finite(value):
            return "non-finite values in solution"
        report = _find_report(value)
        if report is None or report.converged:
            return None
        verdict = classify_residuals(report.history, report.tolerance)
        if verdict in ("diverging", "oscillating", "invalid"):
            return f"residuals {verdict}"
        if verdict == "stalled" and not self.accept_stalled:
            return "residuals stalled above tolerance"
        return None

    def run(self, steps: Sequence[FallbackStep]) -> GuardedSolution:
        """Try each step in order; return the first acceptable result.

        Raises:
            ConvergenceError: When every step fails (or the deadline
                expires) and no salvageable result was seen.
        """
        if not steps:
            raise ValueError("SolverGuard.run needs at least one step")
        start = self._clock()
        attempts: List[str] = []
        failures: Dict[str, str] = {}
        salvage: Optional[GuardedSolution] = None
        for i, step in enumerate(steps):
            if (self.deadline is not None and i > 0
                    and self._clock() - start > self.deadline):
                failures[step.name] = "skipped: deadline exceeded"
                attempts.append(step.name)
                continue
            attempts.append(step.name)
            try:
                value = step.solve()
            except ReproError as ex:
                failures[step.name] = f"{type(ex).__name__}: {ex}"
                continue
            reason = self._reject_reason(value)
            report = _find_report(value)
            diagnosis = None
            if report is not None:
                diagnosis = classify_residuals(report.history,
                                               report.tolerance)
            if reason is None:
                # A converged report is evidence in itself: its history
                # may be a one-entry certificate (the type-space bound),
                # which reads "stalled" without being a plateau.
                stalled = (report is not None and not report.converged
                           and diagnosis == "stalled")
                degraded = bool(failures) or stalled
                return GuardedSolution(value=value, solver=step.name,
                                       degraded=degraded,
                                       attempts=attempts,
                                       failures=failures,
                                       diagnosis=diagnosis)
            failures[step.name] = reason
            if salvage is None and _finite(value):
                # Keep the first finite-but-flawed result as a last
                # resort: a labeled approximation beats an exception.
                salvage = GuardedSolution(value=value, solver=step.name,
                                          degraded=True,
                                          diagnosis=diagnosis)
        if salvage is not None:
            salvage.attempts = attempts
            salvage.failures = dict(failures)
            return salvage
        raise ConvergenceError(
            "every solver in the fallback chain failed: "
            + "; ".join(f"{n}: {r}" for n, r in failures.items()))


def guarded_miner_equilibrium(params: Any, prices: Any,
                              guard: Optional[SolverGuard] = None,
                              **solver_kwargs: Any) -> GuardedSolution:
    """Miner-stage solve with the default fallback chain.

    Chain: mode-appropriate best-response solver (the paper's algorithm)
    -> extragradient on the VI (assumption-light, slower) -> closed-form
    homogeneous approximation (always finite, exact only for homogeneous
    games in the covered regimes).
    """
    from ..core.gnep import (solve_standalone_equilibrium,
                             solve_standalone_extragradient)
    from ..core.nep import MinerEquilibrium, solve_connected_equilibrium
    from ..core.params import EdgeMode

    guard = guard or SolverGuard()
    steps: List[FallbackStep] = []
    if params.mode is EdgeMode.STANDALONE:
        steps.append(FallbackStep(
            "gnep-decomposition",
            lambda: solve_standalone_equilibrium(params, prices,
                                                 **solver_kwargs)))
        steps.append(FallbackStep(
            "vi-extragradient",
            lambda: solve_standalone_extragradient(params, prices)))
    else:
        steps.append(FallbackStep(
            "nep-best-response",
            lambda: solve_connected_equilibrium(params, prices,
                                                **solver_kwargs)))
        steps.append(FallbackStep(
            "nep-damped",
            lambda: solve_connected_equilibrium(params, prices,
                                                damping=0.5)))

    def closed_form() -> "MinerEquilibrium":
        from ..core.homogeneous_demand import homogeneous_demand
        from ..game.diagnostics import ConvergenceReport
        demand = homogeneous_demand(params, prices)
        n = params.n
        report = ConvergenceReport(
            converged=True, iterations=0, residual=0.0, tolerance=0.0,
            message="closed-form homogeneous approximation (fallback)")
        return MinerEquilibrium(
            e=np.full(n, demand.e), c=np.full(n, demand.c),
            params=params, prices=prices, report=report, nu=demand.nu)

    steps.append(FallbackStep("closed-form", closed_form))
    return guard.run(steps)


def guarded_stackelberg(params: Any,
                        guard: Optional[SolverGuard] = None,
                        **solver_kwargs: Any) -> GuardedSolution:
    """Leader-stage solve with the default fallback chain.

    Chain: the anticipating scheme (Theorem 4; the library default) ->
    damped best-response (Algorithm 1/2 with damping 0.5, which settles
    the reaction-curve jump instead of cycling on it).
    """
    from ..core.stackelberg import solve_stackelberg

    guard = guard or SolverGuard()
    steps = [
        FallbackStep("stackelberg-anticipating",
                     lambda: solve_stackelberg(params, **solver_kwargs)),
        FallbackStep("stackelberg-damped-br",
                     lambda: solve_stackelberg(params,
                                               scheme="best-response",
                                               damping=0.5)),
    ]
    return guard.run(steps)

"""SolverGuard: residual classification, fallback chains, deadlines."""

import numpy as np
import pytest

from repro.core import Prices, homogeneous, solve_connected_equilibrium
from repro.exceptions import ConvergenceError
from repro.game import ConvergenceReport, classify_residuals
from repro.resilience import (FallbackStep, SolverGuard,
                              guarded_miner_equilibrium,
                              guarded_stackelberg)


class TestClassifyResiduals:
    def test_empty(self):
        assert classify_residuals([], 1e-6) == "empty"

    def test_converged(self):
        assert classify_residuals([1.0, 0.1, 1e-9], 1e-6) == "converged"

    def test_diverging(self):
        hist = [1.0 * (1.5 ** k) for k in range(20)]
        assert classify_residuals(hist, 1e-6) == "diverging"

    def test_oscillating_two_cycle(self):
        hist = [1.0, 2.0] * 10
        assert classify_residuals(hist, 1e-6) == "oscillating"

    def test_stalled_plateau(self):
        hist = [1.0 / (k + 1) for k in range(10)] + [0.1] * 10
        assert classify_residuals(hist, 1e-6) == "stalled"

    def test_invalid_nan(self):
        assert classify_residuals([1.0, float("nan")], 1e-6) == "invalid"


def _report(converged, history, tol=1e-6):
    return ConvergenceReport(converged=converged, iterations=len(history),
                             residual=history[-1] if history else 0.0,
                             tolerance=tol, history=list(history))


class _FakeResult:
    def __init__(self, e, c, report):
        self.e = np.asarray(e, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.report = report


class TestSolverGuard:
    def test_primary_success_returns_value_unmodified(self):
        result = _FakeResult([1.0], [2.0], _report(True, [1e-9]))
        guarded = SolverGuard().run([FallbackStep("primary",
                                                  lambda: result)])
        assert guarded.value is result
        assert guarded.solver == "primary"
        assert not guarded.degraded
        assert guarded.fallbacks_used == ()

    def test_nan_result_trips_fallback(self):
        bad = _FakeResult([float("nan")], [1.0], _report(True, [1e-9]))
        good = _FakeResult([1.0], [1.0], _report(True, [1e-9]))
        guarded = SolverGuard().run([
            FallbackStep("primary", lambda: bad),
            FallbackStep("backup", lambda: good)])
        assert guarded.value is good
        assert guarded.degraded
        assert guarded.fallbacks_used == ("primary",)
        assert "non-finite" in guarded.failures["primary"]

    def test_diverging_residuals_trip_fallback(self):
        hist = [1.0 * (2.0 ** k) for k in range(15)]
        bad = _FakeResult([1.0], [1.0], _report(False, hist))
        good = _FakeResult([1.0], [1.0], _report(True, [1e-9]))
        guarded = SolverGuard().run([
            FallbackStep("primary", lambda: bad),
            FallbackStep("backup", lambda: good)])
        assert guarded.solver == "backup"
        assert "diverging" in guarded.failures["primary"]

    def test_raised_repro_error_trips_fallback(self):
        good = _FakeResult([1.0], [1.0], _report(True, [1e-9]))

        def explode():
            raise ConvergenceError("nope")

        guarded = SolverGuard().run([
            FallbackStep("primary", explode),
            FallbackStep("backup", lambda: good)])
        assert guarded.solver == "backup"
        assert "ConvergenceError" in guarded.failures["primary"]

    def test_stalled_result_accepted_but_degraded(self):
        stalled = _FakeResult([1.0], [1.0],
                              _report(False, [0.5] * 30, tol=1e-9))
        guarded = SolverGuard().run([FallbackStep("primary",
                                                  lambda: stalled)])
        assert guarded.value is stalled
        assert guarded.degraded
        assert guarded.diagnosis == "stalled"

    def test_converged_certificate_history_is_not_degraded(self):
        # A certified answer reports its bound as a one-entry history;
        # the report converged, so the plateau reading does not apply.
        certified = _FakeResult([1.0], [1.0],
                                _report(True, [17.0], tol=1e-9))
        guarded = SolverGuard().run([FallbackStep("primary",
                                                  lambda: certified)])
        assert guarded.value is certified
        assert guarded.diagnosis == "stalled"
        assert not guarded.degraded

    def test_non_converged_one_entry_history_stays_degraded(self):
        stalled = _FakeResult([1.0], [1.0],
                              _report(False, [17.0], tol=1e-9))
        guarded = SolverGuard().run([FallbackStep("primary",
                                                  lambda: stalled)])
        assert guarded.value is stalled
        assert guarded.degraded

    def test_stalled_rejected_when_configured(self):
        stalled = _FakeResult([1.0], [1.0],
                              _report(False, [0.5] * 30, tol=1e-9))
        good = _FakeResult([1.0], [1.0], _report(True, [1e-12], tol=1e-9))
        guard = SolverGuard(accept_stalled=False)
        guarded = guard.run([FallbackStep("primary", lambda: stalled),
                             FallbackStep("backup", lambda: good)])
        assert guarded.solver == "backup"

    def test_all_fail_raises_convergence_error(self):
        def explode():
            raise ConvergenceError("nope")

        with pytest.raises(ConvergenceError) as exc:
            SolverGuard().run([FallbackStep("a", explode),
                               FallbackStep("b", explode)])
        assert "a:" in str(exc.value) and "b:" in str(exc.value)

    def test_salvage_returns_best_flawed_result_when_chain_dries_up(self):
        hist = [1.0, 2.0] * 10
        oscillating = _FakeResult([1.0], [1.0], _report(False, hist))

        def explode():
            raise ConvergenceError("nope")

        guarded = SolverGuard().run([
            FallbackStep("primary", lambda: oscillating),
            FallbackStep("backup", explode)])
        assert guarded.value is oscillating
        assert guarded.degraded

    def test_deadline_skips_remaining_steps(self):
        clock = {"t": 0.0}

        def tick():
            clock["t"] += 10.0
            return clock["t"]

        good = _FakeResult([1.0], [1.0], _report(True, [1e-9]))
        hist = [1.0 * (2.0 ** k) for k in range(15)]
        bad = _FakeResult([1.0], [1.0], _report(False, hist))
        guard = SolverGuard(deadline=5.0, clock=tick)
        guarded = guard.run([FallbackStep("primary", lambda: bad),
                             FallbackStep("slow-backup", lambda: good)])
        # The backup was skipped (deadline), so the flawed primary result
        # is salvaged rather than raising.
        assert guarded.value is bad
        assert guarded.degraded
        assert "deadline" in guarded.failures["slow-backup"]


class TestGuardedConvenienceSolvers:
    def test_guarded_miner_matches_plain_solver_bit_for_bit(self):
        params = homogeneous(5, 200.0, reward=1500.0, fork_rate=0.2,
                             h=0.8)
        prices = Prices(p_e=2.0, p_c=1.0)
        plain = solve_connected_equilibrium(params, prices)
        guarded = guarded_miner_equilibrium(params, prices)
        assert guarded.solver == "nep-best-response"
        assert not guarded.degraded
        assert np.array_equal(guarded.value.e, plain.e)
        assert np.array_equal(guarded.value.c, plain.c)

    def test_guarded_standalone_chain(self):
        from repro.core import EdgeMode
        params = homogeneous(5, 200.0, reward=1500.0, fork_rate=0.2,
                             ).with_mode(EdgeMode.STANDALONE, e_max=40.0)
        guarded = guarded_miner_equilibrium(params, Prices(2.0, 1.0))
        assert guarded.solver == "gnep-decomposition"
        assert guarded.value.total_edge <= 40.0 * (1 + 1e-6)

    def test_guarded_stackelberg_matches_plain(self):
        from repro.core import solve_stackelberg
        params = homogeneous(5, 200.0, reward=1500.0, fork_rate=0.2,
                             h=0.8, edge_cost=0.2, cloud_cost=0.1)
        plain = solve_stackelberg(params)
        guarded = guarded_stackelberg(params)
        assert guarded.solver == "stackelberg-anticipating"
        assert guarded.value.prices == plain.prices

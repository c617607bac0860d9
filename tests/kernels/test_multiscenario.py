"""Cross-scenario batched solving against the per-scenario oracle.

The contract of :mod:`repro.kernels.multiscenario` is **bit-identity**:
solving B scenarios in one batched aggregate-space call must produce
exactly the arrays (and iteration counts) that B independent
``solve_connected_equilibrium(..., kernel="vectorized")`` calls
produce. These tests enforce it over deterministic grids, mixed
fast/slow batches exercising the per-scenario convergence masking, and
hypothesis-drawn scenario sets mixing budget-slack and budget-bound
miners.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GameParameters, Prices, homogeneous
from repro.core.nep import solve_connected_equilibrium
from repro.exceptions import ConvergenceError
from repro.kernels import solve_connected_multiscenario


def price_grid_scenarios(n_scen=24, n=8):
    """A heterogeneous-budget scenario grid over prices and rewards.

    Even lanes sit in the mixed price region, where the closed form
    answers; odd lanes sit above its bound ``(1-β)P_e/D``, where the
    batched aggregate kernel does.
    """
    out = []
    for i in range(n_scen):
        params = GameParameters(
            reward=900.0 + 15.0 * i, fork_rate=0.15 + 0.002 * i,
            h=0.8, budgets=[120.0 + 7.0 * j + 3.0 * i
                            for j in range(n)])
        p_e = 2.0 + 0.03 * i
        p_c = (1.0 + 0.01 * i if i % 2 == 0
               else 1.04 * params.mixed_price_bound(p_e))
        out.append((params, Prices(p_e, p_c)))
    return out


def solo(params, prices, tol=1e-9):
    return solve_connected_equilibrium(params, prices, tol=tol,
                                       kernel="vectorized")


class TestBitIdentity:
    def test_batch_matches_independent_vectorized_solves(self):
        scenarios = price_grid_scenarios()
        batch = solve_connected_multiscenario(scenarios)
        assert len(batch) == len(scenarios)
        for (params, prices), eq in zip(scenarios, batch):
            ref = solo(params, prices)
            assert np.array_equal(eq.e, ref.e)
            assert np.array_equal(eq.c, ref.c)

    def test_iteration_counts_match(self):
        scenarios = price_grid_scenarios()
        batch = solve_connected_multiscenario(scenarios)
        for (params, prices), eq in zip(scenarios, batch):
            ref = solo(params, prices)
            assert eq.report.iterations == ref.report.iterations

    def test_grid_mixes_closed_form_and_batched_lanes(self):
        scenarios = price_grid_scenarios()
        batch = solve_connected_multiscenario(scenarios)
        for i, eq in enumerate(batch):
            if i % 2 == 0:
                assert eq.report.message.startswith("closed form")
                assert eq.report.iterations == 0
            else:
                assert eq.report.message.startswith("aggregate kernel")
                assert eq.report.iterations > 0

    def test_batch_of_one_matches(self):
        [(params, prices)] = price_grid_scenarios(n_scen=1)
        [eq] = solve_connected_multiscenario([(params, prices)])
        ref = solo(params, prices)
        assert np.array_equal(eq.e, ref.e)
        assert np.array_equal(eq.c, ref.c)

    def test_batch_composition_invariance(self):
        # A scenario's answer must not depend on its batch-mates: the
        # per-lane frozen masking guarantees each lane's trajectory is
        # exactly its solo trajectory.
        scenarios = price_grid_scenarios(n_scen=16)
        full = solve_connected_multiscenario(scenarios)
        front = solve_connected_multiscenario(scenarios[:4])
        back = solve_connected_multiscenario(scenarios[4:])
        for a, b in zip(full, front + back):
            assert np.array_equal(a.e, b.e)
            assert np.array_equal(a.c, b.c)
            assert a.report.iterations == b.report.iterations


class TestMixedBatches:
    def test_fast_and_slow_scenarios_mix(self):
        # Trivial (lone-miner-like tiny rewards are invalid; use
        # zero-premium "dominated" regimes instead) and general-regime
        # scenarios in one batch: the shrinking active set must not
        # contaminate either class.
        fast = [(homogeneous(8, 200.0, reward=1000.0, fork_rate=0.2,
                             h=0.8), Prices(1.0, 2.0))]  # edge cheaper
        slow = price_grid_scenarios(n_scen=6)
        mixed = fast + slow + fast
        batch = solve_connected_multiscenario(mixed)
        for (params, prices), eq in zip(mixed, batch):
            ref = solo(params, prices)
            assert np.array_equal(eq.e, ref.e)
            assert np.array_equal(eq.c, ref.c)

    def test_budget_bound_and_slack_mix(self):
        # Starved miners (budget-bound, multiplier search active) next
        # to rich ones (slack, zero multiplier) in the same batch.
        tight = GameParameters(reward=2000.0, fork_rate=0.2, h=0.8,
                               budgets=[3.0 + 0.5 * j
                                        for j in range(8)])
        loose = GameParameters(reward=2000.0, fork_rate=0.2, h=0.8,
                               budgets=[2000.0 + 10.0 * j
                                        for j in range(8)])
        # P_c = 1.8 lies above the mixed-region bound 1.667: those
        # lanes take the batched aggregate kernel, the others the
        # closed form.
        mixed = [(tight, Prices(2.0, 1.0)), (loose, Prices(2.0, 1.0)),
                 (tight, Prices(2.5, 1.2)), (loose, Prices(2.5, 1.2)),
                 (tight, Prices(2.0, 1.8)), (loose, Prices(2.0, 1.8))]
        batch = solve_connected_multiscenario(mixed)
        for (params, prices), eq in zip(mixed, batch):
            ref = solo(params, prices)
            assert np.array_equal(eq.e, ref.e)
            assert np.array_equal(eq.c, ref.c)
            assert eq.report.iterations == ref.report.iterations
        assert [eq.report.iterations > 0 for eq in batch] == \
            [False] * 4 + [True] * 2

    def test_uniform_n_required(self):
        a = homogeneous(4, 200.0, reward=1000.0, fork_rate=0.2, h=0.8)
        b = homogeneous(5, 200.0, reward=1000.0, fork_rate=0.2, h=0.8)
        with pytest.raises(ValueError, match="uniform miner count"):
            solve_connected_multiscenario([(a, Prices(2.0, 1.0)),
                                           (b, Prices(2.0, 1.0))])

    def test_empty_batch(self):
        assert solve_connected_multiscenario([]) == []


class TestHypothesisDraws:
    @given(st.integers(0, 2 ** 32 - 1),
           st.integers(2, 12), st.integers(2, 10))
    @settings(max_examples=25, deadline=None)
    def test_random_batches_bit_identical(self, seed, n_scen, n):
        rng = np.random.default_rng(seed)
        scenarios = []
        for _ in range(n_scen):
            # Budgets spanning 5..2000 mix bound and slack miners.
            params = GameParameters(
                budgets=rng.uniform(5.0, 2000.0, size=n),
                reward=float(rng.uniform(100.0, 3000.0)),
                fork_rate=float(rng.uniform(0.0, 0.9)),
                h=float(rng.uniform(0.1, 1.0)))
            prices = Prices(float(rng.uniform(0.5, 4.0)),
                            float(rng.uniform(0.2, 3.0)))
            scenarios.append((params, prices))
        batch = solve_connected_multiscenario(scenarios)
        for (params, prices), eq in zip(scenarios, batch):
            try:
                ref = solo(params, prices)
            except ConvergenceError:
                # The vectorized kernel rejects this point; the batch
                # must have rejected it too (None), never fabricated.
                assert eq is None
                continue
            assert eq is not None
            assert np.array_equal(eq.e, ref.e)
            assert np.array_equal(eq.c, ref.c)
            assert eq.report.iterations == ref.report.iterations

"""Micro-benchmarks of the hot solver paths (true pytest-benchmark runs).

These quantify the costs the experiment harness relies on: a single miner
best response, a full NEP solve, the GNEP decomposition, the closed-form
demand oracle, and a 50-block RL epoch.
"""

import pytest

from repro.core import (EdgeMode, Prices, homogeneous,
                        solve_connected_equilibrium,
                        solve_standalone_equilibrium)
from repro.core.homogeneous_demand import homogeneous_demand
from repro.core.miner_best_response import (ResponseContext,
                                            solve_best_response)
from repro.learning import RLTrainer
from repro.population import GaussianPopulation

PRICES = Prices(p_e=2.0, p_c=1.0)
#: Above the mixed-region bound (1-β)P_e/D = 1.667 of these games, where
#: no closed form applies and the aggregate kernel answers `vectorized`.
OUT_OF_REGION = Prices(p_e=2.0, p_c=1.8)


@pytest.fixture(scope="module")
def connected_params():
    return homogeneous(5, 200.0, reward=1000.0, fork_rate=0.2, h=0.8)


@pytest.fixture(scope="module")
def standalone_params():
    return homogeneous(5, 1000.0, reward=1000.0, fork_rate=0.2,
                       mode=EdgeMode.STANDALONE, e_max=80.0)


def test_bench_miner_best_response(benchmark):
    ctx = ResponseContext(e_others=100.0, s_others=500.0)
    result = benchmark(solve_best_response, ctx, reward=1000.0, beta=0.2,
                       h=0.8, p_e=2.0, p_c=1.0, budget=200.0)
    assert result.e > 0


def test_bench_nep_solve(benchmark, connected_params):
    eq = benchmark(solve_connected_equilibrium, connected_params, PRICES)
    assert eq.converged


def test_bench_nep_solve_n50(benchmark):
    params = homogeneous(50, 200.0, reward=1000.0, fork_rate=0.2, h=0.8)
    eq = benchmark(solve_connected_equilibrium, params, PRICES)
    assert eq.converged


def test_bench_nep_solve_n256_vectorized(benchmark):
    params = homogeneous(256, 200.0, reward=1000.0, fork_rate=0.2,
                         h=0.8)
    eq = benchmark(solve_connected_equilibrium, params, PRICES,
                   kernel="vectorized")
    assert eq.converged


def test_bench_nep_solve_n256_scalar_capped(benchmark):
    # The scalar Gauss-Seidel contraction rate is 1 - O(1/n): a full
    # n=256 solve needs ~30*n sweeps (minutes).  Benchmark a capped
    # 150-sweep attempt instead; the timing is a lower bound on the
    # true scalar solve, so speedups derived from it are conservative.
    params = homogeneous(256, 200.0, reward=1000.0, fork_rate=0.2,
                         h=0.8)
    eq = benchmark.pedantic(solve_connected_equilibrium,
                            args=(params, PRICES),
                            kwargs={"max_iter": 150},
                            rounds=3, iterations=1)
    assert not eq.converged  # capped on purpose


def test_vectorized_speedup_n256():
    # ISSUE acceptance: >= 5x at n=256.  Compare one vectorized full
    # solve against one capped (150-sweep) scalar attempt; since the
    # cap undercounts the scalar cost, the measured ratio is a lower
    # bound on the true speedup.
    import time

    params = homogeneous(256, 200.0, reward=1000.0, fork_rate=0.2,
                         h=0.8)
    start = time.perf_counter()
    vec = solve_connected_equilibrium(params, OUT_OF_REGION,
                                      kernel="vectorized")
    t_vec = time.perf_counter() - start
    assert vec.converged
    assert "aggregate kernel" in vec.report.message
    start = time.perf_counter()
    solve_connected_equilibrium(params, OUT_OF_REGION, max_iter=150)
    t_scalar_capped = time.perf_counter() - start
    assert t_scalar_capped >= 5.0 * t_vec, (
        f"vectorized {t_vec:.3f}s vs capped scalar "
        f"{t_scalar_capped:.3f}s: below the 5x floor")


def test_bench_gnep_decomposition(benchmark, standalone_params):
    eq = benchmark(solve_standalone_equilibrium, standalone_params, PRICES)
    assert eq.total_edge == pytest.approx(80.0, rel=1e-4)


def test_bench_closed_form_demand(benchmark, connected_params):
    d = benchmark(homogeneous_demand, connected_params, PRICES)
    assert d.e > 0


def test_bench_rl_epoch(benchmark):
    trainer = RLTrainer(GaussianPopulation(5, 2), budget=200.0,
                        reward=1000.0, fork_rate=0.2, e_max=80.0, seed=0)
    result = benchmark.pedantic(trainer.run_epoch, args=(2.0, 1.0),
                                rounds=3, iterations=1)
    assert result.blocks == 50

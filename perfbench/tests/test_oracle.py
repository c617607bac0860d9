"""Oracle self-test: correct answers pass, nudged answers are rejected.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import oracle  # noqa: E402
from repro.core.params import EdgeMode, GameParameters, Prices  # noqa: E402
from repro.serving import ScenarioSpec, ServingEngine  # noqa: E402
from workloads import miner_answer  # noqa: E402


def _threshold(n: int) -> float:
    return 1500.0 * (n - 1) * (1.0 - 0.2 + 0.2 * 0.8) / (n * n)


def _nudged(answer: oracle.MinerAnswer, field: str, miner: int,
            factor: float) -> oracle.MinerAnswer:
    values = np.array(getattr(answer, field), dtype=float)
    values[miner] *= factor
    return replace(answer, **{field: values})


@pytest.fixture(scope="module")
def engine() -> ServingEngine:
    return ServingEngine(max_workers=0)


@pytest.mark.parametrize("n", [8, 32])
def test_connected_answers_pass_and_nudges_fail(engine: ServingEngine,
                                                n: int) -> None:
    rng = np.random.default_rng(n)
    params = GameParameters(
        reward=1500.0, fork_rate=0.2, h=0.8,
        budgets=_threshold(n) * rng.uniform(0.5, 1.5, n))
    result = engine.serve(ScenarioSpec(params, Prices(2.0, 0.9)))
    answer = miner_answer(result.value)
    assert oracle.miner_violations([answer]) == [""]
    nudges = [_nudged(answer, f, i, k) for f in ("e", "c")
              for i in (0, n - 1) for k in (0.95, 1.05)]
    verdicts = oracle.miner_violations(nudges)
    assert all(verdicts), verdicts


def test_standalone_answers_pass_and_nudges_fail(
        engine: ServingEngine) -> None:
    rng = np.random.default_rng(3)
    params = GameParameters(
        reward=1500.0, fork_rate=0.2, mode=EdgeMode.STANDALONE,
        e_max=80.0, budgets=_threshold(8) * rng.uniform(0.5, 1.5, 8))
    result = engine.serve(ScenarioSpec(params, Prices(2.0, 1.0)))
    answer = miner_answer(result.value)
    assert answer.e_max is not None
    assert oracle.miner_violations([answer]) == [""]
    nudges = [_nudged(answer, f, 2, k) for f in ("e", "c")
              for k in (0.95, 1.05)]
    assert all(oracle.miner_violations(nudges))


def test_leader_answer_passes_and_price_nudges_fail(
        engine: ServingEngine) -> None:
    budgets = (110.0, 160.0, 200.0, 240.0, 290.0)
    params = GameParameters(reward=1500.0, fork_rate=0.2, h=0.8,
                            budgets=budgets, edge_cost=0.2,
                            cloud_cost=0.1)
    se = engine.serve(ScenarioSpec(params)).value
    answer = oracle.LeaderAnswer(p_e=se.prices.p_e, p_c=se.prices.p_c,
                                 miners=miner_answer(se.miners),
                                 edge_cost=0.2, cloud_cost=0.1)
    assert oracle.leader_violation(answer) == ""
    for f_e, f_c in ((1.03, 1.0), (0.97, 1.0), (1.0, 1.03), (1.0, 0.97)):
        p_e, p_c = se.prices.p_e * f_e, se.prices.p_c * f_c
        # Followers re-solved by the oracle itself, so only the price
        # tests can reject the nudged answer.
        followers = oracle.FollowerSolver(
            np.asarray(budgets), 1500.0, 0.2, 0.8,
            (se.miners.e, se.miners.c)).solve(p_e, p_c)
        miners = replace(answer.miners, e=followers.e, c=followers.c,
                         p_e=p_e, p_c=p_c)
        nudged = replace(answer, p_e=p_e, p_c=p_c, miners=miners)
        assert oracle.leader_violation(nudged), (f_e, f_c)


def test_slack_population_matches_corollary1(engine: ServingEngine
                                             ) -> None:
    n, prices = 4000, Prices(2.0, 1.0)
    e_star, c_star = oracle.corollary1_profile(1000.0 * n, 0.2, 0.8, n,
                                               2.0, 1.0)
    spend = 2.0 * e_star + c_star
    budgets = spend * np.random.default_rng(5).uniform(1.2, 3.0, n)
    params = GameParameters(reward=1000.0 * n, fork_rate=0.2, h=0.8,
                            budgets=budgets)
    eq = engine.serve(ScenarioSpec(params, prices, n_types=64)).value
    answer = miner_answer(eq)
    assert oracle.population_violation(answer, eq.error_bound, True) == ""
    off = _nudged(answer, "e", 7, 0.99)
    assert oracle.population_violation(off, eq.error_bound, True)
    over = _nudged(answer, "c", 7, 10.0)
    assert oracle.population_violation(over, eq.error_bound, False)

"""The four workloads: their inputs and one timed pass each.

Inputs are drawn from the seed, except on ``stackelberg`` (see there).
Every workload drives the program through its public entry points only
(``EquilibriumService.handle`` via ``InProcessClient`` for ``online``,
``ServingEngine.serve``/``serve_batch`` for the others), builds its own
fresh service (per pass) or engine (per round), and hands back a
:class:`PassRecord` whose answers the oracle checks after timing.

Closed-loop workloads attempt whole rounds, each on a fresh engine: a
run keeps starting rounds until the time its timed operations spent
inside the program reaches ``--seconds``, so every run attempts the same
operations in the same proportions.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np
from scipy.special import ndtri

from repro.core.params import EdgeMode, GameParameters, Prices
from repro.service import EquilibriumService, InProcessClient
from repro.serving import ScenarioSpec, ServingEngine

import oracle
from tracing import REQUEST_ID, Tracer

#: Paper constants (Section VI defaults) shared by every workload.
REWARD = 1500.0
BETA = 0.2
H = 0.8


@dataclass
class PassRecord:
    """What one timed pass produced.

    Attributes:
        latencies: Seconds from due/submit to answer of every request
            the latency metrics cover.
        solve_latencies: The subset that ran a fresh solve.
        answered: Answers counted by ``scenarios_per_s``.
        measured: Seconds the answers were counted over.
        attempted, errors: Operations attempted and answered with an
            error by the program.
        late: Open-loop generator lateness per request (seconds).
        miner_answers, leader_answers, population_answers: Distinct
            answers for the oracle.
        kept_answers: Answers of kept-fault operations: the oracle
            counts a wrong one as a failed operation that leaves the run
            correct.
        mismatches: Responses whose bits differ from an earlier
            response for the same key within one cache version.
        warm_entries: ``len(engine.warm_index)`` at the end.
        tracer: The pass's tracer when it was traced.
    """

    latencies: List[float] = field(default_factory=list)
    solve_latencies: List[float] = field(default_factory=list)
    answered: int = 0
    measured: float = 0.0
    attempted: int = 0
    errors: int = 0
    late: List[float] = field(default_factory=list)
    miner_answers: List[oracle.MinerAnswer] = field(default_factory=list)
    leader_answers: List[oracle.LeaderAnswer] = field(
        default_factory=list)
    kept_answers: List[oracle.LeaderAnswer] = field(default_factory=list)
    population_answers: List[Tuple[oracle.MinerAnswer, Optional[float],
                                   bool]] = field(default_factory=list)
    mismatches: int = 0
    warm_entries: int = 0
    tracer: Optional[Tracer] = None


def miner_answer(value: Any) -> oracle.MinerAnswer:
    """Oracle view of a :class:`MinerEquilibrium`."""
    p = value.params
    return oracle.MinerAnswer(
        e=np.asarray(value.e, dtype=float),
        c=np.asarray(value.c, dtype=float),
        budgets=np.asarray(p.budget_array, dtype=float), reward=p.reward,
        beta=p.fork_rate, h=p.h, p_e=value.prices.p_e,
        p_c=value.prices.p_c, e_max=p.e_max)


def _threshold(n: int) -> float:
    """Per-miner spend above which a budget is slack (Corollary 1)."""
    return REWARD * (n - 1) * (1.0 - BETA + BETA * H) / (n * n)


def _game(budgets: Any, **kwargs: Any) -> GameParameters:
    return GameParameters(reward=kwargs.pop("reward", REWARD),
                          fork_rate=BETA, budgets=tuple(budgets),
                          **kwargs)


def _spread(rng: np.random.Generator, n: int, lo: float,
            hi: float) -> np.ndarray:
    """``n`` budgets, in multiples of the Corollary 1 threshold, drawn
    one per equal slice of ``[lo, hi)`` and shuffled: every draw is new
    while the spread of budgets, which sets the solver's work, stays
    the same from seed to seed."""
    u = (np.arange(n) + rng.random(n)) / n
    rng.shuffle(u)
    return _threshold(n) * (lo + (hi - lo) * u)


def _connected(rng: np.random.Generator, n: int) -> GameParameters:
    """A heterogeneous connected game whose budgets straddle the
    Corollary 1 threshold, so some miners are budget-bound."""
    return _game(_spread(rng, n, 0.5, 1.5), h=H)


class Workload:
    """Base class: build/warm/close a target and run timed passes."""

    name = ""

    def build(self) -> Any:
        return ServingEngine(max_workers=0)

    def warm_up(self, target: Any) -> None:
        raise NotImplementedError

    def close(self, target: Any) -> None:
        """Engines hold no threads or processes."""

    def run_pass(self, seed: int, seconds: float,
                 traced: bool) -> PassRecord:
        raise NotImplementedError

    def primary(self, record: PassRecord) -> Tuple[str, float]:
        """The end-to-end figure the tracing overhead is reported on."""
        return "latency_p50_ms", float(np.median(record.latencies))


# ---------------------------------------------------------------------
# online
# ---------------------------------------------------------------------


class Online(Workload):
    """Open loop of independent clients against the asyncio service."""

    name = "online"
    RATE = 100.0
    KEYS = 32
    ZIPF = 1.1
    #: Popularity ranks (0 = hottest) of the n=32 keys; the other keys
    #: are n=8 games. Most requests for the two coldest keys re-solve on
    #: the aggregate kernel (~0.2 s each); those re-solves and the n=8
    #: re-solves queued behind them form the tail.
    WIDE_RANKS = (30, 31)
    #: Every 2 s: ~145 fresh solves in 12 s against ~255 with one
    #: invalidation a second, and over five runs on the same seeds the
    #: spread of latency_p50_ms fell from 0.10 to 0.07 and that of
    #: latency_p99_ms from 0.21 to 0.17.
    INVALIDATE_EVERY = 2.0
    #: The request trace (arrival times and popularity ranks) is drawn
    #: from this fixed seed; ``--seed`` draws the games. Which keys queue
    #: behind the n=32 re-solve in each burst otherwise moved the tail
    #: by 40% from seed to seed.
    TRACE_SEED = 20190707

    def build(self) -> EquilibriumService:
        return EquilibriumService(max_inflight=8, max_queue=256)

    def warm_up(self, target: EquilibriumService) -> None:
        spec = ScenarioSpec(_connected(np.random.default_rng(7), 8),
                            Prices(p_e=2.0, p_c=1.0))
        asyncio.run(InProcessClient(target).solve(spec,
                                                  include_result=True))

    def close(self, target: EquilibriumService) -> None:
        target.close()

    @staticmethod
    def _narrow(rng: np.random.Generator) -> ScenarioSpec:
        """An n=8 game (running kernel below the auto switch)."""
        prices = Prices(p_e=float(rng.uniform(1.6, 2.4)),
                        p_c=float(rng.uniform(0.7, 1.1)))
        return ScenarioSpec(_connected(rng, 8), prices)

    @staticmethod
    def _wide(rng: np.random.Generator) -> ScenarioSpec:
        """An n=32 game (aggregate kernel above the auto switch) with
        slack budgets, where a cold solve costs ~170 consistency
        evaluations."""
        prices = Prices(p_e=2.2 * float(rng.uniform(0.98, 1.02)),
                        p_c=0.8 * float(rng.uniform(0.97, 1.03)))
        return ScenarioSpec(_game(_spread(rng, 32, 1.2, 3.0), h=H),
                            prices)

    def inputs(self, seed: int, seconds: float
               ) -> Tuple[List[ScenarioSpec], List[Tuple[float, int]]]:
        """The key pool, hottest first, drawn from ``seed``, and the
        arrival schedule ``(offset, pool index)`` of the fixed trace."""
        rng = np.random.default_rng([seed, 1])
        pool = [self._wide(rng) if rank in self.WIDE_RANKS
                else self._narrow(rng) for rank in range(self.KEYS)]
        rng = np.random.default_rng([self.TRACE_SEED, 1])
        weights = 1.0 / np.arange(1, self.KEYS + 1) ** self.ZIPF
        expected = int(self.RATE * seconds)
        gaps = rng.exponential(1.0 / self.RATE,
                               size=expected + 10 * int(expected ** 0.5)
                               + 20)
        times = np.cumsum(gaps)
        if times[-1] < seconds:
            raise RuntimeError("arrival schedule too short")
        times = times[times < seconds]
        ranks = rng.choice(self.KEYS, size=times.size,
                           p=weights / np.sum(weights))
        return pool, [(float(t), int(r)) for t, r in zip(times, ranks)]

    def run_pass(self, seed: int, seconds: float,
                 traced: bool) -> PassRecord:
        pool, arrivals = self.inputs(seed, seconds)
        service = self.build()
        record = PassRecord()
        try:
            loop_box: List[asyncio.AbstractEventLoop] = []
            asyncio.run(self._drive(service, pool, arrivals, seconds,
                                    traced, record, loop_box))
            if not loop_box[0].is_closed():
                raise RuntimeError("event loop left open")
        finally:
            if record.tracer is not None:
                record.tracer.uninstall()
            record.warm_entries = len(service.engine.warm_index)
            service.close()
        return record

    async def _drive(self, service: EquilibriumService,
                     pool: List[ScenarioSpec],
                     arrivals: List[Tuple[float, int]], seconds: float,
                     traced: bool, record: PassRecord,
                     loop_box: List[asyncio.AbstractEventLoop]) -> None:
        loop = asyncio.get_running_loop()
        loop_box.append(loop)
        client = InProcessClient(service)
        for spec in pool:  # fill the cache before timing
            await client.solve(spec, include_result=True)
        if traced:
            record.tracer = Tracer(service.engine)
            record.tracer.install()
            record.tracer.hook_loop(loop)
        state = {"version": service.engine.cache.version}
        firsts: Dict[Tuple[int, str], bytes] = {}
        done_at: List[float] = []
        start = loop.time() + 0.01

        async def request(rid: int, spec: ScenarioSpec,
                          due: float) -> None:
            REQUEST_ID.set(rid)
            record.late.append(loop.time() - due)
            version = state["version"]
            payload = await client.solve(spec, include_result=True)
            finished = loop.time()
            done_at.append(finished)
            if payload["status"] != "ok":
                record.errors += 1
                return
            record.latencies.append(finished - due)
            if payload["source"] == "solved" and not payload["coalesced"]:
                record.solve_latencies.append(finished - due)
            result = payload["result"]
            blob = (array("d", result["e"]).tobytes()
                    + array("d", result["c"]).tobytes())
            seen = firsts.setdefault((version, payload["key"]), blob)
            if seen is blob:
                record.miner_answers.append(_decode_miner(result))
            elif seen != blob:
                record.mismatches += 1

        async def invalidator() -> None:
            for k in itertools.count(1):
                due = start + k * self.INVALIDATE_EVERY
                if due >= start + seconds:
                    return
                await asyncio.sleep(max(due - loop.time(), 0.0))
                state["version"] = await client.invalidate()

        tasks = [loop.create_task(invalidator())]
        for rid, (offset, index) in enumerate(arrivals):
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(loop.create_task(request(rid, pool[index], due)))
        await asyncio.gather(*tasks)
        record.attempted = len(arrivals)
        record.answered = len(record.latencies)
        record.measured = (max(done_at) - start) if done_at else seconds


def _decode_miner(result: Dict[str, Any]) -> oracle.MinerAnswer:
    """Oracle view of a wire-encoded miner answer."""
    params = result["params"]
    return oracle.MinerAnswer(
        e=np.asarray(result["e"], dtype=float),
        c=np.asarray(result["c"], dtype=float),
        budgets=np.asarray(params["budgets"], dtype=float),
        reward=float(params["reward"]), beta=float(params["fork_rate"]),
        h=float(params["h"]), p_e=float(result["prices"]["p_e"]),
        p_c=float(result["prices"]["p_c"]),
        e_max=(None if params["e_max"] is None
               else float(params["e_max"])))


# ---------------------------------------------------------------------
# Closed loops through the engine
# ---------------------------------------------------------------------


@dataclass
class Op:
    """One call into the engine: a batch (or one scenario) and how its
    outcome is counted."""

    specs: List[ScenarioSpec]
    #: A kept fault: attempted, and counted failed when the program
    #: errs or the oracle rejects the answer; its time enters no
    #: end-to-end figure, so mending the fault moves only the count.
    kept: bool = False
    slack: bool = False         # population whose budgets are slack


class ClosedLoop(Workload):
    """Rounds of engine calls by one caller that waits for each answer."""

    def rounds(self, seed: int) -> Iterator[List[Op]]:
        raise NotImplementedError

    def run_pass(self, seed: int, seconds: float,
                 traced: bool) -> PassRecord:
        record = PassRecord()
        rid = itertools.count()
        try:
            for ops in self.rounds(seed):
                # No round hits the cache or the warm index of another.
                engine = self.build()
                if traced and record.tracer is None:
                    record.tracer = Tracer(engine)
                    record.tracer.install()
                for op in ops:
                    REQUEST_ID.set(next(rid))
                    start = time.perf_counter()
                    if len(op.specs) == 1:
                        results = [engine.serve(op.specs[0])]
                    else:
                        results = engine.serve_batch(op.specs)
                    elapsed = time.perf_counter() - start
                    if not op.kept:
                        record.measured += elapsed
                    self._count(op, results, elapsed, record)
                record.warm_entries = len(engine.warm_index)
                if record.measured >= seconds:
                    break
        finally:
            if record.tracer is not None:
                record.tracer.uninstall()
        return record

    def _count(self, op: Op, results: List[Any], elapsed: float,
               record: PassRecord) -> None:
        for spec, res in zip(op.specs, results):
            record.attempted += 1
            if not res.ok:
                record.errors += 1
                continue
            if not op.kept:
                record.latencies.append(elapsed)
                record.solve_latencies.append(elapsed)
                record.answered += 1
            self.collect(spec, res, op, record)

    def collect(self, spec: ScenarioSpec, res: Any, op: Op,
                record: PassRecord) -> None:
        record.miner_answers.append(miner_answer(res.value))


class Sweep(ClosedLoop):
    """The paper's figure sweeps: cold grids through ``serve_batch``."""

    name = "sweep"
    PRICE_GRID = np.linspace(0.5, 1.3, 32)
    EMAX_GRID = np.linspace(40.0, 240.0, 16)

    #: Budget ranges (multiples of the Corollary 1 threshold) per grid:
    #: the n=64 grids are budget-bound, the n=256 grids slack.
    BUDGETS = {8: (0.5, 1.5), 64: (0.2, 0.6), 256: (1.2, 3.0)}

    def warm_up(self, target: ServingEngine) -> None:
        slack = _threshold(24) * np.linspace(2.0, 3.0, 24)
        specs = [ScenarioSpec(_game(slack, h=H), Prices(2.0, p_c))
                 for p_c in (0.8, 0.9)]
        small = _threshold(4) * np.linspace(0.5, 1.5, 4)
        specs.append(ScenarioSpec(_game(small, h=H), Prices(2.0, 1.0)))
        specs.append(ScenarioSpec(
            _game(small, mode=EdgeMode.STANDALONE, e_max=50.0),
            Prices(2.0, 1.0)))
        target.serve_batch(specs)

    def rounds(self, seed: int) -> Iterator[List[Op]]:
        for r in itertools.count():
            rng = np.random.default_rng([seed, 2, r])
            ops = []
            for n, (lo, hi) in self.BUDGETS.items():
                game = _game(_spread(rng, n, lo, hi), h=H)
                p_e = 2.0 * float(rng.uniform(0.98, 1.02))
                ops.append(Op([ScenarioSpec(game, Prices(p_e, float(p_c)))
                               for p_c in self.PRICE_GRID]))
            budgets = _spread(rng, 8, 0.5, 1.5)
            prices = Prices(2.0 * float(rng.uniform(0.98, 1.02)), 1.0)
            ops.append(Op([ScenarioSpec(
                _game(budgets, mode=EdgeMode.STANDALONE,
                      e_max=float(e_max)), prices)
                for e_max in self.EMAX_GRID]))
            yield ops

    def primary(self, record: PassRecord) -> Tuple[str, float]:
        return "scenarios_per_s", record.answered / record.measured


class Stackelberg(ClosedLoop):
    """Leader-stage queries, one ``serve`` each, with the engine's warm
    starts on: each query of the ``C_e`` sweep is warm-started from its
    neighbour's answer, so the warm index chains price brackets.

    The inputs are fixed and do not depend on the seed. Warm-started
    leader queries return a wrong answer on some inputs only (point
    ``WRONG`` of this sweep is one), so on drawn games the failed share
    would differ from seed to seed. Every round serves the same sweep on
    a fresh engine, so the wrong point fails in every round.
    """

    name = "stackelberg"
    #: The game of the sweep (n=5, paper costs) and its C_e points.
    BUDGETS = (110.92802276436515, 146.53150958614899, 215.60462878526013,
               250.01261243782557, 283.2139282184616)
    EDGE_COSTS = tuple(0.20092975292412021 + 0.02 * k for k in range(7))
    CLOUD_COST = 0.1
    #: The kept fault of the warm start: warm-started from point 3, the
    #: query at C_e = 0.2809 returns prices the CSP can improve on.
    WRONG = 4
    #: The kept fault of zero SP costs (the GameParameters default):
    #: at n<20 these queries end in ConvergenceError.
    ZERO_COST = ((150.0, 175.0, 200.0, 225.0, 250.0),
                 (100.0, 130.0, 160.0, 190.0, 220.0, 250.0, 280.0, 310.0))

    def warm_up(self, target: ServingEngine) -> None:
        target.serve(ScenarioSpec(_connected(np.random.default_rng(7), 4),
                                  Prices(2.0, 1.0)))

    def rounds(self, seed: int) -> Iterator[List[Op]]:
        zero = [Op([ScenarioSpec(_game(b, h=H))], kept=True)
                for b in self.ZERO_COST]
        sweep = [Op([ScenarioSpec(_game(self.BUDGETS, h=H, edge_cost=c,
                                        cloud_cost=self.CLOUD_COST))],
                    kept=(k == self.WRONG))
                 for k, c in enumerate(self.EDGE_COSTS)]
        ops = [zero[0], *sweep, zero[1]]
        while True:
            yield ops

    def collect(self, spec: ScenarioSpec, res: Any, op: Op,
                record: PassRecord) -> None:
        se = res.value
        answer = oracle.LeaderAnswer(
            p_e=se.prices.p_e, p_c=se.prices.p_c,
            miners=miner_answer(se.miners),
            edge_cost=spec.params.edge_cost,
            cloud_cost=spec.params.cloud_cost)
        (record.kept_answers if op.kept
         else record.leader_answers).append(answer)


class Population(ClosedLoop):
    """``n_types``-compressed solves of large fresh populations."""

    name = "population"
    N_TYPES = 512
    PRICES = Prices(p_e=2.0, p_c=1.0)
    #: Budget-bound populations of one round, then one slack 10^5
    #: population; four 2*10^4 solves keep the median on one size.
    BOUND_SIZES = (20_000, 20_000, 100_000, 20_000, 20_000)

    def warm_up(self, target: ServingEngine) -> None:
        budgets = np.linspace(2000.0, 3000.0, 64)  # slack: a quick solve
        target.serve(ScenarioSpec(_game(budgets, h=H, reward=64000.0),
                                  self.PRICES, n_types=self.N_TYPES))

    @staticmethod
    def _stratified(rng: np.random.Generator, n: int,
                    sigma: float) -> np.ndarray:
        """A fresh lognormal draw with one uniform per quantile stratum
        (shuffled), so the empirical law stays close to the population
        law from run to run."""
        u = (np.arange(n) + rng.random(n)) / n
        draw = np.exp(sigma * ndtri(u))
        rng.shuffle(draw)
        return draw

    def _spec(self, budgets: np.ndarray) -> ScenarioSpec:
        n = budgets.shape[0]
        return ScenarioSpec(_game(budgets, h=H, reward=1000.0 * n),
                            self.PRICES, n_types=self.N_TYPES)

    def rounds(self, seed: int) -> Iterator[List[Op]]:
        for r in itertools.count():
            rng = np.random.default_rng([seed, 4, r])
            ops = []
            for n in self.BOUND_SIZES:
                # The budget-bound regime of the type-space bench cases.
                budgets = (600.0 / n) * self._stratified(rng, n, 0.75)
                ops.append(Op([self._spec(budgets)]))
            n = 100_000
            e_star, c_star = oracle.corollary1_profile(
                1000.0 * n, BETA, H, n, self.PRICES.p_e, self.PRICES.p_c)
            spend = self.PRICES.p_e * e_star + self.PRICES.p_c * c_star
            budgets = spend * (1.2 + self._stratified(rng, n, 0.5))
            ops.append(Op([self._spec(budgets)], slack=True))
            yield ops

    def collect(self, spec: ScenarioSpec, res: Any, op: Op,
                record: PassRecord) -> None:
        record.population_answers.append(
            (miner_answer(res.value), res.value.error_bound, op.slack))


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    w.name: w for w in (Online, Sweep, Stackelberg, Population)}

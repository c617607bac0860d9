"""Spans recorded from outside the program, for the traced run.

The benchmark wraps the program's public functions and patches each
wrapper in where its callers look the name up: the class attribute for
methods, and every ``repro.*`` module attribute bound to a function
(function-local imports read the defining module's attribute, so that
binding is patched too). Nothing under ``src/`` changes and the
program's own telemetry stays off.

Every wrapper records a span: name, start, end, parent and, on root
spans, the request id the benchmark minted. Parents come from a
context variable, so asyncio tasks and threads each keep their own
stack. ``run_in_executor`` does not carry the context to the solver
thread; spans opened there are attributed by scenario key instead,
which the service's coalescing map makes unique while it is in flight.
Spans stay in memory (columnar arrays) until the run ends.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import json
import sys
import threading
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Request id of the operation the current task or thread serves; the
#: workloads set it before every call into the program.
REQUEST_ID: "contextvars.ContextVar[Optional[int]]" = \
    contextvars.ContextVar("perfbench_request", default=None)
_SPAN: "contextvars.ContextVar[int]" = \
    contextvars.ContextVar("perfbench_span", default=-1)
_KEY: "contextvars.ContextVar[Optional[str]]" = \
    contextvars.ContextVar("perfbench_key", default=None)


class SpanStore:
    """In-memory span table (one row per span)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.rid: Dict[int, int] = {}
        self.attrs: Dict[int, Dict[str, Any]] = {}
        self._lock = threading.Lock()
        #: In-flight executor submissions: scenario key -> (submit time,
        #: submitting span).
        self.pending: Dict[str, Tuple[float, int]] = {}

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def add(self, name: str, t0: float, t1: float, parent: int) -> int:
        nid = self._name_id(name)
        with self._lock:
            idx = len(self.t0)
            self.name.append(nid)
            self.t0.append(t0)
            self.t1.append(t1)
            self.parent.append(parent)
        return idx

    def open(self, name: str) -> Tuple[int, "contextvars.Token[int]"]:
        parent = _SPAN.get()
        idx = self.add(name, time.perf_counter(), 0.0, parent)
        if parent < 0:
            rid = REQUEST_ID.get()
            if rid is not None:
                self.rid[idx] = rid
        return idx, _SPAN.set(idx)

    def close(self, idx: int, token: "contextvars.Token[int]") -> None:
        self.t1[idx] = time.perf_counter()
        _SPAN.reset(token)

    def root_of(self, idx: int) -> int:
        while self.parent[idx] >= 0:
            idx = self.parent[idx]
        return idx

    def columns(self) -> Dict[str, np.ndarray]:
        """Numpy views of the table (name ids, start, end, parent)."""
        return {"name": np.frombuffer(self.name, dtype=np.uint16).copy(),
                "t0": np.frombuffer(self.t0, dtype=float).copy(),
                "t1": np.frombuffer(self.t1, dtype=float).copy(),
                "parent": np.frombuffer(self.parent,
                                        dtype=np.int64).copy()}

    def write(self, stream: Any) -> None:
        """One JSON object per span, in opening order."""
        for i in range(len(self.t0)):
            row = {"name": self.names[self.name[i]], "start": self.t0[i],
                   "end": self.t1[i], "parent": self.parent[i],
                   "request": self.rid.get(i)}
            if i in self.attrs:
                row["attrs"] = self.attrs[i]
            stream.write(json.dumps(row) + "\n")


class Patcher:
    """Installs wrappers and restores the originals afterwards."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    def set(self, obj: Any, attr: str, value: Any) -> None:
        own = attr in vars(obj)
        self._undo.append((obj, attr, getattr(obj, attr), own))
        setattr(obj, attr, value)

    def replace_function(self, original: Callable[..., Any],
                         wrapper: Callable[..., Any]) -> None:
        """Patch every ``repro.*`` module attribute bound to
        ``original``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            obj, attr, value, own = self._undo.pop()
            if own:
                setattr(obj, attr, value)
            else:
                delattr(obj, attr)


def _sync_wrapper(store: SpanStore, name: str, fn: Callable[..., Any],
                  on_result: Optional[Callable[..., None]] = None
                  ) -> Callable[..., Any]:
    if on_result is None:
        @functools.wraps(fn)
        def plain(*args: Any, **kwargs: Any) -> Any:
            idx, token = store.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                store.close(idx, token)
        return plain

    @functools.wraps(fn)
    def observed(*args: Any, **kwargs: Any) -> Any:
        idx, token = store.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            store.close(idx, token)
        on_result(store, idx, args, kwargs, out)
        return out
    return observed


def _async_wrapper(store: SpanStore, name: str, fn: Callable[..., Any],
                   on_result: Optional[Callable[..., None]] = None
                   ) -> Callable[..., Any]:
    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        idx, token = store.open(name)
        try:
            out = await fn(*args, **kwargs)
        finally:
            store.close(idx, token)
        if on_result is not None:
            on_result(store, idx, args, kwargs, out)
        return out
    return wrapper


# ---------------------------------------------------------------------
# Result observers: attributes the per-layer metrics read
# ---------------------------------------------------------------------


def _on_response(store: SpanStore, idx: int, args: Any, kwargs: Any,
                 response: Any) -> None:
    result = response.result
    store.attrs[idx] = {
        "status": response.status, "coalesced": response.coalesced,
        "source": None if result is None else result.source}


def _on_lookup(store: SpanStore, idx: int, args: Any, kwargs: Any,
               out: Any) -> None:
    store.attrs[idx] = {"hit": out[0] is not None}


def _on_batch(store: SpanStore, idx: int, args: Any, kwargs: Any,
              results: Any) -> None:
    store.attrs[idx] = {"scenarios": len(results),
                        "degraded": sum(1 for r in results
                                        if r.degraded)}


def _on_multiscenario(store: SpanStore, idx: int, args: Any, kwargs: Any,
                      results: Any) -> None:
    store.attrs[idx] = {"lanes": len(results),
                        "uncertified": sum(1 for r in results
                                           if r is None)}


def _on_follower(store: SpanStore, idx: int, args: Any, kwargs: Any,
                 eq: Any) -> None:
    from repro.core.nep import resolve_kernel

    kernel = kwargs.get("kernel", "scalar")
    n = eq.params.n
    n_types = kwargs.get("n_types")
    compressed = n_types is not None and n_types < n
    message = eq.report.message or ""
    aggregate = message.startswith("aggregate kernel")
    store.attrs[idx] = {
        "sweeping": not compressed and not aggregate,
        "iterations": int(eq.report.iterations),
        "fallback": (not compressed and not aggregate
                     and resolve_kernel(kernel, n) == "vectorized")}


def _on_aggregate(store: SpanStore, idx: int, args: Any, kwargs: Any,
                  sol: Any) -> None:
    weights = args[1] if len(args) > 1 else kwargs.get("weights")
    evals = np.asarray(sol.evals)
    store.attrs[idx] = {"lanes": int(evals.size),
                        "evals": int(np.sum(evals)),
                        "steps": int(np.max(evals)) if evals.size else 0,
                        "weighted": weights is not None}


def _on_typespace(store: SpanStore, idx: int, args: Any, kwargs: Any,
                  sol: Any) -> None:
    store.attrs[idx] = {"evals": int(sol.evals),
                        "error_bound": float(sol.error_bound)}


class Tracer:
    """Installs every wrapper for one traced pass.

    Args:
        engine: The :class:`ServingEngine` the pass serves through (its
            cache's class is the one whose probes are timed).
    """

    def __init__(self, engine: Any) -> None:
        self.store = SpanStore()
        self.patcher = Patcher()
        self.engine = engine
        self.loop_thread = threading.get_ident()
        self._shield: Optional[Callable[..., Any]] = None

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        from repro.core import gnep, nep, stackelberg
        from repro.kernels import (aggregate, batched_br, multiscenario,
                                   typespace)
        from repro.population import compress
        from repro.service import server
        from repro.service.admission import AdmissionController
        from repro.service.service import EquilibriumService
        from repro.serving import keys
        from repro.serving.engine import ServingEngine
        from repro.serving.warmstart import WarmStartIndex

        s = self.store
        p = self.patcher
        p.set(EquilibriumService, "handle", _async_wrapper(
            s, "service.handle", EquilibriumService.handle, _on_response))
        p.set(AdmissionController, "acquire", _async_wrapper(
            s, "service.admission_wait", AdmissionController.acquire))
        self._shield = asyncio.shield
        p.set(asyncio, "shield", self._traced_shield)
        p.replace_function(server.response_payload, _sync_wrapper(
            s, "service.encode", server.response_payload))
        p.replace_function(keys.scenario_key,
                           self._key_wrapper(keys.scenario_key))
        cache_cls = type(self.engine.cache)
        p.set(cache_cls, "lookup", _sync_wrapper(
            s, "serving.cache_probe", cache_cls.lookup, _on_lookup))
        p.set(cache_cls, "__contains__", _sync_wrapper(
            s, "serving.cache_probe", cache_cls.__contains__))
        p.set(ServingEngine, "serve", _sync_wrapper(
            s, "serving.serve", ServingEngine.serve))
        p.set(ServingEngine, "serve_batch", _sync_wrapper(
            s, "serving.dispatch", ServingEngine.serve_batch, _on_batch))
        p.set(WarmStartIndex, "suggest", _sync_wrapper(
            s, "serving.warm_suggest", WarmStartIndex.suggest))
        functions = [
            (multiscenario.solve_connected_multiscenario,
             "serving.multiscenario", _on_multiscenario),
            (nep.solve_connected_equilibrium, "core.follower_solve",
             _on_follower),
            (stackelberg.solve_stackelberg, "core.stackelberg", None),
            (gnep.solve_standalone_equilibrium, "core.gnep", None),
            (multiscenario.solve_aggregate_batch, "kernels.aggregate",
             _on_aggregate),
            (batched_br.jacobi_sweep, "kernels.certify", None),
            (batched_br.gauss_seidel_sweep_running,
             "kernels.running_sweep", None),
            (typespace.solve_connected_typespace, "kernels.typespace",
             _on_typespace),
            (aggregate.solve_weighted_connected_aggregate,
             "kernels.typespace_bracket", None),
            (compress.compress_budgets, "population.compress", None),
        ]
        for fn, name, observer in functions:
            p.replace_function(fn, _sync_wrapper(s, name, fn, observer))

    def hook_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """Record executor submissions of the running loop."""
        original = loop.run_in_executor
        store = self.store

        def run_in_executor(executor: Any, func: Callable[..., Any],
                            *args: Any) -> Any:
            key = _KEY.get()
            if key is not None:
                store.pending[key] = (time.perf_counter(), _SPAN.get())
            return original(executor, func, *args)

        self.patcher.set(loop, "run_in_executor", run_in_executor)

    def uninstall(self) -> None:
        self.patcher.restore()

    # -- special wrappers -----------------------------------------------

    def _traced_shield(self, arg: Any) -> Any:
        assert self._shield is not None
        inner = self._shield(arg)
        store = self.store

        async def wait() -> Any:
            idx, token = store.open("service.coalesce_wait")
            try:
                return await inner
            finally:
                store.close(idx, token)
        return wait()

    def _key_wrapper(self, fn: Callable[..., str]) -> Callable[..., str]:
        store = self.store
        loop_thread = self.loop_thread

        @functools.wraps(fn)
        def scenario_key(*args: Any, **kwargs: Any) -> str:
            idx, token = store.open("serving.key")
            try:
                key = fn(*args, **kwargs)
            finally:
                store.close(idx, token)
            if threading.get_ident() == loop_thread:
                _KEY.set(key)
            else:
                self._attribute(idx, key)
            return key
        return scenario_key

    def _attribute(self, idx: int, key: str) -> None:
        """Hang a solver-thread span tree under the request whose
        executor submission carried ``key``."""
        s = self.store
        root = s.root_of(idx)
        entry = s.pending.pop(key, None)
        if entry is None or root == idx:
            return
        submitted, parent = entry
        s.parent[root] = parent
        s.add("service.executor_wait", submitted, s.t0[root], parent)


# ---------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------

#: Every per-layer metric the traced run prints: (name, unit).
PER_LAYER = (
    ("service.handle_self_us", "us/req"),
    ("service.fast_path", "count"),
    ("service.coalesced", "count"),
    ("service.solves", "count"),
    ("service.admission_wait_p99_ms", "ms"),
    ("service.executor_wait_p99_ms", "ms"),
    ("service.encode_us", "us/req"),
    ("serving.key_calls_per_request", "count"),
    ("serving.key_us", "us/call"),
    ("serving.cache_probe_us", "us/call"),
    ("serving.cache_hit_ratio", "ratio"),
    ("serving.dispatch_self_us", "us/call"),
    ("serving.warm_suggest_us", "us/miss"),
    ("serving.warm_index_entries", "count"),
    ("serving.multiscenario_lanes", "scen/call"),
    ("serving.multiscenario_uncertified", "count"),
    ("resilience.fallbacks", "count"),
    ("core.follower_solves", "count"),
    ("core.follower_solve_ms_p50", "ms"),
    ("core.follower_solves_per_leader", "count"),
    ("core.sweeps_per_solve", "count"),
    ("core.vectorized_fallbacks", "count"),
    ("core.gnep_inner_solves", "count/scen"),
    ("kernels.consistency_evals_per_solve", "count"),
    ("kernels.aggregate_us_per_eval", "us"),
    ("kernels.certify_ms", "ms/solve"),
    ("kernels.running_sweep_us", "us/sweep"),
    ("kernels.multiscenario_ms_per_lane", "ms"),
    ("kernels.typespace_evals_per_solve", "count"),
    ("kernels.typespace_bracket_solves", "count"),
    ("kernels.typespace_error_bound", "units"),
    ("population.compress_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def _mean(values: Any) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.mean(values)) if values.size else 0.0


def _quantile(values: Any, q: float) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.quantile(values, q)) if values.size else 0.0


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _self_times(cols: Dict[str, np.ndarray],
                parents: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it its children cover."""
    t0, t1, parent = cols["t0"], cols["t1"], cols["parent"]
    children: Dict[int, List[Tuple[float, float]]] = {}
    for c in np.nonzero(np.isin(parent, parents))[0]:
        children.setdefault(int(parent[c]), []).append(
            (float(t0[c]), float(t1[c])))
    out = np.empty(len(parents))
    for k, p in enumerate(parents):
        lo, hi = float(t0[p]), float(t1[p])
        covered = 0.0
        end = lo
        for s, e in sorted(children.get(int(p), ())):
            s, e = max(s, end), min(e, hi)
            if e > s:
                covered += e - s
                end = e
        out[k] = (hi - lo) - covered
    return out


def _under(cols: Dict[str, np.ndarray], ancestor: int) -> np.ndarray:
    """Whether each span has an ancestor with name id ``ancestor``."""
    parent, name = cols["parent"], cols["name"]
    flag = np.zeros(parent.shape, dtype=bool)
    cur = parent.copy()
    while True:
        valid = cur >= 0
        if not valid.any():
            return flag
        safe = np.where(valid, cur, 0)
        flag |= valid & (name[safe] == ancestor)
        cur = np.where(valid, parent[safe], -1)


def layer_metrics(store: SpanStore, *, warm_entries: int,
                  late_s: List[float], overhead_pct: float
                  ) -> Dict[str, float]:
    """Compute every :data:`PER_LAYER` metric from one traced pass."""
    cols = store.columns()
    ids = {n: i for i, n in enumerate(store.names)}
    dur = cols["t1"] - cols["t0"]

    def spans(name: str) -> np.ndarray:
        nid = ids.get(name)
        if nid is None:
            return np.zeros(0, dtype=np.int64)
        return np.nonzero(cols["name"] == nid)[0]

    def attr(idx: np.ndarray, key: str) -> List[Any]:
        return [store.attrs.get(int(i), {}).get(key) for i in idx]

    def under(name: str) -> np.ndarray:
        nid = ids.get(name)
        return (np.zeros(dur.shape, dtype=bool) if nid is None
                else _under(cols, nid))

    m: Dict[str, float] = {}
    handle = spans("service.handle")
    m["service.handle_self_us"] = _mean(
        _self_times(cols, handle)) * 1e6
    coalesced = attr(handle, "coalesced")
    sources = attr(handle, "source")
    m["service.fast_path"] = float(sum(
        1 for c, s in zip(coalesced, sources)
        if not c and s in ("memory", "disk")))
    m["service.coalesced"] = float(sum(1 for c in coalesced if c))
    m["service.solves"] = float(sum(
        1 for c, s in zip(coalesced, sources) if not c and s == "solved"))
    m["service.admission_wait_p99_ms"] = _quantile(
        dur[spans("service.admission_wait")], 0.99) * 1e3
    m["service.executor_wait_p99_ms"] = _quantile(
        dur[spans("service.executor_wait")], 0.99) * 1e3
    m["service.encode_us"] = _mean(dur[spans("service.encode")]) * 1e6

    dispatch = spans("serving.dispatch")
    requests = (len(handle) if len(handle)
                else sum(attr(dispatch, "scenarios")))
    keys = spans("serving.key")
    m["serving.key_calls_per_request"] = _ratio(len(keys), requests)
    m["serving.key_us"] = _mean(dur[keys]) * 1e6
    probes = spans("serving.cache_probe")
    m["serving.cache_probe_us"] = _mean(dur[probes]) * 1e6
    hits = [h for h in attr(probes, "hit") if h is not None]
    m["serving.cache_hit_ratio"] = _ratio(sum(hits), len(hits))
    m["serving.dispatch_self_us"] = _mean(
        _self_times(cols, dispatch)) * 1e6
    m["serving.warm_suggest_us"] = _mean(
        dur[spans("serving.warm_suggest")]) * 1e6
    m["serving.warm_index_entries"] = float(warm_entries)
    multi = spans("serving.multiscenario")
    m["serving.multiscenario_lanes"] = _mean(attr(multi, "lanes"))
    m["serving.multiscenario_uncertified"] = float(
        sum(attr(multi, "uncertified")))
    m["resilience.fallbacks"] = float(sum(attr(dispatch, "degraded")))

    follower = spans("core.follower_solve")
    m["core.follower_solves"] = float(len(follower))
    m["core.follower_solve_ms_p50"] = _quantile(dur[follower], 0.5) * 1e3
    leaders = spans("core.stackelberg")
    m["core.follower_solves_per_leader"] = _ratio(
        int(np.sum(under("core.stackelberg")[follower])), len(leaders))
    sweeping = [it for it, sw in zip(attr(follower, "iterations"),
                                     attr(follower, "sweeping")) if sw]
    m["core.sweeps_per_solve"] = _mean(sweeping)
    m["core.vectorized_fallbacks"] = float(
        sum(1 for f in attr(follower, "fallback") if f))
    m["core.gnep_inner_solves"] = _ratio(
        int(np.sum(under("core.gnep")[follower])), len(spans("core.gnep")))

    agg = spans("kernels.aggregate")
    weighted = np.array([bool(w) for w in attr(agg, "weighted")],
                        dtype=bool)
    lanes = np.array(attr(agg, "lanes"), dtype=float)
    evals = np.array(attr(agg, "evals"), dtype=float)
    steps = np.array(attr(agg, "steps"), dtype=float)
    exact = ~weighted if agg.size else weighted
    m["kernels.consistency_evals_per_solve"] = _ratio(
        float(np.sum(evals[exact])), float(np.sum(lanes[exact])))
    m["kernels.aggregate_us_per_eval"] = _ratio(
        float(np.sum(dur[agg])), float(np.sum(steps))) * 1e6
    m["kernels.certify_ms"] = _mean(dur[spans("kernels.certify")]) * 1e3
    m["kernels.running_sweep_us"] = _mean(
        dur[spans("kernels.running_sweep")]) * 1e6
    batched = lanes > 1 if agg.size else np.zeros(0, dtype=bool)
    m["kernels.multiscenario_ms_per_lane"] = _ratio(
        float(np.sum(dur[agg][batched])),
        float(np.sum(lanes[batched]))) * 1e3
    ts = spans("kernels.typespace")
    m["kernels.typespace_evals_per_solve"] = _mean(attr(ts, "evals"))
    m["kernels.typespace_bracket_solves"] = _ratio(
        len(spans("kernels.typespace_bracket")), len(ts))
    m["kernels.typespace_error_bound"] = _mean(attr(ts, "error_bound"))
    m["population.compress_ms"] = _mean(
        dur[spans("population.compress")]) * 1e3
    m["loadgen.late_p99_ms"] = _quantile(late_s, 0.99) * 1e3
    m["trace.overhead_pct"] = float(overhead_pct)
    return m


def summary(store: SpanStore) -> str:
    """Per-span-name count and total time, for the traced run's log."""
    cols = store.columns()
    dur = cols["t1"] - cols["t0"]
    lines = [f"{'span':34s} {'count':>8s} {'total_ms':>12s}"]
    for nid, name in enumerate(store.names):
        sel = cols["name"] == nid
        lines.append(f"{name:34s} {int(np.sum(sel)):8d} "
                     f"{float(np.sum(dur[sel])) * 1e3:12.3f}")
    return "\n".join(lines)

"""Thread-safe LRU scenario cache with an optional JSON disk layer.

:class:`ScenarioCache` memoizes equilibrium results keyed by the
hash-stable keys of :mod:`repro.serving.keys`. It is safe to share
across threads (a single lock guards the LRU order and the counters)
and exposes :class:`CacheStats` hit/miss/eviction counters so serving
throughput is observable rather than inferred.

When constructed with a ``cache_dir`` (conventionally
``.repro_cache/``), every stored result is also written as one JSON
file per key via :mod:`repro.serving.codec`; misses consult the disk
before being reported to the caller, so a warm cache survives process
restarts and is shareable between workers on one machine.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Union

from ..exceptions import ConfigurationError
from ..telemetry import TELEMETRY as _TEL
from .codec import decode_result, encode_result

__all__ = ["CacheStats", "ScenarioCache"]

#: Process-unique suffix counter for atomic temp-file names, so two
#: threads persisting the same key never collide on one temp path.
_TMP_COUNTER = itertools.count()

#: Conventional on-disk location of the persistent layer.
DEFAULT_CACHE_DIR = ".repro_cache"


@dataclass
class CacheStats:
    """Counters of one cache's lifetime activity.

    Attributes:
        hits: Lookups answered from memory.
        disk_hits: Lookups answered from the JSON disk layer (these are
            *not* double-counted as memory hits).
        misses: Lookups answered by neither layer.
        evictions: Entries dropped by the LRU bound.
        puts: Results stored.
        expired: Entries dropped because their TTL elapsed or their
            version predates an :meth:`ScenarioCache.invalidate` (these
            lookups are *also* counted as misses).
    """

    hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    evictions: int = 0
    puts: int = 0
    expired: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls observed."""
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from either layer (0 when idle)."""
        total = self.lookups
        if total == 0:
            return 0.0
        return (self.hits + self.disk_hits) / total

    def to_dict(self) -> Dict[str, Union[int, float]]:
        """JSON-serializable counter snapshot."""
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "puts": self.puts,
            "expired": self.expired,
            "hit_rate": self.hit_rate,
        }


@dataclass
class _Entry:
    value: Any
    meta: Dict[str, Any] = field(default_factory=dict)
    #: Monotonic-clock insertion stamp (TTL ages are measured from it;
    #: re-stamped when an entry is revived from disk, since monotonic
    #: clocks are not comparable across processes).
    stamp: float = 0.0
    #: Cache version the entry was admitted under; entries from before
    #: an ``invalidate()`` bump are lazily treated as misses.
    version: int = 0


class ScenarioCache:
    """LRU memo cache for equilibrium results, optionally disk-backed.

    Args:
        maxsize: Bound on in-memory entries; least-recently-used entries
            are evicted past it (the disk layer, if any, keeps them).
        cache_dir: Directory for the JSON persistence layer; created on
            demand. ``None`` disables persistence.
        ttl: Seconds an entry stays servable after admission; ``None``
            disables expiry. Ages are measured on ``clock``; disk
            revivals re-stamp (TTL bounds in-process staleness).
        clock: Monotonic time source for TTL ages (injectable so tests
            can advance time deterministically).
    """

    def __init__(self, maxsize: int = 4096,
                 cache_dir: Optional[Union[str, Path]] = None,
                 ttl: Optional[float] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        if maxsize < 1:
            raise ConfigurationError(
                f"maxsize must be at least 1, got {maxsize}")
        if ttl is not None and ttl <= 0:
            raise ConfigurationError(
                f"ttl must be positive (or None), got {ttl}")
        self.maxsize = maxsize
        self.cache_dir = None if cache_dir is None else Path(cache_dir)
        self.ttl = ttl
        self._clock = clock if clock is not None else time.monotonic
        self.version = 0
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Disk layer
    # ------------------------------------------------------------------

    def _path_for(self, key: str) -> Path:
        assert self.cache_dir is not None
        # Keys look like "miner:connected:<digest>"; colons make poor
        # filenames on some filesystems.
        return self.cache_dir / (key.replace(":", "_") + ".json")

    def _disk_load(self, key: str) -> Optional[_Entry]:
        if self.cache_dir is None:
            return None
        path = self._path_for(key)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            if int(payload.get("version", 0)) != self.version:
                return None  # written before an invalidate() bump
            return _Entry(value=decode_result(payload["result"]),
                          meta=payload.get("meta", {}))
        except OSError:
            # Transient read failure: a miss, but the file may be fine.
            return None
        except (ValueError, KeyError, TypeError, ConfigurationError):
            # A corrupt or foreign file is a miss, never an error — and
            # it is unlinked so a torn write cannot shadow future
            # persistence of the same key forever.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _disk_store(self, key: str, entry: _Entry) -> None:
        if self.cache_dir is None:
            return
        tmp: Optional[Path] = None
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            payload = {"key": key, "result": encode_result(entry.value),
                       "meta": entry.meta, "version": entry.version}
            path = self._path_for(key)
            # Unique temp name per write (pid + counter): concurrent
            # writers of one key never clobber each other's temp file,
            # and os.replace makes the final rename atomic — a crash
            # mid-save leaves the old file intact, never a torn JSON.
            tmp = path.with_name(
                f"{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp")
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(payload))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            tmp = None
        except (OSError, ConfigurationError):
            # Persistence is best-effort; the memory layer stays correct.
            if tmp is not None:
                try:
                    tmp.unlink()
                except OSError:
                    pass

    # ------------------------------------------------------------------
    # Core API
    # ------------------------------------------------------------------

    def _stale(self, entry: _Entry) -> bool:
        """Whether an in-memory entry is past TTL or pre-invalidation."""
        if entry.version != self.version:
            return True
        return (self.ttl is not None
                and self._clock() - entry.stamp > self.ttl)

    def _drop_stale(self, key: str, entry: _Entry) -> None:
        """Evict a stale entry from memory (and its disk file, so the
        next lookup cannot revive an expired equilibrium)."""
        del self._entries[key]
        self.stats.expired += 1
        if _TEL.enabled:
            _TEL.metrics.counter(
                "cache_expired_total",
                "Entries dropped by TTL or versioned invalidation").inc()
        if self.cache_dir is not None and entry.version == self.version:
            # TTL expiry: the persisted copy is equally stale. (Version
            # staleness needs no unlink — _disk_load rejects it.)
            try:
                self._path_for(key).unlink()
            except OSError:
                pass

    def lookup(self, key: str) -> Tuple[Optional[Any], str]:
        """Look up a result; returns ``(value, layer)``.

        ``layer`` is ``"memory"``, ``"disk"``, or ``"miss"``; the LRU
        position is refreshed and the counters updated either way.
        Entries past their TTL or admitted before the last
        :meth:`invalidate` are dropped and reported as misses.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self._stale(entry):
                self._drop_stale(key, entry)
                entry = None
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                if _TEL.enabled:
                    _TEL.metrics.counter(
                        "cache_lookups_total", "Cache lookups by outcome",
                        labels={"layer": "memory"}).inc()
                return entry.value, "memory"
            entry = self._disk_load(key)
            if entry is not None:
                entry.stamp = self._clock()
                entry.version = self.version
                self.stats.disk_hits += 1
                self._insert(key, entry, persist=False)
                if _TEL.enabled:
                    _TEL.metrics.counter(
                        "cache_lookups_total", "Cache lookups by outcome",
                        labels={"layer": "disk"}).inc()
                return entry.value, "disk"
            self.stats.misses += 1
            if _TEL.enabled:
                _TEL.metrics.counter(
                    "cache_lookups_total", "Cache lookups by outcome",
                    labels={"layer": "miss"}).inc()
            return None, "miss"

    def get(self, key: str) -> Optional[Any]:
        """Look up a result, refreshing its LRU position. None on miss."""
        return self.lookup(key)[0]

    def meta(self, key: str) -> Optional[Dict[str, Any]]:
        """Metadata stored alongside an in-memory entry (None if absent)."""
        with self._lock:
            entry = self._entries.get(key)
            return None if entry is None else dict(entry.meta)

    def put(self, key: str, value: Any,
            meta: Optional[Dict[str, Any]] = None) -> None:
        """Store a result under ``key`` (and on disk when configured)."""
        with self._lock:
            # The entry must be stamped under the lock: reading
            # ``version`` outside it races invalidate(), admitting an
            # entry stamped with a stale version after the flush.  The
            # disk write stays under it too: outside it, two puts of
            # one key could leave memory and disk holding different
            # results.
            entry = _Entry(value=value, meta=dict(meta or {}),
                           stamp=self._clock(), version=self.version)
            self.stats.puts += 1
            if _TEL.enabled:
                _TEL.metrics.counter("cache_puts_total",
                                     "Results stored in the cache").inc()
            self._insert(key, entry, persist=True)

    def _insert(self, key: str, entry: _Entry, persist: bool) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            if _TEL.enabled:
                _TEL.metrics.counter(
                    "cache_evictions_total",
                    "Entries dropped by the LRU bound").inc()
        if persist:
            self._disk_store(key, entry)

    def resize(self, maxsize: int) -> int:
        """Change the LRU bound in place; returns entries evicted now.

        Shrinking evicts least-recently-used entries immediately (the
        disk layer, when configured, keeps them); growing only raises
        the bound. This is the control-plane's cache-resize actuator
        seam.
        """
        if maxsize < 1:
            raise ConfigurationError(
                f"maxsize must be at least 1, got {maxsize}")
        evicted = 0
        with self._lock:
            self.maxsize = maxsize
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                evicted += 1
            if evicted and _TEL.enabled:
                _TEL.metrics.counter(
                    "cache_evictions_total",
                    "Entries dropped by the LRU bound").inc(evicted)
        return evicted

    def invalidate(self) -> int:
        """Bump the cache version, lazily invalidating every entry.

        Entries admitted under earlier versions — in memory *and* on
        disk — are treated as misses from now on and dropped when next
        touched, so a parameter update takes effect without a cold
        restart and without an O(entries) flush pause. Returns the new
        version.
        """
        with self._lock:
            self.version += 1
            if _TEL.enabled:
                _TEL.metrics.counter(
                    "cache_invalidations_total",
                    "Versioned invalidations (invalidate() calls)").inc()
                _TEL.metrics.gauge(
                    "cache_version", "Current cache version").set(
                    self.version)
            return self.version

    def snapshot_entries(self) -> "OrderedDict[str, _Entry]":
        """Point-in-time copy of the in-memory entries (LRU order kept).

        Together with :meth:`restore_entries` this is the rollback seam
        the control plane uses to make flush/resize transactional: the
        entry objects themselves are shared (equilibria are treated as
        immutable), only the ordering container is copied.
        """
        with self._lock:
            return OrderedDict(self._entries)

    def restore_entries(self,
                        entries: "OrderedDict[str, _Entry]") -> None:
        """Replace the in-memory entries with a prior snapshot."""
        with self._lock:
            self._entries = OrderedDict(entries)

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` has a *servable* in-memory entry.

        Stale (TTL/version) entries report absent. Unlike
        :meth:`lookup` this touches neither the LRU order nor the
        counters — it is the service's fast-path membership probe.
        """
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and not self._stale(entry)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def items(self) -> Iterator[Tuple[str, Any]]:
        """Snapshot of ``(key, value)`` pairs, LRU-oldest first."""
        with self._lock:
            return iter([(k, e.value) for k, e in self._entries.items()])

    def clear(self, disk: bool = False) -> None:
        """Drop all in-memory entries; optionally the disk layer too."""
        with self._lock:
            self._entries.clear()
            if disk and self.cache_dir is not None \
                    and self.cache_dir.exists():
                for path in self.cache_dir.glob("*.json"):
                    try:
                        path.unlink()
                    except OSError:
                        pass

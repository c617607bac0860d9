"""Nearest-neighbor warm starts over previously solved scenarios.

Equilibrium queries arriving at the serving layer cluster around
operating points — a price sweep, a capacity grid, drifting demand. A
scenario that misses the cache is usually *near* one that hit it, and
the neighbor's equilibrium is an excellent initial iterate: the NEP
best-response loop, the GNEP decomposition, and the extragradient VI
solvers all converge in far fewer iterations from a nearby profile
(and :func:`~repro.core.stackelberg.solve_stackelberg` can localize
its price search around a neighbor's optimum).

:class:`WarmStartIndex` keeps one small brute-force index per scenario
*family* (same kind, mode, scheme, and miner count — see
:func:`repro.serving.keys.family_key`) and answers ``suggest`` queries
with the nearest neighbor's prices and, for miner-stage scenarios, its
miner allocation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..core.nep import MinerEquilibrium
from ..core.params import Prices
from ..core.stackelberg import StackelbergEquilibrium
from .keys import ScenarioSpec, family_key, feature_vector

__all__ = ["WarmStart", "WarmStartIndex"]


@dataclass
class WarmStart:
    """Initial iterates harvested from a solved neighbor scenario.

    Attributes:
        prices: The neighbor's equilibrium prices (leader stage).
        profile: The neighbor's miner allocation ``(e, c)``; ``None``
            for a leader-stage neighbor, whose demand oracle takes no
            starting profile.
        distance: Normalized feature-space distance to the neighbor.
        key: Cache key of the neighbor it came from.
    """

    prices: Optional[Prices]
    profile: Optional[Tuple[np.ndarray, np.ndarray]]
    distance: float
    key: str


@dataclass
class _IndexEntry:
    features: np.ndarray
    key: str
    prices: Optional[Prices]
    profile: Optional[Tuple[np.ndarray, np.ndarray]]


class WarmStartIndex:
    """Brute-force nearest-neighbor index over solved scenarios.

    A family holds at most one entry per cache key: re-solving a key
    (after an invalidation, say) replaces its entry and makes it the
    newest.

    Args:
        max_entries: Per-family bound; the oldest entries are dropped
            past it (sweeps revisit recent neighborhoods, so recency is
            the right retention policy).
        max_relative_distance: Suggestions farther than this (relative,
            per normalized feature) are suppressed — a far neighbor is
            worse than a cold start near solver kinks.
    """

    def __init__(self, max_entries: int = 2048,
                 max_relative_distance: float = 0.5) -> None:
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be at least 1, got {max_entries}")
        self.max_entries = max_entries
        self.max_relative_distance = max_relative_distance
        # Per family, entries by cache key in insertion (age) order.
        self._families: Dict[tuple, Dict[str, _IndexEntry]] = {}
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._families.values())

    def add(self, spec: ScenarioSpec, key: str, result: Any) -> None:
        """Index a solved scenario's equilibrium for future suggestions."""
        prices: Optional[Prices] = None
        profile: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if isinstance(result, StackelbergEquilibrium):
            prices = result.prices
        elif isinstance(result, MinerEquilibrium):
            prices = result.prices
            profile = (np.array(result.e, copy=True),
                       np.array(result.c, copy=True))
        else:
            return  # foreign result types are simply not indexable
        entry = _IndexEntry(features=feature_vector(spec), key=key,
                            prices=prices, profile=profile)
        fam = family_key(spec)
        with self._lock:
            bucket = self._families.setdefault(fam, {})
            bucket.pop(key, None)
            bucket[key] = entry
            if len(bucket) > self.max_entries:
                del bucket[next(iter(bucket))]

    def suggest(self, spec: ScenarioSpec) -> Optional[WarmStart]:
        """Warm start from the nearest solved neighbor, or ``None``.

        Distance is Euclidean over features normalized per-dimension by
        the query's own magnitudes, so "near" means "relatively near in
        every parameter" regardless of units.
        """
        fam = family_key(spec)
        query = feature_vector(spec)
        scale = np.maximum(np.abs(query), 1e-9)
        with self._lock:
            bucket = self._families.get(fam)
            if not bucket:
                return None
            entries = list(bucket.values())
            feats = np.stack([e.features for e in entries])
            dists = np.sqrt(
                np.sum(((feats - query) / scale) ** 2, axis=1))
            idx = int(np.argmin(dists))
            best = entries[idx]
            distance = float(dists[idx])
        if distance > self.max_relative_distance:
            return None
        profile = None
        if best.profile is not None:
            profile = (np.array(best.profile[0], copy=True),
                       np.array(best.profile[1], copy=True))
        return WarmStart(prices=best.prices, profile=profile,
                         distance=distance, key=best.key)

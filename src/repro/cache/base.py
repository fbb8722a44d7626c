"""Shared cache interfaces and statistics.

Every translation structure in the model — DevTLB, IOTLB, nested/page-walk
TLBs, prefetch buffer, context cache — implements :class:`TranslationCache`,
so the simulator and the experiment sweeps can treat them uniformly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Hashable, Optional


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit (0.0 when never accessed)."""
        accesses = self.accesses
        return self.hits / accesses if accesses else 0.0

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed (0.0 when never accessed)."""
        accesses = self.accesses
        return self.misses / accesses if accesses else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.invalidations = 0

    def merged_with(self, other: "CacheStats") -> "CacheStats":
        """Return a new :class:`CacheStats` summing ``self`` and ``other``."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            fills=self.fills + other.fills,
            evictions=self.evictions + other.evictions,
            invalidations=self.invalidations + other.invalidations,
        )


class TranslationCache(ABC):
    """Abstract key/value cache with hit/miss accounting.

    Keys are opaque hashables chosen by the owner (for example
    ``(sid, giova_page)`` for a DevTLB).  ``lookup`` returns the stored value
    or ``None``, updating statistics and recency state; ``probe`` inspects
    without side effects.
    """

    #: Instance attributes a checkpoint pickles (see
    #: :func:`repro.sim.checkpoint.state_fields`); subclasses extend it.
    _state_fields = ("name", "stats", "eviction_listener")

    def __init__(self, name: str = "cache"):
        self.name = name
        self.stats = CacheStats()
        #: Optional observability hook ``callable(inserted_key, victim_key)``
        #: invoked on every capacity eviction (not on invalidations).  Left
        #: ``None`` unless an observer attaches one, so the only cost on the
        #: eviction path is a single ``is not None`` check — see
        #: :meth:`repro.obs.metrics.EvictionAttribution.listener_for`.
        self.eviction_listener = None

    @abstractmethod
    def lookup(self, key: Hashable) -> Optional[Any]:
        """Return the cached value for ``key`` or ``None``; updates stats."""

    @abstractmethod
    def insert(
        self, key: Hashable, value: Any, priority: int = 0, pinned: bool = False
    ) -> None:
        """Insert or update ``key``; may evict another entry.

        ``priority`` > 0 marks a prefetch fill whose entry should enter
        with elevated replacement priority (see
        :meth:`repro.cache.policies.ReplacementPolicy.promote`).
        ``pinned`` marks a prefetch fill that victim selection must skip
        until its first hit (the DevTLB install of a completed prefetch).
        """

    @abstractmethod
    def probe(self, key: Hashable) -> Optional[Any]:
        """Return the cached value without touching stats or recency."""

    @abstractmethod
    def invalidate(self, key: Hashable) -> bool:
        """Drop ``key`` if present; return whether it was present."""

    @abstractmethod
    def invalidate_all(self) -> None:
        """Drop every entry (e.g. on an IOTLB flush)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of valid entries currently stored."""

    def contains(self, key: Hashable) -> bool:
        """Return whether ``key`` is cached (no stats side effects)."""
        return self.probe(key) is not None

"""Cache statistics.

Every translation structure in the model — DevTLB, IOTLB, nested/page-walk
TLBs, prefetch buffer, context cache — is a
:class:`~repro.cache.setassoc.SetAssociativeCache` counting its accesses in
one :class:`CacheStats`.
"""

from __future__ import annotations

from dataclasses import dataclass


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

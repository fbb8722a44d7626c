"""The translation cache: set-associative, with SID partitions.

Every translation structure in the model (DevTLB, IOTLB, nested TLB, PTE
cache, Prefetch Buffer and context cache) is one
:class:`SetAssociativeCache`, and one rule,
:meth:`SetAssociativeCache.set_index`, places every key.

HyperTRIO adds a partition tag (PTag) to every row of the DevTLB and the
page-walk TLBs; a translation may only occupy a row whose PTag matches the
low bits of its Source ID.  With ``P`` partitions, tenant ``sid`` is
confined to partition ``sid mod P``: ``num_sets / P`` consecutive sets, so
a low-bandwidth tenant can never evict a high-bandwidth tenant in another
partition.  Within its partition a key's set comes from the folded address
bits of the rest of the key.  An unpartitioned cache is one partition, in
which tenants using identical gIOVA layouts compete for the same sets (the
conflict behaviour the paper studies), and a fully associative structure
such as the Prefetch Buffer is one set.  When a partition holds exactly
one row (the paper's P-DevTLB: 64 entries, 8-way, 8 partitions; likewise
the L2/L3 TLBs' 32 and 64 partitions), the row is shared by every tenant
mapped onto that PTag and the set is just ``sid mod P``.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, List, Optional, Tuple

from repro.cache.base import CacheStats
from repro.cache.policies import ReplacementPolicy, make_policy_factory


class SetAssociativeCache:
    """A ``num_sets`` x ``ways`` cache split into ``num_partitions`` PTag
    groups of sets.

    Keys are ``(sid, secondary)`` pairs of ints; ``secondary`` is the
    gIOVA page (DevTLB, IOTLB, Prefetch Buffer), a guest-physical page
    (nested TLB), an entry address (PTE cache) or 0 (context cache).
    ``lookup`` returns the stored value or ``None``, updating statistics
    and replacement state; ``probe`` inspects without side effects.

    Each set is one :class:`~repro.cache.policies.ReplacementPolicy`
    object holding the set's entries, replacement state and pins; the
    cache picks the set, keeps :class:`~repro.cache.base.CacheStats` and
    calls the eviction listener.

    Parameters
    ----------
    num_entries:
        Total capacity; must be divisible by ``ways``.
    ways:
        Associativity.  ``ways == num_entries`` makes it fully associative.
    num_partitions:
        Number of PTag groups; must divide the set count evenly.  1 is an
        unpartitioned cache.
    policy:
        Replacement policy name (``lru``, ``lfu``, ``fifo``, ``random``,
        ``oracle``); every set is one instance of it.
    next_use:
        Future-knowledge callable, required when ``policy == "oracle"``.
    """

    #: Instance attributes a checkpoint pickles (see
    #: :func:`repro.sim.checkpoint.state_fields`).
    _state_fields = (
        "name", "stats", "eviction_listener", "num_entries", "ways",
        "num_sets", "num_partitions", "sets_per_partition", "policy_name",
        "_sets",
    )

    def __init__(
        self,
        num_entries: int,
        ways: int,
        num_partitions: int = 1,
        policy: str = "lru",
        name: str = "cache",
        next_use: Optional[Callable[[Hashable], Optional[float]]] = None,
    ):
        if num_entries < 1 or ways < 1:
            raise ValueError("num_entries and ways must be positive")
        if num_entries % ways != 0:
            raise ValueError(
                f"num_entries ({num_entries}) must be divisible by ways ({ways})"
            )
        num_sets = num_entries // ways
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if num_sets % num_partitions != 0:
            raise ValueError(
                f"{num_partitions} partitions do not evenly divide "
                f"{num_sets} sets"
            )
        self.name = name
        self.stats = CacheStats()
        #: Optional observability hook ``callable(inserted_key, victim_key)``
        #: invoked on every capacity eviction (not on invalidations).  Left
        #: ``None`` unless an observer attaches one, so the only cost on the
        #: eviction path is a single ``is not None`` check — see
        #: :meth:`repro.obs.metrics.EvictionAttribution.listener_for`.
        self.eviction_listener = None
        self.num_entries = num_entries
        self.ways = ways
        self.num_sets = num_sets
        self.num_partitions = num_partitions
        self.sets_per_partition = num_sets // num_partitions
        self.policy_name = policy.lower()
        factory = make_policy_factory(policy, next_use)
        self._sets: List[ReplacementPolicy] = [
            factory(ways) for _ in range(num_sets)
        ]

    @property
    def pin_capacity(self) -> int:
        """Most entries a set pins at once (see
        :class:`~repro.cache.policies.ReplacementPolicy`)."""
        return self._sets[0].pin_capacity

    # ------------------------------------------------------------------
    def set_index(self, key: Tuple[int, int]) -> int:
        """The set ``key`` maps to: the first set of partition
        ``sid % num_partitions`` plus ``fold(secondary) % sets_per_partition``.

        The fold, ``v ^ (v >> 9) ^ (v >> 18)``, XORs higher address bits
        into the index, as real TLBs do: plain modulo would send every 2 MB-
        aligned page number (low bits all zero) to the same set.  The SID
        picks the partition and is otherwise in the tag, not the index.

        ``lookup``, ``insert`` and :meth:`repro.iommu.iommu.Iommu.charge_walk`
        run on every access and compute this inline.
        """
        try:
            sid, secondary = key
        except ValueError:
            raise self._bad_key(key) from None
        sets = self.sets_per_partition
        return (sid % self.num_partitions) * sets + (
            secondary ^ (secondary >> 9) ^ (secondary >> 18)
        ) % sets

    def _bad_key(self, key: Hashable) -> TypeError:
        return TypeError(f"{self.name}: keys are (sid, page) pairs, got {key!r}")

    def lookup(self, key: Tuple[int, int]) -> Optional[Any]:
        """Return the cached value for ``key`` or ``None``; updates stats."""
        # set_index, inlined: this runs on every DevTLB and IOTLB access.
        try:
            sid, page = key
        except ValueError:
            raise self._bad_key(key) from None
        sets = self.sets_per_partition
        index = (sid % self.num_partitions) * sets + (
            page ^ (page >> 9) ^ (page >> 18)
        ) % sets
        value = self._sets[index].get(key)
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return value

    def insert(
        self, key: Tuple[int, int], value: Any, priority: int = 0, pinned: bool = False
    ) -> None:
        """Insert or update ``key``; may evict another entry.

        ``priority`` > 0 promotes the entry's replacement state that many
        extra steps (a prefetch fill).  ``pinned`` marks a prefetch fill
        that must survive until its predicted use: pinned entries are
        excluded from victim selection until first hit, with at most
        ``pin_capacity`` pins per set (``ways - 2`` above 2 ways, 1 at 2
        ways, none at 1 way; the oldest pin is released when the budget is
        exceeded).
        """
        # set_index, inlined: this runs on every DevTLB and IOTLB fill.
        try:
            sid, page = key
        except ValueError:
            raise self._bad_key(key) from None
        sets = self.sets_per_partition
        entry_set = self._sets[
            (sid % self.num_partitions) * sets
            + (page ^ (page >> 9) ^ (page >> 18)) % sets
        ]
        if key in entry_set.entries:
            entry_set.put(key, value, priority, pinned)
            return
        victim = entry_set.put(key, value, priority, pinned)
        if victim is not None:
            self.stats.evictions += 1
            if self.eviction_listener is not None:
                self.eviction_listener(key, victim)
        self.stats.fills += 1

    def probe(self, key: Tuple[int, int]) -> Optional[Any]:
        """Return the cached value without touching stats or recency."""
        return self._sets[self.set_index(key)].entries.get(key)

    def contains(self, key: Tuple[int, int]) -> bool:
        """Return whether ``key`` is cached (no stats side effects)."""
        return self.probe(key) is not None

    def invalidate(self, key: Tuple[int, int]) -> bool:
        """Drop ``key`` if present; return whether it was present."""
        if not self._sets[self.set_index(key)].remove(key):
            return False
        self.stats.invalidations += 1
        return True

    def invalidate_all(self) -> None:
        """Drop every entry (e.g. on an IOTLB flush)."""
        for entry_set in self._sets:
            entry_set.clear()
        self.stats.invalidations += 1

    def __len__(self) -> int:
        return sum(len(entry_set.entries) for entry_set in self._sets)

    # ------------------------------------------------------------------
    def set_occupancy(self, index: int) -> int:
        """Number of valid entries in set ``index`` (for tests/analysis)."""
        return len(self._sets[index].entries)

    def partition_occupancy(self, partition: int) -> int:
        """Total valid entries across the sets of ``partition``."""
        if not 0 <= partition < self.num_partitions:
            raise ValueError(f"partition {partition} out of range")
        base = partition * self.sets_per_partition
        return sum(
            self.set_occupancy(base + offset)
            for offset in range(self.sets_per_partition)
        )

    def keys(self):
        """Iterate over all cached keys (unspecified order)."""
        for entry_set in self._sets:
            yield from entry_set.entries

"""Set-associative cache with pluggable replacement and indexing.

This is the workhorse structure behind the DevTLB, IOTLB and the L2/L3
page-walk caches.  The set index is derived from the key by an ``indexer``
callable so the same class supports both conventional address-indexed caches
and the paper's SID-partitioned variants (see
:mod:`repro.cache.partitioned`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, NoReturn, Optional

from repro.cache.base import TranslationCache
from repro.cache.policies import ReplacementPolicy, make_policy_factory


def fold_index(value: int) -> int:
    """XOR-fold an address-derived integer before set selection.

    Plain modulo indexing degenerates for 2 MB-aligned page numbers (their
    low bits are all zero, mapping every huge page to set 0), so — like real
    TLBs — we fold higher address bits into the index.  The fold is
    deterministic and cheap.
    """
    value = int(value)
    return value ^ (value >> 9) ^ (value >> 18)


def default_indexer(key: Hashable, num_sets: int) -> int:
    """Index by the folded address bits of the key.

    For the common ``(sid, page)`` tuple keys this indexes by the *page*
    part only, so that — as in real hardware — tenants using identical
    gIOVA layouts compete for the same sets: the conflict behaviour the
    paper studies.  The SID lives in the tag, not the index.

    The fold is inlined (rather than calling :func:`fold_index`) because
    this function sits on the simulator's hottest path.
    """
    if type(key) is tuple and len(key) == 2:
        value = key[1]
        if type(value) is int:
            return (value ^ (value >> 9) ^ (value >> 18)) % num_sets
    return hash(key) % num_sets


def single_set_indexer(key: Hashable, num_sets: int) -> int:
    """Indexer for fully associative caches: everything lives in set 0.

    A module-level function (not a lambda) so cache instances stay
    picklable — simulation checkpoints snapshot live cache objects.
    """
    return 0


class SetAssociativeCache(TranslationCache):
    """An ``num_sets`` x ``ways`` cache.

    Parameters
    ----------
    num_entries:
        Total capacity; must be divisible by ``ways``.
    ways:
        Associativity.  ``ways == num_entries`` makes it fully associative.
    policy:
        Replacement policy name (``lru``, ``lfu``, ``fifo``, ``random``,
        ``oracle``); per-set instances are created from the factory.
    indexer:
        ``callable(key, num_sets) -> set_index``.
    next_use:
        Future-knowledge callable, required when ``policy == "oracle"``.
    """

    #: Nonzero when the set index is the key's SID modulo this many sets:
    #: a :class:`~repro.cache.partitioned.PartitionedCache` whose every
    #: partition is one set.  ``lookup`` and ``insert`` then compute the
    #: index inline instead of calling the indexer.
    _sid_sets = 0

    def __init__(
        self,
        num_entries: int,
        ways: int,
        policy: str = "lru",
        name: str = "cache",
        indexer: Callable[[Hashable, int], int] = default_indexer,
        next_use: Optional[Callable[[Hashable], Optional[float]]] = None,
    ):
        super().__init__(name=name)
        if num_entries < 1 or ways < 1:
            raise ValueError("num_entries and ways must be positive")
        if num_entries % ways != 0:
            raise ValueError(
                f"num_entries ({num_entries}) must be divisible by ways ({ways})"
            )
        self.num_entries = num_entries
        self.ways = ways
        self.num_sets = num_entries // ways
        self.policy_name = policy.lower()
        self._indexer = indexer
        factory = make_policy_factory(policy, next_use)
        self._policies: List[ReplacementPolicy] = [factory() for _ in range(self.num_sets)]
        self._sets: List[Dict[Hashable, Any]] = [{} for _ in range(self.num_sets)]
        # Pinned prefetch entries per set (insertion-ordered so the oldest
        # pin is recycled first).  The budget leaves at least one way per
        # set unpinned (two above 2 ways), so demand fills always find a
        # victim; a direct-mapped cache pins nothing.
        self._pinned: List[Dict[Hashable, None]] = [{} for _ in range(self.num_sets)]
        if ways > 2:
            self.pin_capacity = ways - 2
        elif ways == 2:
            self.pin_capacity = 1
        else:
            self.pin_capacity = 0

    # ------------------------------------------------------------------
    def _set_for(self, key: Hashable) -> int:
        index = self._indexer(key, self.num_sets)
        if not 0 <= index < self.num_sets:
            self._out_of_range(index)
        return index

    def _out_of_range(self, index: int) -> NoReturn:
        raise ValueError(
            f"indexer returned {index}, outside 0..{self.num_sets - 1}"
        )

    def _bad_key(self, key: Hashable) -> NoReturn:
        raise TypeError(
            f"{self.name}: partitioned caches require (sid, page) keys, "
            f"got {key!r}"
        )

    # ``lookup`` and ``insert`` run once per cache access on the walk path,
    # so each computes its set index inline (the same value ``_set_for``
    # returns) rather than through a chain of calls.
    def lookup(self, key: Hashable) -> Optional[Any]:
        sid_sets = self._sid_sets
        if sid_sets:
            if not (isinstance(key, tuple) and len(key) == 2):
                self._bad_key(key)
            index = key[0] % sid_sets
        else:
            num_sets = self.num_sets
            index = self._indexer(key, num_sets)
            if not 0 <= index < num_sets:
                self._out_of_range(index)
        entry_set = self._sets[index]
        if key in entry_set:
            self.stats.hits += 1
            self._policies[index].on_hit(key)
            # First use of a pinned prefetch entry releases the pin.
            self._pinned[index].pop(key, None)
            return entry_set[key]
        self.stats.misses += 1
        return None

    def insert(
        self, key: Hashable, value: Any, priority: int = 0, pinned: bool = False
    ) -> None:
        """Insert or update ``key``.

        ``priority`` > 0 promotes the entry's replacement state that many
        extra steps.  ``pinned`` marks a prefetch fill that must survive
        until its predicted use: pinned entries are excluded from victim
        selection until first hit, with at most ``pin_capacity`` pins per
        set (``ways - 2`` above 2 ways, 1 at 2 ways, none at 1 way; the
        oldest pin is released when the budget is exceeded).
        """
        sid_sets = self._sid_sets
        if sid_sets:
            if not (isinstance(key, tuple) and len(key) == 2):
                self._bad_key(key)
            index = key[0] % sid_sets
        else:
            num_sets = self.num_sets
            index = self._indexer(key, num_sets)
            if not 0 <= index < num_sets:
                self._out_of_range(index)
        entry_set = self._sets[index]
        policy = self._policies[index]
        pins = self._pinned[index]
        if key in entry_set:
            entry_set[key] = value
            policy.on_hit(key)
            if priority:
                policy.promote(key, priority)
            if pinned:
                self._pin(pins, key)
            return
        if len(entry_set) >= self.ways:
            victim = policy.victim(excluding=pins)
            if victim is None:
                # Every resident entry is pinned (cannot happen while
                # pin_capacity < ways, but stay safe): recycle the oldest
                # pin.
                victim = next(iter(pins))
                del pins[victim]
            policy.on_evict(victim)
            del entry_set[victim]
            pins.pop(victim, None)
            self.stats.evictions += 1
            if self.eviction_listener is not None:
                self.eviction_listener(key, victim)
        entry_set[key] = value
        policy.on_fill(key)
        if priority:
            policy.promote(key, priority)
        if pinned:
            self._pin(pins, key)
        self.stats.fills += 1

    def _pin(self, pins: Dict[Hashable, None], key: Hashable) -> None:
        if self.pin_capacity == 0:
            return
        pins.pop(key, None)
        while len(pins) >= self.pin_capacity:
            del pins[next(iter(pins))]
        pins[key] = None

    def probe(self, key: Hashable) -> Optional[Any]:
        return self._sets[self._set_for(key)].get(key)

    def invalidate(self, key: Hashable) -> bool:
        index = self._set_for(key)
        entry_set = self._sets[index]
        if key not in entry_set:
            return False
        self._policies[index].on_evict(key)
        del entry_set[key]
        self._pinned[index].pop(key, None)
        self.stats.invalidations += 1
        return True

    def invalidate_all(self) -> None:
        for index, entry_set in enumerate(self._sets):
            policy = self._policies[index]
            for key in list(entry_set):
                policy.on_evict(key)
            entry_set.clear()
            self._pinned[index].clear()
        self.stats.invalidations += 1

    def __len__(self) -> int:
        return sum(len(entry_set) for entry_set in self._sets)

    # ------------------------------------------------------------------
    def set_occupancy(self, index: int) -> int:
        """Number of valid entries in set ``index`` (for tests/analysis)."""
        return len(self._sets[index])

    def keys(self):
        """Iterate over all cached keys (unspecified order)."""
        for entry_set in self._sets:
            yield from entry_set


class FullyAssociativeCache(SetAssociativeCache):
    """Convenience subclass: one set holding every entry.

    Used for the paper's fully-associative DevTLB study (Figure 11c) and for
    the 8-entry Prefetch Buffer.
    """

    def __init__(
        self,
        num_entries: int,
        policy: str = "lru",
        name: str = "fa-cache",
        next_use: Optional[Callable[[Hashable], Optional[float]]] = None,
    ):
        super().__init__(
            num_entries=num_entries,
            ways=num_entries,
            policy=policy,
            name=name,
            indexer=single_set_indexer,
            next_use=next_use,
        )

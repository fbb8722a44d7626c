"""Replacement policies for translation caches, one object per cache set.

The paper studies LRU, LFU (motivated by the three access-frequency groups
observed in single-tenant traces, Section IV-D) and a Belady *oracle* that
evicts the entry reused furthest in the future (Section V-C).  The LFU
implementation follows the paper exactly: a 4-bit saturating counter per
entry, and when any counter in a row saturates, every counter in that row is
halved.

Each policy object *is* one set (row) of a cache: it owns the row's entries,
their replacement state and the row's pins, and answers ``get`` (a lookup
that counts as a use), ``put`` (a fill or update that returns the key it
evicted) and ``access`` (a lookup that fills on a miss, the walk caches'
one call per access).  The owning cache keeps the statistics and the
eviction listener.  Keys are opaque hashables; values must not be ``None``,
which ``get`` returns for a miss.

``entries`` is a plain insertion-ordered ``dict``, and its order is the
tie-break (oldest first): LRU moves a key to the end on every use, so the
order is its recency order; FIFO, LFU, random and oracle never move a key.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Hashable, Optional


class _Hit:
    """The type of :data:`HIT`."""

    def __repr__(self) -> str:
        return "HIT"


#: What :meth:`ReplacementPolicy.access` returns on a hit: no key is this
#: object, so it cannot be mistaken for an evicted key.
HIT = _Hit()


class ReplacementPolicy(ABC):
    """One cache set: its entries, their replacement state and its pins.

    A pinned entry is a prefetch fill that victim selection skips until its
    first hit.  At most ``pin_capacity`` entries are pinned at once
    (``ways - 2`` above 2 ways, 1 at 2 ways, none at 1 way), so a fill
    always finds an unpinned victim; a new pin past the budget releases
    the oldest.
    """

    #: Instance attributes a checkpoint pickles (repro.sim.checkpoint);
    #: subclasses extend it.
    _state_fields = ("ways", "pin_capacity", "entries", "_pins")

    def __init__(self, ways: int):
        if ways < 1:
            raise ValueError("ways must be positive")
        self.ways = ways
        if ways > 2:
            self.pin_capacity = ways - 2
        elif ways == 2:
            self.pin_capacity = 1
        else:
            self.pin_capacity = 0
        #: Resident keys and their values, in replacement order.  Callers
        #: may read it; only the set's own methods change it.
        self.entries: Dict[Hashable, Any] = {}
        #: Pinned keys, oldest pin first.
        self._pins: Dict[Hashable, None] = {}

    def get(self, key: Hashable) -> Optional[Any]:
        """Return ``key``'s value, or ``None`` on a miss.

        A hit is a use of the entry: it updates the replacement state and
        releases the entry's pin.
        """
        value = self.entries.get(key)
        if value is not None and self._pins:
            self._pins.pop(key, None)
        return value

    def put(
        self, key: Hashable, value: Any, priority: int = 0, pinned: bool = False
    ) -> Optional[Hashable]:
        """Fill or update ``key``; return the key evicted for it, or ``None``.

        An update is a use of the entry.  ``priority`` > 0 promotes the
        entry that many extra steps (:meth:`promote`); ``pinned`` pins it.
        """
        entries = self.entries
        evicted = None
        if key not in entries and len(entries) >= self.ways:
            evicted = self._victim_for_fill()
            del entries[evicted]
        entries[key] = value
        if pinned:
            self._pin(key)
        return evicted

    def access(self, key: Hashable, value: Any) -> Any:
        """Look ``key`` up and fill it with ``value`` on a miss.

        Returns :data:`HIT` on a hit (a use, as in :meth:`get`); on a miss
        the unpinned fill's evicted key, or ``None`` when the set had room
        (as :meth:`put` returns).
        """
        if self.get(key) is not None:
            return HIT
        return self.put(key, value)

    @abstractmethod
    def victim(self) -> Optional[Hashable]:
        """Return the key a fill into this full set would evict.

        Pinned keys are skipped; ``None`` when every resident key is
        pinned.  Raises ``LookupError`` on an empty set.
        """

    def promote(self, key: Hashable, steps: int = 1) -> None:
        """Raise ``key``'s replacement priority (prefetch-aware insertion).

        Used when a prefetched translation is installed: the entry must
        survive the window between install and predicted use, so it enters
        with elevated priority.  Recency policies treat this as a use;
        frequency policies add ``steps`` to the counter.  Default: no-op.
        """

    def remove(self, key: Hashable) -> bool:
        """Drop ``key`` (and its pin); return whether it was resident."""
        if key not in self.entries:
            return False
        del self.entries[key]
        self._pins.pop(key, None)
        return True

    def clear(self) -> None:
        """Drop every entry and pin."""
        self.entries.clear()
        self._pins.clear()

    def keys(self):
        """The resident keys, in replacement order."""
        return self.entries.keys()

    def __len__(self) -> int:
        return len(self.entries)

    def _victim_for_fill(self) -> Hashable:
        """The victim of a fill into this full set, its pin released.

        If every resident entry is pinned (cannot happen while
        ``pin_capacity < ways``, but stay safe) the oldest pin is recycled.
        """
        victim = self.victim()
        if victim is None:
            victim = next(iter(self._pins))
        self._pins.pop(victim, None)
        return victim

    def _first_unpinned(self) -> Optional[Hashable]:
        """The oldest resident key that is not pinned (LRU and FIFO)."""
        entries = self.entries
        if not entries:
            raise LookupError("victim() on an empty set")
        pins = self._pins
        for key in entries:
            if key not in pins:
                return key
        return None

    def _pin(self, key: Hashable) -> None:
        if self.pin_capacity == 0:
            return
        pins = self._pins
        pins.pop(key, None)
        while len(pins) >= self.pin_capacity:
            del pins[next(iter(pins))]
        pins[key] = None


class LruPolicy(ReplacementPolicy):
    """Least-recently-used eviction: ``entries`` runs from least to most
    recently used."""

    # ``get`` and ``put`` make no further calls on their common paths: the
    # context cache and the prefetch buffer (both LRU) are used on every
    # IOMMU translation and every DevTLB miss.
    def get(self, key: Hashable) -> Optional[Any]:
        entries = self.entries
        if key not in entries:
            return None
        value = entries[key] = entries.pop(key)
        if self._pins:
            self._pins.pop(key, None)
        return value

    def put(
        self, key: Hashable, value: Any, priority: int = 0, pinned: bool = False
    ) -> Optional[Hashable]:
        entries = self.entries
        evicted = None
        if key in entries:
            del entries[key]
        elif len(entries) >= self.ways:
            evicted = (
                self._victim_for_fill() if self._pins else next(iter(entries))
            )
            del entries[evicted]
        # Appending makes the key the most recent, which is also all that
        # a promotion would do.
        entries[key] = value
        if pinned:
            self._pin(key)
        return evicted

    def promote(self, key: Hashable, steps: int = 1) -> None:
        entries = self.entries
        entries[key] = entries.pop(key)

    def victim(self) -> Optional[Hashable]:
        return self._first_unpinned()


class FifoPolicy(ReplacementPolicy):
    """First-in-first-out eviction (insertion order, hits ignored)."""

    def victim(self) -> Optional[Hashable]:
        return self._first_unpinned()


class LfuPolicy(ReplacementPolicy):
    """Least-frequently-used with 4-bit saturating counters.

    As in the paper: each entry has a counter capped at ``counter_max``
    (15 for 4 bits); when any counter saturates, all counters in the row are
    divided by two.  Ties are broken by insertion order (oldest first), which
    makes the policy deterministic.

    The victim is the oldest unpinned key at the row's least count.  A fill
    starts its key at 1 and only row halving lowers a counter, so the least
    count is nearly always 1.  The set therefore keeps an index of the keys
    at 0 or 1, in ``entries`` order, and counts those at 0.  Entry order
    holds because a fill appends the newest key, a use only raises a
    counter, and halving, the one step that lowers counters, rebuilds the
    index.  A fill into a full row takes the index's first unpinned key;
    only when some counter is 0 or no unpinned key is at 1 is the row
    scanned.
    """

    _state_fields = ReplacementPolicy._state_fields + (
        "counter_max", "_counts", "_low", "_zeros",
    )

    def __init__(self, ways: int, counter_bits: int = 4):
        super().__init__(ways)
        if counter_bits < 1:
            raise ValueError("counter_bits must be >= 1")
        self.counter_max = (1 << counter_bits) - 1
        #: Each resident key's counter, in the same order as ``entries``.
        self._counts: Dict[Hashable, int] = {}
        #: The keys whose counter is 0 or 1, in the same order as ``entries``.
        self._low: Dict[Hashable, None] = {}
        #: How many counters are 0.
        self._zeros = 0

    # ``get`` and ``access`` each inline one use of a counter (as
    # ``promote(key)`` counts it), and ``access`` the fill: most walk-cache
    # lookups miss, and neither a hit nor a fill makes a further call unless
    # a counter saturates or the index cannot name the victim.  ``put``
    # fills through ``access``.
    def get(self, key: Hashable) -> Optional[Any]:
        counts = self._counts
        if key not in counts:
            return None
        count = counts[key]
        if count >= self.counter_max:
            self._halve()
            count = counts[key]
        counts[key] = count + 1
        if count <= 1:
            if count:
                del self._low[key]
            else:
                self._zeros -= 1
        if self._pins:
            self._pins.pop(key, None)
        return self.entries[key]

    def put(
        self, key: Hashable, value: Any, priority: int = 0, pinned: bool = False
    ) -> Optional[Hashable]:
        entries = self.entries
        evicted = None
        if key in entries:
            entries[key] = value
            self.promote(key, 1 + priority)
        else:
            evicted = self.access(key, value)
            if priority:
                self.promote(key, priority)
        if pinned:
            self._pin(key)
        return evicted

    def access(self, key: Hashable, value: Any) -> Any:
        counts = self._counts
        if key in counts:
            count = counts[key]
            if count >= self.counter_max:
                self._halve()
                count = counts[key]
            counts[key] = count + 1
            if count <= 1:
                if count:
                    del self._low[key]
                else:
                    self._zeros -= 1
            if self._pins:
                self._pins.pop(key, None)
            return HIT
        entries = self.entries
        low = self._low
        evicted = None
        if len(entries) >= self.ways:
            if low and not (self._pins or self._zeros):
                for evicted in low:
                    break
            else:
                evicted = self._victim_for_fill()
            count = counts[evicted]
            del entries[evicted], counts[evicted]
            if count <= 1:
                del low[evicted]
                if not count:
                    self._zeros -= 1
        entries[key] = value
        # The first count: 1 never saturates (counter_max >= 1).
        counts[key] = 1
        low[key] = None
        return evicted

    def promote(self, key: Hashable, steps: int = 1) -> None:
        counts = self._counts
        for _ in range(steps):
            count = counts[key]
            if count >= self.counter_max:
                self._halve()
                count = counts[key]
            counts[key] = count + 1
            if count <= 1:
                if count:
                    del self._low[key]
                else:
                    self._zeros -= 1

    def victim(self) -> Optional[Hashable]:
        counts = self._counts
        if not counts:
            raise LookupError("victim() on an empty set")
        pins = self._pins
        if not self._zeros:
            for key in self._low:
                if key not in pins:
                    return key
        # Some counter is 0, or no unpinned key is at 1: scan the row.
        # Every count is at most counter_max, so the first unpinned key
        # beats this bound; strict ``<`` keeps the oldest of a tie.
        best_key, best_count = None, self.counter_max + 1
        for key, count in counts.items():
            if count < best_count and key not in pins:
                best_key, best_count = key, count
        return best_key

    def remove(self, key: Hashable) -> bool:
        if not super().remove(key):
            return False
        count = self._counts.pop(key)
        if count <= 1:
            del self._low[key]
            if not count:
                self._zeros -= 1
        return True

    def clear(self) -> None:
        super().clear()
        self._counts.clear()
        self._low.clear()
        self._zeros = 0

    def _halve(self) -> None:
        """Saturation: halve every counter in the row, and rebuild the
        index from the new counts."""
        counts = self._counts
        low = self._low = {}
        zeros = 0
        for key in counts:
            count = counts[key] = counts[key] // 2
            if count <= 1:
                low[key] = None
                if not count:
                    zeros += 1
        self._zeros = zeros

    def counter(self, key: Hashable) -> int:
        """Current counter value for ``key`` (for tests and introspection)."""
        return self._counts[key]


class RandomPolicy(ReplacementPolicy):
    """Uniform-random eviction with a seeded generator (reproducible)."""

    _state_fields = ReplacementPolicy._state_fields + ("_rng",)

    def __init__(self, ways: int, seed: int = 0):
        super().__init__(ways)
        self._rng = random.Random(seed)

    def victim(self) -> Optional[Hashable]:
        if not self.entries:
            raise LookupError("victim() on an empty set")
        pins = self._pins
        candidates = [key for key in self.entries if key not in pins]
        if not candidates:
            return None
        return self._rng.choice(candidates)


class OraclePolicy(ReplacementPolicy):
    """Belady's optimal policy: evict the entry used furthest in the future.

    The owning simulation supplies ``next_use``: a callable mapping a key to
    the position of its *next* access after the current one (``None`` or
    ``float('inf')`` when the key is never used again).  The simulator keeps
    that callable current as the trace advances.
    """

    _state_fields = ReplacementPolicy._state_fields + ("_next_use",)

    def __init__(
        self, ways: int, next_use: Callable[[Hashable], Optional[float]]
    ):
        super().__init__(ways)
        self._next_use = next_use

    def victim(self) -> Optional[Hashable]:
        if not self.entries:
            raise LookupError("victim() on an empty set")
        pins = self._pins
        best_key, best_distance = None, -1.0
        for key in self.entries:
            if key in pins:
                continue
            distance = self._next_use(key)
            if distance is None:
                return key  # never used again: perfect victim
            if distance > best_distance:
                best_key, best_distance = key, distance
        return best_key


#: Registry mapping policy names (as used in configs and the paper's figures)
#: to per-set classes.  Oracle is absent here because it needs future
#: knowledge; use :func:`make_policy_factory` with a ``next_use`` callable.
POLICY_FACTORIES: Dict[str, Callable[[int], ReplacementPolicy]] = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "lfu": LfuPolicy,
    "random": RandomPolicy,
}


def make_policy_factory(
    name: str, next_use: Optional[Callable[[Hashable], Optional[float]]] = None
) -> Callable[[int], ReplacementPolicy]:
    """Return a factory ``factory(ways)`` building one empty set.

    ``name`` is one of ``lru``, ``fifo``, ``lfu``, ``random`` or ``oracle``;
    the latter requires ``next_use``.
    """
    lowered = name.lower()
    if lowered == "oracle":
        if next_use is None:
            raise ValueError("oracle policy requires a next_use callable")
        return lambda ways: OraclePolicy(ways, next_use)
    try:
        return POLICY_FACTORIES[lowered]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from "
            f"{sorted(POLICY_FACTORIES)} or 'oracle'"
        ) from None

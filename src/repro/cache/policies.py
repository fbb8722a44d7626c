"""Replacement policies for translation caches.

The paper studies LRU, LFU (motivated by the three access-frequency groups
observed in single-tenant traces, Section IV-D) and a Belady *oracle* that
evicts the entry reused furthest in the future (Section V-C).  The LFU
implementation follows the paper exactly: a 4-bit saturating counter per
entry, and when any counter in a row saturates, every counter in that row is
halved.

Policies are per-*set* objects: the owning cache creates one policy instance
per set (row), and notifies it on hits, fills, and when it must pick a
victim.  Keys are opaque hashables.

Every policy keeps its per-set state in a plain insertion-ordered ``dict``:
iteration order is the tie-break (oldest first), and only LRU ever moves a
key, by popping and re-adding it.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Callable, Dict, Hashable, Optional


class ReplacementPolicy(ABC):
    """Interface implemented by every per-set replacement policy."""

    @abstractmethod
    def on_hit(self, key: Hashable) -> None:
        """Record a hit on ``key``."""

    @abstractmethod
    def on_fill(self, key: Hashable) -> None:
        """Record that ``key`` was inserted into the set."""

    @abstractmethod
    def on_evict(self, key: Hashable) -> None:
        """Record that ``key`` was removed from the set."""

    @abstractmethod
    def victim(self, excluding=frozenset()) -> Hashable:
        """Return the key that should be evicted next.

        ``excluding`` holds keys that must not be chosen (pinned prefetch
        entries awaiting their predicted use).  Returns ``None`` when every
        tracked key is excluded.
        """

    @abstractmethod
    def keys(self):
        """Return the keys currently tracked (iteration order unspecified)."""

    def promote(self, key: Hashable, steps: int = 1) -> None:
        """Raise ``key``'s replacement priority (prefetch-aware insertion).

        Used when a prefetched translation is installed: the entry must
        survive the window between install and predicted use, so it enters
        with elevated priority.  Recency policies treat this as a touch;
        frequency policies add ``steps`` to the counter.  Default: no-op.
        """

    def __len__(self) -> int:
        return len(list(self.keys()))


class LruPolicy(ReplacementPolicy):
    """Least-recently-used eviction."""

    #: Instance attributes a checkpoint pickles (repro.sim.checkpoint).
    _state_fields = ("_order",)

    def __init__(self):
        #: Keys from least to most recently used.
        self._order: Dict[Hashable, None] = {}

    def on_hit(self, key: Hashable) -> None:
        order = self._order
        order[key] = order.pop(key)

    def on_fill(self, key: Hashable) -> None:
        order = self._order
        order.pop(key, None)
        order[key] = None

    def on_evict(self, key: Hashable) -> None:
        del self._order[key]

    def promote(self, key: Hashable, steps: int = 1) -> None:
        self.on_hit(key)

    def victim(self, excluding=frozenset()) -> Hashable:
        if not self._order:
            raise LookupError("victim() on an empty set")
        for key in self._order:
            if key not in excluding:
                return key
        return None

    def keys(self):
        return self._order.keys()


class FifoPolicy(ReplacementPolicy):
    """First-in-first-out eviction (insertion order, hits ignored)."""

    _state_fields = ("_order",)

    def __init__(self):
        self._order: Dict[Hashable, None] = {}

    def on_hit(self, key: Hashable) -> None:
        pass

    def on_fill(self, key: Hashable) -> None:
        self._order[key] = None

    def on_evict(self, key: Hashable) -> None:
        del self._order[key]

    def victim(self, excluding=frozenset()) -> Hashable:
        if not self._order:
            raise LookupError("victim() on an empty set")
        for key in self._order:
            if key not in excluding:
                return key
        return None

    def keys(self):
        return self._order.keys()


class LfuPolicy(ReplacementPolicy):
    """Least-frequently-used with 4-bit saturating counters.

    As in the paper: each entry has a counter capped at ``counter_max``
    (15 for 4 bits); when any counter saturates, all counters in the row are
    divided by two.  Ties are broken by insertion order (oldest first), which
    makes the policy deterministic.
    """

    _state_fields = ("counter_max", "_counts")

    def __init__(self, counter_bits: int = 4):
        if counter_bits < 1:
            raise ValueError("counter_bits must be >= 1")
        self.counter_max = (1 << counter_bits) - 1
        self._counts: Dict[Hashable, int] = {}

    def on_hit(self, key: Hashable) -> None:
        self._bump(key)

    def on_fill(self, key: Hashable) -> None:
        # The first count: 1 never saturates (counter_max >= 1).
        self._counts[key] = 1

    def promote(self, key: Hashable, steps: int = 1) -> None:
        for _ in range(steps):
            self._bump(key)

    def on_evict(self, key: Hashable) -> None:
        del self._counts[key]

    def victim(self, excluding=frozenset()) -> Hashable:
        if not self._counts:
            raise LookupError("victim() on an empty set")
        # Every count is at most counter_max, so the first key scanned
        # always beats this bound; strict ``<`` keeps the oldest of a tie.
        best_key, best_count = None, self.counter_max + 1
        if excluding:
            for key, count in self._counts.items():
                if key in excluding:
                    continue
                if count < best_count:
                    best_key, best_count = key, count
        else:
            # Hot path: no pinned entries to skip.
            for key, count in self._counts.items():
                if count < best_count:
                    best_key, best_count = key, count
        return best_key

    def keys(self):
        return self._counts.keys()

    def counter(self, key: Hashable) -> int:
        """Current counter value for ``key`` (for tests and introspection)."""
        return self._counts[key]

    def _bump(self, key: Hashable) -> None:
        count = self._counts[key] + 1
        if count > self.counter_max:
            # Saturation: halve every counter in the row, then count this hit.
            for other in self._counts:
                self._counts[other] //= 2
            count = self._counts[key] + 1
        self._counts[key] = count


class RandomPolicy(ReplacementPolicy):
    """Uniform-random eviction with a seeded generator (reproducible)."""

    _state_fields = ("_rng", "_keys")

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self._keys: Dict[Hashable, None] = {}

    def on_hit(self, key: Hashable) -> None:
        pass

    def on_fill(self, key: Hashable) -> None:
        self._keys[key] = None

    def on_evict(self, key: Hashable) -> None:
        del self._keys[key]

    def victim(self, excluding=frozenset()) -> Hashable:
        if not self._keys:
            raise LookupError("victim() on an empty set")
        candidates = [key for key in self._keys if key not in excluding]
        if not candidates:
            return None
        return self._rng.choice(candidates)

    def keys(self):
        return self._keys.keys()


class OraclePolicy(ReplacementPolicy):
    """Belady's optimal policy: evict the entry used furthest in the future.

    The owning simulation supplies ``next_use``: a callable mapping a key to
    the position of its *next* access after the current one (``None`` or
    ``float('inf')`` when the key is never used again).  The simulator keeps
    that callable current as the trace advances.
    """

    _state_fields = ("_next_use", "_keys")

    def __init__(self, next_use: Callable[[Hashable], Optional[float]]):
        self._next_use = next_use
        self._keys: Dict[Hashable, None] = {}

    def on_hit(self, key: Hashable) -> None:
        pass

    def on_fill(self, key: Hashable) -> None:
        self._keys[key] = None

    def on_evict(self, key: Hashable) -> None:
        del self._keys[key]

    def victim(self, excluding=frozenset()) -> Hashable:
        if not self._keys:
            raise LookupError("victim() on an empty set")
        best_key, best_distance = None, -1.0
        for key in self._keys:
            if key in excluding:
                continue
            distance = self._next_use(key)
            if distance is None:
                return key  # never used again: perfect victim
            if distance > best_distance:
                best_key, best_distance = key, distance
        return best_key

    def keys(self):
        return self._keys.keys()


#: Registry mapping policy names (as used in configs and the paper's figures)
#: to factories.  Oracle is absent here because it needs future knowledge;
#: use :func:`make_policy_factory` with a ``next_use`` callable.
POLICY_FACTORIES: Dict[str, Callable[[], ReplacementPolicy]] = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "lfu": LfuPolicy,
    "random": RandomPolicy,
}


def make_policy_factory(
    name: str, next_use: Optional[Callable[[Hashable], Optional[float]]] = None
) -> Callable[[], ReplacementPolicy]:
    """Return a zero-argument factory building per-set policy instances.

    ``name`` is one of ``lru``, ``fifo``, ``lfu``, ``random`` or ``oracle``;
    the latter requires ``next_use``.
    """
    lowered = name.lower()
    if lowered == "oracle":
        if next_use is None:
            raise ValueError("oracle policy requires a next_use callable")
        return lambda: OraclePolicy(next_use)
    try:
        return POLICY_FACTORIES[lowered]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from "
            f"{sorted(POLICY_FACTORIES)} or 'oracle'"
        ) from None

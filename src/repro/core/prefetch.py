"""Translation Prefetching Scheme: Prefetch Unit + IOVA history reader.

The Prefetch Unit (PU) lives on the device and has two parts (Section III):

* the **Prefetch Buffer (PB)** — a small fully-associative cache of
  gIOVA -> hPA translations shared by all tenants, populated by completed
  prefetches and checked concurrently with the DevTLB;
* the **SID predictor** — a direct-mapped table from the currently accessed
  SID to a predicted future SID, learned from the observed SID stream with a
  host-configured *history length* register (how many accesses ahead the
  prediction targets).

The chipset-side **IOVA history reader** keeps each tenant's most recently
accessed gIOVAs in main memory; when the PU predicts a SID, the reader
fetches that tenant's two most recent gIOVAs and issues IOMMU translations
for them (which also warms the nested TLBs).

Timing is handled by the simulator; this module owns state, prediction, and
accounting.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.cache.setassoc import SetAssociativeCache
from repro.core.config import PrefetchConfig


@dataclass
class PrefetchStats:
    """Accuracy/coverage accounting for the prefetching scheme."""

    predictions: int = 0
    prefetch_requests: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0
    useless_prefetches: int = 0
    #: Prefetches that completed and were installed at the device; the gap
    #: to :attr:`supplied_translations` is translations fetched but never
    #: used before eviction (the prefetcher's wasted work).
    installs: int = 0
    #: Demand translations answered by a prefetched entry — whether it was
    #: found in the Prefetch Buffer or in the DevTLB row the prefetch
    #: completion installed it into (the paper's "valid translation from a
    #: Prefetch Buffer" metric).
    supplied_translations: int = 0

    @property
    def buffer_hit_rate(self) -> float:
        total = self.buffer_hits + self.buffer_misses
        return self.buffer_hits / total if total else 0.0


class SidPredictor:
    """Direct-mapped SID -> predicted-SID table with a history window.

    On every access the predictor learns ``table[sid seen H accesses ago] =
    current sid``, where ``H`` is the history length.  Under round-robin
    interleaving this converges to ``table[s] = (s + H) mod n`` after one
    window, giving the PU exactly ``H`` packet slots of lead time.
    """

    #: Instance attributes a checkpoint pickles (repro.sim.checkpoint).
    _state_fields = ("history_length", "_window", "_table")

    def __init__(self, history_length: int):
        if history_length < 1:
            raise ValueError("history_length must be >= 1")
        self.history_length = history_length
        self._window: Deque[int] = deque(maxlen=history_length)
        self._table: Dict[int, int] = {}

    def observe(self, sid: int) -> None:
        """Record one SID from the device's request stream."""
        if len(self._window) == self.history_length:
            anchor = self._window[0]
            self._table[anchor] = sid
        self._window.append(sid)

    def predict(self, sid: int) -> Optional[int]:
        """SID expected ~history_length accesses after ``sid``, if known."""
        return self._table.get(sid)

    def reconfigure(self, history_length: int) -> None:
        """Host update after tenant add/remove or bandwidth change."""
        if history_length < 1:
            raise ValueError("history_length must be >= 1")
        self.history_length = history_length
        self._window = deque(self._window, maxlen=history_length)
        self._table.clear()

    def __len__(self) -> int:
        return len(self._table)


class IovaHistory:
    """Per-DID record of recently accessed gIOVA pages (kept in DRAM).

    Hardware cost is independent of tenant count because the history lives
    in main memory; the reader is just a state machine (Section III).
    """

    _state_fields = ("depth", "_recent")

    def __init__(self, depth: int = 2):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth = depth
        self._recent: Dict[int, Deque[int]] = {}

    def record(self, sid: int, giova_page: int) -> None:
        """Note that ``sid`` accessed ``giova_page`` (deduplicated MRU)."""
        history = self._recent.get(sid)
        if history is None:
            history = deque(maxlen=self.depth)
            self._recent[sid] = history
        if giova_page in history:
            history.remove(giova_page)
        history.append(giova_page)

    def most_recent(self, sid: int) -> List[int]:
        """Most recent distinct pages for ``sid``, newest first."""
        history = self._recent.get(sid)
        if not history:
            return []
        return list(reversed(history))

    def forget(self, sid: int) -> None:
        """Drop history on tenant removal."""
        self._recent.pop(sid, None)


class PrefetchUnit:
    """Device-side PU: prefetch buffer + SID predictor.

    The simulator calls :meth:`lookup` concurrently with the DevTLB,
    :meth:`observe_and_predict` on every request to drive training and get
    prefetch candidates, and :meth:`install` when a prefetch completes.
    """

    _state_fields = ("config", "buffer", "predictor", "stats")

    def __init__(self, config: PrefetchConfig):
        self.config = config
        # Fully associative: one set of ``buffer_entries`` ways.
        self.buffer = SetAssociativeCache(
            config.buffer_entries, config.buffer_entries, policy="lru",
            name="prefetch-buffer",
        )
        self.predictor = SidPredictor(config.history_length)
        self.stats = PrefetchStats()

    def lookup(self, sid: int, giova_page: int) -> Optional[Tuple[int, int]]:
        """Check the PB for a valid translation; returns (hpa, page_shift)."""
        value = self.buffer.lookup((sid, giova_page))
        if value is not None:
            self.stats.buffer_hits += 1
            return value
        self.stats.buffer_misses += 1
        return None

    def observe_and_predict(self, sid: int) -> Optional[int]:
        """Train on ``sid`` and return a predicted SID to prefetch for."""
        self.predictor.observe(sid)
        predicted = self.predictor.predict(sid)
        if predicted is not None:
            self.stats.predictions += 1
        return predicted

    def install(self, sid: int, giova_page: int, hpa: int, page_shift: int) -> None:
        """Insert a completed prefetch into the PB."""
        self.stats.installs += 1
        self.buffer.insert((sid, giova_page), (hpa, page_shift))

    def note_prefetch_issued(self, count: int = 1) -> None:
        self.stats.prefetch_requests += count

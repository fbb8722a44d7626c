"""Pending Translation Buffer (PTB).

The PTB sits on the device and tracks in-flight gIOVA -> hPA translations,
allowing out-of-order completion so a long two-dimensional walk does not
head-of-line-block other requests (Section III).  A packet that arrives when
no PTB entry is free is dropped and retried at the next arrival slot.

Each *translation request* occupies one entry from issue to completion —
the paper sizes the buffer by outstanding requests (112 for full walks at
200 Gb/s), and the Base design's single entry serialises every request.

The timing model here is analytic rather than event-queued: entries are a
min-heap of completion times, so occupancy at any time ``t`` is the number
of completion times still greater than ``t``.  This is exact for the
paper's model because a request's latency is fully determined at issue.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List


@dataclass
class PtbStats:
    """Occupancy and admission accounting."""

    issued: int = 0
    rejected_packets: int = 0
    max_occupancy: int = 0
    #: Sum of occupancy sampled at each issue (for mean occupancy).
    occupancy_accumulator: int = 0
    #: Total time requests spent waiting for a free entry before issue —
    #: the head-of-line blocking the paper's single-entry Base design
    #: suffers, surfaced directly instead of only via stretched elapsed
    #: time.
    total_wait_ns: float = 0.0

    @property
    def mean_occupancy(self) -> float:
        return self.occupancy_accumulator / self.issued if self.issued else 0.0

    @property
    def mean_wait_ns(self) -> float:
        return self.total_wait_ns / self.issued if self.issued else 0.0


class PendingTranslationBuffer:
    """Fixed-capacity buffer of in-flight translation completion times."""

    #: Instance attributes a checkpoint pickles (repro.sim.checkpoint).
    _state_fields = ("num_entries", "_leaked", "_completions", "stats")

    def __init__(self, num_entries: int):
        if num_entries < 1:
            raise ValueError("PTB needs at least one entry")
        self.num_entries = num_entries
        #: Entries currently leaked (unusable) by fault injection.
        self._leaked = 0
        self._completions: List[float] = []
        self.stats = PtbStats()

    @property
    def effective_entries(self) -> int:
        """Usable capacity: nominal entries minus leaked ones (>= 1)."""
        return max(1, self.num_entries - self._leaked)

    def set_leak(self, leaked: int) -> None:
        """Mark ``leaked`` entries as unusable (fault injection).

        Clamped so at least one entry always remains usable — forward
        progress is preserved even under a pathological leak plan.
        """
        self._leaked = min(max(0, leaked), self.num_entries - 1)

    # ------------------------------------------------------------------
    def _drain(self, now: float) -> None:
        """Release entries whose translations completed by ``now``."""
        completions = self._completions
        while completions and completions[0] <= now:
            heapq.heappop(completions)

    def occupancy(self, now: float) -> int:
        """Entries still in flight at time ``now``."""
        self._drain(now)
        return len(self._completions)

    def can_accept(self, now: float) -> bool:
        """Whether at least one entry is free at ``now`` (packet admission)."""
        return self.occupancy(now) < self.effective_entries

    def earliest_free_time(self, now: float) -> float:
        """Earliest time a request issued at/after ``now`` can claim an entry.

        ``now`` itself when an entry is already free, otherwise the soonest
        completion time in the buffer.
        """
        self._drain(now)
        if len(self._completions) < self.effective_entries:
            return now
        return self._completions[0]

    def drain_time_to(self, target_occupancy: int) -> float:
        """Earliest time at which occupancy is <= ``target_occupancy``.

        Used by the service layer's pause-mode backpressure: with the
        buffer above its high watermark, the link is stalled until enough
        in-flight translations complete to fall back to the low watermark.
        Returns 0.0 when occupancy is already at or below the target.
        """
        if target_occupancy < 0:
            target_occupancy = 0
        excess = len(self._completions) - target_occupancy
        if excess <= 0:
            return 0.0
        # The occupancy drops to the target when the ``excess``-th smallest
        # completion time passes.
        return heapq.nsmallest(excess, self._completions)[-1]

    def issue(self, now: float, latency_ns: float) -> float:
        """Claim an entry for a request issued at ``now``.

        The request may have to wait for an entry (requests of an accepted
        packet queue behind the buffer, as in the paper's Base design where
        a packet's three translations trickle through the single entry).
        Returns the completion time.
        """
        if latency_ns < 0:
            raise ValueError("latency cannot be negative")
        start = self.earliest_free_time(now)
        self.stats.total_wait_ns += start - now
        if len(self._completions) >= self.effective_entries:
            # earliest_free_time returned a completion in the future: that
            # entry is the one we will reuse.
            heapq.heappop(self._completions)
        completion = start + latency_ns
        heapq.heappush(self._completions, completion)
        self.stats.issued += 1
        occupancy = len(self._completions)
        self.stats.occupancy_accumulator += occupancy
        if occupancy > self.stats.max_occupancy:
            self.stats.max_occupancy = occupancy
        return completion

    def reject_packet(self) -> None:
        """Record a packet drop caused by a full buffer."""
        self.stats.rejected_packets += 1

    def drain_all(self) -> float:
        """Return the completion time of the last in-flight request (or 0)."""
        return max(self._completions) if self._completions else 0.0

    def flush(self) -> int:
        """Discard all in-flight entries (device reset), keeping stats.

        Returns how many entries were discarded.
        """
        discarded = len(self._completions)
        self._completions.clear()
        return discarded

    def reset(self) -> None:
        self._completions.clear()
        self._leaked = 0
        self.stats = PtbStats()

"""Shared-resource contention helpers for the analytic timing model.

The performance model is analytic (latencies are computed at issue), so a
resource with limited concurrency — e.g. a fixed number of IOMMU page-table
walkers — is modelled as a min-heap of per-unit free times: a job acquires
the earliest-free unit, waits if needed, and occupies it for its service
time.  This is exact for FIFO service of a known-latency job stream.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple


class ResourcePool:
    """``capacity`` identical units serving jobs in arrival order."""

    #: Instance attributes a checkpoint pickles (repro.sim.checkpoint).
    _state_fields = ("capacity", "_free_at", "jobs_served", "total_queue_delay_ns")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._free_at: List[float] = [0.0] * capacity
        heapq.heapify(self._free_at)
        self.jobs_served = 0
        self.total_queue_delay_ns = 0.0

    def acquire(self, now: float, service_ns: float) -> Tuple[float, float]:
        """Serve one job arriving at ``now`` for ``service_ns``.

        Returns ``(start, completion)``; ``start - now`` is queueing delay.
        """
        if service_ns < 0:
            raise ValueError("service time cannot be negative")
        earliest = heapq.heappop(self._free_at)
        start = now if earliest <= now else earliest
        completion = start + service_ns
        heapq.heappush(self._free_at, completion)
        self.jobs_served += 1
        self.total_queue_delay_ns += start - now
        return start, completion

    @property
    def mean_queue_delay_ns(self) -> float:
        return (
            self.total_queue_delay_ns / self.jobs_served if self.jobs_served else 0.0
        )


class UnboundedPool:
    """Infinite-concurrency stand-in with the same interface."""

    _state_fields = ("jobs_served", "total_queue_delay_ns")

    def __init__(self):
        self.jobs_served = 0
        self.total_queue_delay_ns = 0.0

    def acquire(self, now: float, service_ns: float) -> Tuple[float, float]:
        if service_ns < 0:
            raise ValueError("service time cannot be negative")
        self.jobs_served += 1
        return now, now + service_ns

    @property
    def mean_queue_delay_ns(self) -> float:
        return 0.0

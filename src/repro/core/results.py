"""Result records produced by the performance model.

A :class:`SimulationResult` captures everything the paper's figures report:
achieved bandwidth / link utilisation, packet admission statistics, and the
hit rates of every structure in the translation path.  Results are plain
dataclasses so sweeps can tabulate them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cache.base import CacheStats
from repro.core.ptb import PtbStats
from repro.device.packet import PacketStats
from repro.mem.dram import DramStats
from repro.obs.metrics import latency_bucket, percentile_from_buckets


@dataclass
class RequestLatencyStats:
    """Aggregate translation-request latency accounting.

    Besides the exact count/total/min/max, every recorded latency lands in
    a log-spaced bucket (shared with :mod:`repro.obs.metrics`), so any
    percentile of the distribution can be recovered via
    :meth:`percentile` — the tail behaviour the paper's figures are
    actually about, at a few dozen integers of state.
    """

    count: int = 0
    total_ns: float = 0.0
    max_ns: float = 0.0
    min_ns: float = 0.0
    #: Log-bucket id -> observation count (see
    #: :func:`repro.obs.metrics.latency_bucket`).
    buckets: Dict[int, int] = field(default_factory=dict)

    def record(self, latency_ns: float) -> None:
        if self.count == 0 or latency_ns < self.min_ns:
            self.min_ns = latency_ns
        self.count += 1
        self.total_ns += latency_ns
        if latency_ns > self.max_ns:
            self.max_ns = latency_ns
        bucket = latency_bucket(latency_ns)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Histogram-backed ``p``-th percentile (``0 <= p <= 100``).

        Accurate to within half a log bucket (< ~6 % relative error);
        0.0 when nothing was recorded.
        """
        return percentile_from_buckets(self.buckets, self.count, p)


@dataclass
class DeviceResult:
    """Per-device breakdown of one multi-device fabric run.

    Each device of the fabric gets its own link-level packet accounting,
    translation-latency distribution, PTB stats, and device-local cache
    stats, plus its share of the *shared* chipset: how often its misses hit
    the shared IOTLB and how long they queued for the bounded walker pool
    — the cross-device contention the fabric experiments measure.
    """

    device_id: int
    packets: PacketStats
    latency: RequestLatencyStats
    ptb: PtbStats
    elapsed_ns: float
    achieved_bandwidth_gbps: float
    cache_stats: Dict[str, CacheStats] = field(default_factory=dict)
    #: Shared-IOTLB outcomes of this device's DevTLB misses.
    iotlb_hits: int = 0
    iotlb_misses: int = 0
    #: Time this device's walks queued behind other devices' walks.
    walker_queue_delay_ns: float = 0.0
    invalidation_messages: int = 0

    @property
    def iotlb_hit_rate(self) -> float:
        total = self.iotlb_hits + self.iotlb_misses
        return self.iotlb_hits / total if total else 0.0


@dataclass
class FabricStats:
    """Shared-chipset aggregates of one multi-device run."""

    num_devices: int
    sid_map: str
    #: Jobs served by the shared walker pool and their accumulated queue
    #: delay (cross-device walker contention).
    walker_jobs: int = 0
    walker_total_queue_delay_ns: float = 0.0

    @property
    def walker_mean_queue_delay_ns(self) -> float:
        return (
            self.walker_total_queue_delay_ns / self.walker_jobs
            if self.walker_jobs
            else 0.0
        )


@dataclass
class SimulationResult:
    """Output of one :class:`~repro.sim.simulator.HyperSimulator` run."""

    config_name: str
    benchmark: str
    num_tenants: int
    interleaving: str
    link_bandwidth_gbps: float
    elapsed_ns: float
    achieved_bandwidth_gbps: float
    packets: PacketStats
    latency: RequestLatencyStats
    ptb: PtbStats
    dram: DramStats
    cache_stats: Dict[str, CacheStats] = field(default_factory=dict)
    prefetch_buffer_hit_rate: float = 0.0
    prefetch_requests: int = 0
    prefetch_supplied: int = 0
    #: ATS invalidation messages processed (driver unmap events).
    invalidation_messages: int = 0
    #: Translation-latency percentiles (``p50_ns``/``p95_ns``/``p99_ns``),
    #: filled from :attr:`latency`'s histogram when the simulator builds
    #: the result.
    percentiles: Dict[str, float] = field(default_factory=dict)
    #: Per-device breakdowns; populated only for multi-device fabrics
    #: (``devices.count > 1``) — with one device the top-level fields *are*
    #: that device, and single-device serialisations stay byte-identical to
    #: the pre-fabric model.
    device_results: List[DeviceResult] = field(default_factory=list)
    #: Shared-chipset aggregates; ``None`` for single-device runs.
    fabric: Optional[FabricStats] = None

    @property
    def num_devices(self) -> int:
        """Devices in the fabric this result came from."""
        return len(self.device_results) if self.device_results else 1

    @property
    def prefetch_supplied_fraction(self) -> float:
        """Fraction of demand translations answered by a prefetched entry
        (the paper reports 45 % for websearch at 1024 tenants)."""
        return self.prefetch_supplied / self.latency.count if self.latency.count else 0.0

    @property
    def link_utilization(self) -> float:
        """Fraction of the nominal link bandwidth actually used (0..1)."""
        if self.link_bandwidth_gbps <= 0:
            return 0.0
        return min(1.0, self.achieved_bandwidth_gbps / self.link_bandwidth_gbps)

    def hit_rate(self, structure: str) -> float:
        """Hit rate of a named structure (``devtlb``, ``iotlb``, ...)."""
        return self.cache_stats[structure].hit_rate

    def miss_rate(self, structure: str) -> float:
        return self.cache_stats[structure].miss_rate

    def summary(self) -> str:
        """One-line human-readable summary (used by examples)."""
        line = (
            f"{self.config_name:10s} {self.benchmark:12s} "
            f"{self.num_tenants:5d} tenants {self.interleaving:6s} "
            f"{self.achieved_bandwidth_gbps:7.1f} Gb/s "
            f"({self.link_utilization * 100.0:5.1f}% of link), "
            f"drops {self.packets.dropped}, "
            f"devtlb hit {self.hit_rate('devtlb') * 100.0:5.1f}%, "
            f"lat p50/p95/p99 {self.latency.percentile(50):.0f}/"
            f"{self.latency.percentile(95):.0f}/"
            f"{self.latency.percentile(99):.0f} ns"
        )
        # Fault-injected drop causes (anything beyond the paper's
        # PTB-overflow drop-and-retry) get called out explicitly.
        injected = {
            cause: count
            for cause, count in self.packets.drop_causes.items()
            if cause != "ptb_overflow" and count
        }
        if injected:
            detail = ", ".join(
                f"{cause}={count}" for cause, count in sorted(injected.items())
            )
            line += f" [drops by cause: {detail}]"
        return line

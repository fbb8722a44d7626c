"""Main-memory latency model.

The paper's performance model (Table II) charges a flat 50 ns per DRAM
access.  We keep the model a class (rather than a bare constant) so the
benchmark harness can sweep it and so access counts are recorded for the
Figure 4 reproduction, which reports nested page-table *reads* rather than
bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class DramStats:
    """Counters for memory traffic generated by translation."""

    reads: int = 0
    page_table_reads: int = 0
    history_reads: int = 0

    def reset(self) -> None:
        self.reads = 0
        self.page_table_reads = 0
        self.history_reads = 0


@dataclass
class MainMemory:
    """Flat-latency DRAM with access accounting.

    Parameters
    ----------
    latency_ns:
        Cost of one access; 50 ns in Table II.
    """

    latency_ns: float = 50.0
    stats: DramStats = field(default_factory=DramStats)

    def read(self, kind: str = "data") -> float:
        """Account for one read and return its latency in nanoseconds.

        ``kind`` is one of ``"data"``, ``"pte"`` (a page-table entry read
        during a walk) or ``"history"`` (the IOVA history reader fetching a
        tenant's recent gIOVAs).
        """
        self.record_reads(1, kind)
        return self.latency_ns

    def record_reads(self, count: int, kind: str = "data") -> None:
        """Account for ``count`` reads whose latency the caller charges
        itself (the IOMMU adds one ``latency_ns`` per walk read)."""
        stats = self.stats
        stats.reads += count
        if kind == "pte":
            stats.page_table_reads += count
        elif kind == "history":
            stats.history_reads += count
        elif kind != "data":
            raise ValueError(f"unknown access kind {kind!r}")

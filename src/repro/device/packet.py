"""Device-level packet accounting.

Each packet accepted from the I/O link generates three gIOVA translation
requests (Section IV-C of the paper): the ring-buffer pointer, the data
buffer, and the interrupt-mailbox notification address.  The packets
themselves are :class:`~repro.trace.records.PacketRecord`\\ s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.trace.records import PacketRecord


@dataclass
class PacketStats:
    """Device-level packet accounting."""

    arrived: int = 0
    accepted: int = 0
    dropped: int = 0
    retried: int = 0
    bytes_processed: int = 0
    per_tenant_processed: dict = field(default_factory=dict)
    #: Per-cause drop breakdown; always sums to ``dropped``.  Besides the
    #: paper's ``ptb_overflow`` drop-and-retry, fault injection
    #: (:mod:`repro.faults`) adds ``translation_fault`` and ``device_reset``.
    drop_causes: dict = field(default_factory=dict)

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.arrived if self.arrived else 0.0

    def record_drop(self, cause: str) -> None:
        """Count one dropped packet under ``cause``."""
        self.dropped += 1
        self.drop_causes[cause] = self.drop_causes.get(cause, 0) + 1

    def record_processed(self, packet: PacketRecord) -> None:
        self.bytes_processed += packet.size_bytes
        self.per_tenant_processed[packet.sid] = (
            self.per_tenant_processed.get(packet.sid, 0) + 1
        )

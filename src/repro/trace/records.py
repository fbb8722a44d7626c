"""Trace records and (de)serialisation.

A *hyper-trace* — the output of the Trace Constructor — is a sequence of
per-packet records, each naming the tenant (SID) and the three gIOVAs its
translations target, together with the tenant metadata (page-table address
spaces) the performance model needs.  Traces can be streamed to and from
JSON-lines files so long constructions can be cached between benchmark runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Sequence, Tuple


@dataclass(frozen=True)
class PacketRecord:
    """One packet in a hyper-trace.

    ``invalidations`` lists gIOVA page numbers whose translations the
    tenant's driver unmapped *before* this packet (the paper's Section
    IV-D: each 2 MB data page is unmapped when the driver advances to the
    next one).  The performance model flushes those pages from every
    translation structure before processing the packet.
    """

    sid: int
    giovas: Tuple[int, int, int]
    size_bytes: int = 1542
    invalidations: Tuple[int, ...] = ()

    def to_json(self) -> str:
        payload = {"sid": self.sid, "giovas": list(self.giovas),
                   "size": self.size_bytes}
        if self.invalidations:
            payload["inv"] = list(self.invalidations)
        return json.dumps(payload)

    @classmethod
    def from_json(cls, line: str) -> "PacketRecord":
        raw = json.loads(line)
        giovas = raw["giovas"]
        if len(giovas) != 3:
            raise ValueError(f"packet record needs 3 gIOVAs, got {len(giovas)}")
        return cls(
            sid=raw["sid"],
            giovas=tuple(giovas),
            size_bytes=raw.get("size", 1542),
            invalidations=tuple(raw.get("inv", ())),
        )


@dataclass
class TraceStats:
    """Summary statistics of a hyper-trace (powers Table III)."""

    num_tenants: int
    total_packets: int
    total_translations: int
    min_translations_per_tenant: int
    max_translations_per_tenant: int

    def as_row(self) -> Tuple[int, int, int]:
        """(max/tenant, min/tenant, total) — the columns of Table III."""
        return (
            self.max_translations_per_tenant,
            self.min_translations_per_tenant,
            self.total_translations,
        )


def compute_trace_stats(packets: Sequence[PacketRecord]) -> TraceStats:
    """Compute :class:`TraceStats` over an in-memory packet list."""
    per_tenant: dict = {}
    for packet in packets:
        per_tenant[packet.sid] = per_tenant.get(packet.sid, 0) + 3
    if not per_tenant:
        return TraceStats(0, 0, 0, 0, 0)
    counts = list(per_tenant.values())
    return TraceStats(
        num_tenants=len(per_tenant),
        total_packets=len(packets),
        total_translations=sum(counts),
        min_translations_per_tenant=min(counts),
        max_translations_per_tenant=max(counts),
    )


def packets_digest(packets: Sequence[PacketRecord]) -> str:
    """Canonical SHA-256 of a packet list: every field of every packet, in order.

    The digest depends on the field values alone, not on which objects
    hold them; checkpoints use it to check that rebuilt inputs are the
    ones the run used.
    """
    digest = hashlib.sha256()
    for start in range(0, len(packets), 4096):
        digest.update(repr([
            (packet.sid, packet.giovas, packet.size_bytes, packet.invalidations)
            for packet in packets[start:start + 4096]
        ]).encode())
    return digest.hexdigest()


def write_trace(path: Path, packets: Iterable[PacketRecord]) -> int:
    """Write packets to ``path`` as JSON lines; returns the count written."""
    count = 0
    with Path(path).open("w", encoding="utf-8") as handle:
        for packet in packets:
            handle.write(packet.to_json())
            handle.write("\n")
            count += 1
    return count


def read_trace(path: Path) -> Iterator[PacketRecord]:
    """Stream packets back from a JSON-lines trace file."""
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield PacketRecord.from_json(line)


def load_trace(path: Path) -> List[PacketRecord]:
    """Read a whole trace file into memory."""
    return list(read_trace(path))

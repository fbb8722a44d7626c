"""Context cache: Source ID to context-entry resolution.

Step 1-2 of the paper's Figure 3: the device identifies the PCIe
Bus/Device/Function (BDF, here condensed into an integer Source ID) of a
request and looks up the Context Cache for the Context Entry, which carries
the Device ID (DID) and the root pointer of the second-level page table.

In a hyper-tenant system the context table itself lives in memory, so a
context-cache miss costs a memory access.  The cache is small and SIDs are
extremely reusable, so the paper does not sweep it; we model it for
completeness and account its (rare) miss traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple

from repro.cache.setassoc import SetAssociativeCache


@dataclass(frozen=True)
class SourceId:
    """A PCIe BDF triplet condensed to the integer used for tagging.

    The paper uses "SID" for the Bus/Device/Function of the requesting
    virtual function.  ``value`` is what flows through caches and the
    partitioning logic; bus/device/function are kept for display.
    """

    bus: int
    device: int
    function: int

    def __post_init__(self):
        if not 0 <= self.bus <= 0xFF:
            raise ValueError(f"bus {self.bus} out of range")
        if not 0 <= self.device <= 0x1F:
            raise ValueError(f"device {self.device} out of range")
        if not 0 <= self.function <= 0x7:
            raise ValueError(f"function {self.function} out of range")

    @property
    def value(self) -> int:
        """16-bit encoded BDF (bus[15:8] | device[7:3] | function[2:0])."""
        return (self.bus << 8) | (self.device << 3) | self.function

    @classmethod
    def from_index(cls, index: int) -> "SourceId":
        """Build the SID for the ``index``-th virtual function of a device.

        VFs are dense: function bits first, then device, then bus — the
        layout SR-IOV uses when a device exposes many VFs.
        """
        if index < 0 or index > 0xFFFF:
            raise ValueError(f"VF index {index} out of range")
        return cls(bus=(index >> 8) & 0xFF, device=(index >> 3) & 0x1F,
                   function=index & 0x7)


@dataclass(frozen=True)
class ContextEntry:
    """What the context table stores per SID."""

    did: int
    root_table_hpa: int


class ContextResolution(NamedTuple):
    """Result of a context-cache access."""

    entry: ContextEntry
    hit: bool


class ContextCache:
    """Cache of SID -> :class:`ContextEntry` lookups.

    ``register`` installs the backing-table truth (what the hypervisor wrote
    to memory); ``resolve`` performs a cached lookup and reports whether it
    would have cost a memory access.
    """

    #: Instance attributes a checkpoint pickles (repro.sim.checkpoint).
    _state_fields = ("_table", "_cache")

    def __init__(self, num_entries: int = 64, ways: int = 4, policy: str = "lru"):
        self._table: Dict[int, ContextEntry] = {}
        # SIDs are dense small integers, so plain modulo spreads them
        # evenly: one-set partitions keyed ``(sid, 0)`` put SID ``sid`` in
        # set ``sid % num_sets``.
        self._cache = SetAssociativeCache(
            num_entries, ways, num_entries // ways, policy, "context-cache"
        )

    def register(self, sid: int, entry: ContextEntry) -> None:
        """Install the context entry for ``sid`` in the in-memory table."""
        self._table[sid] = entry

    def resolve(self, sid: int) -> ContextResolution:
        """Look up ``sid``; a miss reads the context table from memory."""
        key = (sid, 0)
        cached = self._cache.lookup(key)
        if cached is not None:
            return ContextResolution(cached, True)
        entry = self._table.get(sid)
        if entry is None:
            raise KeyError(f"SID {sid:#x} has no registered context entry")
        self._cache.insert(key, entry)
        return ContextResolution(entry, False)

    @property
    def stats(self):
        return self._cache.stats

    def __len__(self) -> int:
        return len(self._cache)

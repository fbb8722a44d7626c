"""The chipset-side translation subsystem (IOMMU).

Models steps 6-8 of the paper's Figure 3: a request that missed the DevTLB
arrives over PCIe with an untranslated gIOVA.  The IOMMU checks its IOTLB;
on a miss it performs the two-dimensional page-table walk, consulting two
walk-acceleration structures:

* the **nested TLB** (the L3TLB of Table IV) caches guest-physical to
  host-physical page translations, so the entire 4-access host walk of a
  guest page-table node (or of the final data page) is skipped on a hit —
  this is the paper's "L[1-4]TLBs ... store translations from guest physical
  to host physical addresses";
* the **PTE cache** (the L2TLB of Table IV) caches individual page-table
  entries by physical address.  Because the five host walks of one
  two-dimensional walk revisit the same upper-level host entries, and a
  tenant's guest upper-level entries repeat across packets, this cache is
  what turns the cold 24-access walk into the few-access warm walk real
  page-walk caches deliver.

The output of :meth:`Iommu.translate` is a :class:`TranslationOutcome`
carrying both the result and the latency spent *inside* the chipset; PCIe
traversal is charged by the device/simulator layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from repro.cache.base import TranslationCache
from repro.cache.partitioned import PartitionedCache
from repro.cache.policies import HIT
from repro.cache.setassoc import SetAssociativeCache
from repro.iommu.context import ContextCache
from repro.mem.address import page_number
from repro.mem.dram import MainMemory
from repro.mem.walker import TwoDimensionalWalk, TwoDimensionalWalker


class TranslationOutcome(NamedTuple):
    """Result of one IOMMU translation.

    Attributes
    ----------
    hpa:
        Host-physical page base of the translated gIOVA.
    page_shift:
        Size of the mapping (12 for 4 KB, 21 for 2 MB).
    latency_ns:
        Time spent in the IOMMU (IOTLB lookup, walk, DRAM accesses).
    iotlb_hit:
        Whether the chipset IOTLB supplied the translation directly.
    memory_accesses:
        DRAM reads performed by the walk (0 on an IOTLB hit).
    nested_hits / nested_misses:
        Nested-TLB outcomes for the walk's host-walk phases.
    """

    hpa: int
    page_shift: int
    latency_ns: float
    iotlb_hit: bool
    memory_accesses: int
    nested_hits: int
    nested_misses: int


@dataclass
class IommuTimings:
    """Latency parameters for the chipset (Table II)."""

    iotlb_hit_ns: float = 2.0
    cache_hit_ns: float = 2.0


class Iommu:
    """IOMMU with an IOTLB, a nested TLB, a PTE cache, and a 2-D walker.

    Parameters
    ----------
    iotlb:
        Chipset cache keyed by ``(sid, giova_page)`` holding final
        translations.
    nested_tlb:
        Nested-translation cache keyed by ``(sid, gpa_page)``.
    pte_cache:
        Page-table-entry cache keyed by ``(sid, entry_hpa)``.  The two walk
        caches are set-associative: :meth:`charge_walk` works on their
        sets directly.
    walker_for_sid:
        Callable returning the :class:`TwoDimensionalWalker` of a tenant.
    memory:
        DRAM model charged for every page-table entry read.
    """

    #: Instance attributes a checkpoint pickles (repro.sim.checkpoint).
    _state_fields = (
        "iotlb", "nested_tlb", "pte_cache", "_walker_for_sid", "memory",
        "context_cache", "timings", "walks_performed", "_invalidation_listeners",
    )

    def __init__(
        self,
        iotlb: TranslationCache,
        nested_tlb: SetAssociativeCache,
        pte_cache: SetAssociativeCache,
        walker_for_sid: Callable[[int], TwoDimensionalWalker],
        memory: MainMemory,
        context_cache: Optional[ContextCache] = None,
        timings: Optional[IommuTimings] = None,
    ):
        self.iotlb = iotlb
        self.nested_tlb = nested_tlb
        self.pte_cache = pte_cache
        self._walker_for_sid = walker_for_sid
        self.memory = memory
        self.context_cache = context_cache
        self.timings = timings or IommuTimings()
        self.walks_performed = 0
        #: Callables invoked with the SID on every tenant-wide flush, so
        #: device-side state that caches chipset answers (in-flight
        #: prefetch installs in particular) can drop it too instead of
        #: re-installing a stale translation after the unmap.
        self._invalidation_listeners = []

    # ------------------------------------------------------------------
    def translate(self, sid: int, giova: int) -> TranslationOutcome:
        """Translate ``giova`` for tenant ``sid`` through the full hierarchy."""
        latency = 0.0
        if self.context_cache is not None:
            resolution = self.context_cache.resolve(sid)
            if not resolution.hit:
                latency += self.memory.read("pte")

        iotlb_key = (sid, page_number(giova))
        latency += self.timings.iotlb_hit_ns
        cached = self.iotlb.lookup(iotlb_key)
        if cached is not None:
            hpa, page_shift = cached
            # Built positionally: by keyword costs about twice as much.
            return TranslationOutcome(hpa, page_shift, latency, True, 0, 0, 0)

        walk = self._walker_for_sid(sid).walk(giova)
        walk_latency, accesses, nested_hits, nested_misses = self.charge_walk(
            sid, walk
        )
        latency += walk_latency
        self.walks_performed += 1
        self.iotlb.insert(iotlb_key, (walk.hpa, walk.page_shift))
        return TranslationOutcome(
            walk.hpa, walk.page_shift, latency, False,
            accesses, nested_hits, nested_misses,
        )

    # ------------------------------------------------------------------
    def charge_walk(self, sid: int, walk: TwoDimensionalWalk):
        """Charge a 2-D walk against the walk caches' contents.

        Returns ``(latency, accesses, nested_hits, nested_misses)``.  Each
        phase first looks its guest-physical page up in the nested TLB; a
        miss fills the nested TLB and host-walks the page through the PTE
        cache.  The phase's guest entry, if any, is then read through the
        PTE cache.  Every access adds one latency term, in walk order:
        ``cache_hit_ns`` on a hit, one DRAM read on a PTE-cache miss.  Every
        miss fills its cache, and each eviction reaches the cache's
        ``eviction_listener`` in walk order.

        One pass over the phases makes one ``access`` call per access,
        straight on the set.  Filling the nested TLB before the host walk
        changes no result (the two caches share no set), and its eviction
        is reported after the host walk's.  A cache whose partitions are
        one set each (every HyperTRIO walk cache) gives the walk's SID one
        set, fetched once; any other cache picks the set per access through
        its indexer.  The walk's hit, miss, fill and eviction counts and its
        DRAM reads are added to the caches' and the memory's statistics
        once, at the end.
        """
        nested = self.nested_tlb
        pte = self.pte_cache
        nested_sid_set = nested.sid_set(sid)
        pte_sid_set = pte.sid_set(sid)
        nested_listener = nested.eviction_listener
        pte_listener = pte.eviction_listener
        hit_ns = self.timings.cache_hit_ns
        read_ns = self.memory.latency_ns
        latency = 0.0
        accesses = 0
        pte_hits = 0
        pte_evictions = 0
        nested_hits = 0
        nested_misses = 0
        nested_evictions = 0
        for phase in walk.phases:
            nested_key = (sid, phase.gpa_page)
            nested_set = (
                nested_sid_set if nested_sid_set is not None
                else nested.set_for(nested_key)
            )
            nested_victim = nested_set.access(nested_key, True)
            if nested_victim is HIT:
                nested_hits += 1
                latency += hit_ns
            else:
                nested_misses += 1
                # Host walk of this guest-physical page: each host PTE read
                # first tries the PTE cache.
                for address in phase.host_steps:
                    pte_key = (sid, address)
                    pte_set = (
                        pte_sid_set if pte_sid_set is not None
                        else pte.set_for(pte_key)
                    )
                    victim = pte_set.access(pte_key, True)
                    if victim is HIT:
                        pte_hits += 1
                        latency += hit_ns
                    else:
                        latency += read_ns
                        accesses += 1
                        if victim is not None:
                            pte_evictions += 1
                            if pte_listener is not None:
                                pte_listener(pte_key, victim)
                if nested_victim is not None:
                    nested_evictions += 1
                    if nested_listener is not None:
                        nested_listener(nested_key, nested_victim)
            guest_entry_hpa = phase.guest_entry_hpa
            if guest_entry_hpa is not None:
                # Reading the guest page-table entry itself (also cacheable:
                # a tenant's upper guest entries repeat across packets).
                guest_key = (sid, guest_entry_hpa)
                pte_set = (
                    pte_sid_set if pte_sid_set is not None
                    else pte.set_for(guest_key)
                )
                victim = pte_set.access(guest_key, True)
                if victim is HIT:
                    pte_hits += 1
                    latency += hit_ns
                else:
                    latency += read_ns
                    accesses += 1
                    if victim is not None:
                        pte_evictions += 1
                        if pte_listener is not None:
                            pte_listener(guest_key, victim)
        stats = nested.stats
        stats.hits += nested_hits
        stats.misses += nested_misses
        stats.fills += nested_misses
        stats.evictions += nested_evictions
        stats = pte.stats
        stats.hits += pte_hits
        stats.misses += accesses
        stats.fills += accesses
        stats.evictions += pte_evictions
        self.memory.record_reads(accesses, "pte")
        return latency, accesses, nested_hits, nested_misses

    # ------------------------------------------------------------------
    def add_invalidation_listener(self, listener: Callable[[int], None]) -> None:
        """Register ``listener(sid)`` to run on every tenant-wide flush."""
        self._invalidation_listeners.append(listener)

    def invalidate_tenant(self, sid: int) -> None:
        """Flush all cached state for ``sid`` (unmap/teardown path)."""
        for cache in (self.iotlb, self.nested_tlb, self.pte_cache):
            stale = [key for key in _iter_keys(cache) if key[0] == sid]
            for key in stale:
                cache.invalidate(key)
        for listener in self._invalidation_listeners:
            listener(sid)


def _iter_keys(cache: TranslationCache):
    """Best-effort key iteration for the cache types used here."""
    if isinstance(cache, (SetAssociativeCache, PartitionedCache)):
        return list(cache.keys())
    raise TypeError(f"cannot iterate keys of {type(cache).__name__}")

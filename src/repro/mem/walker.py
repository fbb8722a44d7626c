"""Two-dimensional (nested) page-table walker.

Implements the walk in the paper's Figure 2: translating one gIOVA through a
4-level guest table requires reading four guest page-table entries, and the
guest-physical address of *each* guest node must first be translated through
the host table (a 4-access host walk), plus a final host walk for the data
page itself.  That yields the 24 memory accesses for 4 KB mappings quoted in
Table II, and 19 accesses when the guest mapping is a 2 MB huge page (the
guest walk terminates one level earlier).

The walker is purely functional: it returns the complete structure of the
walk (which accesses would be performed, and which of them can be skipped by
a nested-TLB hit).  The IOMMU timing model decides which accesses actually
reach DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.mem.address import PAGE_SHIFT_4K, page_base
from repro.mem.pagetable import AddressSpace, TranslationFault, WalkStep


@dataclass
class WalkerStats:
    """Walk-structure memoisation accounting (observability).

    ``memo_hits`` are walks answered from the per-page memo;
    ``walks_computed`` enumerated the page tables from scratch.  A low
    hit rate on a hot walker means the tenant's working set outruns the
    memo — exactly the case where walk latency dominates the run.
    """

    memo_hits: int = 0
    walks_computed: int = 0
    invalidations: int = 0

    @property
    def memo_hit_rate(self) -> float:
        total = self.memo_hits + self.walks_computed
        return self.memo_hits / total if total else 0.0


@dataclass(frozen=True)
class NestedWalkPhase:
    """One guest level of a two-dimensional walk.

    Attributes
    ----------
    guest_level:
        The guest page-table level whose entry this phase reads (4..1), or
        0 for the final host walk of the data page.
    gpa_page:
        Guest-physical page that the host walk of this phase translates
        (page base of the guest node, or of the data page for the final
        phase).  A hit in a nested TLB for this page skips ``host_steps``.
    host_steps:
        The host page-table entries read to translate ``gpa_page``.
    guest_entry_hpa:
        Host-physical address of the guest page-table entry read after the
        host walk, or ``None`` for the final phase (the data access itself
        is not part of translation).
    """

    guest_level: int
    gpa_page: int
    host_steps: Tuple[WalkStep, ...]
    guest_entry_hpa: Optional[int]

    @property
    def access_count(self) -> int:
        """Memory accesses in this phase when nothing is cached."""
        extra = 1 if self.guest_entry_hpa is not None else 0
        return len(self.host_steps) + extra


@dataclass(frozen=True)
class TwoDimensionalWalk:
    """Complete result of translating one gIOVA.

    ``phases`` holds one :class:`NestedWalkPhase` per guest level plus the
    final host walk; ``hpa`` is the resulting host-physical address of the
    page base and ``page_shift`` its size.
    """

    giova: int
    hpa: int
    page_shift: int
    phases: Tuple[NestedWalkPhase, ...]

    @property
    def total_memory_accesses(self) -> int:
        """Accesses with cold caches (24 for 4 KB pages, 19 for 2 MB)."""
        return sum(phase.access_count for phase in self.phases)


class TwoDimensionalWalker:
    """Walks a tenant :class:`~repro.mem.pagetable.AddressSpace`.

    Walk structures are memoised per 4 KB gIOVA page: the access sequence
    of a walk is a pure function of the (static during a run) page tables,
    and the performance model replays the same pages millions of times.
    Call :meth:`invalidate` after changing mappings.
    """

    def __init__(self, space: AddressSpace):
        self._space = space
        self._memo = {}
        self.stats = WalkerStats()

    def walk(self, giova: int) -> TwoDimensionalWalk:
        """Translate ``giova`` and enumerate every access of the 2-D walk.

        Raises :class:`~repro.mem.pagetable.TranslationFault` when either
        dimension has no mapping.
        """
        page = giova >> 12
        cached = self._memo.get(page)
        if cached is None:
            cached = self._walk_uncached(page << 12)
            self._memo[page] = cached
            self.stats.walks_computed += 1
        else:
            self.stats.memo_hits += 1
        return cached

    def invalidate(self, giova: int = None) -> None:
        """Drop memoised walks (all of them, or one page's)."""
        self.stats.invalidations += 1
        if giova is None:
            self._memo.clear()
        else:
            self._memo.pop(giova >> 12, None)

    def _walk_uncached(self, giova: int) -> TwoDimensionalWalk:
        phases = []
        node = self._space.guest_table.root
        # Walk the guest table level by level; each node read needs a host
        # walk of the node's guest-physical address first.
        guest_frame = None
        guest_page_shift = PAGE_SHIFT_4K
        level = node.level
        from repro.mem.address import level_index  # local import to keep hot path tight

        while True:
            index = level_index(giova, level)
            entry_gpa = node.entry_address(index)
            gpa_page = page_base(entry_gpa)
            host_frame, _, host_steps = self._host_walk(entry_gpa, giova, level)
            entry_hpa = host_frame + (entry_gpa - gpa_page)
            phases.append(
                NestedWalkPhase(
                    guest_level=level,
                    gpa_page=gpa_page,
                    host_steps=host_steps,
                    guest_entry_hpa=entry_hpa,
                )
            )
            guest_entry = node.entries.get(index)
            if guest_entry is None:
                raise TranslationFault(giova, level, self._space.guest_table.name)
            if guest_entry.is_leaf:
                guest_frame = guest_entry.frame
                guest_page_shift = guest_entry.page_shift
                break
            node = guest_entry.child
            level -= 1

        # Final host walk: translate the data page's guest-physical address.
        data_gpa = guest_frame + (giova & ((1 << guest_page_shift) - 1))
        data_gpa_page = page_base(data_gpa)
        host_frame, _, host_steps = self._host_walk(data_gpa, giova, 0)
        phases.append(
            NestedWalkPhase(
                guest_level=0,
                gpa_page=data_gpa_page,
                host_steps=host_steps,
                guest_entry_hpa=None,
            )
        )
        hpa = host_frame + (data_gpa - data_gpa_page)
        return TwoDimensionalWalk(
            giova=giova,
            hpa=page_base(hpa),
            page_shift=guest_page_shift,
            phases=tuple(phases),
        )

    def _host_walk(self, gpa: int, giova: int, guest_level: int):
        """Host-walk ``gpa``; lazily back page-table node frames."""
        try:
            return self._space.host_table.walk(gpa)
        except TranslationFault:
            # Guest page-table node frames are allocated from guest-physical
            # space and backed by the host on first touch, exactly as a
            # hypervisor populates EPT mappings on demand.
            self._space.ensure_backed(gpa)
            return self._space.host_table.walk(gpa)

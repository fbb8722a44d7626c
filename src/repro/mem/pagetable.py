"""Radix page tables for the first-level (guest) and second-level (host) walks.

The paper's translation of a gIOVA is a *two-dimensional* page-table walk
(Figure 2): the guest page table maps gIOVA to guest-physical addresses, but
every guest page-table node is itself addressed by a guest-physical address
that must be translated through the host page table before it can be read.

This module builds real 4-level radix trees.  Nodes are allocated physical
frames from a :class:`~repro.mem.allocator.FrameAllocator`, so every
page-table entry the walker reads has a concrete physical address — the unit
the page-walk caches operate on.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from repro.mem.address import (
    ENTRIES_PER_NODE,
    PAGE_SHIFT_2M,
    PAGE_SHIFT_4K,
    PAGE_TABLE_LEVELS,
    level_index,
    page_base,
)
from repro.mem.allocator import FrameAllocator


class TranslationFault(Exception):
    """Raised when a walk reaches an address with no mapping."""

    def __init__(self, address: int, level: int, space: str):
        super().__init__(
            f"no {space} mapping for address {address:#x} at level {level}"
        )
        self.address = address
        self.level = level
        self.space = space


@dataclass
class PageTableNode:
    """One 4 KB radix node.

    ``physical_address`` is the frame holding the node; ``entries`` maps a
    9-bit index either to a child node or to a leaf mapping.
    """

    level: int
    physical_address: int
    entries: Dict[int, "PageTableEntry"] = field(default_factory=dict)

    def entry_address(self, index: int) -> int:
        """Physical address of the 8-byte entry at ``index`` in this node."""
        if not 0 <= index < ENTRIES_PER_NODE:
            raise ValueError(f"index {index} out of range")
        return self.physical_address + index * 8


@dataclass
class PageTableEntry:
    """A single entry: either a pointer to a child node or a leaf frame."""

    child: Optional[PageTableNode] = None
    frame: Optional[int] = None
    page_shift: int = PAGE_SHIFT_4K

    @property
    def is_leaf(self) -> bool:
        return self.frame is not None


@dataclass(frozen=True)
class WalkStep:
    """One memory access performed during a one-dimensional walk.

    Attributes
    ----------
    level:
        Table level of the node being read (4 = root ... 1 = last).
    entry_address:
        Physical address of the page-table entry read by this step.
    """

    level: int
    entry_address: int


class PageTable:
    """A 4-level radix page table mapping one address space onto frames.

    Used both as the guest I/O page table (gIOVA -> gPA) and as the host
    (nested / second-level) page table (gPA -> hPA).
    """

    def __init__(self, allocator: FrameAllocator, name: str = "pt"):
        self._allocator = allocator
        self.name = name
        self.root = PageTableNode(
            level=PAGE_TABLE_LEVELS, physical_address=allocator.allocate_node()
        )
        self._mappings: Dict[int, Tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def map_page(self, virtual: int, frame: int, page_shift: int = PAGE_SHIFT_4K) -> None:
        """Map the page containing ``virtual`` onto ``frame``.

        ``page_shift`` selects the leaf level: 12 maps a 4 KB page at level 1,
        21 maps a 2 MB huge page at level 2 (the layout the paper observed
        for tenant data buffers).
        """
        if page_shift == PAGE_SHIFT_4K:
            leaf_level = 1
        elif page_shift == PAGE_SHIFT_2M:
            leaf_level = 2
        else:
            raise ValueError(f"unsupported page shift {page_shift}")
        if frame % (1 << page_shift) != 0:
            raise ValueError(
                f"frame {frame:#x} not aligned for page shift {page_shift}"
            )
        virtual_base = page_base(virtual, page_shift)
        node = self.root
        for level in range(PAGE_TABLE_LEVELS, leaf_level, -1):
            index = level_index(virtual_base, level)
            entry = node.entries.get(index)
            if entry is None:
                child = PageTableNode(
                    level=level - 1,
                    physical_address=self._allocator.allocate_node(),
                )
                entry = PageTableEntry(child=child)
                node.entries[index] = entry
            elif entry.is_leaf:
                raise ValueError(
                    f"{self.name}: {virtual_base:#x} overlaps an existing "
                    f"huge-page mapping at level {level}"
                )
            node = entry.child  # type: ignore[assignment]
        leaf_index = level_index(virtual_base, leaf_level)
        existing = node.entries.get(leaf_index)
        if existing is not None:
            raise ValueError(
                f"{self.name}: page {virtual_base:#x} is already mapped"
            )
        node.entries[leaf_index] = PageTableEntry(frame=frame, page_shift=page_shift)
        self._mappings[virtual_base] = (frame, page_shift)

    def unmap_page(self, virtual: int, page_shift: int = PAGE_SHIFT_4K) -> None:
        """Remove the mapping for the page containing ``virtual``.

        Intermediate nodes are retained (as real kernels usually do for I/O
        page tables); only the leaf entry is cleared.
        """
        leaf_level = 1 if page_shift == PAGE_SHIFT_4K else 2
        virtual_base = page_base(virtual, page_shift)
        node = self.root
        for level in range(PAGE_TABLE_LEVELS, leaf_level, -1):
            entry = node.entries.get(level_index(virtual_base, level))
            if entry is None or entry.child is None:
                raise TranslationFault(virtual, level, self.name)
            node = entry.child
        index = level_index(virtual_base, leaf_level)
        if index not in node.entries:
            raise TranslationFault(virtual, leaf_level, self.name)
        del node.entries[index]
        del self._mappings[virtual_base]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def translate(self, virtual: int) -> int:
        """Translate ``virtual`` to a physical address (no timing)."""
        frame, page_shift, _ = self._walk(virtual)
        offset = virtual & ((1 << page_shift) - 1)
        return frame + offset

    def walk(self, virtual: int) -> Tuple[int, int, Tuple[WalkStep, ...]]:
        """Translate ``virtual`` and return the memory accesses performed.

        Returns ``(frame, page_shift, steps)`` where ``steps`` lists one
        :class:`WalkStep` per page-table entry read, root first.
        """
        return self._walk(virtual)

    def _walk(self, virtual: int) -> Tuple[int, int, Tuple[WalkStep, ...]]:
        node = self.root
        steps = []
        for level in range(PAGE_TABLE_LEVELS, 0, -1):
            index = level_index(virtual, level)
            steps.append(WalkStep(level=level, entry_address=node.entry_address(index)))
            entry = node.entries.get(index)
            if entry is None:
                raise TranslationFault(virtual, level, self.name)
            if entry.is_leaf:
                return entry.frame, entry.page_shift, tuple(steps)  # type: ignore[return-value]
            node = entry.child  # type: ignore[assignment]
        raise TranslationFault(virtual, 0, self.name)

    def shifted_copy(
        self, allocator: FrameAllocator, name: str, offset: int = 0
    ) -> "PageTable":
        """Return an independent copy with every frame ``offset`` bytes higher.

        Node addresses and leaf frames move by ``offset``; virtual
        addresses, entry order and the tree's shape stay.  The copy shares
        no mutable object with this table and allocates new nodes from
        ``allocator``.  Frame ints are immutable, so each shifted frame is
        made once for both the leaf entry and ``_mappings``, and with
        ``offset == 0`` the copy reuses this table's ints.
        """
        shifted: Dict[int, int] = {}

        def copy_node(node: PageTableNode) -> PageTableNode:
            entries = {}
            for index, entry in node.entries.items():
                child = entry.child
                if child is not None:
                    entries[index] = PageTableEntry(child=copy_node(child))
                    continue
                frame = entry.frame
                if offset:
                    moved = frame + offset
                    shifted[frame] = moved
                    frame = moved
                entries[index] = PageTableEntry(frame=frame, page_shift=entry.page_shift)
            address = node.physical_address
            return PageTableNode(
                level=node.level,
                physical_address=address + offset if offset else address,
                entries=entries,
            )

        table = PageTable.__new__(PageTable)
        table._allocator = allocator
        table.name = name
        table.root = copy_node(self.root)
        if offset:
            table._mappings = {
                virtual: (shifted[frame], page_shift)
                for virtual, (frame, page_shift) in self._mappings.items()
            }
        else:
            table._mappings = dict(self._mappings)
        return table

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def mappings(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(virtual_page_base, frame, page_shift)`` for every mapping."""
        for virtual_base, (frame, page_shift) in sorted(self._mappings.items()):
            yield virtual_base, frame, page_shift

    @property
    def mapped_page_count(self) -> int:
        """Number of leaf mappings currently installed."""
        return len(self._mappings)

    def node_count(self) -> int:
        """Total number of radix nodes in the table (including the root)."""
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            for entry in node.entries.values():
                if entry.child is not None:
                    stack.append(entry.child)
        return count


class AddressSpace:
    """A tenant's pair of page tables plus direct gIOVA -> hPA translation.

    ``guest_table`` maps gIOVA to gPA (built by the tenant OS), and
    ``host_table`` maps gPA to hPA (built by the hypervisor).  The helper
    :meth:`map_io_page` installs both halves of a mapping at once, which is
    what the trace generator uses when synthesising a tenant.
    """

    def __init__(
        self,
        guest_allocator: FrameAllocator,
        host_allocator: FrameAllocator,
        name: str = "tenant",
    ):
        self.name = name
        self._guest_allocator = guest_allocator
        self.guest_table = PageTable(host_allocator_adapter(guest_allocator), f"{name}/guest")
        self.host_table = PageTable(host_allocator, f"{name}/host")
        self._backing_log = None

    def log_backings(self, log: list, key) -> None:
        """Append ``(key, gpa)`` to ``log`` for each host backing made from now on.

        The host allocator may be shared with other address spaces, so
        which frames a backing gets depends on the order of backings
        across all of them; one log shared by every space records it.
        """
        self._backing_log = (log, key)

    def shifted_copy(
        self, host_allocator: FrameAllocator, name: str, host_offset: int
    ) -> "AddressSpace":
        """Return an independent copy with every host frame ``host_offset`` bytes higher.

        Guest-physical addresses stay, so the guest table is copied as is
        and the copy's guest allocator starts at this space's cursor.  The
        copy's host table draws new frames from ``host_allocator``, and no
        backing log is attached.
        """
        guest_allocator = copy.copy(self._guest_allocator)
        space = AddressSpace.__new__(AddressSpace)
        space.name = name
        space._guest_allocator = guest_allocator
        space.guest_table = self.guest_table.shifted_copy(
            host_allocator_adapter(guest_allocator), f"{name}/guest"
        )
        space.host_table = self.host_table.shifted_copy(
            host_allocator, f"{name}/host", host_offset
        )
        space._backing_log = None
        return space

    def map_io_page(self, giova: int, page_shift: int = PAGE_SHIFT_4K) -> int:
        """Create a full two-level mapping for the page holding ``giova``.

        Allocates a guest frame and maps gIOVA -> gPA in the guest table.
        Host backing (gPA -> hPA, always 4 KB host pages in this model,
        matching the 24-access walk count in Table II) is installed lazily,
        on first touch, exactly as a hypervisor populates second-level
        mappings on demand: only the guest-physical pages a walk actually
        visits ever get host frames.  Returns the hPA backing the first
        4 KB of the page.
        """
        if page_shift == PAGE_SHIFT_4K:
            guest_frame = self._guest_allocator.allocate(1)
        else:
            guest_frame = self._guest_allocator.allocate_huge()
        self.guest_table.map_page(giova, guest_frame, page_shift)
        return self.ensure_backed(guest_frame)

    def remap_io_page(self, giova: int, page_shift: int = PAGE_SHIFT_4K) -> int:
        """Unmap and re-map the page holding ``giova`` onto fresh frames.

        Models a driver unmap/map cycle: the gIOVA stays the same but its
        guest frame (and therefore its host backing) changes, so every
        cached translation of the page is stale afterwards.  Returns the
        new hPA of the page base.
        """
        self.guest_table.unmap_page(giova, page_shift)
        return self.map_io_page(giova, page_shift)

    def ensure_backed(self, gpa: int) -> int:
        """Ensure ``gpa`` is mapped in the host table; return its hPA."""
        try:
            return self.host_table.translate(gpa)
        except TranslationFault:
            host_frame = self.host_table._allocator.allocate(1)
            self.host_table.map_page(gpa, host_frame)
            if self._backing_log is not None:
                log, key = self._backing_log
                log.append((key, gpa))
            return host_frame + (gpa & 0xFFF)

    def translate(self, giova: int) -> int:
        """Functionally translate gIOVA -> hPA through both tables.

        Backs the final guest-physical page on demand, mirroring the lazy
        host-mapping behaviour of :meth:`map_io_page`.
        """
        gpa = self.guest_table.translate(giova)
        return self.ensure_backed(gpa)


def host_allocator_adapter(guest_allocator: FrameAllocator) -> FrameAllocator:
    """Return the allocator used for guest page-table *node* frames.

    Guest page-table nodes live in guest-physical memory.  Using the guest
    allocator directly keeps node gPAs inside the tenant's own guest-physical
    space so they can be backed by the host table on demand.
    """
    return guest_allocator

"""Radix page tables for the first-level (guest) and second-level (host) walks.

The paper's translation of a gIOVA is a *two-dimensional* page-table walk
(Figure 2): the guest page table maps gIOVA to guest-physical addresses, but
every guest page-table node is itself addressed by a guest-physical address
that must be translated through the host page table before it can be read.

This module models real 4-level radix trees.  Nodes are allocated physical
frames from a :class:`~repro.mem.allocator.FrameAllocator`, so every
page-table entry the walker reads has a concrete physical address — the unit
the page-walk caches operate on.  A table stores the tree flat, as two dicts
of ints: the frame of each node, and the frame and size of each mapped page.
An entry is a leaf when its page is mapped at that level, a pointer when the
node below it exists, and empty otherwise.  So a table holds no object per
node or entry for the garbage collector to scan, and each leaf is stored
once.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.mem.address import (
    LEVEL_BITS,
    PAGE_SHIFT_2M,
    PAGE_SHIFT_4K,
    PAGE_TABLE_LEVELS,
    page_base,
)
from repro.mem.allocator import FrameAllocator

#: ``(level, shift)`` root first, where ``shift`` is the position of the
#: level's 9 index bits.  It is also the page shift of a leaf at that level
#: and the shift of the prefix that keys the node below it.
_LEVEL_SHIFTS = tuple(
    (level, PAGE_SHIFT_4K + LEVEL_BITS * (level - 1))
    for level in range(PAGE_TABLE_LEVELS, 0, -1)
)


def _node_key(virtual: int, level: int) -> int:
    """Key of the level-``level`` node on the path of ``virtual``.

    A node covers the addresses that share its prefix, the bits of
    ``virtual`` above ``12 + 9 * level``; the key is the prefix with the
    level in its low three bits.  The root's key is ``level`` 4, prefix 0.
    """
    return (virtual >> (PAGE_SHIFT_4K + LEVEL_BITS * level)) << 3 | level


_ROOT_KEY = _node_key(0, PAGE_TABLE_LEVELS)


class TranslationFault(Exception):
    """Raised when a walk reaches an address with no mapping."""

    def __init__(self, address: int, level: int, space: str):
        super().__init__(
            f"no {space} mapping for address {address:#x} at level {level}"
        )
        self.address = address
        self.level = level
        self.space = space


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
        #: Node key (:func:`_node_key`) -> frame of every radix node.
        self._nodes: Dict[int, int] = {_ROOT_KEY: allocator.allocate_node()}
        #: Virtual page base -> ``(frame, page_shift)`` of every leaf.
        self._mappings: Dict[int, Tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def map_page(self, virtual: int, frame: int, page_shift: int = PAGE_SHIFT_4K) -> None:
        """Map the page containing ``virtual`` onto ``frame``.

        ``page_shift`` selects the leaf level: 12 maps a 4 KB page at level 1,
        21 maps a 2 MB huge page at level 2 (the layout the paper observed
        for tenant data buffers).  Missing nodes on the path are allocated
        root first.
        """
        if page_shift not in (PAGE_SHIFT_4K, PAGE_SHIFT_2M):
            raise ValueError(f"unsupported page shift {page_shift}")
        if frame % (1 << page_shift) != 0:
            raise ValueError(
                f"frame {frame:#x} not aligned for page shift {page_shift}"
            )
        virtual_base = page_base(virtual, page_shift)
        nodes = self._nodes
        mappings = self._mappings
        for level, shift in _LEVEL_SHIFTS:
            child = _node_key(virtual_base, level - 1)
            if shift == page_shift:
                if virtual_base in mappings or child in nodes:
                    raise ValueError(
                        f"{self.name}: page {virtual_base:#x} is already mapped"
                    )
                break
            leaf = mappings.get(page_base(virtual_base, shift))
            if leaf is not None and leaf[1] == shift:
                raise ValueError(
                    f"{self.name}: {virtual_base:#x} overlaps an existing "
                    f"huge-page mapping at level {level}"
                )
            if child not in nodes:
                nodes[child] = self._allocator.allocate_node()
        mappings[virtual_base] = (frame, page_shift)

    def unmap_page(self, virtual: int, page_shift: int = PAGE_SHIFT_4K) -> None:
        """Remove the mapping for the page containing ``virtual``.

        Intermediate nodes are retained (as real kernels usually do for I/O
        page tables); only the leaf entry is cleared.  Unless the page is
        mapped with ``page_shift``, nothing changes and the fault names the
        first level on the path without a pointer, or the leaf level.
        """
        virtual_base = page_base(virtual, page_shift)
        leaf = self._mappings.get(virtual_base)
        if leaf is None or leaf[1] != page_shift:
            leaf_level = 1 if page_shift == PAGE_SHIFT_4K else 2
            level = PAGE_TABLE_LEVELS
            while level > leaf_level and _node_key(virtual_base, level - 1) in self._nodes:
                level -= 1
            raise TranslationFault(virtual, level, self.name)
        del self._mappings[virtual_base]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def translate(self, virtual: int) -> int:
        """Translate ``virtual`` to a physical address (no timing)."""
        frame, page_shift, _ = self.walk(virtual)
        return frame + (virtual & ((1 << page_shift) - 1))

    def walk(self, virtual: int) -> Tuple[int, int, Tuple[WalkStep, ...]]:
        """Translate ``virtual`` and return the memory accesses performed.

        Returns ``(frame, page_shift, steps)`` where ``steps`` lists one
        :class:`WalkStep` per page-table entry read, root first.
        """
        result = self.walk_entries(virtual)
        if result[0] is None:
            raise TranslationFault(virtual, result[2][-1].level, self.name)
        return result

    def walk_entries(
        self, virtual: int
    ) -> Tuple[Optional[int], Optional[int], Tuple[WalkStep, ...]]:
        """:meth:`walk` without the fault.

        When the walk reads an empty entry, ``frame`` and ``page_shift``
        are ``None`` and the last step is that entry.
        """
        nodes = self._nodes
        mappings = self._mappings
        node = nodes[_ROOT_KEY]
        steps = []
        for level, shift in _LEVEL_SHIFTS:
            prefix = virtual >> shift
            # 512 entries of 8 bytes per node.
            steps.append(WalkStep(level, node + (prefix & 511) * 8))
            leaf = mappings.get(prefix << shift)
            if leaf is not None and leaf[1] == shift:
                return leaf[0], shift, tuple(steps)
            node = nodes.get(prefix << 3 | (level - 1))  # _node_key(virtual, level - 1)
            if node is None:
                break
        return None, None, tuple(steps)

    def shifted_copy(
        self, allocator: FrameAllocator, name: str, offset: int = 0
    ) -> "PageTable":
        """Return an independent copy with every frame ``offset`` bytes higher.

        Node frames and leaf frames move by ``offset``; virtual addresses
        and insertion order stay.  The copy shares no mutable object with
        this table and allocates new nodes from ``allocator``; with
        ``offset == 0`` it shares this table's ints and leaf tuples.
        """
        table = PageTable.__new__(PageTable)
        table._allocator = allocator
        table.name = name
        if offset:
            table._nodes = {key: frame + offset for key, frame in self._nodes.items()}
            table._mappings = {
                virtual: (frame + offset, page_shift)
                for virtual, (frame, page_shift) in self._mappings.items()
            }
        else:
            table._nodes = dict(self._nodes)
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
        return len(self._nodes)


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

"""Physical frame allocation for the modelled host and guests.

Page tables built by :mod:`repro.mem.pagetable` need physical addresses for
their nodes and leaf frames.  The allocator hands out frame addresses from a
bump pointer.  Without huge (2 MB-aligned) allocations, the frames a run of
allocations gets depend only on where the pointer stood when it began: the
same allocations made from a cursor ``n`` frames further on get frames
exactly ``n`` frames higher.  Host backings are 4 KB frames, so tenants with
the same page layout, built one after another from the shared host
allocator, get the same host page tables moved by a fixed offset (see
:meth:`repro.mem.pagetable.AddressSpace.shifted_copy`).
"""

from __future__ import annotations

from repro.mem.address import PAGE_SHIFT_4K, PAGE_SIZE_4K


class FrameAllocator:
    """Bump allocator of physical page frames.

    Parameters
    ----------
    base:
        First physical address handed out.  Must be 4 KB aligned.
    """

    def __init__(self, base: int = 0x1_0000_0000):
        if base % PAGE_SIZE_4K != 0:
            raise ValueError(f"base {base:#x} is not 4 KiB aligned")
        self._base_frame = base >> PAGE_SHIFT_4K
        self._next = 0

    @property
    def frames_allocated(self) -> int:
        """Number of 4 KB frames handed out so far."""
        return self._next

    def allocate(self, count: int = 1) -> int:
        """Allocate ``count`` contiguous 4 KB frames; return the base address."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        index = self._next
        self._next += count
        return (self._base_frame + index) << PAGE_SHIFT_4K

    def allocate_node(self) -> int:
        """Allocate one frame to hold a page-table node."""
        return self.allocate(1)

    def allocate_huge(self) -> int:
        """Allocate a 2 MB-aligned run of frames backing one huge page."""
        frames_per_huge = 512
        # Align the bump pointer so the returned address is 2 MB aligned.
        remainder = self._next % frames_per_huge
        if remainder:
            self._next += frames_per_huge - remainder
        return self.allocate(frames_per_huge)

"""Memory substrate: addresses, frame allocation, page tables, 2-D walker.

These are the structures underneath the IOMMU: real radix page tables for
the guest (gIOVA -> gPA) and host (gPA -> hPA) dimensions, and a
two-dimensional walker that enumerates the exact memory accesses of a nested
walk (24 for 4 KB mappings, 19 for 2 MB mappings).
"""

from repro.mem.address import (
    PAGE_SHIFT_2M,
    PAGE_SHIFT_4K,
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
    PAGE_TABLE_LEVELS,
    level_indices,
    page_base,
    page_number,
    page_offset,
)
from repro.mem.allocator import FrameAllocator
from repro.mem.dram import DramStats, MainMemory
from repro.mem.pagetable import (
    AddressSpace,
    PageTable,
    TranslationFault,
    WalkStep,
)
from repro.mem.walker import NestedWalkPhase, TwoDimensionalWalk, TwoDimensionalWalker

__all__ = [
    "PAGE_SHIFT_2M",
    "PAGE_SHIFT_4K",
    "PAGE_SIZE_2M",
    "PAGE_SIZE_4K",
    "PAGE_TABLE_LEVELS",
    "level_indices",
    "page_base",
    "page_number",
    "page_offset",
    "FrameAllocator",
    "MainMemory",
    "DramStats",
    "AddressSpace",
    "PageTable",
    "TranslationFault",
    "WalkStep",
    "TwoDimensionalWalker",
    "TwoDimensionalWalk",
    "NestedWalkPhase",
]

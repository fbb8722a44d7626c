"""Unit tests for repro.mem.allocator."""

import pytest

from repro.mem.address import PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.mem.allocator import FrameAllocator


class TestBasicAllocation:
    def test_first_frame_is_base(self):
        allocator = FrameAllocator(base=0x1000_0000)
        assert allocator.allocate() == 0x1000_0000

    def test_sequential_frames_are_contiguous(self):
        allocator = FrameAllocator(base=0)
        first = allocator.allocate()
        second = allocator.allocate()
        assert second - first == PAGE_SIZE_4K

    def test_multi_frame_allocation_advances_pointer(self):
        allocator = FrameAllocator(base=0)
        allocator.allocate(count=4)
        assert allocator.allocate() == 4 * PAGE_SIZE_4K

    def test_frames_allocated_counter(self):
        allocator = FrameAllocator()
        allocator.allocate(3)
        allocator.allocate()
        assert allocator.frames_allocated == 4

    def test_unaligned_base_rejected(self):
        with pytest.raises(ValueError):
            FrameAllocator(base=0x123)

    def test_zero_count_rejected(self):
        allocator = FrameAllocator()
        with pytest.raises(ValueError):
            allocator.allocate(0)


class TestHugeAllocation:
    def test_huge_allocation_is_2m_aligned(self):
        allocator = FrameAllocator(base=0)
        allocator.allocate()  # misalign the bump pointer
        huge = allocator.allocate_huge()
        assert huge % PAGE_SIZE_2M == 0

    def test_huge_allocation_spans_512_frames(self):
        allocator = FrameAllocator(base=0)
        first = allocator.allocate_huge()
        second = allocator.allocate_huge()
        assert second - first == PAGE_SIZE_2M

    def test_allocations_never_overlap_after_huge(self):
        allocator = FrameAllocator(base=0)
        huge = allocator.allocate_huge()
        small = allocator.allocate()
        assert small >= huge + PAGE_SIZE_2M


"""Unit tests for the two-dimensional page-table walker."""

import pytest

from repro.mem.address import PAGE_SHIFT_2M, PAGE_SHIFT_4K
from repro.mem.pagetable import TranslationFault
from repro.mem.walker import TwoDimensionalWalker


@pytest.fixture
def walker(address_space):
    address_space.map_io_page(0x3480_0000)  # 4 KB ring page
    address_space.map_io_page(0xBBE0_0000, PAGE_SHIFT_2M)  # 2 MB data page
    return TwoDimensionalWalker(address_space)


class TestWalkCounts:
    def test_4k_walk_has_24_memory_accesses(self, walker):
        """The paper's Table II: 24 accesses for a two-dimensional 4-level
        walk over 4 KB pages."""
        walk = walker.walk(0x3480_0000)
        assert walk.total_memory_accesses == 24

    def test_2m_walk_has_19_memory_accesses(self, walker):
        """Guest walks of 2 MB mappings stop one level early."""
        walk = walker.walk(0xBBE0_0000)
        assert walk.total_memory_accesses == 19

    def test_4k_walk_has_five_phases(self, walker):
        walk = walker.walk(0x3480_0000)
        assert len(walk.phases) == 5
        assert [phase.guest_level for phase in walk.phases] == [4, 3, 2, 1, 0]

    def test_2m_walk_has_four_phases(self, walker):
        walk = walker.walk(0xBBE0_0000)
        assert [phase.guest_level for phase in walk.phases] == [4, 3, 2, 0]

    def test_every_phase_hosts_a_full_host_walk(self, walker):
        walk = walker.walk(0x3480_0000)
        for phase in walk.phases:
            assert len(phase.host_steps) == 4

    def test_final_phase_has_no_guest_entry(self, walker):
        walk = walker.walk(0x3480_0000)
        assert walk.phases[-1].guest_entry_hpa is None
        for phase in walk.phases[:-1]:
            assert phase.guest_entry_hpa is not None


class TestWalkResults:
    def test_walk_hpa_matches_functional_translation(self, walker, address_space):
        walk = walker.walk(0x3480_0000)
        assert walk.hpa == address_space.translate(0x3480_0000)

    def test_page_shift_propagated(self, walker):
        assert walker.walk(0x3480_0000).page_shift == PAGE_SHIFT_4K
        assert walker.walk(0xBBE0_0000).page_shift == PAGE_SHIFT_2M

    def test_unmapped_giova_faults(self, walker):
        with pytest.raises(TranslationFault):
            walker.walk(0xDEAD_0000)

    def test_upper_phases_shared_between_nearby_pages(self, walker, address_space):
        address_space.map_io_page(0x3500_0000)
        walker.invalidate()
        ring = walker.walk(0x3480_0000)
        mailbox = walker.walk(0x3500_0000)
        # Same gL4/gL3/gL2 node pages (both addresses fall in the same
        # 512 GB / 1 GB regions), so the first three phases translate the
        # same gPAs; the gL1 nodes differ.
        assert ring.phases[0].gpa_page == mailbox.phases[0].gpa_page
        assert ring.phases[1].gpa_page == mailbox.phases[1].gpa_page
        assert ring.phases[2].gpa_page == mailbox.phases[2].gpa_page
        assert ring.phases[3].gpa_page != mailbox.phases[3].gpa_page


class TestLazyBacking:
    def test_unmapped_giova_backs_the_guest_root_before_faulting(self, address_space):
        log = []
        address_space.log_backings(log, "sid")
        with pytest.raises(TranslationFault) as excinfo:
            TwoDimensionalWalker(address_space).walk(0x7F00_0000_0000)
        assert excinfo.value.level == 4
        # The gL4 entry read: guest root 0x4000_0000, index 0xFE.
        assert log == [("sid", 0x4000_07F0)]


class TestMemoization:
    def test_same_page_returns_cached_walk(self, walker):
        first = walker.walk(0x3480_0000)
        second = walker.walk(0x3480_0008)  # same 4 KB page
        assert first is second

    def test_different_pages_not_shared(self, walker):
        assert walker.walk(0x3480_0000) is not walker.walk(0xBBE0_0000)

    def test_invalidate_single_page(self, walker):
        first = walker.walk(0x3480_0000)
        walker.invalidate(0x3480_0000)
        assert walker.walk(0x3480_0000) is not first

    def test_invalidate_all(self, walker):
        first = walker.walk(0x3480_0000)
        walker.invalidate()
        assert walker.walk(0x3480_0000) is not first

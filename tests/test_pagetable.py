"""Unit tests for repro.mem.pagetable."""

import pytest

from repro.mem.address import PAGE_SHIFT_2M, PAGE_SHIFT_4K, PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.mem.allocator import FrameAllocator
from repro.mem.pagetable import AddressSpace, PageTable, TranslationFault


@pytest.fixture
def table():
    return PageTable(FrameAllocator(base=0x1_0000_0000), name="unit")


class _RecordingAllocator(FrameAllocator):
    """A frame allocator that lists the node frames it hands out."""

    def __init__(self):
        super().__init__(base=0x1_0000_0000)
        self.nodes = []

    def allocate_node(self):
        frame = super().allocate_node()
        self.nodes.append(frame)
        return frame


class TestMapAndTranslate:
    def test_translate_mapped_page(self, table):
        table.map_page(0x3480_0000, 0x9000_0000)
        assert table.translate(0x3480_0000) == 0x9000_0000

    def test_translate_preserves_offset(self, table):
        table.map_page(0x3480_0000, 0x9000_0000)
        assert table.translate(0x3480_0ABC) == 0x9000_0ABC

    def test_unmapped_address_faults(self, table):
        with pytest.raises(TranslationFault):
            table.translate(0xDEAD_0000)

    def test_fault_carries_context(self, table):
        with pytest.raises(TranslationFault) as excinfo:
            table.translate(0xDEAD_0000)
        assert excinfo.value.space == "unit"
        assert excinfo.value.address == 0xDEAD_0000

    def test_double_map_rejected(self, table):
        table.map_page(0x1000, 0x9000_0000)
        with pytest.raises(ValueError):
            table.map_page(0x1000, 0x9000_1000)

    def test_unaligned_frame_rejected(self, table):
        with pytest.raises(ValueError):
            table.map_page(0x1000, 0x9000_0010)

    def test_many_mappings_translate_independently(self, table):
        for index in range(64):
            table.map_page(index * PAGE_SIZE_4K, 0x9000_0000 + index * PAGE_SIZE_4K)
        for index in range(64):
            assert (
                table.translate(index * PAGE_SIZE_4K)
                == 0x9000_0000 + index * PAGE_SIZE_4K
            )


class TestHugePages:
    def test_huge_mapping_translates_inside_page(self, table):
        table.map_page(0xBBE0_0000, 0x4000_0000, PAGE_SHIFT_2M)
        assert table.translate(0xBBE0_0000 + 12345) == 0x4000_0000 + 12345

    def test_huge_frame_must_be_2m_aligned(self, table):
        with pytest.raises(ValueError):
            table.map_page(0xBBE0_0000, 0x4000_1000, PAGE_SHIFT_2M)

    def test_small_map_under_huge_rejected(self, table):
        table.map_page(0xBBE0_0000, 0x4000_0000, PAGE_SHIFT_2M)
        with pytest.raises(ValueError):
            table.map_page(0xBBE0_1000, 0x9000_0000)

    def test_unsupported_page_shift_rejected(self, table):
        with pytest.raises(ValueError):
            table.map_page(0, 0, 30)

    def test_huge_map_over_level_one_node_rejected(self, table):
        table.map_page(0xBBE0_1000, 0x9000_0000)
        with pytest.raises(ValueError, match="already mapped"):
            table.map_page(0xBBE0_0000, 0x4000_0000, PAGE_SHIFT_2M)
        # Intermediate nodes stay, so the level-1 node still holds the range.
        table.unmap_page(0xBBE0_1000)
        with pytest.raises(ValueError, match="already mapped"):
            table.map_page(0xBBE0_0000, 0x4000_0000, PAGE_SHIFT_2M)


class TestUnmap:
    def test_unmap_then_fault(self, table):
        table.map_page(0x1000, 0x9000_0000)
        table.unmap_page(0x1000)
        with pytest.raises(TranslationFault):
            table.translate(0x1000)

    def test_unmap_unmapped_faults(self, table):
        with pytest.raises(TranslationFault):
            table.unmap_page(0x1000)

    def test_remap_after_unmap(self, table):
        table.map_page(0x1000, 0x9000_0000)
        table.unmap_page(0x1000)
        table.map_page(0x1000, 0x9999_9000)
        assert table.translate(0x1000) == 0x9999_9000

    def test_unmap_keeps_other_mappings(self, table):
        table.map_page(0x1000, 0x9000_0000)
        table.map_page(0x2000, 0x9000_1000)
        table.unmap_page(0x1000)
        assert table.translate(0x2000) == 0x9000_1000

    def test_unmap_with_other_page_shift_changes_nothing(self, table):
        table.map_page(0xBBE0_0000, 0x9000_0000)
        table.map_page(0xBBE0_1000, 0x9000_1000)
        nodes = table.node_count()
        with pytest.raises(TranslationFault) as excinfo:
            table.unmap_page(0xBBE0_0000, PAGE_SHIFT_2M)
        assert excinfo.value.level == 2
        assert table.node_count() == nodes
        assert list(table.mappings()) == [
            (0xBBE0_0000, 0x9000_0000, PAGE_SHIFT_4K),
            (0xBBE0_1000, 0x9000_1000, PAGE_SHIFT_4K),
        ]
        assert table.translate(0xBBE0_0000) == 0x9000_0000
        assert table.translate(0xBBE0_1000) == 0x9000_1000

    def test_unmap_4k_inside_huge_page_faults_at_level_two(self, table):
        table.map_page(0xBBE0_0000, 0x4000_0000, PAGE_SHIFT_2M)
        with pytest.raises(TranslationFault) as excinfo:
            table.unmap_page(0xBBE0_1000)
        assert excinfo.value.level == 2
        assert table.translate(0xBBE0_1000) == 0x4000_1000


class TestWalkStructure:
    def test_walk_of_4k_page_reads_four_levels(self, table):
        table.map_page(0x3480_0000, 0x9000_0000)
        frame, shift, steps = table.walk(0x3480_0000)
        assert frame == 0x9000_0000
        assert shift == PAGE_SHIFT_4K
        assert [step.level for step in steps] == [4, 3, 2, 1]

    def test_walk_of_2m_page_reads_three_levels(self, table):
        table.map_page(0xBBE0_0000, 0x4000_0000, PAGE_SHIFT_2M)
        _, shift, steps = table.walk(0xBBE0_0000)
        assert shift == PAGE_SHIFT_2M
        assert [step.level for step in steps] == [4, 3, 2]

    def test_walk_steps_have_distinct_entry_addresses(self, table):
        table.map_page(0x3480_0000, 0x9000_0000)
        _, _, steps = table.walk(0x3480_0000)
        addresses = [step.entry_address for step in steps]
        assert len(set(addresses)) == len(addresses)

    def test_same_region_shares_upper_nodes(self, table):
        table.map_page(0x1000, 0x9000_0000)
        table.map_page(0x2000, 0x9000_1000)
        _, _, first = table.walk(0x1000)
        _, _, second = table.walk(0x2000)
        # Levels 4..2 come from the same nodes; only the L1 entry differs.
        assert [s.entry_address for s in first[:3]] == [
            s.entry_address for s in second[:3]
        ]
        assert first[3].entry_address != second[3].entry_address


class TestNodeFrames:
    """Node frames and entry addresses, computed by hand: a node at frame
    ``f`` holds the level's entry ``i`` at ``f + 8 * i``."""

    def test_4k_map_allocates_three_nodes_below_the_root(self):
        allocator = _RecordingAllocator()
        table = PageTable(allocator)
        table.map_page(0x3480_0000, 0x9000_0000)
        assert allocator.nodes == [
            0x1_0000_0000,  # root
            0x1_0000_1000,  # level 3
            0x1_0000_2000,  # level 2
            0x1_0000_3000,  # level 1
        ]
        _, _, steps = table.walk(0x3480_0000)
        # Indices 0, 0, 0x1A4 and 0 at levels 4..1.
        assert [step.entry_address for step in steps] == [
            0x1_0000_0000,
            0x1_0000_1000,
            0x1_0000_2D20,
            0x1_0000_3000,
        ]

    def test_2m_map_allocates_two_nodes_below_the_root(self):
        allocator = _RecordingAllocator()
        table = PageTable(allocator)
        table.map_page(0xBBE0_0000, 0x4000_0000, PAGE_SHIFT_2M)
        assert allocator.nodes == [0x1_0000_0000, 0x1_0000_1000, 0x1_0000_2000]
        _, _, steps = table.walk(0xBBE0_0000)
        # Indices 0, 2 and 0x1DF at levels 4..2.
        assert [step.entry_address for step in steps] == [
            0x1_0000_0000,
            0x1_0000_1010,
            0x1_0000_2EF8,
        ]


class TestIntrospection:
    def test_mapped_page_count(self, table):
        table.map_page(0x1000, 0x9000_0000)
        table.map_page(0xBBE0_0000, 0x4000_0000, PAGE_SHIFT_2M)
        assert table.mapped_page_count == 2

    def test_mappings_iterates_sorted(self, table):
        table.map_page(0x5000, 0x9000_1000)
        table.map_page(0x1000, 0x9000_0000)
        bases = [base for base, _, _ in table.mappings()]
        assert bases == sorted(bases)

    def test_node_count_grows_with_sparse_mappings(self, table):
        before = table.node_count()
        table.map_page(0x0000_1000, 0x9000_0000)
        table.map_page(0x7F00_0000_0000, 0x9000_1000)  # far apart: new subtree
        assert table.node_count() > before + 3


class TestAddressSpace:
    def test_map_io_page_translates_end_to_end(self, address_space):
        address_space.map_io_page(0x3480_0000)
        hpa = address_space.translate(0x3480_0000)
        assert hpa % PAGE_SIZE_4K == 0

    def test_distinct_giovas_get_distinct_hpas(self, address_space):
        address_space.map_io_page(0x3480_0000)
        address_space.map_io_page(0x3500_0000)
        assert address_space.translate(0x3480_0000) != address_space.translate(
            0x3500_0000
        )

    def test_huge_io_page_lazy_backing(self, address_space):
        """A 2 MB gIOVA mapping only backs touched host pages."""
        host_allocator = address_space.host_table._allocator
        before = host_allocator.frames_allocated
        address_space.map_io_page(0xBBE0_0000, PAGE_SHIFT_2M)
        grown = host_allocator.frames_allocated - before
        # Far fewer host frames than the 512 a full 2 MB backing would take.
        assert grown < 32

    def test_translate_within_huge_page(self, address_space):
        address_space.map_io_page(0xBBE0_0000, PAGE_SHIFT_2M)
        base = address_space.translate(0xBBE0_0000)
        inside = address_space.translate(0xBBE0_0000 + 0x800)
        assert inside - base == 0x800

    def test_two_tenants_same_giova_different_hpa(self, host_allocator):
        tenant_a = AddressSpace(
            FrameAllocator(base=0x4000_0000), host_allocator, "a"
        )
        tenant_b = AddressSpace(
            FrameAllocator(base=0x4000_0000), host_allocator, "b"
        )
        tenant_a.map_io_page(0x3480_0000)
        tenant_b.map_io_page(0x3480_0000)
        assert tenant_a.translate(0x3480_0000) != tenant_b.translate(0x3480_0000)

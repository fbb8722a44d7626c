"""Unit tests for device-side models: packet accounting, rings, the DevTLB."""

import pytest

from repro.cache.setassoc import SetAssociativeCache
from repro.core.config import TlbConfig
from repro.core.fabric import _build_tlb
from repro.device.packet import PacketStats
from repro.device.ring import DescriptorRing, RingLayout, make_default_layout
from repro.trace.records import PacketRecord


class TestPacketStats:
    def test_drop_rate(self):
        stats = PacketStats()
        stats.arrived = 10
        stats.dropped = 3
        assert stats.drop_rate == pytest.approx(0.3)

    def test_drop_rate_empty(self):
        assert PacketStats().drop_rate == 0.0

    def test_record_processed_accumulates(self):
        stats = PacketStats()
        packet = PacketRecord(sid=2, giovas=(0, 0, 0), size_bytes=1000)
        stats.record_processed(packet)
        stats.record_processed(packet)
        assert stats.bytes_processed == 2000
        assert stats.per_tenant_processed[2] == 2


class TestRingLayout:
    def test_default_layout_matches_paper_addresses(self):
        layout = make_default_layout(num_data_pages=30)
        assert layout.ring_page_giova == 0x3480_0000
        assert layout.data_page_giovas[0] == 0xBBE0_0000
        assert len(layout.data_page_giovas) == 30

    def test_data_pages_are_2m_spaced(self):
        layout = make_default_layout(num_data_pages=4)
        deltas = {
            b - a
            for a, b in zip(layout.data_page_giovas, layout.data_page_giovas[1:])
        }
        assert deltas == {2 * 1024 * 1024}

    def test_layout_identical_across_calls(self):
        """All tenants share the same gIOVA layout (same OS + driver)."""
        assert make_default_layout(8) == make_default_layout(8)

    def test_empty_layout_rejected(self):
        with pytest.raises(ValueError):
            make_default_layout(0)
        with pytest.raises(ValueError):
            RingLayout(ring_page_giova=0, mailbox_page_giova=0, data_page_giovas=())


class TestDescriptorRing:
    def test_giova_triple_structure(self):
        ring = DescriptorRing(make_default_layout(4), uses_per_page=3)
        ring_giova, data_giova, mailbox_giova = ring.next_packet_giovas()
        assert ring_giova >> 12 == 0x34800
        assert data_giova >> 21 == 0xBBE0_0000 >> 21
        assert mailbox_giova >> 12 == 0x3500_0000 >> 12

    def test_page_advances_after_uses_per_page(self):
        ring = DescriptorRing(make_default_layout(4), uses_per_page=2)
        pages = [ring.next_packet_giovas()[1] >> 21 for _ in range(8)]
        # Two packets per page, then the next page: AABBCCDD.
        assert pages[0] == pages[1]
        assert pages[1] != pages[2]
        assert pages[2] == pages[3]

    def test_ring_wraps_around(self):
        ring = DescriptorRing(make_default_layout(2), uses_per_page=1)
        pages = [ring.next_packet_giovas()[1] >> 21 for _ in range(4)]
        assert pages[0] == pages[2]
        assert pages[1] == pages[3]

    def test_data_offsets_stay_in_first_4k(self):
        """Descriptors alternate within the first 4 KB so every data page
        maps onto a single translation-cache key."""
        ring = DescriptorRing(make_default_layout(1), uses_per_page=100)
        for _ in range(50):
            _, data_giova, _ = ring.next_packet_giovas()
            assert (data_giova >> 12) == (0xBBE0_0000 >> 12)

    def test_jump_to_page(self):
        ring = DescriptorRing(make_default_layout(8), uses_per_page=10)
        ring.jump_to_page(5)
        assert ring.current_data_page == make_default_layout(8).data_page_giovas[5]

    def test_jump_out_of_range(self):
        ring = DescriptorRing(make_default_layout(2), uses_per_page=1)
        with pytest.raises(ValueError):
            ring.jump_to_page(2)

    def test_invalid_uses_per_page(self):
        with pytest.raises(ValueError):
            DescriptorRing(make_default_layout(2), uses_per_page=0)


class TestBuildDevtlb:
    def test_base_geometry(self):
        devtlb = _build_tlb(TlbConfig(num_entries=64, ways=8, policy="lfu"), "devtlb")
        assert isinstance(devtlb, SetAssociativeCache)
        assert devtlb.num_sets == 8
        assert devtlb.num_partitions == 1
        assert devtlb.policy_name == "lfu"

    def test_partitioned_variant(self):
        devtlb = _build_tlb(
            TlbConfig(num_entries=64, ways=8, num_partitions=8), "devtlb"
        )
        assert devtlb.num_partitions == 8
        assert devtlb.sets_per_partition == 1

    def test_fully_associative_variant(self):
        devtlb = _build_tlb(
            TlbConfig(num_entries=64, ways=8, fully_associative=True, policy="lru"),
            "devtlb",
        )
        assert devtlb.num_sets == 1
        assert devtlb.ways == 64

    def test_oracle_needs_next_use(self):
        with pytest.raises(ValueError):
            _build_tlb(TlbConfig(num_entries=64, ways=8, policy="oracle"), "devtlb")

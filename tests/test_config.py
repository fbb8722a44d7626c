"""Unit tests for configuration presets (Tables II and IV)."""

import dataclasses

import pytest

from repro.core.config import (
    ArchConfig,
    PrefetchConfig,
    TimingParams,
    TlbConfig,
    base_config,
    case_study_timing,
    hypertrio_config,
)


class TestTimingParams:
    def test_table2_defaults(self):
        timing = TimingParams()
        assert timing.pcie_one_way_ns == 450.0
        assert timing.dram_latency_ns == 50.0
        assert timing.iotlb_hit_ns == 2.0
        assert timing.packet_bytes == 1542
        assert timing.link_bandwidth_gbps == 200.0

    def test_packet_interarrival_matches_paper(self):
        """1500 B packets arrive roughly every 62 ns on a 200 Gb/s link."""
        timing = TimingParams()
        assert timing.packet_interarrival_ns == pytest.approx(61.68)

    def test_full_walk_latency_sanity(self):
        timing = TimingParams()
        assert timing.full_walk_latency_ns == pytest.approx(
            2 * 450.0 + 24 * 50.0
        )

    def test_case_study_link_is_10g(self):
        assert case_study_timing().link_bandwidth_gbps == 10.0

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            TimingParams().dram_latency_ns = 1.0


class TestTlbConfig:
    def test_validation_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            TlbConfig(num_entries=10, ways=4)
        with pytest.raises(ValueError):
            TlbConfig(num_entries=0, ways=1)
        with pytest.raises(ValueError):
            TlbConfig(num_entries=64, ways=8, num_partitions=3)

    def test_fully_associative_skips_geometry_checks(self):
        config = TlbConfig(num_entries=36, ways=1, fully_associative=True)
        assert config.fully_associative

    def test_fully_associative_with_partitions_rejected(self):
        """A fully associative cache is one set: partitioning it used to
        build one unpartitioned set without a word."""
        with pytest.raises(ValueError, match="fully_associative.*num_partitions"):
            TlbConfig(
                num_entries=64, ways=8, num_partitions=8, fully_associative=True
            )

    def test_partition_count_below_one_rejected(self):
        # 0 used to raise ZeroDivisionError from the divisibility check.
        for partitions in (0, -1):
            with pytest.raises(ValueError, match="num_partitions"):
                TlbConfig(num_entries=64, ways=8, num_partitions=partitions)


class TestBaseConfig:
    def test_table4_base_column(self):
        config = base_config()
        assert config.ptb_entries == 1
        assert config.devtlb == TlbConfig(64, 8, 1, "lfu")
        assert config.l2_tlb == TlbConfig(512, 16, 1, "lfu")
        assert config.l3_tlb == TlbConfig(1024, 16, 1, "lfu")
        assert not config.prefetch.enabled

    def test_chipset_iotlb_mirrors_devtlb(self):
        config = base_config()
        assert config.effective_chipset_iotlb == config.devtlb


class TestHyperTrioConfig:
    def test_table4_hypertrio_column(self):
        config = hypertrio_config()
        assert config.ptb_entries == 32
        assert config.devtlb.num_partitions == 8
        assert config.l2_tlb.num_partitions == 32
        assert config.l3_tlb.num_partitions == 64
        assert config.prefetch.enabled
        assert config.prefetch.buffer_entries == 8
        assert config.prefetch.pages_per_tenant == 2

    def test_devtlb_geometry_unchanged_from_base(self):
        """HyperTRIO partitions the same 64-entry, 8-way DevTLB."""
        base, hyper = base_config(), hypertrio_config()
        assert hyper.devtlb.num_entries == base.devtlb.num_entries
        assert hyper.devtlb.ways == base.devtlb.ways

    def test_with_overrides_returns_new_config(self):
        config = hypertrio_config()
        modified = config.with_overrides(ptb_entries=8)
        assert modified.ptb_entries == 8
        assert config.ptb_entries == 32
        assert modified.devtlb == config.devtlb

    def test_custom_timing_propagates(self):
        config = hypertrio_config(timing=case_study_timing())
        assert config.timing.link_bandwidth_gbps == 10.0


class TestPrefetchConfig:
    def test_defaults(self):
        config = PrefetchConfig()
        assert not config.enabled
        assert config.buffer_entries == 8
        assert config.pages_per_tenant == 2

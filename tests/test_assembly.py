"""Tests for the fabric assembly and result records."""

import pytest

from repro.core.config import TlbConfig, base_config, hypertrio_config
from repro.core.fabric import Fabric
from repro.core.results import SimulationResult
from repro.core.ptb import PtbStats
from repro.device.packet import PacketStats
from repro.mem.dram import DramStats
from repro.obs.metrics import LatencyHistogram
from repro.cache.base import CacheStats


class _FakeWalker:
    def walk(self, giova):  # pragma: no cover - never called in these tests
        raise AssertionError("walker should not be invoked")


def _walker_for(sid):
    return _FakeWalker()


class TestFabricStructure:
    def test_base_path_structure(self):
        fabric = Fabric(base_config(), _walker_for, sids=(0, 1))
        device = fabric.devices[0]
        assert device.devtlb.num_sets == 8
        assert device.devtlb.num_partitions == 1
        assert device.ptb.num_entries == 1
        assert device.prefetch_unit is None
        assert fabric.chipset.iova_history is None

    def test_hypertrio_path_structure(self):
        fabric = Fabric(hypertrio_config(), _walker_for, sids=(0,))
        device = fabric.devices[0]
        assert device.devtlb.num_partitions == 8
        assert device.devtlb.sets_per_partition == 1
        assert device.ptb.num_entries == 32
        assert device.prefetch_unit is not None
        assert fabric.chipset.iova_history is not None
        assert device.prefetch_unit.buffer.num_sets == 1
        assert device.prefetch_unit.buffer.ways == 8

    def test_chipset_structures_geometry(self):
        iommu = Fabric(hypertrio_config(), _walker_for).chipset.iommu
        assert iommu.nested_tlb.num_partitions == 64
        assert iommu.nested_tlb.sets_per_partition == 1
        assert iommu.pte_cache.num_partitions == 32
        assert iommu.pte_cache.sets_per_partition == 1

    def test_context_cache_preregistered(self):
        chipset = Fabric(base_config(), _walker_for, sids=(3, 7)).chipset
        assert chipset.context_cache.resolve(3).entry.did == 3
        with pytest.raises(KeyError):
            chipset.context_cache.resolve(99)

    def test_oracle_devtlb_requires_next_use(self):
        config = base_config().with_overrides(
            devtlb=TlbConfig(num_entries=64, ways=8, policy="oracle")
        )
        with pytest.raises(ValueError):
            Fabric(config, _walker_for)
        fabric = Fabric(config, _walker_for, devtlb_next_use=lambda key: None)
        # The mirrored chipset IOTLB must not inherit the oracle policy.
        assert fabric.chipset.iommu.iotlb.policy_name == "lfu"

    def test_memory_latency_from_timing(self):
        memory = Fabric(base_config(), _walker_for).chipset.memory
        assert memory.latency_ns == base_config().timing.dram_latency_ns


def _dummy_result(**overrides):
    fields = dict(
        config_name="Base",
        benchmark="iperf3",
        num_tenants=4,
        interleaving="RR1",
        link_bandwidth_gbps=200.0,
        elapsed_ns=1000.0,
        achieved_bandwidth_gbps=100.0,
        packets=PacketStats(),
        latency=LatencyHistogram(),
        ptb=PtbStats(),
        dram=DramStats(),
        cache_stats={"devtlb": CacheStats(hits=3, misses=1)},
    )
    fields.update(overrides)
    return SimulationResult(**fields)


class TestSimulationResult:
    def test_link_utilization(self):
        assert _dummy_result().link_utilization == pytest.approx(0.5)

    def test_utilization_clamped_to_one(self):
        result = _dummy_result(achieved_bandwidth_gbps=250.0)
        assert result.link_utilization == 1.0

    def test_zero_link(self):
        result = _dummy_result(link_bandwidth_gbps=0.0)
        assert result.link_utilization == 0.0

    def test_hit_and_miss_rates(self):
        result = _dummy_result()
        assert result.hit_rate("devtlb") == pytest.approx(0.75)
        assert result.miss_rate("devtlb") == pytest.approx(0.25)

    def test_supplied_fraction_guard(self):
        result = _dummy_result(prefetch_supplied=10)
        assert result.prefetch_supplied_fraction == 0.0  # no requests recorded

    def test_summary_is_one_line(self):
        summary = _dummy_result().summary()
        assert "\n" not in summary
        assert "Base" in summary
        assert "iperf3" in summary

    def test_summary_explains_walk_cost(self):
        result = _dummy_result(cache_stats={
            "devtlb": CacheStats(hits=3, misses=1),
            "iotlb": CacheStats(hits=0, misses=40),
            "nested_tlb": CacheStats(hits=25, misses=75),
            "pte_cache": CacheStats(hits=20, misses=780),
        })
        summary = result.summary()
        assert "\n" not in summary
        assert (
            "walks: nested-TLB hit 25.0%, PTE-cache hit 2.5%, "
            "19.5 DRAM reads/walk"
        ) in summary


class TestCacheStats:
    def test_rates(self):
        stats = CacheStats(hits=8, misses=2)
        assert stats.accesses == 10
        assert stats.hit_rate == pytest.approx(0.8)
        assert stats.miss_rate == pytest.approx(0.2)

    def test_rates_when_untouched(self):
        stats = CacheStats()
        assert stats.hit_rate == 0.0
        assert stats.miss_rate == 0.0

    def test_reset(self):
        stats = CacheStats(hits=3, misses=4, fills=5, evictions=6, invalidations=7)
        stats.reset()
        assert stats.accesses == 0
        assert stats.fills == 0

    def test_merged_with(self):
        merged = CacheStats(hits=1, misses=2).merged_with(CacheStats(hits=3, misses=4))
        assert merged.hits == 4
        assert merged.misses == 6

"""Unit tests for the set-associative cache."""

import pytest

from repro.cache.setassoc import SetAssociativeCache
from repro.core.config import TlbConfig, base_config, hypertrio_config
from repro.core.fabric import Fabric

KEY = (0, 7)
OTHER = (0, 8)
PINNED, P1, P2, P3 = (2, 0), (2, 1), (2, 2), (2, 3)


@pytest.fixture
def cache():
    return SetAssociativeCache(num_entries=16, ways=4, policy="lru", name="t")


class TestBasics:
    def test_miss_then_hit(self, cache):
        assert cache.lookup(KEY) is None
        cache.insert(KEY, 1)
        assert cache.lookup(KEY) == 1

    def test_stats_track_hits_and_misses(self, cache):
        cache.lookup(KEY)
        cache.insert(KEY, 1)
        cache.lookup(KEY)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_update_existing_key(self, cache):
        cache.insert(KEY, 1)
        cache.insert(KEY, 2)
        assert cache.lookup(KEY) == 2
        assert len(cache) == 1

    def test_probe_has_no_stat_side_effects(self, cache):
        cache.insert(KEY, 1)
        cache.probe(KEY)
        cache.probe(OTHER)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0

    def test_contains(self, cache):
        cache.insert(KEY, 1)
        assert cache.contains(KEY)
        assert not cache.contains(OTHER)

    def test_len_counts_entries(self, cache):
        for index in range(5):
            cache.insert((1, index), index)
        assert len(cache) == 5

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(num_entries=10, ways=4)
        with pytest.raises(ValueError):
            SetAssociativeCache(num_entries=0, ways=1)


class TestEviction:
    def test_set_capacity_enforced(self):
        cache = SetAssociativeCache(num_entries=4, ways=4, policy="lru")
        for index in range(6):
            cache.insert((0, index), index)
        assert len(cache) == 4
        assert cache.stats.evictions == 2

    def test_lru_eviction_order(self):
        cache = SetAssociativeCache(num_entries=2, ways=2, policy="lru")
        a, b, c = (0, 1), (0, 2), (0, 3)
        cache.insert(a, 1)
        cache.insert(b, 2)
        cache.lookup(a)
        cache.insert(c, 3)  # evicts b
        assert cache.probe(a) == 1
        assert cache.probe(b) is None

    def test_conflicting_sets_do_not_interfere(self):
        # Two sets; below 512 the fold leaves a page unchanged, so even
        # pages go to set 0 and odd ones to set 1.
        cache = SetAssociativeCache(num_entries=4, ways=2, policy="lru")
        cache.insert((0, 0), "even")
        cache.insert((0, 1), "odd")
        cache.insert((0, 2), "even2")
        cache.insert((0, 4), "even3")  # evicts page 0, set 0 only
        assert cache.probe((0, 1)) == "odd"


class TestInvalidate:
    def test_invalidate_present(self, cache):
        cache.insert(KEY, 1)
        assert cache.invalidate(KEY)
        assert cache.probe(KEY) is None

    def test_invalidate_absent(self, cache):
        assert not cache.invalidate(KEY)

    def test_invalidate_all(self, cache):
        for index in range(8):
            cache.insert((1, index), index)
        cache.invalidate_all()
        assert len(cache) == 0

    def test_reinsert_after_invalidate(self, cache):
        cache.insert(KEY, 1)
        cache.invalidate(KEY)
        cache.insert(KEY, 2)
        assert cache.lookup(KEY) == 2


class TestPinning:
    def _full_row_cache(self):
        return SetAssociativeCache(num_entries=4, ways=4, policy="lru")

    def test_pinned_entry_survives_fill_pressure(self):
        cache = self._full_row_cache()
        cache.insert(PINNED, 1, pinned=True)
        for index in range(8):
            cache.insert((1, index), index)
        assert cache.probe(PINNED) == 1

    def test_pin_released_on_first_hit(self):
        cache = self._full_row_cache()
        cache.insert(PINNED, 1, pinned=True)
        cache.lookup(PINNED)  # unpins
        cache.lookup(PINNED)
        for index in range(8):
            cache.insert((1, index), index)
        assert cache.probe(PINNED) is None

    def test_pin_budget_recycles_oldest(self):
        cache = self._full_row_cache()  # pin capacity = ways - 2 = 2
        cache.insert(P1, 1, pinned=True)
        cache.insert(P2, 2, pinned=True)
        cache.insert(P3, 3, pinned=True)  # recycles p1's pin
        for index in range(8):
            cache.insert((1, index), index)
        assert cache.probe(P2) == 2
        assert cache.probe(P3) == 3
        assert cache.probe(P1) is None

    def test_pin_capacity_leaves_unpinned_ways(self):
        cache = self._full_row_cache()
        assert cache.pin_capacity == 2

    def test_direct_mapped_cache_has_no_pinning(self):
        cache = SetAssociativeCache(num_entries=4, ways=1)
        assert cache.pin_capacity == 0
        cache.insert(KEY, 1, pinned=True)  # silently unpinned
        assert cache.probe(KEY) == 1

    def test_invalidate_clears_pin(self):
        cache = self._full_row_cache()
        cache.insert(PINNED, 1, pinned=True)
        cache.invalidate(PINNED)
        cache.insert(PINNED, 2)  # plain insert, no pin
        for index in range(8):
            cache.insert((1, index), index)
        assert cache.probe(PINNED) is None


class TestIndexing:
    def test_fold_index_spreads_2m_aligned_pages(self):
        """2 MB-aligned page numbers must not all land in set 0."""
        cache = SetAssociativeCache(num_entries=64, ways=8)
        pages = [0xBBE00 + i * 0x200 for i in range(16)]
        sets = {cache.set_index((0, page)) for page in pages}
        assert len(sets) > 1

    def test_default_indexer_uses_page_part_of_tuple(self):
        cache = SetAssociativeCache(num_entries=64, ways=8)
        a = cache.set_index((0, 0xBBE00))
        b = cache.set_index((1, 0xBBE00))
        assert a == b  # same page, different SID -> same set (conflict!)


class TestFullyAssociative:
    def test_single_set(self):
        cache = SetAssociativeCache(num_entries=8, ways=8)
        assert cache.num_sets == 1
        assert cache.ways == 8

    def test_capacity(self):
        cache = SetAssociativeCache(num_entries=4, ways=4, policy="lru")
        for index in range(6):
            cache.insert((0, index), index)
        assert len(cache) == 4

    def test_no_conflict_misses(self):
        """Any 4 distinct keys coexist regardless of their addresses."""
        cache = SetAssociativeCache(num_entries=4, ways=4)
        keys = [(0, 0xBBE00 + i * 0x200) for i in range(4)]
        for key in keys:
            cache.insert(key, key)
        assert all(cache.probe(key) is not None for key in keys)


# Placement reference: the three set-index rules the caches used before
# ``set_index`` replaced them, copied.  Every simulated result depends on
# where each key lands, so the one rule must reproduce all three.
def _fold(value):
    return value ^ (value >> 9) ^ (value >> 18)


def default_indexer(key, num_sets):
    """Address indexing of an unpartitioned cache."""
    if type(key) is tuple and len(key) == 2:
        value = key[1]
        if type(value) is int:
            return (value ^ (value >> 9) ^ (value >> 18)) % num_sets
    return hash(key) % num_sets


def partitioned_index(key, num_sets, num_partitions):
    """A SID-partitioned cache: the partition's base set plus the folded
    secondary within the partition."""
    sets_per_partition = num_sets // num_partitions
    sid, secondary = key
    base = (sid % num_partitions) * sets_per_partition
    return base + _fold(secondary) % sets_per_partition


def sid_indexer(sid, num_sets):
    """The context cache, keyed by the bare SID."""
    return sid % num_sets


def reference_index(tlb):
    """``key -> set`` as a cache built from ``tlb`` placed it: one set when
    fully associative, partitioned above one partition, else address
    indexing."""
    if tlb.fully_associative:
        return lambda key: 0
    num_sets = tlb.num_entries // tlb.ways
    if tlb.num_partitions > 1:
        return lambda key: partitioned_index(key, num_sets, tlb.num_partitions)
    return lambda key: default_indexer(key, num_sets)


def built_caches():
    """``(label, cache, reference)`` for every cache geometry the
    repository builds."""
    configs = {
        "Base": base_config(),
        "HyperTRIO": hypertrio_config(),
        # bench_ablation_partitions.py: four sets per partition.
        "2-partition": hypertrio_config().with_overrides(
            devtlb=TlbConfig(num_entries=64, ways=8, num_partitions=2)
        ),
        # Figures 9 and 11a.
        "1024-entry": base_config().with_overrides(
            devtlb=TlbConfig(num_entries=1024, ways=8)
        ),
        # Figure 11c; its IOTLB falls back to 64 entries, 8 ways, LFU.
        "fully associative": base_config().with_overrides(
            devtlb=TlbConfig(
                num_entries=64, ways=64, policy="oracle", fully_associative=True
            )
        ),
    }
    for label, config in configs.items():
        fabric = Fabric(config, None, devtlb_next_use=lambda key: None)
        iommu = fabric.chipset.iommu
        iotlb = config.effective_chipset_iotlb
        if iotlb.policy == "oracle":
            iotlb = TlbConfig(num_entries=64, ways=8)
        devtlb = fabric.devices[0].devtlb
        yield f"{label} DevTLB", devtlb, reference_index(config.devtlb)
        yield f"{label} IOTLB", iommu.iotlb, reference_index(iotlb)
        yield f"{label} L2TLB", iommu.pte_cache, reference_index(config.l2_tlb)
        yield f"{label} L3TLB", iommu.nested_tlb, reference_index(config.l3_tlb)
        unit = fabric.devices[0].prefetch_unit
        if unit is not None:
            yield f"{label} Prefetch Buffer", unit.buffer, lambda key: 0
        context = fabric.chipset.context_cache._cache
        yield f"{label} context cache", context, lambda key: sid_indexer(key[0], 16)


#: SIDs past 512, where the fold stops being the identity, and pages that
#: include 2 MB-aligned page numbers and entry addresses.
PLACEMENT_SIDS = range(1100)
PLACEMENT_PAGES = (
    0, 1, 7, 511, 512, 513, 0x3480, 0x34800, 0xBBE00, 0xBBE00 + 0x200,
    0xBBE00 + 0x400, 0x3_FFFF, 0x4000_0000 + 8 * 19, 0x7FFF_FFFF_F000,
)


class TestPlacement:
    def test_set_index_matches_reference_indexers(self):
        """Every cache the repository builds places every key where its
        old indexer did."""
        for label, cache, reference in built_caches():
            mismatches = [
                (sid, page, cache.set_index((sid, page)), reference((sid, page)))
                for sid in PLACEMENT_SIDS
                for page in PLACEMENT_PAGES
                if cache.set_index((sid, page)) != reference((sid, page))
            ]
            assert not mismatches, f"{label}: (sid, page, set, want) {mismatches[:5]}"

    def test_lookup_and_insert_follow_set_index(self):
        """``insert`` fills, and ``lookup`` finds, a key in the set
        ``set_index`` names: their inlined copies of the rule agree."""
        for label, cache, _ in built_caches():
            for sid in range(0, 1100, 37):
                for page in PLACEMENT_PAGES:
                    key = (sid, page)
                    cache.insert(key, True)
                    assert key in cache._sets[cache.set_index(key)].entries, label
                    assert cache.lookup(key) is True, label

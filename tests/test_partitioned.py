"""Unit tests for the SID-partitioned cache (P-DevTLB scheme)."""

import pytest

from repro.cache.partitioned import PartitionedCache, partition_of


@pytest.fixture
def cache():
    # The paper's P-DevTLB: 64 entries, 8-way, 8 partitions (one row each).
    return PartitionedCache(num_entries=64, ways=8, num_partitions=8, policy="lfu")


class TestPartitionSelection:
    def test_partition_of_uses_low_sid_bits(self):
        assert partition_of(0, 8) == 0
        assert partition_of(9, 8) == 1
        assert partition_of(17, 8) == 1

    def test_partition_of_rejects_bad_count(self):
        with pytest.raises(ValueError):
            partition_of(3, 0)

    def test_partitions_must_divide_sets(self):
        with pytest.raises(ValueError):
            PartitionedCache(num_entries=64, ways=8, num_partitions=3)

    def test_keys_must_be_sid_page_tuples(self, cache):
        # One set per partition: lookup and insert index by key[0] inline,
        # which a 3-tuple or a 1-tuple would satisfy without the check.
        accesses = (
            cache.lookup, lambda key: cache.insert(key, 1), cache.probe, cache.invalidate,
        )
        for key in ("not-a-tuple", (1, 2, 3), (5,)):
            for access in accesses:
                with pytest.raises(TypeError):
                    access(key)
        assert len(cache) == 0


class TestIsolation:
    def test_tenants_in_different_partitions_cannot_conflict(self, cache):
        """A low-bandwidth tenant must not evict a high-bandwidth tenant in
        another partition (the paper's performance-isolation property)."""
        cache.insert((0, 0xBBE00), "t0")
        # Tenant 1 floods its own partition with many pages.
        for page in range(100):
            cache.insert((1, page), page)
        assert cache.probe((0, 0xBBE00)) == "t0"

    def test_same_partition_tenants_share_a_row(self, cache):
        """SIDs 0 and 8 share partition 0; flooding one evicts the other."""
        cache.insert((0, 0xBBE00), "t0")
        for page in range(100):
            cache.insert((8, page), page)
        assert cache.probe((0, 0xBBE00)) is None

    def test_identical_pages_different_partitions_coexist(self, cache):
        """The multi-tenant pathology: every tenant uses the same gIOVAs.
        Partitioning keeps them apart."""
        for sid in range(8):
            cache.insert((sid, 0xBBE00), sid)
        assert all(cache.probe((sid, 0xBBE00)) == sid for sid in range(8))

    def test_partition_occupancy(self, cache):
        for page in range(5):
            cache.insert((2, page), page)
        assert cache.partition_occupancy(2) == 5
        assert cache.partition_occupancy(3) == 0

    def test_partition_occupancy_bounds(self, cache):
        with pytest.raises(ValueError):
            cache.partition_occupancy(8)


class TestCapacityPerPartition:
    def test_partition_capacity_is_entries_over_partitions(self, cache):
        for page in range(20):
            cache.insert((0, page), page)
        assert cache.partition_occupancy(0) == 8  # one 8-way row

    def test_multi_set_partitions(self):
        cache = PartitionedCache(num_entries=64, ways=4, num_partitions=4)
        # 16 sets, 4 per partition, 4 ways: capacity 16 per partition.
        for page in range(40):
            cache.insert((1, page), page)
        assert cache.partition_occupancy(1) <= 16
        assert cache.partition_occupancy(1) > 4

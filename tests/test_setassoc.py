"""Unit tests for the set-associative cache."""

import pytest

from repro.cache.setassoc import (
    FullyAssociativeCache,
    SetAssociativeCache,
    default_indexer,
    fold_index,
)


@pytest.fixture
def cache():
    return SetAssociativeCache(num_entries=16, ways=4, policy="lru", name="t")


class TestBasics:
    def test_miss_then_hit(self, cache):
        assert cache.lookup("k") is None
        cache.insert("k", 1)
        assert cache.lookup("k") == 1

    def test_stats_track_hits_and_misses(self, cache):
        cache.lookup("k")
        cache.insert("k", 1)
        cache.lookup("k")
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_update_existing_key(self, cache):
        cache.insert("k", 1)
        cache.insert("k", 2)
        assert cache.lookup("k") == 2
        assert len(cache) == 1

    def test_probe_has_no_stat_side_effects(self, cache):
        cache.insert("k", 1)
        cache.probe("k")
        cache.probe("missing")
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0

    def test_contains(self, cache):
        cache.insert("k", 1)
        assert cache.contains("k")
        assert not cache.contains("other")

    def test_len_counts_entries(self, cache):
        for index in range(5):
            cache.insert(("s", index), index)
        assert len(cache) == 5

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(num_entries=10, ways=4)
        with pytest.raises(ValueError):
            SetAssociativeCache(num_entries=0, ways=1)


class TestEviction:
    def test_set_capacity_enforced(self):
        cache = SetAssociativeCache(
            num_entries=4, ways=4, policy="lru", indexer=lambda key, n: 0
        )
        for index in range(6):
            cache.insert(index, index)
        assert len(cache) == 4
        assert cache.stats.evictions == 2

    def test_lru_eviction_order(self):
        cache = SetAssociativeCache(
            num_entries=2, ways=2, policy="lru", indexer=lambda key, n: 0
        )
        cache.insert("a", 1)
        cache.insert("b", 2)
        cache.lookup("a")
        cache.insert("c", 3)  # evicts b
        assert cache.probe("a") == 1
        assert cache.probe("b") is None

    def test_conflicting_sets_do_not_interfere(self):
        cache = SetAssociativeCache(
            num_entries=4, ways=2, policy="lru", indexer=lambda key, n: key % n
        )
        cache.insert(0, "even")
        cache.insert(1, "odd")
        cache.insert(2, "even2")
        cache.insert(4, "even3")  # evicts 0, set 0 only
        assert cache.probe(1) == "odd"


class TestInvalidate:
    def test_invalidate_present(self, cache):
        cache.insert("k", 1)
        assert cache.invalidate("k")
        assert cache.probe("k") is None

    def test_invalidate_absent(self, cache):
        assert not cache.invalidate("k")

    def test_invalidate_all(self, cache):
        for index in range(8):
            cache.insert(("s", index), index)
        cache.invalidate_all()
        assert len(cache) == 0

    def test_reinsert_after_invalidate(self, cache):
        cache.insert("k", 1)
        cache.invalidate("k")
        cache.insert("k", 2)
        assert cache.lookup("k") == 2


class TestPinning:
    def _full_row_cache(self):
        return SetAssociativeCache(
            num_entries=4, ways=4, policy="lru", indexer=lambda key, n: 0
        )

    def test_pinned_entry_survives_fill_pressure(self):
        cache = self._full_row_cache()
        cache.insert("pinned", 1, pinned=True)
        for index in range(8):
            cache.insert(("fill", index), index)
        assert cache.probe("pinned") == 1

    def test_pin_released_on_first_hit(self):
        cache = self._full_row_cache()
        cache.insert("pinned", 1, pinned=True)
        cache.lookup("pinned")  # unpins
        cache.lookup("pinned")
        for index in range(8):
            cache.insert(("fill", index), index)
        assert cache.probe("pinned") is None

    def test_pin_budget_recycles_oldest(self):
        cache = self._full_row_cache()  # pin capacity = ways - 2 = 2
        cache.insert("p1", 1, pinned=True)
        cache.insert("p2", 2, pinned=True)
        cache.insert("p3", 3, pinned=True)  # recycles p1's pin
        for index in range(8):
            cache.insert(("fill", index), index)
        assert cache.probe("p2") == 2
        assert cache.probe("p3") == 3
        assert cache.probe("p1") is None

    def test_pin_capacity_leaves_unpinned_ways(self):
        cache = self._full_row_cache()
        assert cache.pin_capacity == 2

    def test_direct_mapped_cache_has_no_pinning(self):
        cache = SetAssociativeCache(num_entries=4, ways=1)
        assert cache.pin_capacity == 0
        cache.insert("k", 1, pinned=True)  # silently unpinned
        assert cache.probe("k") == 1

    def test_invalidate_clears_pin(self):
        cache = self._full_row_cache()
        cache.insert("pinned", 1, pinned=True)
        cache.invalidate("pinned")
        cache.insert("pinned", 2)  # plain insert, no pin
        for index in range(8):
            cache.insert(("fill", index), index)
        assert cache.probe("pinned") is None


class TestIndexing:
    def test_fold_index_spreads_2m_aligned_pages(self):
        """2 MB-aligned page numbers must not all land in set 0."""
        pages = [0xBBE00 + i * 0x200 for i in range(16)]
        sets = {fold_index(page) % 8 for page in pages}
        assert len(sets) > 1

    def test_default_indexer_uses_page_part_of_tuple(self):
        a = default_indexer((0, 0xBBE00), 8)
        b = default_indexer((1, 0xBBE00), 8)
        assert a == b  # same page, different SID -> same set (conflict!)

    # -1 matters most: a list takes it silently, so without the check the
    # access would land in set num_sets - 1 with no error.
    @pytest.mark.parametrize(
        "indexer", [lambda key, n: n + 1, lambda key, n: -1], ids=["past-end", "negative"]
    )
    @pytest.mark.parametrize(
        "access",
        [
            lambda cache: cache.lookup("k"),
            lambda cache: cache.insert("k", 1),
            lambda cache: cache.probe("k"),
            lambda cache: cache.invalidate("k"),
        ],
        ids=["lookup", "insert", "probe", "invalidate"],
    )
    def test_indexer_out_of_range_rejected(self, access, indexer):
        cache = SetAssociativeCache(num_entries=4, ways=2, indexer=indexer)
        with pytest.raises(ValueError):
            access(cache)
        assert len(cache) == 0


class TestFullyAssociative:
    def test_single_set(self):
        cache = FullyAssociativeCache(num_entries=8)
        assert cache.num_sets == 1
        assert cache.ways == 8

    def test_capacity(self):
        cache = FullyAssociativeCache(num_entries=4, policy="lru")
        for index in range(6):
            cache.insert(index, index)
        assert len(cache) == 4

    def test_no_conflict_misses(self):
        """Any 4 distinct keys coexist regardless of their addresses."""
        cache = FullyAssociativeCache(num_entries=4)
        keys = [(0, 0xBBE00 + i * 0x200) for i in range(4)]
        for key in keys:
            cache.insert(key, key)
        assert all(cache.probe(key) is not None for key in keys)

"""Property-based tests (hypothesis) for core data structures."""

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.policies import HIT, LfuPolicy, make_policy_factory
from repro.cache.setassoc import SetAssociativeCache
from repro.core.ptb import PendingTranslationBuffer
from repro.mem.address import (
    PAGE_SHIFT_2M,
    PAGE_SHIFT_4K,
    level_indices,
    page_base,
    page_number,
    page_offset,
)
from repro.mem.allocator import FrameAllocator
from repro.trace.constructor import Interleaving, interleave
from repro.trace.records import PacketRecord, compute_trace_stats

addresses = st.integers(min_value=0, max_value=(1 << 48) - 1)
page_shifts = st.sampled_from([PAGE_SHIFT_4K, PAGE_SHIFT_2M])


class TestAddressProperties:
    @given(addresses, page_shifts)
    def test_base_plus_offset_reconstructs(self, address, shift):
        assert page_base(address, shift) + page_offset(address, shift) == address

    @given(addresses, page_shifts)
    def test_page_number_consistent_with_base(self, address, shift):
        assert page_number(address, shift) << shift == page_base(address, shift)

    @given(addresses)
    def test_level_indices_reconstruct_upper_bits(self, address):
        indices = level_indices(address)
        rebuilt = 0
        for index in indices:
            rebuilt = (rebuilt << 9) | index
        assert rebuilt == address >> PAGE_SHIFT_4K

    @given(addresses)
    def test_level_indices_in_range(self, address):
        assert all(0 <= index < 512 for index in level_indices(address))


class TestAllocatorProperties:
    @given(st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=40))
    def test_allocations_never_overlap(self, counts):
        allocator = FrameAllocator(base=0)
        regions = []
        for count in counts:
            start = allocator.allocate(count)
            regions.append((start, start + count * 4096))
        regions.sort()
        for (_, end_a), (start_b, _) in zip(regions, regions[1:]):
            assert end_a <= start_b

    @given(st.integers(min_value=1, max_value=30))
    def test_huge_allocations_always_aligned(self, warmup):
        allocator = FrameAllocator(base=0)
        allocator.allocate(warmup)
        assert allocator.allocate_huge() % (2 * 1024 * 1024) == 0


cache_keys = st.tuples(
    st.integers(min_value=0, max_value=31), st.integers(min_value=0, max_value=300)
)
cache_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "lookup", "invalidate"]), cache_keys),
    max_size=200,
)


# Few keys for an 8-entry cache, and long runs (hypothesis draws about
# five items for a list with no min_size), so hits, pins and invalidations
# of resident entries all happen within one example.  A priority of 15
# saturates an LFU counter at once; a quarter of inserts pin, so victim
# scans run both with and without pinned entries to skip.
small_cache_keys = st.tuples(
    st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=5)
)
pinned_cache_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "lookup", "invalidate"]),
        small_cache_keys,
        st.sampled_from([0, 0, 1, 2, 15]),  # insert priority
        st.sampled_from([False, False, False, True]),  # insert pinned
    ),
    min_size=100,
    max_size=400,
)


def fixed_next_use(key):
    """A fixed future for the oracle: page 5 is never reused, and the
    other distances tie often, which exercises the tie-break."""
    sid, page = key
    return None if page == 5 else (sid + page) % 3


def default_indexer(key, num_sets):
    """Address indexing of an unpartitioned cache, kept apart from
    :meth:`SetAssociativeCache.set_index` so the model checks placement
    too."""
    if type(key) is tuple and len(key) == 2:
        value = key[1]
        if type(value) is int:
            return (value ^ (value >> 9) ^ (value >> 18)) % num_sets
    return hash(key) % num_sets


class ReferenceCache:
    """List-based model of :class:`SetAssociativeCache` replacement.

    Each set is a list of ``[key, value, lfu_count]`` entries in the
    policy's order: recency for LRU, insertion for the rest.  Pins are a
    list per set, oldest first.
    """

    COUNTER_MAX = 15

    def __init__(self, num_sets, ways, policy):
        self.num_sets = num_sets
        self.ways = ways
        self.policy = policy
        self.rows = [[] for _ in range(num_sets)]
        self.pins = [[] for _ in range(num_sets)]
        # Each set's random policy draws from its own Random(0).
        self.rngs = [random.Random(0) for _ in range(num_sets)]
        self.pin_capacity = ways - 2 if ways > 2 else ways - 1
        self.evicted = []
        self.stats = dict(hits=0, misses=0, fills=0, evictions=0, invalidations=0)

    def keys(self):
        return [entry[0] for row in self.rows for entry in row]

    def _find(self, row, key):
        for entry in row:
            if entry[0] == key:
                return entry
        return None

    def _bump(self, row, entry, steps):
        if self.policy == "lru":
            row.remove(entry)
            row.append(entry)
        elif self.policy == "lfu":
            for _ in range(steps):
                if entry[2] == self.COUNTER_MAX:
                    for other in row:
                        other[2] //= 2
                entry[2] += 1

    def _victim(self, index):
        pins = self.pins[index]
        candidates = [entry[0] for entry in self.rows[index] if entry[0] not in pins]
        if not candidates:
            return pins.pop(0)
        if self.policy == "lfu":
            counts = {entry[0]: entry[2] for entry in self.rows[index]}
            return min(candidates, key=counts.__getitem__)
        if self.policy == "random":
            return self.rngs[index].choice(candidates)
        if self.policy == "oracle":
            never = [key for key in candidates if fixed_next_use(key) is None]
            return never[0] if never else max(candidates, key=fixed_next_use)
        return candidates[0]

    def _pin(self, pins, key):
        if self.pin_capacity == 0:
            return
        if key in pins:
            pins.remove(key)
        while len(pins) >= self.pin_capacity:
            pins.pop(0)
        pins.append(key)

    def insert(self, key, value, priority, pinned):
        index = default_indexer(key, self.num_sets)
        row, pins = self.rows[index], self.pins[index]
        entry = self._find(row, key)
        if entry is None:
            if len(row) >= self.ways:
                victim = self._victim(index)
                row.remove(self._find(row, victim))
                if victim in pins:
                    pins.remove(victim)
                self.stats["evictions"] += 1
                self.evicted.append((key, victim))
            entry = [key, value, 1]
            row.append(entry)
            self.stats["fills"] += 1
        else:
            entry[1] = value
            self._bump(row, entry, 1)
        if priority:
            self._bump(row, entry, priority)
        if pinned:
            self._pin(pins, key)

    def lookup(self, key):
        index = default_indexer(key, self.num_sets)
        entry = self._find(self.rows[index], key)
        if entry is None:
            self.stats["misses"] += 1
            return None
        self.stats["hits"] += 1
        self._bump(self.rows[index], entry, 1)
        if key in self.pins[index]:
            self.pins[index].remove(key)
        return entry[1]

    def invalidate(self, key):
        index = default_indexer(key, self.num_sets)
        entry = self._find(self.rows[index], key)
        if entry is None:
            return False
        self.rows[index].remove(entry)
        if key in self.pins[index]:
            self.pins[index].remove(key)
        self.stats["invalidations"] += 1
        return True


class TestCacheProperties:
    @given(cache_ops, st.sampled_from(["lru", "lfu", "fifo", "random"]))
    @settings(max_examples=60, deadline=None)
    def test_capacity_invariant(self, operations, policy):
        cache = SetAssociativeCache(num_entries=16, ways=4, policy=policy)
        for operation, key in operations:
            if operation == "insert":
                cache.insert(key, key)
            elif operation == "lookup":
                cache.lookup(key)
            else:
                cache.invalidate(key)
            assert len(cache) <= 16
            for index in range(cache.num_sets):
                assert cache.set_occupancy(index) <= 4

    @given(cache_ops, st.sampled_from(["lru", "lfu"]))
    @settings(max_examples=60, deadline=None)
    def test_lookup_after_insert_without_interference(self, operations, policy):
        """An inserted key is found unless something else was inserted into
        its set afterwards."""
        cache = SetAssociativeCache(num_entries=256, ways=256, policy=policy)
        inserted = set()
        for operation, key in operations:
            if operation == "insert":
                cache.insert(key, key)
                inserted.add(key)
            elif operation == "invalidate":
                cache.invalidate(key)
                inserted.discard(key)
        # 256 entries > max distinct keys in the op list: nothing evicted.
        for key in inserted:
            assert cache.probe(key) == key

    @given(cache_ops)
    @settings(max_examples=60, deadline=None)
    def test_stats_accounting_consistent(self, operations):
        cache = SetAssociativeCache(num_entries=8, ways=2)
        lookups = 0
        for operation, key in operations:
            if operation == "insert":
                cache.insert(key, key)
            elif operation == "lookup":
                cache.lookup(key)
                lookups += 1
            else:
                cache.invalidate(key)
        assert cache.stats.hits + cache.stats.misses == lookups
        assert cache.stats.fills >= len(cache)

    @given(st.lists(cache_keys, min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_partition_isolation_invariant(self, keys):
        """No key is ever stored in a set outside its SID's partition."""
        cache = SetAssociativeCache(num_entries=64, ways=8, num_partitions=8)
        for key in keys:
            cache.insert(key, key)
            partition = key[0] % 8
            # Every resident key of this partition's row belongs to it.
            assert all(
                sid % 8 == partition for sid, _ in cache._sets[partition].entries
            )
            total = sum(
                cache.partition_occupancy(p) for p in range(8)
            )
            assert total == len(cache)
        for key in keys:
            value = cache.probe(key)
            if value is not None:
                assert value == key


    @given(
        pinned_cache_ops, st.sampled_from(["lru", "lfu", "fifo", "random", "oracle"])
    )
    @settings(max_examples=100, deadline=None)
    def test_victim_order_matches_reference_model(self, operations, policy):
        """Every policy evicts the entry a list-based model of its documented
        rule picks, in the same order, with the same statistics."""
        cache = SetAssociativeCache(
            num_entries=8, ways=4, policy=policy,
            next_use=fixed_next_use if policy == "oracle" else None,
        )
        evicted = []
        cache.eviction_listener = lambda key, victim: evicted.append((key, victim))
        model = ReferenceCache(cache.num_sets, cache.ways, policy)
        for step, (operation, key, priority, pinned) in enumerate(operations):
            if operation == "insert":
                cache.insert(key, step, priority=priority, pinned=pinned)
                model.insert(key, step, priority, pinned)
            elif operation == "lookup":
                assert cache.lookup(key) == model.lookup(key)
            else:
                assert cache.invalidate(key) == model.invalidate(key)
        assert evicted == model.evicted
        assert dataclasses.asdict(cache.stats) == model.stats
        assert sorted(cache.keys()) == sorted(model.keys())


# Operations on one set: (operation, key, priority, pinned).  Six keys for
# sets of one to five ways, so that fills evict; a priority of 15 (or a
# one-bit counter) saturates a counter, and the halving that follows is
# what puts counters at 0.
set_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["get"] * 5 + ["put"] * 5 + ["access"] * 5
            + ["promote"] * 2 + ["remove"] * 2 + ["clear"]
        ),
        st.integers(min_value=0, max_value=5),
        st.sampled_from([0, 0, 1, 2, 15]),  # put priority, promote steps
        st.sampled_from([False, False, False, True]),  # put pinned
    ),
    min_size=50,
    max_size=300,
)


def int_next_use(key):
    """A fixed future over integer keys: key 5 is never reused."""
    return None if key == 5 else key % 3


def apply_set_op(entry_set, operation, key, priority, pinned):
    """Run one ``set_ops`` item other than ``access``; return its result."""
    if operation == "get":
        return entry_set.get(key)
    if operation == "put":
        return entry_set.put(key, -key - 1, priority, pinned)
    if operation == "promote":
        if key in entry_set.entries:
            entry_set.promote(key, max(priority, 1))
        return None
    if operation == "remove":
        return entry_set.remove(key)
    entry_set.clear()
    return None


def scanned_victim(lfu):
    """The LFU victim by a scan of the whole row: the oldest unpinned key
    at the least count, or ``None`` when every key is pinned."""
    unpinned = [key for key in lfu.entries if key not in lfu._pins]
    if not unpinned:
        return None
    least = min(lfu.counter(key) for key in unpinned)
    return next(key for key in unpinned if lfu.counter(key) == least)


def set_state(entry_set):
    """Every attribute a checkpoint saves of ``entry_set``, comparable."""
    state = []
    for name in type(entry_set)._state_fields:
        value = getattr(entry_set, name)
        if isinstance(value, random.Random):
            value = value.getstate()
        elif isinstance(value, dict):
            value = list(value.items())
        state.append(value)
    return state


class TestSetProperties:
    @given(
        set_ops,
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_lfu_index_names_the_scanned_victim(
        self, operations, ways, counter_bits
    ):
        """After every operation the index holds exactly the count-0/1
        keys in entry order with the zeros counted, and both ``victim()``
        and every fill's eviction pick what a scan of the row picks."""
        lfu = LfuPolicy(ways, counter_bits)
        for operation, key, priority, pinned in operations:
            resident = key in lfu.entries
            evicts = None
            if not resident and len(lfu) >= ways:
                evicts = scanned_victim(lfu)
                if evicts is None:
                    evicts = next(iter(lfu._pins))
            if operation == "access":
                result = lfu.access(key, -key - 1)
                if resident:
                    assert result is HIT
                else:
                    assert result == evicts
            else:
                result = apply_set_op(lfu, operation, key, priority, pinned)
                if operation == "put":
                    assert result == evicts
            counts = lfu._counts
            assert list(counts) == list(lfu.entries)
            assert list(lfu._low) == [
                key for key in lfu.entries if counts[key] <= 1
            ]
            assert lfu._zeros == list(counts.values()).count(0)
            if lfu.entries:
                assert lfu.victim() == scanned_victim(lfu)

    @given(
        set_ops,
        st.sampled_from(["lru", "lfu", "fifo", "random", "oracle"]),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_access_is_get_then_put_on_a_miss(
        self, operations, policy, ways, counter_bits
    ):
        """``access`` returns what ``get`` and, on a miss, ``put`` return,
        and leaves the same entries, counters, pins and generator state."""

        def make():
            if policy == "lfu":
                return LfuPolicy(ways, counter_bits)
            return make_policy_factory(policy, int_next_use)(ways)

        accessed, composed = make(), make()
        for operation, key, priority, pinned in operations:
            if operation == "access":
                result = accessed.access(key, -key - 1)
                if composed.get(key) is not None:
                    assert result is HIT
                else:
                    assert result == composed.put(key, -key - 1)
            else:
                assert apply_set_op(
                    accessed, operation, key, priority, pinned
                ) == apply_set_op(composed, operation, key, priority, pinned)
            assert set_state(accessed) == set_state(composed)


class TestPtbProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e5),
                st.floats(min_value=0, max_value=1e4),
            ),
            max_size=100,
        ),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, jobs, capacity):
        ptb = PendingTranslationBuffer(capacity)
        now = 0.0
        for arrival_delta, latency in jobs:
            now += arrival_delta
            ptb.issue(now, latency)
            assert ptb.occupancy(now) <= capacity

    @given(st.lists(st.floats(min_value=0.1, max_value=1e4), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_completions_monotone_under_serialisation(self, latencies):
        """With one entry, completion times are strictly increasing."""
        ptb = PendingTranslationBuffer(1)
        last = 0.0
        for latency in latencies:
            completion = ptb.issue(0.0, latency)
            assert completion > last
            last = completion


class TestInterleaveProperties:
    @given(
        st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8),
        st.sampled_from(["RR1", "RR4", "RAND1", "RAND2"]),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_interleave_preserves_per_tenant_order_and_stops_early(
        self, stream_sizes, scheme_text, seed
    ):
        scheme = Interleaving.parse(scheme_text)

        def make_stream(sid, size):
            # A function scope per stream avoids generator late binding.
            return iter(
                PacketRecord(sid=sid, giovas=(index, index + 1, index + 2))
                for index in range(size)
            )

        streams = [
            make_stream(sid, size) for sid, size in enumerate(stream_sizes)
        ]
        merged = list(interleave(streams, scheme, seed=seed))
        # Per-tenant packet order is preserved.
        per_tenant = {}
        for packet in merged:
            per_tenant.setdefault(packet.sid, []).append(packet.giovas[0])
        for sequence in per_tenant.values():
            assert sequence == sorted(sequence)
        # No tenant exceeds its stream size.
        for sid, sequence in per_tenant.items():
            assert len(sequence) <= stream_sizes[sid]

    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=150))
    @settings(max_examples=60, deadline=None)
    def test_trace_stats_totals(self, sids):
        packets = [PacketRecord(sid=sid, giovas=(1, 2, 3)) for sid in sids]
        stats = compute_trace_stats(packets)
        assert stats.total_translations == 3 * len(packets)
        if packets:
            assert (
                stats.min_translations_per_tenant
                <= stats.max_translations_per_tenant
            )

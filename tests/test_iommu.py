"""Unit tests for the IOMMU translate path and context cache."""

import dataclasses
import inspect
import random
from collections import Counter

import pytest

from repro.cache.setassoc import SetAssociativeCache
from repro.iommu.context import ContextCache, ContextEntry, SourceId
from repro.iommu.iommu import Iommu, IommuTimings
from repro.mem.address import PAGE_SHIFT_2M
from repro.mem.allocator import FrameAllocator
from repro.mem.dram import MainMemory
from repro.mem.pagetable import AddressSpace, TranslationFault
from repro.mem.walker import NestedWalkPhase, TwoDimensionalWalk, TwoDimensionalWalker


@pytest.fixture
def tenant(host_allocator):
    space = AddressSpace(FrameAllocator(base=0x4000_0000), host_allocator, "t0")
    space.map_io_page(0x3480_0000)
    space.map_io_page(0xBBE0_0000, PAGE_SHIFT_2M)
    return space


def make_iommu(tenant, with_context=True):
    walker = TwoDimensionalWalker(tenant)
    context = None
    if with_context:
        context = ContextCache()
        context.register(0, ContextEntry(did=0, root_table_hpa=0x1000))
    return Iommu(
        iotlb=SetAssociativeCache(64, 8, name="iotlb"),
        nested_tlb=SetAssociativeCache(1024, 16, name="nested"),
        pte_cache=SetAssociativeCache(512, 16, name="pte"),
        walker_for_sid=lambda sid: walker,
        memory=MainMemory(latency_ns=50.0),
        context_cache=context,
        timings=IommuTimings(iotlb_hit_ns=2.0, cache_hit_ns=2.0),
    )


class TestSourceId:
    def test_value_encoding(self):
        sid = SourceId(bus=1, device=2, function=3)
        assert sid.value == (1 << 8) | (2 << 3) | 3

    def test_from_index_round_trip(self):
        for index in (0, 7, 63, 500):
            assert SourceId.from_index(index).value == index

    def test_field_validation(self):
        with pytest.raises(ValueError):
            SourceId(bus=256, device=0, function=0)
        with pytest.raises(ValueError):
            SourceId(bus=0, device=32, function=0)
        with pytest.raises(ValueError):
            SourceId(bus=0, device=0, function=8)

    def test_from_index_bounds(self):
        with pytest.raises(ValueError):
            SourceId.from_index(-1)


class TestContextCache:
    def test_first_resolve_misses(self):
        cache = ContextCache()
        cache.register(5, ContextEntry(did=5, root_table_hpa=0x1000))
        resolution = cache.resolve(5)
        assert not resolution.hit
        assert resolution.entry.did == 5

    def test_second_resolve_hits(self):
        cache = ContextCache()
        cache.register(5, ContextEntry(did=5, root_table_hpa=0x1000))
        cache.resolve(5)
        assert cache.resolve(5).hit

    def test_unregistered_sid_raises(self):
        with pytest.raises(KeyError):
            ContextCache().resolve(99)

    def test_stats_exposed(self):
        cache = ContextCache()
        cache.register(1, ContextEntry(did=1, root_table_hpa=0))
        cache.resolve(1)
        cache.resolve(1)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1


class TestTranslatePath:
    def test_cold_translation_walks(self, tenant):
        iommu = make_iommu(tenant)
        outcome = iommu.translate(0, 0x3480_0000)
        assert not outcome.iotlb_hit
        assert outcome.memory_accesses > 0
        assert iommu.walks_performed == 1

    def test_cold_4k_walk_reads_bounded_by_24(self, tenant):
        """A fully cold 2-D walk enumerates 24 accesses, but even on the
        first translation the PTE cache captures *in-walk* reuse (the five
        host walks share their upper-level entries), so actual DRAM reads
        land well below 24 and above the 5-phase minimum."""
        iommu = make_iommu(tenant, with_context=False)
        outcome = iommu.translate(0, 0x3480_0000)
        assert 5 < outcome.memory_accesses <= 24
        # Latency = DRAM reads + cache-hit charges + IOTLB lookup.
        hits = 24 - outcome.memory_accesses
        assert outcome.latency_ns == pytest.approx(
            outcome.memory_accesses * 50.0 + hits * 2.0 + 2.0
        )

    def test_warm_translation_hits_iotlb(self, tenant):
        iommu = make_iommu(tenant)
        iommu.translate(0, 0x3480_0000)
        outcome = iommu.translate(0, 0x3480_0008)
        assert outcome.iotlb_hit
        assert outcome.memory_accesses == 0
        assert iommu.walks_performed == 1

    def test_hpa_matches_functional_translation(self, tenant):
        iommu = make_iommu(tenant)
        outcome = iommu.translate(0, 0x3480_0000)
        assert outcome.hpa == tenant.translate(0x3480_0000) & ~0xFFF

    def test_2m_mapping_reports_page_shift(self, tenant):
        iommu = make_iommu(tenant)
        outcome = iommu.translate(0, 0xBBE0_0000)
        assert outcome.page_shift == PAGE_SHIFT_2M

    def test_second_walk_cheaper_via_walk_caches(self, tenant):
        """Nested/PTE caches shorten the second tenant page's walk."""
        iommu = make_iommu(tenant, with_context=False)
        first = iommu.translate(0, 0x3480_0000)
        second = iommu.translate(0, 0xBBE0_0000)
        assert not second.iotlb_hit
        assert second.memory_accesses < first.memory_accesses

    def test_nested_hits_counted(self, tenant):
        iommu = make_iommu(tenant, with_context=False)
        iommu.translate(0, 0x3480_0000)
        second = iommu.translate(0, 0xBBE0_0000)
        assert second.nested_hits > 0

    def test_unmapped_address_faults(self, tenant):
        iommu = make_iommu(tenant)
        with pytest.raises(TranslationFault):
            iommu.translate(0, 0xDEAD_0000)

    def test_invalidate_tenant_flushes_all_structures(self, tenant):
        iommu = make_iommu(tenant)
        iommu.translate(0, 0x3480_0000)
        iommu.invalidate_tenant(0)
        outcome = iommu.translate(0, 0x3480_0000)
        assert not outcome.iotlb_hit
        assert iommu.walks_performed == 2

    def test_context_miss_charges_memory_read(self, tenant):
        with_context = make_iommu(tenant, with_context=True)
        without_context = make_iommu(tenant, with_context=False)
        with_context.translate(0, 0x3480_0000)
        without_context.translate(0, 0x3480_0000)
        assert (
            with_context.memory.stats.page_table_reads
            == without_context.memory.stats.page_table_reads + 1
        )

    def test_dram_accounting(self, tenant):
        iommu = make_iommu(tenant, with_context=False)
        outcome = iommu.translate(0, 0x3480_0000)
        assert iommu.memory.stats.page_table_reads == outcome.memory_accesses
        assert iommu.memory.stats.reads == outcome.memory_accesses


# ----------------------------------------------------------------------
# The one-pass walk charge against the per-access charge it replaced
# ----------------------------------------------------------------------

def charge_per_access(iommu, sid, walk):
    """The reference: one ``lookup`` per walk-cache access, and one
    ``insert`` and one ``memory.read("pte")`` per miss."""
    nested, pte = iommu.nested_tlb, iommu.pte_cache
    hit_ns = iommu.timings.cache_hit_ns
    latency = 0.0
    accesses = nested_hits = nested_misses = 0
    for phase in walk.phases:
        nested_key = (sid, phase.gpa_page)
        if nested.lookup(nested_key) is not None:
            nested_hits += 1
            latency += hit_ns
        else:
            nested_misses += 1
            for address in phase.host_steps:
                pte_key = (sid, address)
                if pte.lookup(pte_key) is not None:
                    latency += hit_ns
                else:
                    latency += iommu.memory.read("pte")
                    accesses += 1
                    pte.insert(pte_key, True)
            nested.insert(nested_key, True)
        if phase.guest_entry_hpa is not None:
            guest_key = (sid, phase.guest_entry_hpa)
            if pte.lookup(guest_key) is not None:
                latency += hit_ns
            else:
                latency += iommu.memory.read("pte")
                accesses += 1
                pte.insert(guest_key, True)
    return latency, accesses, nested_hits, nested_misses


def oracle_next_use(key):
    """A fixed future: some keys are never used again."""
    distance = (key[0] * 31 + key[1] * 7) % 11
    return None if distance == 0 else float(distance)


#: Each layout's walk-cache entries and partitions, at 4 ways.
WALK_CACHE_LAYOUTS = {
    "one-set partitions": (16, 4),
    "multi-set partitions": (32, 2),
    "address indexing": (16, 1),
}


def walk_cache(layout, policy, name):
    num_entries, num_partitions = WALK_CACHE_LAYOUTS[layout]
    return SetAssociativeCache(
        num_entries, 4, num_partitions, policy, name, next_use=oracle_next_use
    )


#: Pool strides with bits at 0-8, 9-17 and 18 up, so that every term of
#: the set-index fold, ``v ^ (v >> 9) ^ (v >> 18)``, moves keys between sets.
PAGE_STRIDE = 0x4_0201
ENTRY_STRIDE = 0x4_0208


def random_walk(rng):
    """A walk over small address pools, so that the caches both hit and
    evict."""
    phases = []
    for level in range(rng.randint(2, 5), -1, -1):
        steps = tuple(
            rng.randrange(48) * ENTRY_STRIDE for _ in range(rng.randint(1, 4))
        )
        phases.append(NestedWalkPhase(
            guest_level=level,
            gpa_page=rng.randrange(24) * PAGE_STRIDE,
            host_steps=steps,
            guest_entry_hpa=rng.randrange(48) * ENTRY_STRIDE if level else None,
        ))
    return TwoDimensionalWalk(giova=0, hpa=0, page_shift=12, phases=tuple(phases))


def walk_iommu(layout, policy, evictions):
    """An IOMMU with non-integer latencies whose walk caches log every
    eviction into ``evictions``."""
    iommu = Iommu(
        iotlb=SetAssociativeCache(16, 4, name="iotlb"),
        nested_tlb=walk_cache(layout, policy, "nested"),
        pte_cache=walk_cache(layout, policy, "pte"),
        walker_for_sid=None,
        memory=MainMemory(latency_ns=49.7),
        timings=IommuTimings(iotlb_hit_ns=2.0, cache_hit_ns=2.3),
    )
    for cache in (iommu.nested_tlb, iommu.pte_cache):
        cache.eviction_listener = (
            lambda key, victim, name=cache.name: evictions.append((name, key, victim))
        )
    return iommu


def set_contents(cache):
    """Each set's entries, pins and replacement state, in order."""
    contents = []
    for entry_set in cache._sets:
        state = [list(entry_set.entries.items()), list(entry_set._pins)]
        if hasattr(entry_set, "_counts"):
            state.append(list(entry_set._counts.items()))
        if hasattr(entry_set, "_rng"):
            state.append(entry_set._rng.getstate())
        contents.append(state)
    return contents


def record_set_calls(cache, calls):
    """Wrap every method of each of ``cache``'s sets so that a call
    appends ``(cache name, method name)`` to ``calls``."""
    for entry_set in cache._sets:
        for name, member in inspect.getmembers(type(entry_set)):
            if inspect.isfunction(member) and not name.startswith("__"):
                method = getattr(entry_set, name)

                def record(*args, _method=method, _name=name, **kwargs):
                    calls.append((cache.name, _name))
                    return _method(*args, **kwargs)

                setattr(entry_set, name, record)


class TestChargeWalk:
    def test_one_set_call_per_access(self, tenant):
        """A cold walk at one-set LFU partitions calls its sets once per
        walk-cache access, hit or fill, and never ``get``, ``put`` or
        ``victim``: the index names each victim."""
        iommu = Iommu(
            iotlb=SetAssociativeCache(16, 4, name="iotlb"),
            nested_tlb=SetAssociativeCache(
                16, 4, num_partitions=4, policy="lfu", name="nested"
            ),
            pte_cache=SetAssociativeCache(
                32, 8, num_partitions=4, policy="lfu", name="pte"
            ),
            walker_for_sid=None,
            memory=MainMemory(latency_ns=50.0),
        )
        calls = []
        for cache in (iommu.nested_tlb, iommu.pte_cache):
            record_set_calls(cache, calls)
        iommu.charge_walk(0, TwoDimensionalWalker(tenant).walk(0x3480_0000))
        nested, pte = iommu.nested_tlb.stats, iommu.pte_cache.stats
        assert nested.evictions > 0 and pte.hits > 0 and pte.evictions > 0
        assert Counter(calls) == {
            ("nested", "access"): nested.hits + nested.misses,
            ("pte", "access"): pte.hits + pte.misses,
        }

    @pytest.mark.parametrize("layout", sorted(WALK_CACHE_LAYOUTS))
    @pytest.mark.parametrize("policy", ["lru", "lfu", "fifo", "random", "oracle"])
    def test_matches_per_access_charge(self, policy, layout):
        reference_evictions, evictions = [], []
        reference = walk_iommu(layout, policy, reference_evictions)
        iommu = walk_iommu(layout, policy, evictions)
        rng = random.Random(f"{policy}/{layout}")
        for _ in range(300):
            sid, walk = rng.randrange(6), random_walk(rng)
            assert iommu.charge_walk(sid, walk) == charge_per_access(
                reference, sid, walk
            )
        assert evictions == reference_evictions
        assert len(evictions) > 100
        assert dataclasses.asdict(iommu.memory.stats) == dataclasses.asdict(
            reference.memory.stats
        )
        for name in ("nested_tlb", "pte_cache"):
            cache, expected = getattr(iommu, name), getattr(reference, name)
            assert dataclasses.asdict(cache.stats) == dataclasses.asdict(expected.stats)
            assert expected.stats.hits > 0
            assert set_contents(cache) == set_contents(expected)

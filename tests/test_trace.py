"""Unit tests for trace records, tenant specs, and workload generation."""

import gc
import tracemalloc
from dataclasses import replace

import pytest

from repro.analysis.isolation import ANTAGONIST
from repro.mem.address import PAGE_SHIFT_2M
from repro.trace.records import (
    PacketRecord,
    compute_trace_stats,
    load_trace,
    write_trace,
)
from repro.trace.tenant import (
    BENCHMARKS,
    IPERF3,
    MEDIASTREAM,
    WEBSEARCH,
    BenchmarkProfile,
    TenantSpec,
    make_tenant_specs,
    profile_by_name,
)
from repro.trace.constructor import Interleaving, interleave
from repro.trace.workload import (
    HOST_PHYSICAL_BASE,
    HyperTenantSystem,
    build_system,
    build_tenant_workload,
)
from repro.mem.allocator import FrameAllocator


class TestPacketRecord:
    def test_json_round_trip(self):
        record = PacketRecord(sid=7, giovas=(1, 2, 3), size_bytes=900)
        assert PacketRecord.from_json(record.to_json()) == record

    def test_from_json_requires_three_giovas(self):
        with pytest.raises(ValueError):
            PacketRecord.from_json('{"sid": 1, "giovas": [1, 2]}')

    def test_trace_file_round_trip(self, tmp_path):
        packets = [PacketRecord(sid=i % 3, giovas=(i, i + 1, i + 2)) for i in range(10)]
        path = tmp_path / "trace.jsonl"
        assert write_trace(path, packets) == 10
        assert load_trace(path) == packets


class TestTraceStats:
    def test_counts_translations_not_packets(self):
        packets = [PacketRecord(sid=0, giovas=(1, 2, 3))] * 4
        stats = compute_trace_stats(packets)
        assert stats.total_packets == 4
        assert stats.total_translations == 12

    def test_min_max_per_tenant(self):
        packets = [PacketRecord(sid=0, giovas=(1, 2, 3))] * 3
        packets += [PacketRecord(sid=1, giovas=(1, 2, 3))] * 1
        stats = compute_trace_stats(packets)
        assert stats.max_translations_per_tenant == 9
        assert stats.min_translations_per_tenant == 3
        assert stats.num_tenants == 2

    def test_empty_trace(self):
        stats = compute_trace_stats([])
        assert stats.as_row() == (0, 0, 0)


class TestBenchmarkProfiles:
    def test_active_translation_sets_match_paper(self):
        """Section V-C: active sets of 8 / 32 / 36 for the three benchmarks."""
        assert IPERF3.active_translation_set == 8
        assert MEDIASTREAM.active_translation_set == 32
        assert WEBSEARCH.active_translation_set == 36

    def test_registry_contains_paper_benchmarks_plus_keyvalue(self):
        assert set(BENCHMARKS) == {
            "iperf3", "mediastream", "websearch", "keyvalue",
        }

    def test_profile_by_name(self):
        assert profile_by_name("iperf3") is IPERF3
        with pytest.raises(ValueError):
            profile_by_name("nginx")

    def test_iperf3_is_perfectly_regular(self):
        assert IPERF3.jump_probability == 0.0

    def test_scaled_preserves_period_for_long_traces(self):
        scaled = MEDIASTREAM.scaled(packets_per_tenant=200_000)
        assert scaled.uses_per_page == 1500

    def test_scaled_shrinks_period_for_short_traces(self):
        scaled = MEDIASTREAM.scaled(packets_per_tenant=600)
        assert 4 <= scaled.uses_per_page < 1500

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchmarkProfile(name="x", num_data_pages=0)
        with pytest.raises(ValueError):
            BenchmarkProfile(name="x", num_data_pages=1, min_packet_fraction=0.0)
        with pytest.raises(ValueError):
            BenchmarkProfile(name="x", num_data_pages=1, jump_probability=1.5)


class TestMakeTenantSpecs:
    def test_count_and_sids(self):
        specs = make_tenant_specs(IPERF3, num_tenants=8, packets_per_tenant=100)
        assert len(specs) == 8
        assert [spec.sid for spec in specs] == list(range(8))

    def test_min_max_fractions_pinned(self):
        specs = make_tenant_specs(MEDIASTREAM, 16, 1000)
        packets = [spec.packets for spec in specs]
        assert max(packets) == 1000
        assert min(packets) == pytest.approx(
            1000 * MEDIASTREAM.min_packet_fraction, abs=1
        )

    def test_single_tenant_gets_full_budget(self):
        (spec,) = make_tenant_specs(MEDIASTREAM, 1, 500)
        assert spec.packets == 500

    def test_deterministic(self):
        a = make_tenant_specs(WEBSEARCH, 32, 1000, seed=3)
        b = make_tenant_specs(WEBSEARCH, 32, 1000, seed=3)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            make_tenant_specs(IPERF3, 0, 100)
        with pytest.raises(ValueError):
            make_tenant_specs(IPERF3, 1, 0)
        with pytest.raises(ValueError):
            TenantSpec(sid=-1, profile=IPERF3, packets=1)


class TestWorkloads:
    def test_workload_packet_count_matches_spec(self, host_allocator):
        spec = make_tenant_specs(IPERF3, 1, 50)[0]
        workload = build_tenant_workload(spec, host_allocator)
        assert len(workload.materialize()) == 50

    def test_all_tenants_share_giova_layout(self, host_allocator):
        """Section IV-D: independent tenants use the same gIOVA pages."""
        specs = make_tenant_specs(MEDIASTREAM, 2, 50)
        first = build_tenant_workload(specs[0], host_allocator)
        second = build_tenant_workload(specs[1], host_allocator)
        pages_a = {p.giovas[1] >> PAGE_SHIFT_2M for p in first.materialize()}
        pages_b = {p.giovas[1] >> PAGE_SHIFT_2M for p in second.materialize()}
        assert pages_a & pages_b

    def test_tenants_have_distinct_host_frames(self, host_allocator):
        specs = make_tenant_specs(MEDIASTREAM, 2, 10)
        first = build_tenant_workload(specs[0], host_allocator)
        second = build_tenant_workload(specs[1], host_allocator)
        giova = 0x3480_0000
        assert first.space.translate(giova) != second.space.translate(giova)

    def test_init_requests_present(self, host_allocator):
        spec = make_tenant_specs(MEDIASTREAM, 1, 10)[0]
        workload = build_tenant_workload(spec, host_allocator)
        assert len(workload.init_requests) == (
            MEDIASTREAM.init_pages * MEDIASTREAM.init_accesses_per_page
        )

    def test_system_registry(self):
        system, workloads = build_system(make_tenant_specs(IPERF3, 3, 10))
        assert system.num_tenants == 3
        assert system.sids() == (0, 1, 2)
        assert system.walker_for(1) is workloads[1].walker

    def test_duplicate_sid_rejected(self):
        system = HyperTenantSystem()
        spec = make_tenant_specs(IPERF3, 1, 10)[0]
        system.add_tenant(spec)
        with pytest.raises(ValueError):
            system.add_tenant(spec)

    def test_remove_tenant(self):
        system, _ = build_system(make_tenant_specs(IPERF3, 2, 10))
        system.remove_tenant(0)
        assert system.sids() == (1,)


def _table_state(table):
    """A page table as plain data: node frames and leaves, in insertion order."""
    return list(table._nodes.items()), list(table._mappings.items())


def _tenant_state(workload):
    space = workload.space
    return (
        _table_state(space.guest_table),
        _table_state(space.host_table),
        space._guest_allocator.frames_allocated,
        workload.init_requests,
    )


def _mixed_specs():
    """Five page layouts, three tenants each, interleaved by SID."""
    profiles = [
        IPERF3,
        WEBSEARCH,
        ANTAGONIST,
        replace(MEDIASTREAM, remap_on_advance=True).scaled(packets_per_tenant=240),
        replace(IPERF3, huge_data_pages=False),
    ]
    return [
        TenantSpec(sid=sid, profile=profiles[sid % len(profiles)], packets=240, seed=sid)
        for sid in range(3 * len(profiles))
    ]


class TestDerivedTenants:
    """HyperTenantSystem maps the first tenant of each page layout and
    copies the rest; every copy must equal the tenant mapped page by page."""

    @pytest.mark.parametrize("interleaving", ["RR1", "RAND1"])
    def test_derived_tenants_equal_mapped_ones(self, interleaving):
        specs = _mixed_specs()
        system = HyperTenantSystem()
        # The reference maps every tenant page by page, each at the host
        # cursor the system added it at.
        reference_allocator = FrameAllocator(base=HOST_PHYSICAL_BASE)
        derived, reference = [], []
        for spec in specs:
            assert (
                reference_allocator.frames_allocated
                == system.host_allocator.frames_allocated
            )
            derived.append(system.add_tenant(spec))
            reference.append(build_tenant_workload(spec, reference_allocator))

        def check():
            assert [_tenant_state(w) for w in derived] == [
                _tenant_state(w) for w in reference
            ]
            assert (
                system.host_allocator.frames_allocated
                == reference_allocator.frames_allocated
            )

        check()
        scheme = Interleaving.parse(interleaving)
        packets = list(interleave([w.packet_stream() for w in derived], scheme, seed=5))
        assert packets == list(
            interleave([w.packet_stream() for w in reference], scheme, seed=5)
        )
        assert any(packet.invalidations for packet in packets)  # remaps ran
        check()
        # Walks back guest nodes and data pages on demand.
        for packet in packets:
            for giova in packet.giovas:
                assert (
                    system.walker_for(packet.sid).walk(giova).hpa
                    == reference[packet.sid].walker.walk(giova).hpa
                )
        check()

    def test_template_is_not_changed_by_its_first_tenant(self):
        specs = make_tenant_specs(
            replace(MEDIASTREAM, remap_on_advance=True), 2, 10
        )
        system = HyperTenantSystem()
        first = system.add_tenant(specs[0])
        first.space.remap_io_page(0xBBE0_0000, PAGE_SHIFT_2M)
        first.walker.walk(0xBBE0_0000)
        cursor = system.host_allocator.frames_allocated
        second = system.add_tenant(specs[1])
        reference_allocator = FrameAllocator(base=HOST_PHYSICAL_BASE)
        reference_allocator.allocate(cursor)
        reference = build_tenant_workload(specs[1], reference_allocator)
        assert _tenant_state(second) == _tenant_state(reference)
        assert (
            system.host_allocator.frames_allocated
            == reference_allocator.frames_allocated
        )

    def test_derived_tenants_share_no_mutable_object(self):
        _, workloads = build_system(make_tenant_specs(MEDIASTREAM, 3, 10))
        owners = {}
        for workload in workloads:
            space = workload.space
            for table in (space.guest_table, space.host_table):
                for obj in (table, table._nodes, table._mappings):
                    assert owners.setdefault(id(obj), workload) is workload
            allocator = space._guest_allocator
            assert owners.setdefault(id(allocator), workload) is workload

    def test_derived_tenants_add_few_tracked_objects(self):
        """A derived tenant's tables are dicts of ints, not an object per
        node and entry, so the garbage collector has little to re-scan."""
        specs = make_tenant_specs(MEDIASTREAM, 96, 10)
        system = HyperTenantSystem()

        def tracked_after_adding(new_specs):
            for spec in new_specs:
                system.add_tenant(spec)
            gc.collect()
            return len(gc.get_objects())

        before = tracked_after_adding(specs[:32])
        after = tracked_after_adding(specs[32:])
        assert (after - before) / 64 <= 48

    def test_derived_tenants_take_few_bytes(self):
        """A derived tenant's leaves are ints and it shares its profile's
        layout, so it costs its two tables' dicts and little more."""
        specs = make_tenant_specs(MEDIASTREAM, 96, 10)
        system = HyperTenantSystem()
        for spec in specs[:32]:
            system.add_tenant(spec)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for spec in specs[32:]:
                system.add_tenant(spec)
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (after - before) / 64 <= 24 * 1024

    def test_tenants_of_a_profile_share_one_layout(self):
        system = HyperTenantSystem()
        by_profile = {}
        for spec in _mixed_specs():
            workload = system.add_tenant(spec)
            layout, init_requests = by_profile.setdefault(
                spec.profile, (workload._ring.layout, workload.init_requests)
            )
            assert workload._ring.layout is layout
            assert workload.init_requests is init_requests
            assert isinstance(init_requests, tuple)
        assert len(by_profile) == 5

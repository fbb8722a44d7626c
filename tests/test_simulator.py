"""Integration tests for the HyperSIO performance model."""

import dataclasses

import pytest

from repro.core.config import TlbConfig, base_config, hypertrio_config
from repro.mem.address import page_base
from repro.obs import Observability
from repro.obs import events as ev
from repro.sim.simulator import HyperSimulator, simulate
from repro.trace.constructor import construct_trace
from repro.trace.tenant import IPERF3, MEDIASTREAM


class TestBasicRuns:
    def test_result_fields_populated(self, base_cfg, small_trace):
        result = simulate(base_cfg, small_trace)
        assert result.config_name == "Base"
        assert result.benchmark == "mediastream"
        assert result.num_tenants == 4
        assert result.interleaving == "RR1"
        assert result.elapsed_ns > 0
        assert result.packets.arrived == len(small_trace.packets)
        assert 0.0 <= result.link_utilization <= 1.0

    def test_all_packets_eventually_processed(self, base_cfg, small_trace):
        """Dropped packets retry at the next slot, so the whole trace is
        consumed."""
        result = simulate(base_cfg, small_trace)
        assert result.packets.bytes_processed == sum(
            p.size_bytes for p in small_trace.packets
        )

    def test_latency_stats_cover_all_requests(self, base_cfg, small_trace):
        result = simulate(base_cfg, small_trace)
        assert result.latency.count == 3 * len(small_trace.packets)
        assert result.latency.mean_ns > 0

    def test_max_packets_truncates(self, base_cfg, small_trace):
        result = simulate(base_cfg, small_trace, max_packets=100)
        assert result.packets.arrived == 100

    def test_deterministic(self, hyper_cfg, small_trace):
        a = simulate(hyper_cfg, small_trace)
        # A fresh trace because cache state lives in the path, not the trace.
        trace = construct_trace(
            MEDIASTREAM, 4, 50_000, interleaving="RR1", max_packets=600
        )
        b = simulate(hyper_cfg, trace)
        assert a.achieved_bandwidth_gbps == pytest.approx(
            b.achieved_bandwidth_gbps
        )

    def test_warmup_must_be_shorter_than_trace(self, base_cfg, small_trace):
        simulator = HyperSimulator(base_cfg, small_trace)
        with pytest.raises(ValueError):
            simulator.run(warmup_packets=len(small_trace.packets))


class TestNativeMode:
    def test_native_achieves_line_rate(self, base_cfg, small_trace):
        result = simulate(base_cfg, small_trace, native=True)
        assert result.link_utilization == pytest.approx(1.0, abs=0.01)

    def test_native_never_drops(self, base_cfg, small_trace):
        result = simulate(base_cfg, small_trace, native=True)
        assert result.packets.dropped == 0


class TestCacheBehaviour:
    def test_few_tenants_hit_devtlb(self, base_cfg, iperf_trace):
        result = simulate(base_cfg, iperf_trace)
        assert result.hit_rate("devtlb") > 0.9

    def test_devtlb_stats_exposed(self, base_cfg, small_trace):
        result = simulate(base_cfg, small_trace)
        assert result.cache_stats["devtlb"].accesses == result.latency.count

    def test_prefetch_stats_only_for_hypertrio(self, base_cfg, hyper_cfg,
                                               small_trace):
        base_result = simulate(base_cfg, small_trace)
        assert "prefetch_buffer" not in base_result.cache_stats
        trace = construct_trace(
            MEDIASTREAM, 4, 50_000, interleaving="RR1", max_packets=600
        )
        hyper_result = simulate(hyper_cfg, trace)
        assert "prefetch_buffer" in hyper_result.cache_stats


class TestPtbEffects:
    def test_base_ptb_saturates_under_misses(self):
        trace = construct_trace(
            MEDIASTREAM, 32, 50_000, interleaving="RR1", max_packets=800
        )
        result = simulate(base_config(), trace)
        assert result.ptb.max_occupancy == 1
        assert result.packets.dropped > 0

    def test_larger_ptb_reduces_drops(self):
        small_drops = None
        for entries, expect_fewer in ((1, False), (32, True)):
            trace = construct_trace(
                MEDIASTREAM, 32, 50_000, interleaving="RR1", max_packets=800
            )
            config = base_config().with_overrides(ptb_entries=entries)
            result = simulate(config, trace)
            if expect_fewer:
                assert result.packets.dropped < small_drops
            else:
                small_drops = result.packets.dropped


class TestOracleIntegration:
    def test_oracle_devtlb_runs_and_beats_lru(self):
        def run(policy):
            trace = construct_trace(
                MEDIASTREAM, 8, 50_000, interleaving="RR1", max_packets=700
            )
            config = base_config().with_overrides(
                devtlb=TlbConfig(num_entries=64, ways=8, policy=policy)
            )
            return simulate(config, trace)

        oracle_result = run("oracle")
        lru_result = run("lru")
        assert (
            oracle_result.hit_rate("devtlb")
            >= lru_result.hit_rate("devtlb") - 1e-9
        )


class TestWalkerPool:
    def test_bounded_walkers_slow_down_misses(self):
        def run(walkers):
            trace = construct_trace(
                MEDIASTREAM, 32, 50_000, interleaving="RR1", max_packets=600
            )
            config = hypertrio_config().with_overrides(
                iommu_walkers=walkers,
                prefetch=dataclasses.replace(
                    hypertrio_config().prefetch, enabled=False
                ),
            )
            return simulate(config, trace)

        bounded = run(1)
        unbounded = run(None)
        assert bounded.achieved_bandwidth_gbps <= unbounded.achieved_bandwidth_gbps


class TestHyperTrioVsBase:
    def test_hypertrio_wins_at_scale(self):
        """The headline claim at small scale: HyperTRIO sustains far more
        bandwidth than Base once tenants thrash the DevTLB."""
        kw = dict(packets_per_tenant=50_000, interleaving="RR1", max_packets=1500)
        base_result = simulate(
            base_config(), construct_trace(MEDIASTREAM, 64, **kw)
        )
        hyper_result = simulate(
            hypertrio_config(), construct_trace(MEDIASTREAM, 64, **kw)
        )
        assert hyper_result.achieved_bandwidth_gbps > (
            3 * base_result.achieved_bandwidth_gbps
        )

    def test_equal_at_tiny_tenant_counts(self):
        kw = dict(packets_per_tenant=50_000, interleaving="RR1", max_packets=800)
        base_result = simulate(base_config(), construct_trace(IPERF3, 2, **kw))
        hyper_result = simulate(
            hypertrio_config(), construct_trace(IPERF3, 2, **kw)
        )
        assert base_result.link_utilization > 0.85
        assert hyper_result.link_utilization > 0.85


def _walkthrough_run():
    """The translation walkthrough's four packets through the real engine.

    Tenant A's packet cold, the same packet warm, the same packet after
    its data page was unmapped, then tenant B's packet over the same
    gIOVAs.  Returns the simulator and the recorded events, one list per
    request, each ending with its ``request.translate`` span.
    """
    trace = construct_trace(
        MEDIASTREAM, num_tenants=2, packets_per_tenant=1000, max_packets=10
    )
    first = trace.packets[0]
    unmapped = dataclasses.replace(first, invalidations=(first.giovas[1] >> 12,))
    other = next(p for p in trace.packets if p.sid != first.sid)
    trace = dataclasses.replace(trace, packets=[first, first, unmapped, other])
    observability = Observability.recording()
    simulator = HyperSimulator(hypertrio_config(), trace, observability=observability)
    simulator.run()
    requests, current = [], []
    for event in observability.tracer.events:
        if event.kind == ev.PACKET_ADMIT:
            continue
        current.append(event)
        if event.kind == ev.REQUEST_TRANSLATE:
            requests.append(current)
            current = []
    return simulator, requests


class TestRequestWalkthrough:
    def test_four_packet_story(self):
        simulator, requests = _walkthrough_run()
        timing = simulator.config.timing
        packets = simulator.trace.packets
        assert len(requests) == 12  # four packets, none dropped
        story = [
            # (sid, which of the three requests miss the DevTLB)
            (packets[0].sid, (True, True, True)),      # cold
            (packets[0].sid, (False, False, False)),   # warm
            (packets[0].sid, (False, True, False)),    # data page unmapped
            (packets[3].sid, (True, True, True)),      # the other tenant
        ]
        cold_data_walk = requests[1][-1].dur_ns
        for index, (sid, misses) in enumerate(story):
            packet = packets[index]
            for slot, (giova, miss) in enumerate(zip(packet.giovas, misses)):
                events = requests[3 * index + slot]
                kinds = [event.kind for event in events]
                translate = events[-1]
                assert {event.sid for event in events} == {sid}
                assert translate.args == {"page": giova >> 12, "hit": not miss}
                if miss:
                    assert kinds[:2] == [ev.DEVTLB_MISS, ev.IOTLB_MISS]
                    assert translate.dur_ns > (
                        timing.iotlb_hit_ns + 2 * timing.pcie_one_way_ns
                    )
                else:
                    assert kinds == [
                        ev.DEVTLB_HIT, ev.PTB_ENQUEUE, ev.PTB_RELEASE,
                        ev.REQUEST_TRANSLATE,
                    ]
                    assert translate.dur_ns == timing.iotlb_hit_ns
        # The re-walk of the unmapped page reuses the cached upper levels.
        assert requests[7][-1].dur_ns < cold_data_walk
        # The DevTLB holds each request's 4 KB host page, as the functional
        # translation gives it, and the two tenants' identical gIOVAs land
        # on distinct frames.
        devtlb = simulator.fabric.devices[0].devtlb
        frames = {}
        for packet in (packets[0], packets[3]):
            space = simulator.trace.system.workloads[packet.sid].space
            for giova in packet.giovas:
                hpa = devtlb.lookup((packet.sid, giova >> 12))[0]
                assert hpa == page_base(space.translate(giova))
                frames[(packet.sid, giova)] = hpa
        for giova in packets[0].giovas:
            assert frames[(packets[0].sid, giova)] != frames[(packets[3].sid, giova)]

    def test_ptb_wait_is_zero_when_an_entry_is_free(self):
        _, requests = _walkthrough_run()
        waits = [
            event.args["wait_ns"]
            for events in requests
            for event in events
            if event.kind == ev.PTB_ENQUEUE
        ]
        # HyperTRIO's 32-entry PTB never fills on four packets.
        assert waits == [0.0] * 12

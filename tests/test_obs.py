"""Tests for the observability layer (tracer, metrics, export, wiring)."""

import json
import random

import pytest

from repro.cache.setassoc import SetAssociativeCache
from repro.core.config import base_config, hypertrio_config
from repro.obs import (
    EvictionAttribution,
    LatencyHistogram,
    MetricsRegistry,
    Observability,
    RecordingTracer,
    bucket_bounds,
    latency_bucket,
    percentile_from_buckets,
    to_chrome_trace,
    write_metrics,
    write_trace,
)
from repro.obs import events as ev
from repro.sim.simulator import HyperSimulator
from repro.trace.constructor import construct_trace
from repro.trace.tenant import MEDIASTREAM


def _run(config, observability=None, tenants=16, packets=1500):
    trace = construct_trace(
        MEDIASTREAM, num_tenants=tenants, packets_per_tenant=200_000,
        max_packets=packets,
    )
    simulator = HyperSimulator(config, trace, observability=observability)
    return simulator.run()


# ----------------------------------------------------------------------
# Histogram bucket math
# ----------------------------------------------------------------------
class TestLatencyBuckets:
    def test_bucket_contains_value(self):
        for value in (0.7, 1.0, 3.5, 61.68, 1000.0, 123456.789):
            low, high = bucket_bounds(latency_bucket(value))
            assert low <= value < high

    def test_buckets_are_ordered(self):
        values = [0.5, 1.0, 2.0, 100.0, 101.0, 1e6]
        ids = [latency_bucket(v) for v in values]
        assert ids == sorted(ids)

    def test_nonpositive_goes_to_zero(self):
        assert latency_bucket(0.0) == 0
        assert latency_bucket(-5.0) == 0
        assert bucket_bounds(0) == (0.0, 0.0)

    def test_percentile_against_brute_force(self):
        """Histogram percentiles land within half a bucket width of the
        exact order statistic over a skewed random sample."""
        rng = random.Random(7)
        samples = [rng.expovariate(1.0 / 500.0) + 60.0 for _ in range(5000)]
        histogram = LatencyHistogram()
        for value in samples:
            histogram.record(value)
        ordered = sorted(samples)
        for p in (50.0, 95.0, 99.0):
            import math

            exact = ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]
            estimate = histogram.percentile(p)
            assert estimate == pytest.approx(exact, rel=0.07)

    def test_percentile_bounds_checked(self):
        with pytest.raises(ValueError):
            percentile_from_buckets({1: 1}, 1, 101.0)

    def test_record_accumulates(self):
        histogram = LatencyHistogram()
        histogram.record(10.0)
        histogram.record(30.0)
        assert histogram.count == 2
        assert histogram.mean_ns == 20.0
        assert histogram.max_ns == 30.0
        assert histogram.min_ns == 10.0

    def test_empty_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.percentile(99.0) == 0.0
        assert histogram.mean_ns == 0.0
        assert histogram.summary()["count"] == 0

    def test_merge(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        for value in (10.0, 20.0):
            a.record(value)
        for value in (5.0, 40.0):
            b.record(value)
        a.merge(b)
        assert a.count == 4
        assert a.min_ns == 5.0
        assert a.max_ns == 40.0
        assert a.total_ns == pytest.approx(75.0)


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_sampling_deterministic_under_fixed_seed(self):
        a = RecordingTracer(sample_rate=0.3, seed=42)
        b = RecordingTracer(sample_rate=0.3, seed=42)
        decisions_a = [a.sample_packet() for _ in range(500)]
        decisions_b = [b.sample_packet() for _ in range(500)]
        assert decisions_a == decisions_b
        assert 50 < sum(decisions_a) < 250  # roughly the configured rate

    def test_sample_rate_extremes(self):
        assert all(
            RecordingTracer(sample_rate=1.0).sample_packet() for _ in range(10)
        )
        never = RecordingTracer(sample_rate=0.0)
        assert not any(never.sample_packet() for _ in range(10))

    def test_max_events_cap(self):
        tracer = RecordingTracer(max_events=3)
        for step in range(5):
            tracer.emit("devtlb.hit", float(step))
        assert len(tracer.events) == 3
        assert tracer.dropped_events == 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RecordingTracer(sample_rate=1.5)
        with pytest.raises(ValueError):
            RecordingTracer(max_events=0)


# ----------------------------------------------------------------------
# Metrics registry / eviction attribution
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_get_or_create_identity(self):
        registry = MetricsRegistry()
        first = registry.counter("hits", structure="devtlb", sid=3)
        second = registry.counter("hits", sid=3, structure="devtlb")
        assert first is second
        first.inc(2)
        assert second.value == 2

    def test_histograms_by_label(self):
        registry = MetricsRegistry()
        registry.histogram("lat", sid=1).record(10.0)
        registry.histogram("lat", sid=2).record(20.0)
        registry.histogram("other", sid=3).record(30.0)
        by_sid = registry.histograms_by_label("lat", "sid")
        assert set(by_sid) == {1, 2}
        assert by_sid[2].max_ns == 20.0

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c", sid=0).inc()
        registry.gauge("g").set(2.5)
        registry.histogram("h", sid=0).record(5.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"][0]["value"] == 1
        assert snapshot["gauges"][0]["value"] == 2.5
        assert snapshot["histograms"][0]["count"] == 1
        json.dumps(snapshot)  # JSON-compatible

    def test_eviction_attribution_counts_cross_tenant(self):
        attribution = EvictionAttribution()
        listener = attribution.listener_for("devtlb")
        listener((1, 100), (2, 200))  # sid 1 evicted sid 2
        listener((1, 101), (2, 201))
        listener((3, 300), (3, 301))  # self-eviction: not cross-tenant
        assert attribution.cross_tenant_count() == 2
        assert attribution.cross_tenant_count("devtlb") == 2
        assert attribution.victim_counts("devtlb") == {2: 2}
        dump = attribution.to_dict()
        assert dump["devtlb"]["total_cross_tenant"] == 2
        assert dump["devtlb"]["pairs"] == {"1->2": 2}

    def test_eviction_attribution_ignores_unkeyed(self):
        attribution = EvictionAttribution()
        attribution.record("cache", "plain-key", (1, 2))
        assert attribution.pairs == {}

    def test_listener_fires_on_real_cache(self):
        cache = SetAssociativeCache(num_entries=2, ways=2, policy="lru")
        attribution = EvictionAttribution()
        cache.eviction_listener = attribution.listener_for("tiny")
        cache.insert((1, 10), "a")
        cache.insert((1, 11), "b")
        cache.insert((2, 12), "c")  # set full: sid 2 evicts a sid-1 entry
        assert attribution.cross_tenant_count("tiny") == 1


# ----------------------------------------------------------------------
# Export formats
# ----------------------------------------------------------------------
class TestExport:
    def _trace_events(self):
        tracer = RecordingTracer()
        tracer.emit(ev.PACKET_ADMIT, 1000.0, sid=3, size_bytes=1542)
        tracer.emit(ev.DEVTLB_MISS, 1000.0, sid=3, page=77)
        tracer.emit(ev.WALKER_WALK, 1100.0, sid=3, dur_ns=500.0, memory_accesses=24)
        tracer.emit(ev.REQUEST_TRANSLATE, 1000.0, sid=3, dur_ns=700.0)
        return tracer.events

    def test_chrome_trace_schema(self):
        document = to_chrome_trace(self._trace_events())
        assert "traceEvents" in document
        records = document["traceEvents"]
        json.dumps(document)
        phases = {record["ph"] for record in records}
        assert phases <= {"M", "X", "i"}
        for record in records:
            assert {"name", "ph", "pid", "tid"} <= set(record)
            if record["ph"] == "X":
                assert record["dur"] > 0
            if record["ph"] == "i":
                assert record["s"] == "t"
        metadata = [r for r in records if r["ph"] == "M"]
        names = {r["name"] for r in metadata}
        assert names == {"process_name", "thread_name"}

    def test_chrome_trace_track_layout(self):
        """One pid per structure, tid = SID inside it."""
        records = to_chrome_trace(self._trace_events())["traceEvents"]
        by_name = {
            r["args"]["name"]: r["pid"]
            for r in records
            if r["ph"] == "M" and r["name"] == "process_name"
        }
        assert {"packet", "devtlb", "walker", "request"} <= set(by_name)
        assert len(set(by_name.values())) == len(by_name)
        spans = [r for r in records if r["ph"] == "X"]
        assert all(r["tid"] == 3 for r in spans)

    def test_timestamps_are_microseconds(self):
        records = to_chrome_trace(self._trace_events())["traceEvents"]
        walk = next(r for r in records if r["name"] == ev.WALKER_WALK)
        assert walk["ts"] == pytest.approx(1.1)
        assert walk["dur"] == pytest.approx(0.5)

    def test_write_trace_dispatch(self, tmp_path):
        events = self._trace_events()
        chrome = write_trace(events, tmp_path / "run.trace.json")
        loaded = json.loads(chrome.read_text())
        assert loaded["traceEvents"]
        jsonl = write_trace(events, tmp_path / "run.trace.jsonl")
        lines = [
            json.loads(line) for line in jsonl.read_text().splitlines() if line
        ]
        assert len(lines) == len(events)
        assert all(line["kind"] in ev.ALL_EVENT_KINDS for line in lines)


# ----------------------------------------------------------------------
# End-to-end through the simulator
# ----------------------------------------------------------------------
class TestSimulatorIntegration:
    def test_disabled_observability_changes_nothing(self):
        baseline = _run(base_config())
        with_null = _run(base_config(), Observability())
        assert with_null.achieved_bandwidth_gbps == baseline.achieved_bandwidth_gbps
        assert with_null.latency.count == baseline.latency.count

    def test_recording_run_emits_valid_events(self):
        observability = Observability.recording()
        result = _run(base_config(), observability)
        events = observability.tracer.events
        assert events
        kinds = {event.kind for event in events}
        assert kinds <= ev.ALL_EVENT_KINDS
        assert ev.PACKET_ADMIT in kinds
        assert ev.REQUEST_TRANSLATE in kinds
        # Every traced packet produced exactly 3 request spans' worth of
        # lifecycle: admits match sampled packets.
        admits = sum(1 for event in events if event.kind == ev.PACKET_ADMIT)
        assert admits == observability.tracer.packets_sampled
        translates = [e for e in events if e.kind == ev.REQUEST_TRANSLATE]
        assert len(translates) == 3 * admits
        assert result.latency.count == 3 * result.packets.accepted

    def test_event_ordering_within_request(self):
        """A request's lookup events never precede its packet's admit."""
        observability = Observability.recording()
        _run(base_config(), observability, tenants=4, packets=200)
        last_admit = {}
        for event in observability.tracer.events:
            if event.kind == ev.PACKET_ADMIT:
                last_admit[event.sid] = event.ts_ns
            elif event.kind in (ev.DEVTLB_HIT, ev.DEVTLB_MISS):
                assert event.ts_ns >= last_admit[event.sid]

    def test_results_unchanged_by_recording(self):
        baseline = _run(base_config())
        traced = _run(base_config(), Observability.recording())
        assert traced.achieved_bandwidth_gbps == baseline.achieved_bandwidth_gbps
        assert traced.packets.dropped == baseline.packets.dropped

    def test_per_sid_histograms_match_overall(self):
        observability = Observability.metrics_only()
        result = _run(base_config(), observability, tenants=8)
        per_sid = observability.metrics.histograms_by_label(
            "translation_latency_ns", "sid"
        )
        assert len(per_sid) == 8
        assert sum(h.count for h in per_sid.values()) == result.latency.count
        merged = LatencyHistogram()
        for histogram in per_sid.values():
            merged.merge(histogram)
        assert merged.max_ns == result.latency.max_ns
        assert merged.percentile(99.0) == result.latency.percentile(99.0)

    def test_per_sid_histogram_correctness_brute_force(self):
        """Per-SID percentiles agree with brute-force over per-SID samples
        reconstructed from a dedicated instrumented run."""
        observability = Observability.metrics_only()
        recorded = []

        class SpyHistogram(LatencyHistogram):
            def record(self, value_ns):
                recorded.append(value_ns)
                super().record(value_ns)

        registry = observability.metrics
        spy = SpyHistogram()
        registry._histograms[("translation_latency_ns", (("sid", 0),))] = spy
        _run(base_config(), observability, tenants=1, packets=400)
        assert spy.count == len(recorded) > 0
        import math

        ordered = sorted(recorded)
        exact = ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]
        assert spy.percentile(95.0) == pytest.approx(exact, rel=0.07)

    def test_cross_tenant_evictions_recorded_for_shared_devtlb(self):
        observability = Observability.metrics_only()
        _run(base_config(), observability, tenants=64, packets=3000)
        assert observability.evictions.cross_tenant_count("devtlb") > 0

    def test_partitioned_devtlb_isolates_tenants(self):
        """HyperTRIO's per-tenant DevTLB partitions cannot cross-evict when
        every tenant owns a partition (8 tenants, 8 partitions)."""
        config = hypertrio_config()
        observability = Observability.metrics_only()
        trace = construct_trace(
            MEDIASTREAM, num_tenants=8, packets_per_tenant=200_000,
            max_packets=2000,
        )
        HyperSimulator(config, trace, observability=observability).run()
        assert observability.evictions.cross_tenant_count("devtlb") == 0

    def test_sampled_run_traces_fewer_packets(self):
        full = Observability.recording(sample_rate=1.0, seed=1)
        sampled = Observability.recording(sample_rate=0.25, seed=1)
        _run(base_config(), full, packets=800)
        _run(base_config(), sampled, packets=800)
        assert 0 < sampled.tracer.packets_sampled < full.tracer.packets_sampled
        assert len(sampled.tracer.events) < len(full.tracer.events)

    def test_metrics_file_end_to_end(self, tmp_path):
        observability = Observability.recording()
        result = _run(base_config(), observability, tenants=8)
        path = write_metrics(tmp_path / "run.metrics.json", observability, result)
        document = json.loads(path.read_text())
        assert document["schema"].startswith("repro-obs-metrics/")
        per_sid = document["per_sid_latency"]
        assert len(per_sid) == 8
        for summary in per_sid.values():
            assert summary["p50_ns"] <= summary["p95_ns"] <= summary["p99_ns"]
            assert summary["p99_ns"] <= summary["max_ns"] * 1.07
        assert "cross_tenant_evictions" in document
        assert document["overall_latency"]["p99_ns"] > 0

    def test_percentiles_in_result(self):
        result = _run(base_config())
        assert set(result.percentiles) == {"p50_ns", "p95_ns", "p99_ns"}
        assert (
            result.percentiles["p50_ns"]
            <= result.percentiles["p95_ns"]
            <= result.percentiles["p99_ns"]
        )
        assert "lat p50/p95/p99" in result.summary()

    def test_prefetch_events_present_with_hypertrio(self):
        observability = Observability.recording()
        config = hypertrio_config()
        trace = construct_trace(
            MEDIASTREAM, num_tenants=8, packets_per_tenant=200_000,
            max_packets=2000,
        )
        HyperSimulator(config, trace, observability=observability).run()
        kinds = {event.kind for event in observability.tracer.events}
        assert ev.PREFETCH_PREDICT in kinds
        assert ev.PREFETCH_ISSUE in kinds
        assert ev.PREFETCH_INSTALL in kinds
        assert ev.PREFETCH_SUPPLY in kinds

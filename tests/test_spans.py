"""Span tracing tests: protocol propagation, parenting, byte-identity.

The asyncio pieces run under ``asyncio.run`` inside synchronous tests
(the environment has no pytest-asyncio).
"""

import asyncio
import itertools

import pytest

from repro.core.config import hypertrio_config
from repro.obs import Observability
from repro.obs.export import spans_to_chrome_events, to_chrome_trace
from repro.obs.spans import SpanContext, SpanRecorder
from repro.runner.serialize import result_to_dict
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.engine import ServiceEngine
from repro.service.server import ServiceServer
from repro.sim.simulator import HyperSimulator
from repro.trace.constructor import construct_trace
from repro.trace.tenant import profile_by_name

TENANTS = 8
PACKETS = 80


def make_trace(num_tenants=TENANTS, packets=PACKETS):
    return construct_trace(
        profile_by_name("mediastream"),
        num_tenants=num_tenants,
        packets_per_tenant=200_000,
        max_packets=packets,
    )


def fake_clock(step_ns=10):
    counter = itertools.count(0, step_ns)
    return lambda: next(counter)


class TestSpanContextWire:
    def test_round_trip(self):
        ctx = SpanContext(trace_id="t7", span_id="c3")
        assert SpanContext.from_wire(ctx.to_wire()) == ctx

    def test_parse_translate_without_trace_is_old_client(self):
        message = {
            "type": protocol.TRANSLATE, "seq": 0, "sid": 1,
            "giovas": [1, 2, 3],
        }
        *_, trace_ctx = protocol.parse_translate(message, None)
        assert trace_ctx is None

    def test_parse_translate_decodes_trace(self):
        message = {
            "type": protocol.TRANSLATE, "seq": 4, "sid": 1,
            "giovas": [1, 2, 3],
            "trace": {"trace_id": "t4", "span_id": "c4"},
        }
        *_, trace_ctx = protocol.parse_translate(message, None)
        assert trace_ctx == SpanContext(trace_id="t4", span_id="c4")

    @pytest.mark.parametrize(
        "trace",
        [
            "t0/c0",                              # not an object
            {"trace_id": "t0"},                   # missing span_id
            {"trace_id": 7, "span_id": "c0"},     # non-string id
            {"trace_id": "t0", "span_id": None},
        ],
    )
    def test_malformed_trace_is_a_protocol_error(self, trace):
        message = {
            "type": protocol.TRANSLATE, "seq": 0, "sid": 1,
            "giovas": [1, 2, 3], "trace": trace,
        }
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_translate(message, None)

    def test_trace_is_a_negotiated_feature(self):
        assert "trace" in protocol.PROTOCOL_FEATURES

    def test_client_message_carries_trace_only_when_enabled(self):
        from repro.trace.records import PacketRecord

        packet = PacketRecord(sid=0, giovas=(1, 2, 3), size_bytes=1500)
        plain = ServiceClient(trace=False)._translate_message(packet, 9, 0)
        traced = ServiceClient(trace=True)._translate_message(packet, 9, 0)
        assert "trace" not in plain
        assert traced["trace"] == {"trace_id": "t9", "span_id": "c9"}


class TestSpanRecorder:
    def test_ids_are_deterministic(self):
        a, b = SpanRecorder(clock=fake_clock()), SpanRecorder(clock=fake_clock())
        for recorder in (a, b):
            recorder.finish(recorder.start("x"))
            recorder.finish(recorder.start("y"))
        assert [s.span_id for s in a.spans] == [s.span_id for s in b.spans]
        assert [s.trace_id for s in a.spans] == [s.trace_id for s in b.spans]

    def test_parenting_inherits_trace_and_sid(self):
        recorder = SpanRecorder(clock=fake_clock())
        root = recorder.start("wire.read", trace_id="t0", parent_id="c0", sid=5)
        child = recorder.start("dispatch", parent=root)
        assert child.trace_id == "t0"
        assert child.parent_id == root.span_id
        assert child.sid == 5
        recorder.finish(child)
        recorder.finish(root, queued=True)
        assert root.attrs["queued"] is True
        assert root.dur_ns > 0

    def test_max_spans_bounds_memory(self):
        recorder = SpanRecorder(clock=fake_clock(), max_spans=2)
        for _ in range(4):
            recorder.finish(recorder.start("x"))
        assert len(recorder.spans) == 2
        assert recorder.dropped_spans == 2


def serve_replay(observability=None, trace_flag=True, packets=PACKETS):
    """Replay a trace against a live in-process server; returns the server."""

    async def run():
        trace = make_trace(packets=packets)
        engine = ServiceEngine(
            hypertrio_config(), trace, observability=observability
        )
        spans = observability.spans if observability else None
        server = ServiceServer(engine, spans=spans)
        await server.start()
        client = ServiceClient("127.0.0.1", server.port, trace=trace_flag)
        hello = await client.connect()
        outcomes = await client.replay(trace.packets, window=16)
        await client.close()
        await server.shutdown()
        return server, hello, outcomes

    return asyncio.run(run())


class TestServiceSpanTree:
    def test_hello_advertises_features(self):
        _, hello, _ = serve_replay(observability=None, trace_flag=False)
        assert set(protocol.PROTOCOL_FEATURES) <= set(hello["features"])

    def test_replay_produces_parented_trees(self):
        obs = Observability.profiling()
        server, _, outcomes = serve_replay(observability=obs)
        packets = PACKETS
        assert len(outcomes) == packets

        spans = server.spans
        assert spans is obs.spans
        assert len(spans.find("wire.read")) == packets
        trees = spans.by_trace()
        assert len(trees) == packets
        for seq in range(packets):
            # Client ids derive from seq: request n lives in trace "t<n>"
            # under the client span "c<n>" (hex).
            tree = trees[f"t{seq:x}"]
            names = sorted(span.name for span in tree)
            assert names == ["admission", "dispatch", "engine.step", "wire.read"]
            by_name = {span.name: span for span in tree}
            wire = by_name["wire.read"]
            assert wire.parent_id == f"c{seq:x}"  # under the client span
            assert by_name["admission"].parent_id == wire.span_id
            dispatch = by_name["dispatch"]
            assert dispatch.parent_id == wire.span_id
            assert by_name["engine.step"].parent_id == dispatch.span_id
            assert dispatch.attrs["outcome"] in ("accepted", "dropped")

    def test_old_client_still_gets_server_side_trees(self):
        obs = Observability.profiling()
        server, _, outcomes = serve_replay(observability=obs, trace_flag=False)
        assert len(outcomes) == PACKETS
        wire_spans = server.spans.find("wire.read")
        assert len(wire_spans) == PACKETS
        # No propagated context: the tree roots server-side, unparented.
        assert all(span.parent_id is None for span in wire_spans)

    def test_disabled_spans_leave_no_recorder_attached(self):
        server, _, outcomes = serve_replay(
            observability=Observability.metrics_only()
        )
        assert server.spans is None
        assert len(outcomes) == PACKETS


class TestByteIdentity:
    def test_results_identical_with_tracing_disabled(self):
        baseline = HyperSimulator(hypertrio_config(), make_trace()).run(
            warmup_packets=0
        )
        disabled = HyperSimulator(
            hypertrio_config(), make_trace(), observability=Observability.disabled()
        ).run(warmup_packets=0)
        assert result_to_dict(baseline) == result_to_dict(disabled)

    def test_profiling_changes_no_modeled_output(self):
        plain = HyperSimulator(hypertrio_config(), make_trace()).run(
            warmup_packets=0
        )
        profiled = HyperSimulator(
            hypertrio_config(), make_trace(),
            observability=Observability.profiling(),
        ).run(warmup_packets=0)
        assert result_to_dict(profiled) == result_to_dict(plain)


class TestSpanExport:
    def test_spans_export_as_complete_events(self):
        recorder = SpanRecorder(clock=fake_clock(1000))
        root = recorder.start("wire.read", trace_id="t0", sid=3)
        child = recorder.start("dispatch", parent=root)
        recorder.finish(child)
        recorder.finish(root)
        open_span = recorder.start("never.finished", trace_id="t0")
        assert open_span.end_ns is None

        events = [
            event
            for event in spans_to_chrome_events(recorder.spans)
            if event["ph"] == "X"
        ]
        assert len(events) == 2  # open spans are skipped
        by_name = {event["name"]: event for event in events}
        assert by_name["dispatch"]["args"]["trace_id"] == "t0"
        assert by_name["dispatch"]["args"]["parent_id"] == root.span_id
        assert by_name["wire.read"]["dur"] >= by_name["dispatch"]["dur"]

    def test_spans_join_the_chrome_document(self):
        recorder = SpanRecorder(clock=fake_clock(1000))
        recorder.finish(recorder.start("wire.read", trace_id="t0", sid=1))
        document = to_chrome_trace([], spans=recorder.spans)
        span_events = [
            event for event in document["traceEvents"] if event.get("ph") == "X"
        ]
        assert len(span_events) == 1

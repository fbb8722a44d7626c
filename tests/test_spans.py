"""Span tracing tests: protocol propagation, parenting, byte-identity.

The service records its request tree as span events of a
:class:`~repro.obs.tracer.RecordingTracer` (``start`` / ``finish``).
The asyncio pieces run under ``asyncio.run`` inside synchronous tests
(the environment has no pytest-asyncio).
"""

import asyncio
import itertools

import pytest

from repro.core.config import hypertrio_config
from repro.obs import Observability
from repro.obs import events as ev
from repro.obs.export import to_chrome_trace
from repro.obs.tracer import RecordingTracer, SpanContext
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


def by_trace(events):
    """Finished span events grouped by trace id, in record order."""
    trees = {}
    for event in events:
        trees.setdefault(event.args["trace_id"], []).append(event)
    return trees


TREE_KINDS = sorted(
    [
        ev.SERVICE_WIRE_READ,
        ev.SERVICE_ADMISSION,
        ev.SERVICE_DISPATCH,
        ev.SERVICE_ENGINE_STEP,
    ]
)


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


class TestSpanEvents:
    def test_ids_are_deterministic(self):
        tracer = RecordingTracer(clock=fake_clock())
        root = tracer.start("x", sid=2)
        child = tracer.start("y", parent=root)
        tracer.finish(child)
        tracer.finish(root)
        wire = tracer.start(
            ev.SERVICE_WIRE_READ, trace_id="t0", parent_id="c0", sid=5
        )
        dispatch = tracer.start(ev.SERVICE_DISPATCH, parent=wire)
        tracer.finish(dispatch)
        tracer.finish(wire)
        tracer.finish(tracer.start("x"))
        # One counter numbers traces and spans: an unparented root takes
        # its trace id first, then its span id.
        ids = [
            (e.args["trace_id"], e.args["span_id"], e.args.get("parent_id"))
            for e in tracer.events
        ]
        assert ids == [
            ("t1", "s3", "s2"),
            ("t1", "s2", None),
            ("t0", "s5", "s4"),
            ("t0", "s4", "c0"),
            ("t6", "s7", None),
        ]
        assert [(e.ts_ns, e.dur_ns) for e in tracer.events] == [
            (10, 10), (0, 30), (50, 10), (40, 30), (80, 10),
        ]

    def test_parenting_inherits_trace_and_sid(self):
        tracer = RecordingTracer(clock=fake_clock())
        root = tracer.start(
            ev.SERVICE_WIRE_READ, trace_id="t0", parent_id="c0", sid=5
        )
        child = tracer.start(ev.SERVICE_DISPATCH, parent=root)
        assert child.args["trace_id"] == "t0"
        assert child.args["parent_id"] == root.args["span_id"]
        assert child.sid == 5
        tracer.finish(child)
        tracer.finish(root, queued=True)
        assert root.args["queued"] is True
        assert root.dur_ns > 0

    def test_max_events_bounds_memory(self):
        tracer = RecordingTracer(clock=fake_clock(), max_events=2)
        for _ in range(4):
            tracer.finish(tracer.start("x"))
        assert len(tracer.events) == 2
        assert tracer.dropped_events == 2


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
        assert len(spans.events) == 4 * packets
        trees = by_trace(spans.events)
        assert len(trees) == packets
        for seq in range(packets):
            # Client ids derive from seq: request n lives in trace "t<n>"
            # under the client span "c<n>" (hex).
            tree = trees[f"t{seq:x}"]
            assert sorted(event.kind for event in tree) == TREE_KINDS
            args = {event.kind: event.args for event in tree}
            wire = args[ev.SERVICE_WIRE_READ]
            assert wire["parent_id"] == f"c{seq:x}"  # under the client span
            assert args[ev.SERVICE_ADMISSION]["parent_id"] == wire["span_id"]
            dispatch = args[ev.SERVICE_DISPATCH]
            assert dispatch["parent_id"] == wire["span_id"]
            step = args[ev.SERVICE_ENGINE_STEP]
            assert step["parent_id"] == dispatch["span_id"]
            assert dispatch["outcome"] in ("accepted", "dropped")

    def test_old_client_still_gets_server_side_trees(self):
        obs = Observability.profiling()
        server, _, outcomes = serve_replay(observability=obs, trace_flag=False)
        assert len(outcomes) == PACKETS
        wire_spans = [
            event for event in server.spans.events
            if event.kind == ev.SERVICE_WIRE_READ
        ]
        assert len(wire_spans) == PACKETS
        # No propagated context: the tree roots server-side, unparented.
        assert all("parent_id" not in span.args for span in wire_spans)

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
            hypertrio_config(), make_trace(), observability=Observability()
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
        tracer = RecordingTracer(clock=fake_clock(1000))
        root = tracer.start(ev.SERVICE_WIRE_READ, trace_id="t0", sid=3)
        child = tracer.start(ev.SERVICE_DISPATCH, parent=root)
        tracer.finish(child)
        tracer.finish(root)
        tracer.start(ev.SERVICE_ENGINE_STEP, parent=child)  # never finished

        events = [
            event
            for event in to_chrome_trace(tracer.events)["traceEvents"]
            if event["ph"] == "X"
        ]
        assert len(events) == 2  # open spans are not recorded
        by_name = {event["name"]: event for event in events}
        dispatch = by_name[ev.SERVICE_DISPATCH]
        wire = by_name[ev.SERVICE_WIRE_READ]
        assert dispatch["args"]["trace_id"] == "t0"
        assert dispatch["args"]["span_id"] == child.args["span_id"]
        assert dispatch["args"]["parent_id"] == root.args["span_id"]
        assert wire["dur"] >= dispatch["dur"]

    def test_spans_join_the_chrome_document(self):
        # The span events share the tracer's exporter: one "service"
        # process, one thread per SID, so each request stays on one track.
        obs = Observability.profiling()
        server, _, _ = serve_replay(observability=obs)
        document = to_chrome_trace(server.spans.events)
        processes = [
            record["args"]["name"] for record in document["traceEvents"]
            if record["name"] == "process_name"
        ]
        assert processes == ["service"]
        tracks = {}
        for record in document["traceEvents"]:
            if record["ph"] == "X":
                tracks.setdefault(record["args"]["trace_id"], set()).add(
                    (record["pid"], record["tid"])
                )
        assert len(tracks) == PACKETS
        assert all(len(track) == 1 for track in tracks.values())

"""Tests for the translation service: protocol, parity, warm restart.

The asyncio pieces run under ``asyncio.run`` inside synchronous tests
(the environment has no pytest-asyncio).
"""

import asyncio
import json

import pytest

from repro.core.config import base_config, hypertrio_config
from repro.runner.serialize import result_from_dict, result_to_dict
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.engine import (
    ServiceEngine,
    UnknownTenantError,
    load_service_checkpoint,
)
from repro.service.server import ConnectionPolicy, ServiceServer
from repro.sim.checkpoint import CheckpointError
from repro.sim.simulator import HyperSimulator
from repro.trace.constructor import construct_trace
from repro.trace.records import PacketRecord
from repro.trace.tenant import profile_by_name

TENANTS = 8
PACKETS = 120


def make_trace(num_tenants=TENANTS, packets=PACKETS, benchmark="mediastream"):
    """A fresh trace per call: traces must never be shared between sims."""
    return construct_trace(
        profile_by_name(benchmark),
        num_tenants=num_tenants,
        packets_per_tenant=200_000,
        max_packets=packets,
    )


def offline_result(config, **trace_kwargs):
    return HyperSimulator(config, make_trace(**trace_kwargs)).run(
        warmup_packets=0
    )


class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"type": protocol.TRANSLATE, "seq": 3, "giovas": [1, 2, 3]}
        assert protocol.decode(protocol.encode(message)) == message

    def test_decode_rejects_non_json(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"not json\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"[1, 2]\n")

    def test_decode_requires_type(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b'{"seq": 1}\n')

    def test_parse_translate_requires_sid_when_unbound(self):
        message = {"type": protocol.TRANSLATE, "seq": 0, "giovas": [1, 2, 3]}
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_translate(message, None)

    def test_parse_translate_validates_giovas(self):
        message = {
            "type": protocol.TRANSLATE, "seq": 0, "sid": 0, "giovas": [1, 2],
        }
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_translate(message, None)

    def test_outcome_wire_round_trip(self):
        outcome = protocol.PacketOutcome(
            sid=3, accepted=False, drop_causes={"ptb_overflow": 1},
            retried=2, arrival_ns=10.0, completion_ns=20.0,
            translations=3, devtlb_hits=1, devtlb_misses=2, latency_ns=7.5,
        )
        wire = outcome.to_wire(seq=9)
        assert wire["seq"] == 9
        assert wire["status"] == "dropped"
        restored = protocol.PacketOutcome.from_wire(wire)
        assert restored == outcome


class TestServiceEngineParity:
    @pytest.mark.parametrize("factory", [base_config, hypertrio_config])
    def test_submit_stream_matches_offline(self, factory):
        config = factory()
        offline = offline_result(config)
        engine = ServiceEngine(config, make_trace())
        for packet in make_trace().packets:
            engine.submit(packet)
        assert engine.flush() == offline

    def test_base_config_exercises_drops(self):
        # The parity above is only meaningful if the retry path runs.
        result = offline_result(base_config())
        assert result.packets.dropped > 0

    def test_flush_is_idempotent_and_terminal(self):
        engine = ServiceEngine(hypertrio_config(), make_trace())
        packets = make_trace().packets
        for packet in packets:
            engine.submit(packet)
        first = engine.flush()
        assert engine.flush() is first
        with pytest.raises(RuntimeError):
            engine.submit(packets[0])

    def test_peek_result_does_not_end_stream(self):
        engine = ServiceEngine(hypertrio_config(), make_trace())
        packets = make_trace().packets
        for packet in packets[:50]:
            engine.submit(packet)
        mid = engine.peek_result()
        assert mid.packets.arrived == 50
        for packet in packets[50:]:
            engine.submit(packet)
        assert engine.processed == len(packets)

    def test_unknown_sid_rejected(self):
        engine = ServiceEngine(hypertrio_config(), make_trace())
        bad = PacketRecord(sid=10_000, giovas=(1, 2, 3))
        with pytest.raises(UnknownTenantError):
            engine.submit(bad)
        assert engine.processed == 0

    def test_checkpoint_round_trip_matches_offline(self, tmp_path):
        config = hypertrio_config()
        offline = offline_result(config)
        engine = ServiceEngine(config, make_trace())
        packets = make_trace().packets
        half = len(packets) // 2
        for packet in packets[:half]:
            engine.submit(packet)
        path = tmp_path / "svc.ckpt"
        engine.save_checkpoint(path, extra_state={"marker": 42})

        restored, state = load_service_checkpoint(path, expect_config=config)
        assert state["marker"] == 42
        assert restored.processed == half
        for packet in packets[half:]:
            restored.submit(packet)
        assert restored.flush() == offline

    def test_checkpoint_config_mismatch_detected(self, tmp_path):
        engine = ServiceEngine(hypertrio_config(), make_trace())
        path = tmp_path / "svc.ckpt"
        engine.save_checkpoint(path)
        with pytest.raises(CheckpointError):
            load_service_checkpoint(path, expect_config=base_config())

    def test_analytic_checkpoint_refused(self, tmp_path):
        path = tmp_path / "analytic.ckpt"
        simulator = HyperSimulator(hypertrio_config(), make_trace())
        simulator.run(
            warmup_packets=0, checkpoint_every=50, checkpoint_path=path
        )
        with pytest.raises(CheckpointError):
            load_service_checkpoint(path)


class TestServiceBatch:
    @staticmethod
    def _trace(tenants, packets):
        return construct_trace(
            profile_by_name("mediastream"),
            num_tenants=tenants,
            packets_per_tenant=100_000,
            max_packets=packets,
        )

    def test_submit_batch_matches_sequential_submit(self):
        config = base_config()
        trace = self._trace(tenants=8, packets=1200)
        packets = list(trace.packets)

        sequential = ServiceEngine(config, trace)
        outcomes_seq = [sequential.submit(p) for p in packets]
        result_seq = sequential.flush()

        batched = ServiceEngine(config, trace)
        outcomes_bat = []
        step = 37  # deliberately not a divisor: exercises a ragged tail
        for start in range(0, len(packets), step):
            outcomes_bat.extend(
                batched.submit_batch(packets[start:start + step])
            )
        result_bat = batched.flush()

        assert [o.__dict__ for o in outcomes_seq] == [
            o.__dict__ for o in outcomes_bat
        ]
        assert json.dumps(result_to_dict(result_seq), sort_keys=True) == (
            json.dumps(result_to_dict(result_bat), sort_keys=True)
        )

    def test_submit_batch_rejects_unknown_sid_before_any_state_change(self):
        trace = self._trace(tenants=4, packets=400)
        packets = list(trace.packets)
        bad = PacketRecord(
            sid=9999, giovas=packets[0].giovas,
            size_bytes=packets[0].size_bytes,
        )
        engine = ServiceEngine(base_config(), trace)
        with pytest.raises(UnknownTenantError):
            engine.submit_batch([packets[0], bad, packets[1]])
        # Total prevalidation: the good packets before the bad one must
        # not have been translated either.
        assert engine.processed == 0


class TestServerEndToEnd:
    def test_replay_and_flush_match_offline_exactly(self):
        config = hypertrio_config()
        offline = offline_result(config)

        async def run():
            engine = ServiceEngine(config, make_trace())
            server = ServiceServer(engine)
            await server.start()
            client = ServiceClient("127.0.0.1", server.port)
            await client.connect()
            outcomes = await client.replay(make_trace().packets)
            flush = await client.flush()
            await client.close()
            await server.shutdown()
            return outcomes, flush

        outcomes, flush = asyncio.run(run())
        assert len(outcomes) == PACKETS
        assert all(o["type"] == protocol.RESULT for o in outcomes)
        wire = flush["result"]
        assert result_from_dict(wire) == offline
        # Byte identity through the serializer (the raw wire dict differs
        # only by JSON's tuple->list coercion).
        assert json.dumps(result_to_dict(offline)) == json.dumps(
            result_to_dict(result_from_dict(wire))
        )

    def test_batched_dispatch_engages_and_matches_offline(self):
        # A windowed replay backlogs the dispatcher queue, so passes pick
        # up multiple requests and take the whole-batch translate path;
        # the flushed result must still be byte-identical to offline.
        config = hypertrio_config()
        offline = offline_result(config)

        async def run():
            engine = ServiceEngine(config, make_trace())
            server = ServiceServer(engine)
            await server.start()
            client = ServiceClient("127.0.0.1", server.port)
            await client.connect()
            await client.replay(make_trace().packets, window=64)
            flush = await client.flush()
            await client.close()
            await server.shutdown()
            return server, flush

        server, flush = asyncio.run(run())
        assert server.batched_requests > 0
        assert result_from_dict(flush["result"]) == offline

    def test_batch_window_one_restores_per_packet_dispatch(self):
        config = hypertrio_config()
        offline = offline_result(config)

        async def run():
            engine = ServiceEngine(config, make_trace())
            server = ServiceServer(engine, batch_window=1)
            await server.start()
            client = ServiceClient("127.0.0.1", server.port)
            await client.connect()
            await client.replay(make_trace().packets, window=64)
            flush = await client.flush()
            await client.close()
            await server.shutdown()
            return server, flush

        server, flush = asyncio.run(run())
        assert server.batched_requests == 0
        assert result_from_dict(flush["result"]) == offline

    def test_stats_reports_live_per_sid_metrics(self):
        from repro.obs import Observability

        async def run():
            engine = ServiceEngine(
                hypertrio_config(), make_trace(),
                observability=Observability.metrics_only(),
            )
            server = ServiceServer(engine)
            await server.start()
            client = ServiceClient("127.0.0.1", server.port)
            await client.connect()
            await client.replay(make_trace().packets)
            stats = await client.stats()
            await client.close()
            await server.shutdown()
            return stats

        stats = asyncio.run(run())
        assert stats["schema"] == protocol.PROTOCOL_SCHEMA
        assert stats["processed"] == PACKETS
        assert stats["packets"]["arrived"] == PACKETS
        per_sid = stats["per_sid"]
        assert len(per_sid) == TENANTS
        for summary in per_sid.values():
            assert summary["count"] > 0
            assert summary["p99_ns"] >= summary["p50_ns"]
            assert summary["devtlb_hits"] + summary["devtlb_misses"] > 0

    def test_hello_rejects_unknown_sid(self):
        async def run():
            engine = ServiceEngine(hypertrio_config(), make_trace())
            server = ServiceServer(engine)
            await server.start()
            client = ServiceClient("127.0.0.1", server.port, sid=999)
            try:
                with pytest.raises(Exception):
                    await client.connect()
            finally:
                await client.close()
                await server.shutdown()

        asyncio.run(run())

    def test_graceful_shutdown_flushes_checkpoint(self, tmp_path):
        path = tmp_path / "svc.ckpt"

        async def run():
            engine = ServiceEngine(hypertrio_config(), make_trace())
            server = ServiceServer(engine, checkpoint_path=path)
            await server.start()
            client = ServiceClient("127.0.0.1", server.port)
            await client.connect()
            await client.replay(make_trace().packets[:40])
            saved = await server.shutdown()
            await client.close()
            return saved

        saved = asyncio.run(run())
        assert saved == str(path)
        engine, _ = load_service_checkpoint(path)
        assert engine.processed == 40

    def test_warm_restart_resumes_to_offline_parity(self, tmp_path):
        """SIGTERM-style restart mid-stream: the combined run is exact."""
        config = hypertrio_config()
        offline = offline_result(config)
        path = tmp_path / "svc.ckpt"
        packets = make_trace().packets
        half = len(packets) // 2

        async def first_half():
            engine = ServiceEngine(config, make_trace())
            server = ServiceServer(engine, checkpoint_path=path)
            await server.start()
            client = ServiceClient("127.0.0.1", server.port)
            await client.connect()
            await client.replay(packets[:half])
            await server.shutdown()  # what request_shutdown() triggers
            await client.close()

        async def second_half():
            engine, state = load_service_checkpoint(path, expect_config=config)
            server = ServiceServer(engine)
            await server.start()
            client = ServiceClient("127.0.0.1", server.port)
            await client.connect()
            await client.replay(packets[half:])
            flush = await client.flush()
            await client.close()
            await server.shutdown()
            return flush

        asyncio.run(first_half())
        flush = asyncio.run(second_half())
        assert flush["packets"] == len(packets)
        assert result_from_dict(flush["result"]) == offline


async def raw_connect(port):
    """A bare protocol-level connection (no client library)."""
    return await asyncio.open_connection("127.0.0.1", port)


async def raw_request(reader, writer, message):
    writer.write(protocol.encode(message))
    await writer.drain()
    return protocol.decode(await reader.readline())


async def with_server(body, policy=None, packets=PACKETS):
    """Run ``body(server)`` against a started server; always cleans up."""
    engine = ServiceEngine(hypertrio_config(), make_trace(packets=packets))
    server = ServiceServer(engine, policy=policy)
    await server.start()
    try:
        return await body(server), server
    finally:
        await server.shutdown()


class TestConnectionSupervision:
    def test_malformed_frame_answered_and_connection_survives(self):
        async def body(server):
            reader, writer = await raw_connect(server.port)
            try:
                writer.write(b"this is not json\n")
                await writer.drain()
                error = protocol.decode(await reader.readline())
                assert error["type"] == protocol.ERROR
                assert error["code"] == protocol.E_BAD_REQUEST
                # The connection is still usable afterwards.
                hello = await raw_request(
                    reader, writer, {"type": protocol.HELLO}
                )
                assert hello["type"] == protocol.HELLO_OK
                assert "conn_supervision" in hello["features"]
                assert "session" in hello["features"]
            finally:
                writer.close()

        asyncio.run(with_server(body))

    def test_oversized_frame_rejected_with_typed_error(self):
        policy = ConnectionPolicy(max_frame_bytes=1024)

        async def body(server):
            reader, writer = await raw_connect(server.port)
            try:
                writer.write(b"x" * 5000)  # no newline needed to trip it
                await writer.drain()
                error = protocol.decode(await reader.readline())
                assert error["code"] == protocol.E_FRAME_TOO_LARGE
                assert await reader.readline() == b""  # server closed
            finally:
                writer.close()
            assert server.conn_counters["frame_too_large"] == 1

        asyncio.run(with_server(body, policy=policy))

    def test_half_open_connection_hits_frame_deadline(self):
        policy = ConnectionPolicy(frame_deadline_s=0.1)

        async def body(server):
            reader, writer = await raw_connect(server.port)
            try:
                writer.write(b'{"type": "hel')  # a frame that never ends
                await writer.drain()
                error = protocol.decode(await reader.readline())
                assert error["code"] == protocol.E_FRAME_TIMEOUT
                assert await reader.readline() == b""
            finally:
                writer.close()
            assert server.conn_counters["frame_timeout"] == 1

        asyncio.run(with_server(body, policy=policy))

    def test_idle_connection_reaped(self):
        policy = ConnectionPolicy(idle_timeout_s=0.05)

        async def body(server):
            reader, writer = await raw_connect(server.port)
            try:
                error = protocol.decode(await reader.readline())
                assert error["code"] == protocol.E_IDLE_TIMEOUT
                assert await reader.readline() == b""
            finally:
                writer.close()
            assert server.conn_counters["idle_timeout"] == 1

        asyncio.run(with_server(body, policy=policy))

    def test_mid_handshake_disconnect_leaves_server_clean(self):
        async def body(server):
            _, writer = await raw_connect(server.port)
            writer.write(b'{"type": "hello"')  # torn hello, then gone
            await writer.drain()
            writer.close()
            # The server treats the torn trailing frame as EOF and a
            # fresh client is unaffected.
            for _ in range(100):
                await asyncio.sleep(0.01)
                if not server._connections:
                    break
            assert not server._connections
            client = ServiceClient("127.0.0.1", server.port)
            await client.connect()
            outcomes = await client.replay(make_trace().packets)
            assert len(outcomes) == PACKETS
            await client.close()

        asyncio.run(with_server(body))

    def test_inflight_cap_refuses_with_retryable_error(self):
        policy = ConnectionPolicy(max_inflight=0)

        async def body(server):
            reader, writer = await raw_connect(server.port)
            try:
                hello = await raw_request(
                    reader, writer, {"type": protocol.HELLO}
                )
                assert hello["type"] == protocol.HELLO_OK
                packet = make_trace().packets[0]
                error = await raw_request(
                    reader,
                    writer,
                    {
                        "type": protocol.TRANSLATE,
                        "seq": 0,
                        "sid": packet.sid,
                        "giovas": list(packet.giovas),
                        "size": packet.size_bytes,
                    },
                )
                assert error["code"] == protocol.E_TOO_MANY_INFLIGHT
                assert error["code"] in protocol.RETRYABLE_CODES
            finally:
                writer.close()
            assert server.conn_counters["too_many_inflight"] == 1

        asyncio.run(with_server(body, policy=policy))

    def test_slow_peer_is_evicted_not_awaited(self):
        # A zero write-buffer cap marks every touched connection slow the
        # moment the dispatcher replies to it — the eviction path runs
        # without needing to actually wedge a socket.
        policy = ConnectionPolicy(max_write_buffer=-1, evict_grace_s=0.05)

        async def body(server):
            reader, writer = await raw_connect(server.port)
            try:
                await raw_request(reader, writer, {"type": protocol.HELLO})
                packet = make_trace().packets[0]
                writer.write(
                    protocol.encode(
                        {
                            "type": protocol.TRANSLATE,
                            "seq": 0,
                            "sid": packet.sid,
                            "giovas": list(packet.giovas),
                            "size": packet.size_bytes,
                        }
                    )
                )
                await writer.drain()
                replies = []
                while True:
                    line = await asyncio.wait_for(reader.readline(), 5.0)
                    if not line:
                        break
                    replies.append(protocol.decode(line))
                kinds = [
                    (r.get("type"), r.get("code")) for r in replies
                ]
                # The queued result still lands, then the eviction notice.
                assert (protocol.RESULT, None) in kinds
                assert (protocol.ERROR, protocol.E_SLOW_PEER) in kinds
            finally:
                writer.close()
            assert server.conn_counters["evicted_slow"] >= 1

        asyncio.run(with_server(body, policy=policy))

    def test_conn_counters_exported_via_stats_and_prom(self):
        async def body(server):
            client = ServiceClient("127.0.0.1", server.port)
            await client.connect()
            await client.replay(make_trace().packets[:10])
            stats = await client.stats()
            prom = await client.stats(fmt="prom")
            await client.close()
            return stats, prom

        (stats, prom), server = asyncio.run(with_server(body))
        conn = stats["conn"]
        assert conn["opened"] >= 1
        assert conn["open"] >= 1
        assert set(server.conn_counters) <= set(conn)
        text = prom["text"]
        assert "conn_opened" in text
        assert "conn_open " in text
        assert "conn_evicted_slow" in text


class TestSessions:
    @staticmethod
    def translate_msg(packet, seq, **extra):
        message = {
            "type": protocol.TRANSLATE,
            "seq": seq,
            "sid": packet.sid,
            "giovas": list(packet.giovas),
            "size": packet.size_bytes,
        }
        if packet.invalidations:
            message["inv"] = list(packet.invalidations)
        message.update(extra)
        return message

    def test_duplicate_seq_served_from_cache_not_retranslated(self):
        async def body(server):
            packets = make_trace().packets
            reader, writer = await raw_connect(server.port)
            try:
                hello = await raw_request(
                    reader, writer,
                    {"type": protocol.HELLO, "session": "s-dup"},
                )
                assert hello["session"] == "s-dup"
                first = await raw_request(
                    reader, writer, self.translate_msg(packets[0], 0)
                )
                assert first["type"] == protocol.RESULT
                assert server.engine.processed == 1
                again = await raw_request(
                    reader, writer, self.translate_msg(packets[0], 0)
                )
                assert again == first  # byte-identical cached reply
                assert server.engine.processed == 1  # never re-ran
            finally:
                writer.close()
            assert server.conn_counters["resends_served"] == 1

        asyncio.run(with_server(body))

    def test_out_of_order_arrivals_dispatch_in_seq_order(self):
        async def body(server):
            packets = make_trace().packets
            reader, writer = await raw_connect(server.port)
            try:
                await raw_request(
                    reader, writer,
                    {"type": protocol.HELLO, "session": "s-ooo"},
                )
                # seq 1 arrives first: held, not translated.
                writer.write(
                    protocol.encode(self.translate_msg(packets[1], 1))
                )
                writer.write(
                    protocol.encode(self.translate_msg(packets[0], 0))
                )
                await writer.drain()
                replies = [
                    protocol.decode(await reader.readline())
                    for _ in range(2)
                ]
                assert [r["seq"] for r in replies] == [0, 1]
            finally:
                writer.close()
            assert server.conn_counters["held"] == 1
            assert server.engine.processed == 2

        asyncio.run(with_server(body))

    def test_session_window_bounds_the_hold_buffer(self):
        policy = ConnectionPolicy(session_window=4)

        async def body(server):
            packets = make_trace().packets
            reader, writer = await raw_connect(server.port)
            try:
                await raw_request(
                    reader, writer,
                    {"type": protocol.HELLO, "session": "s-win"},
                )
                error = await raw_request(
                    reader, writer, self.translate_msg(packets[0], 100)
                )
                assert error["code"] == protocol.E_TOO_MANY_INFLIGHT
            finally:
                writer.close()

        asyncio.run(with_server(body, policy=policy))

    def test_reconnect_resumes_session_and_ack_evicts_cache(self):
        async def body(server):
            packets = make_trace().packets
            reader, writer = await raw_connect(server.port)
            first = await raw_request(
                reader, writer, {"type": protocol.HELLO, "session": "s-re"}
            )
            assert first["type"] == protocol.HELLO_OK
            reply = await raw_request(
                reader, writer, self.translate_msg(packets[0], 0)
            )
            writer.close()
            # Reconnect under the same session id.
            reader, writer = await raw_connect(server.port)
            try:
                await raw_request(
                    reader, writer,
                    {"type": protocol.HELLO, "session": "s-re"},
                )
                assert server.conn_counters["reconnects"] == 1
                resent = await raw_request(
                    reader, writer, self.translate_msg(packets[0], 0)
                )
                assert resent == reply
                session = server._sessions["s-re"]
                assert 0 in session.cache
                # ack=1 says seq 0 will never be resent again.
                nxt = await raw_request(
                    reader, writer,
                    self.translate_msg(packets[1], 1, ack=1),
                )
                assert nxt["type"] == protocol.RESULT
                assert 0 not in session.cache
                assert session.acked == 1
            finally:
                writer.close()
            assert server.engine.processed == 2

        asyncio.run(with_server(body))

    def test_sessionless_wire_format_is_unchanged(self):
        # Legacy clients must see byte-identical behaviour: no session
        # field in hello_ok, no session state server-side.
        async def body(server):
            reader, writer = await raw_connect(server.port)
            try:
                hello = await raw_request(
                    reader, writer, {"type": protocol.HELLO}
                )
                assert "session" not in hello
            finally:
                writer.close()
            assert not server._sessions

        asyncio.run(with_server(body))


class TestSweepRegistration:
    def test_service_saturation_registered(self):
        from repro.analysis.experiments import ALL_EXPERIMENTS

        assert "service_saturation" in ALL_EXPERIMENTS

    def test_driver_produces_full_matrix(self):
        from repro.analysis.scale import SMOKE
        from repro.analysis.service_saturation import service_saturation

        table = service_saturation(SMOKE)
        # smoke: 2 client counts x 1 tenant count
        assert len(table.rows) == 2
        for row in table.rows:
            requests = row[2]
            assert requests == 400

"""Admission-control edge cases for the translation service.

Pins the ISSUE's four edge cases: a zero-rate tenant, a burst exactly at
bucket capacity, backpressure release after the modeled PTB drains, and
a client disconnecting mid-stream without leaking engine state.
"""

import asyncio

import pytest

from repro.core.config import base_config, hypertrio_config
from repro.core.ptb import PendingTranslationBuffer
from repro.service import protocol
from repro.service.admission import (
    AdmissionConfig,
    AdmissionController,
    TokenBucket,
)
from repro.service.client import ServiceClient
from repro.service.engine import ServiceEngine
from repro.service.server import ServiceServer, _Connection, _Session
from repro.trace.constructor import construct_trace
from repro.trace.tenant import profile_by_name


def make_trace(num_tenants=4, packets=80):
    return construct_trace(
        profile_by_name("mediastream"),
        num_tenants=num_tenants,
        packets_per_tenant=200_000,
        max_packets=packets,
    )


class TestAdmissionConfig:
    def test_defaults_are_a_noop(self):
        controller = AdmissionController()
        for _ in range(10_000):
            assert controller.acquire(0, 0.0) is None
        assert controller.check_backpressure(0, 10**9) is False

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            AdmissionConfig(backpressure_mode="drop")

    def test_rejects_bad_burst(self):
        with pytest.raises(ValueError):
            AdmissionConfig(burst=0)

    def test_low_watermark_defaults_to_half_high(self):
        assert AdmissionConfig(ptb_high_watermark=8).low_watermark() == 4
        assert (
            AdmissionConfig(
                ptb_high_watermark=8, ptb_low_watermark=1
            ).low_watermark()
            == 1
        )


class TestTokenBucket:
    def test_burst_exactly_at_capacity(self):
        bucket = TokenBucket(rate_per_s=1.0, capacity=5)
        # A cold bucket admits exactly `capacity` back-to-back requests.
        assert [bucket.try_take(0.0) for _ in range(5)] == [True] * 5
        assert bucket.try_take(0.0) is False
        # One second refills exactly one token at rate 1/s.
        assert bucket.try_take(1.0) is True
        assert bucket.try_take(1.0) is False

    def test_zero_rate_permanently_empty(self):
        bucket = TokenBucket(rate_per_s=0.0, capacity=64)
        assert bucket.try_take(0.0) is False
        assert bucket.try_take(1e9) is False

    def test_refill_caps_at_capacity(self):
        bucket = TokenBucket(rate_per_s=1000.0, capacity=2)
        assert bucket.try_take(0.0)
        assert bucket.tokens == pytest.approx(1.0)
        assert bucket.try_take(100.0)  # long idle: refill capped at 2
        assert bucket.tokens == pytest.approx(1.0)


class TestController:
    def test_zero_rate_tenant_denied_everything(self):
        controller = AdmissionController(
            AdmissionConfig(tenant_rates={3: 0.0})
        )
        assert controller.acquire(3, 0.0) == protocol.E_RATE_LIMITED
        assert controller.acquire(3, 100.0) == protocol.E_RATE_LIMITED
        # Other tenants are unaffected (no global rate configured).
        assert controller.acquire(0, 0.0) is None
        assert controller.stats[3].rate_limited == 2
        assert controller.stats[3].admitted == 0

    def test_queue_depth_cap_and_release(self):
        controller = AdmissionController(AdmissionConfig(max_queue_depth=2))
        assert controller.acquire(0, 0.0) is None
        assert controller.acquire(0, 0.0) is None
        assert controller.acquire(0, 0.0) == protocol.E_QUEUE_FULL
        controller.release(0)
        assert controller.acquire(0, 0.0) is None
        assert controller.in_flight(0) == 2

    def test_backpressure_hysteresis(self):
        controller = AdmissionController(
            AdmissionConfig(ptb_high_watermark=8, ptb_low_watermark=2)
        )
        assert controller.check_backpressure(0, 7) is False
        assert controller.check_backpressure(0, 8) is True
        # Latched: stays on anywhere above the low watermark...
        assert controller.check_backpressure(0, 5) is True
        assert controller.check_backpressure(0, 3) is True
        # ...and releases only once occupancy reaches it.
        assert controller.check_backpressure(0, 2) is False
        assert controller.check_backpressure(0, 3) is False

    def test_reset_runtime_keeps_cumulative_stats(self):
        controller = AdmissionController(
            AdmissionConfig(rate_per_s=10.0, max_queue_depth=4)
        )
        controller.acquire(0, 0.0)
        controller.check_backpressure(0, 0)
        controller.reset_runtime()
        assert controller.in_flight(0) == 0
        assert controller.stats[0].admitted == 1
        for bucket in controller._buckets.values():
            assert bucket.last is None


class TestPtbDrain:
    def test_drain_time_to_target(self):
        ptb = PendingTranslationBuffer(num_entries=8)
        for t in (10.0, 20.0, 30.0, 40.0):
            ptb.issue(now=0.0, latency_ns=t)  # completes at t (no queueing)
        assert ptb.occupancy(0.0) == 4
        # Reaching occupancy 2 means the 2 earliest completions retired.
        assert ptb.drain_time_to(2) == 20.0
        assert ptb.drain_time_to(4) == 0.0
        assert ptb.drain_time_to(0) == 40.0

    def test_backpressure_releases_after_stall(self):
        """Pause-mode: stalling to the drain time releases the latch."""
        trace = make_trace()
        engine = ServiceEngine(base_config(), trace)
        controller = AdmissionController(
            AdmissionConfig(
                ptb_high_watermark=1,
                ptb_low_watermark=0,
                backpressure_mode="pause",
            )
        )
        saw_latch = False
        for packet in trace.packets:
            device = engine.device_for_sid(packet.sid)
            if controller.check_backpressure(
                device, engine.ptb_occupancy(device)
            ):
                saw_latch = True
                engine.stall_until_drained(
                    device, controller.config.low_watermark()
                )
                # After the stall the PTB has drained to the target, so
                # the latch must release on the next check.
                occupancy = engine.ptb_occupancy(device)
                assert occupancy <= controller.config.low_watermark()
                assert controller.check_backpressure(device, occupancy) is False
            engine.submit(packet)
        assert saw_latch  # base config (PTB=1) must trip the watermark
        assert engine.processed == len(trace.packets)


class TestServerAdmission:
    def test_zero_rate_tenant_over_the_wire(self):
        async def run():
            trace = make_trace()
            victim = trace.packets[0].sid
            engine = ServiceEngine(hypertrio_config(), trace)
            server = ServiceServer(
                engine,
                admission=AdmissionConfig(tenant_rates={victim: 0.0}),
            )
            await server.start()
            client = ServiceClient("127.0.0.1", server.port)
            await client.connect()
            outcomes = await client.replay(trace.packets)
            await client.close()
            await server.shutdown()
            return victim, outcomes

        victim, outcomes = asyncio.run(run())
        for reply in outcomes:
            if reply.get("type") == protocol.ERROR:
                assert reply["code"] == protocol.E_RATE_LIMITED
            else:
                assert reply["sid"] != victim
        errors = [r for r in outcomes if r.get("type") == protocol.ERROR]
        results = [r for r in outcomes if r.get("type") == protocol.RESULT]
        assert errors and results
        assert len(errors) + len(results) == len(outcomes)

    def test_shed_mode_backpressure_over_the_wire(self):
        async def run():
            trace = make_trace()
            engine = ServiceEngine(base_config(), trace)
            server = ServiceServer(
                engine,
                admission=AdmissionConfig(
                    ptb_high_watermark=1, ptb_low_watermark=0,
                    backpressure_mode="shed",
                ),
            )
            await server.start()
            client = ServiceClient("127.0.0.1", server.port)
            await client.connect()
            outcomes = await client.replay(trace.packets)
            stats = await client.stats()
            await client.close()
            await server.shutdown()
            return outcomes, stats

        outcomes, stats = asyncio.run(run())
        sheds = [
            r for r in outcomes
            if r.get("type") == protocol.ERROR
            and r["code"] == protocol.E_BACKPRESSURE
        ]
        assert sheds  # PTB=1 with watermark 1 must shed under load
        assert len(outcomes) == 80
        total_shed = sum(
            tenant["backpressure_shed"]
            for tenant in stats["admission"].values()
        )
        assert total_shed == len(sheds)

    def test_disconnect_mid_stream_leaks_no_engine_state(self):
        """A dead client's queued requests are translated exactly once."""

        class _DeadWriter:
            def write(self, data):
                pass

            async def drain(self):
                pass

            def close(self):
                pass

        async def run():
            trace = make_trace()
            engine = ServiceEngine(
                hypertrio_config(), trace,
            )
            server = ServiceServer(
                engine, admission=AdmissionConfig(max_queue_depth=16)
            )
            await server.start()
            queued = trace.packets[:5]
            session = _Session("s-dead")
            session.next_seq = len(queued)
            server._sessions[session.session_id] = session
            conn = _Connection(_DeadWriter(), name="dead-client")
            conn.session = session
            for seq, packet in enumerate(queued):
                assert server.admission.acquire(packet.sid, 0.0) is None
                server._queue.put_nowait((conn, seq, packet, None))
            # The client dies before the dispatcher reaches its requests.
            conn.closed = True
            await server._queue.join()
            processed = engine.processed
            in_flight = {
                packet.sid: server.admission.in_flight(packet.sid)
                for packet in queued
            }
            # The client comes back under its session and resends them.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                writer.write(
                    protocol.encode(
                        {"type": protocol.HELLO, "session": session.session_id}
                    )
                )
                for seq, packet in enumerate(queued):
                    writer.write(
                        protocol.encode(
                            {
                                "type": protocol.TRANSLATE,
                                "seq": seq,
                                "sid": packet.sid,
                                "giovas": list(packet.giovas),
                                "size": packet.size_bytes,
                            }
                        )
                    )
                await writer.drain()
                replies = [
                    protocol.decode(await reader.readline())
                    for _ in range(1 + len(queued))
                ]
            finally:
                writer.close()
            resent_processed = engine.processed
            await server.shutdown()
            return processed, in_flight, replies, resent_processed, session

        processed, in_flight, replies, resent_processed, session = asyncio.run(
            run()
        )
        assert processed == 5  # translated once, replies cached
        # Every admission slot was returned, for every affected tenant.
        assert all(count == 0 for count in in_flight.values())
        assert replies[0]["type"] == protocol.HELLO_OK
        results = replies[1:]
        assert [r["seq"] for r in results] == [0, 1, 2, 3, 4]
        assert results == [session.cache[seq] for seq in range(5)]
        assert all(r["type"] == protocol.RESULT for r in results)
        assert resent_processed == 5  # the resend never re-ran the engine

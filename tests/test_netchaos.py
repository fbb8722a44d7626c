"""Wire-level chaos: network fault plans, the chaos proxy, and parity.

The headline guarantee under test: every client carries an exactly-once
session, so a replay whose wire is attacked by *every*
:class:`NetworkFaultPlan` fault class still flushes a
``SimulationResult`` byte-identical to offline ``simulate`` — and a
fault-free plan leaves the byte stream untouched.

Asyncio pieces run under ``asyncio.run`` inside synchronous tests (no
pytest-asyncio in the environment).
"""

import asyncio
import json
import pickle

import pytest

from repro.core.config import hypertrio_config
from repro.faults import FaultPlanFormatError
from repro.faults.netchaos import (
    ChaosProxy,
    CoalesceSpec,
    CorruptSpec,
    CutSpec,
    DropSpec,
    NetworkFaultPlan,
    ReconnectStormSpec,
    SplitSpec,
    StallSpec,
    netplan_from_dict,
    netplan_from_json,
    netplan_to_dict,
    netplan_to_json,
)
from repro.runner.serialize import result_from_dict, result_to_dict
from repro.service import protocol
from repro.service.client import CircuitBreaker, ServiceClient
from repro.service.engine import ServiceEngine
from repro.service.server import ConnectionPolicy, ServiceServer
from repro.sim.simulator import HyperSimulator
from repro.trace.constructor import construct_trace
from repro.trace.tenant import profile_by_name

TENANTS = 8
PACKETS = 120


def make_trace(num_tenants=TENANTS, packets=PACKETS):
    return construct_trace(
        profile_by_name("mediastream"),
        num_tenants=num_tenants,
        packets_per_tenant=200_000,
        max_packets=packets,
    )


def offline_result(config):
    return HyperSimulator(config, make_trace()).run(warmup_packets=0)


def full_plan(seed=7):
    """One plan exercising every spec type (for round-trip tests)."""
    return NetworkFaultPlan(
        seed=seed,
        drops=(DropSpec(after_frames=3), DropSpec(after_frames=9, connection=1)),
        cuts=(CutSpec(frame=2, direction="response", cut_bytes=5),),
        corruptions=(CorruptSpec(frame=4, offset=11, connection=2),),
        stalls=(StallSpec(frame=1, delay_s=0.5, direction="response"),),
        splits=(SplitSpec(chunk_bytes=3),),
        coalesces=(CoalesceSpec(frames=4, direction="response"),),
        reconnect_storms=(
            ReconnectStormSpec(connections=2, after_frames=1, jitter_frames=2),
        ),
    )


class TestNetworkFaultPlanFormat:
    def test_json_round_trip_is_exact(self):
        plan = full_plan()
        assert netplan_from_json(netplan_to_json(plan)) == plan

    def test_dict_form_omits_defaults_and_empty_spec_lists(self):
        document = netplan_to_dict(
            NetworkFaultPlan(seed=1, drops=(DropSpec(after_frames=2),))
        )
        assert document == {"seed": 1, "drops": [{"after_frames": 2}]}

    def test_round_trip_is_bit_stable(self):
        text = netplan_to_json(full_plan())
        assert netplan_to_json(netplan_from_json(text)) == text

    def test_null_plan(self):
        assert NetworkFaultPlan().is_null
        assert not NetworkFaultPlan(drops=(DropSpec(after_frames=0),)).is_null

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(FaultPlanFormatError):
            netplan_from_dict({"seed": 0, "jitter": []})

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(FaultPlanFormatError):
            netplan_from_dict(
                {"drops": [{"after_frames": 1, "surprise": True}]}
            )

    def test_invalid_spec_values_rejected(self):
        with pytest.raises(FaultPlanFormatError):
            netplan_from_dict({"drops": [{"after_frames": -1}]})
        with pytest.raises(FaultPlanFormatError):
            netplan_from_dict({"cuts": [{"frame": 0, "direction": "sideways"}]})
        with pytest.raises(FaultPlanFormatError):
            netplan_from_dict({"seed": "zero"})

    def test_spec_validation_is_eager(self):
        with pytest.raises(ValueError):
            CoalesceSpec(frames=1)
        with pytest.raises(ValueError):
            StallSpec(frame=0, delay_s=-1.0)

    def test_storm_schedule_is_seeded(self):
        plan = NetworkFaultPlan(
            seed=42,
            reconnect_storms=(
                ReconnectStormSpec(
                    connections=8, after_frames=2, jitter_frames=5
                ),
            ),
        )
        first = ChaosProxy("127.0.0.1", 1, plan)._storm_drops
        second = ChaosProxy("127.0.0.1", 1, plan)._storm_drops
        assert first == second
        assert set(first) == set(range(8))
        assert all(2 <= point <= 7 for point in first.values())


async def settle(extra_tasks=0):
    """Wait for background tasks (connection handlers) to finish."""
    deadline = asyncio.get_running_loop().time() + 5.0
    while asyncio.get_running_loop().time() < deadline:
        others = [
            t for t in asyncio.all_tasks() if t is not asyncio.current_task()
        ]
        if len(others) <= extra_tasks:
            return
        await asyncio.sleep(0.01)
    raise AssertionError(f"dangling tasks: {others}")


async def chaos_replay(
    config,
    plan,
    *,
    request_timeout=1.0,
    window=32,
    policy=None,
    breaker=None,
    flush=True,
):
    """Replay a trace through a chaos proxy; returns the full picture."""
    engine = ServiceEngine(config, make_trace())
    server = ServiceServer(engine, policy=policy)
    await server.start()
    proxy = ChaosProxy("127.0.0.1", server.port, plan)
    await proxy.start()
    client = ServiceClient(
        "127.0.0.1",
        proxy.port,
        request_timeout=request_timeout,
        breaker=breaker,
    )
    try:
        await client.connect()
        outcomes = await client.replay(make_trace().packets, window=window)
        flush_reply = await client.flush() if flush else None
    finally:
        await client.close()
        await proxy.aclose()
        await server.shutdown()
    await settle()
    assert proxy.live_links == 0
    assert not server._connections
    return outcomes, flush_reply, server, proxy, client


def assert_byte_parity(flush_reply, offline):
    restored = result_from_dict(flush_reply["result"])
    assert restored == offline
    assert json.dumps(result_to_dict(offline), sort_keys=True) == json.dumps(
        result_to_dict(restored), sort_keys=True
    )


class TestChaosParity:
    """Each fault class: lossless, byte-identical to offline simulate."""

    def run_plan(self, plan, **kwargs):
        config = hypertrio_config()
        offline = offline_result(config)
        outcomes, flush_reply, server, proxy, client = asyncio.run(
            chaos_replay(config, plan, **kwargs)
        )
        assert len(outcomes) == PACKETS
        assert all(o["type"] == protocol.RESULT for o in outcomes)
        assert_byte_parity(flush_reply, offline)
        return server, proxy, client

    def test_null_plan_is_byte_transparent(self):
        # Fault-free wire: the proxy must not perturb a single byte, for
        # a client with no request deadline and no circuit breaker.
        server, proxy, client = self.run_plan(None, request_timeout=None)
        assert proxy.transparent()
        assert proxy.total_faults == 0
        assert client.reconnects == 0

    def test_connection_drop_mid_stream(self):
        plan = NetworkFaultPlan(drops=(DropSpec(after_frames=20),))
        server, proxy, client = self.run_plan(plan)
        assert proxy.faults_injected["drop"] == 1
        assert client.reconnects >= 1
        assert server.conn_counters["reconnects"] >= 1
        assert server.engine.processed == PACKETS  # exactly once

    def test_mid_frame_cut_of_a_request(self):
        plan = NetworkFaultPlan(cuts=(CutSpec(frame=8, direction="request"),))
        server, proxy, client = self.run_plan(plan)
        assert proxy.faults_injected["cut"] == 1
        assert client.reconnects >= 1
        assert server.engine.processed == PACKETS

    def test_corrupted_response_frame(self):
        # Frame 0 of the response stream is hello_ok; corrupt a result.
        plan = NetworkFaultPlan(
            corruptions=(CorruptSpec(frame=5, direction="response", offset=9),)
        )
        server, proxy, client = self.run_plan(plan)
        assert proxy.faults_injected["corrupt"] == 1
        assert client.reconnects >= 1
        assert server.conn_counters["resends_served"] >= 1

    def test_corrupted_request_frame(self):
        # The server answers bad_request to the torn JSON; the client's
        # deadline forces the resend that the session dedups.
        plan = NetworkFaultPlan(
            corruptions=(CorruptSpec(frame=6, direction="request", offset=4),)
        )
        server, proxy, client = self.run_plan(
            plan, request_timeout=0.4, window=4
        )
        assert proxy.faults_injected["corrupt"] == 1
        assert server.engine.processed == PACKETS

    def test_stalled_request_hits_the_deadline(self):
        plan = NetworkFaultPlan(
            stalls=(StallSpec(frame=10, delay_s=1.5, direction="request"),)
        )
        server, proxy, client = self.run_plan(
            plan, request_timeout=0.3, window=4
        )
        assert proxy.faults_injected["stall"] == 1
        assert client.request_timeouts >= 1
        assert server.engine.processed == PACKETS

    def test_split_and_coalesced_writes_are_reassembled(self):
        plan = NetworkFaultPlan(
            splits=(SplitSpec(chunk_bytes=7, direction="request"),),
            coalesces=(CoalesceSpec(frames=5, direction="response"),),
        )
        server, proxy, client = self.run_plan(plan)
        # Re-chunking preserves every byte: still transparent.
        assert proxy.transparent()
        assert client.reconnects == 0

    def test_reconnect_storm(self):
        plan = NetworkFaultPlan(
            seed=3,
            reconnect_storms=(
                ReconnectStormSpec(
                    connections=3, after_frames=2, jitter_frames=3
                ),
            ),
        )
        server, proxy, client = self.run_plan(
            plan, breaker=CircuitBreaker(failure_threshold=8)
        )
        assert proxy.faults_injected["drop"] == 3
        assert client.reconnects >= 3
        assert server.conn_counters["opened"] >= 4
        assert server.conn_counters["reconnects"] >= 3
        assert server.engine.processed == PACKETS

    def test_combined_plan_all_classes_at_once(self):
        # One fault class per proxied connection, early enough in each
        # connection's life to be deterministically reached: the client
        # survives stall -> corrupt -> cut -> drop, then finishes on a
        # split/coalesced but lossless fifth connection.
        plan = NetworkFaultPlan(
            seed=11,
            stalls=(
                StallSpec(
                    frame=2, delay_s=1.0, direction="response", connection=0
                ),
            ),
            corruptions=(
                CorruptSpec(
                    frame=4, direction="response", offset=3, connection=1
                ),
            ),
            cuts=(CutSpec(frame=6, direction="request", connection=2),),
            drops=(DropSpec(after_frames=10, connection=3),),
            splits=(SplitSpec(chunk_bytes=11, direction="response", connection=4),),
            coalesces=(CoalesceSpec(frames=3, direction="request", connection=4),),
        )
        server, proxy, client = self.run_plan(
            plan, request_timeout=0.4, window=8
        )
        assert set(proxy.faults_injected) == {"stall", "corrupt", "cut", "drop"}
        assert client.reconnects >= 4
        assert server.engine.processed == PACKETS


class TestClientHardening:
    def test_connect_survives_mid_handshake_drops(self):
        # The first two proxied connections die on the hello frame; the
        # client's in-loop handshake retry rides through both.
        config = hypertrio_config()
        plan = NetworkFaultPlan(
            drops=(
                DropSpec(after_frames=0, connection=0),
                DropSpec(after_frames=0, connection=1),
            )
        )

        async def run():
            engine = ServiceEngine(config, make_trace())
            server = ServiceServer(engine)
            await server.start()
            proxy = ChaosProxy("127.0.0.1", server.port, plan)
            await proxy.start()
            client = ServiceClient("127.0.0.1", proxy.port)
            try:
                hello = await client.connect()
            finally:
                await client.close()
                await proxy.aclose()
                await server.shutdown()
            await settle()
            return hello, server, proxy, client

        hello, server, proxy, client = asyncio.run(run())
        assert hello["type"] == protocol.HELLO_OK
        assert hello["session"] == client.session_id
        assert client.connect_attempts >= 3
        assert proxy.faults_injected["drop"] == 2
        # The surviving hello reported its retry count to the server.
        assert server.conn_counters["handshake_retries"] >= 2

    def test_connect_gives_up_after_timeout(self):
        async def run():
            client = ServiceClient(
                "127.0.0.1", 1, connect_timeout=0.3, backoff_cap=0.05
            )
            with pytest.raises(OSError):
                await client.connect()
            return client

        client = asyncio.run(run())
        assert client.connect_attempts >= 2

    def test_typed_handshake_refusal_is_not_retried(self):
        async def run():
            engine = ServiceEngine(hypertrio_config(), make_trace())
            server = ServiceServer(engine)
            await server.start()
            client = ServiceClient("127.0.0.1", server.port, sid=10_000)
            try:
                with pytest.raises(Exception) as excinfo:
                    await client.connect()
            finally:
                await client.close()
                await server.shutdown()
            await settle()
            return client, excinfo.value

        client, error = asyncio.run(run())
        assert "handshake failed" in str(error)
        assert client.connect_attempts == 1


class TestCircuitBreaker:
    def test_state_machine_and_cooldown_ladder(self):
        clock = [0.0]
        sleeps = []

        async def fake_sleep(seconds):
            sleeps.append(seconds)
            clock[0] += seconds

        async def run():
            breaker = CircuitBreaker(
                failure_threshold=2,
                cooldown_s=1.0,
                clock=lambda: clock[0],
                sleep=fake_sleep,
            )
            await breaker.before_attempt()  # closed: no wait
            assert not sleeps
            breaker.record_failure()
            assert breaker.state == "closed"
            breaker.record_failure()
            assert breaker.state == "open"
            assert breaker.trips == 1
            await breaker.before_attempt()  # waits out the cooldown
            assert breaker.state == "half_open"
            assert len(sleeps) == 1 and sleeps[0] > 0
            # A failed probe re-opens immediately, one rung higher.
            breaker.record_failure()
            assert breaker.state == "open"
            assert breaker.trips == 2
            await breaker.before_attempt()
            breaker.record_success()
            assert breaker.state == "closed"
            assert breaker.trips == 0
            assert breaker.consecutive_failures == 0

        asyncio.run(run())

    def test_cooldown_is_capped(self):
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=1.0, max_cooldown_s=2.0,
            clock=lambda: 0.0,
        )
        for _ in range(10):
            breaker.state = "closed"
            breaker.record_failure()
        assert breaker._open_until <= 2.0


class TestSessionPickle:
    def test_session_state_drops_live_references(self):
        from repro.service.server import _Session

        session = _Session("s1")
        session.next_seq = 7
        session.acked = 3
        session.cache = {5: {"type": "result", "seq": 5}}
        session.held[9] = ("conn", "packet", None)
        session.waiters[6] = "conn"
        restored = pickle.loads(pickle.dumps(session))
        assert restored.session_id == "s1"
        assert restored.next_seq == 7
        assert restored.acked == 3
        assert restored.cache == session.cache
        assert restored.held == {}
        assert restored.waiters == {}

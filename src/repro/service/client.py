"""Async client library for the translation service.

:class:`ServiceClient` speaks the JSON-lines protocol of
:mod:`repro.service.server`.  Beyond single request/response calls
(:meth:`stats`, :meth:`flush`, :meth:`ping`) it provides the
**load-generator mode** the experiments use: :meth:`replay` streams a
trace's packets through a sliding send window, collects per-packet
outcomes, and transparently survives a server warm restart — on a
``restarting`` notice or a dropped connection it reconnects (with
bounded backoff) and resends every request it holds no answer for, so
the caller gets one outcome per packet even when the server was
SIGTERM'd and restarted from its checkpoint mid-stream.

Every client carries an **exactly-once session**: it draws a fresh id
and sends it in each ``hello``.  The server keeps the session's answered
seqs in an outcome cache, evicted only once the client's ``ack``
watermark (its first seq without an answer) passes them, and the cache
rides the warm-restart checkpoint.  A resent request whose original was
already translated — its reply lost with the old connection, or still
buffered behind a broken pipe — is therefore answered from the cache,
and out-of-order arrivals are held until their turn.  So a resend never
translates a packet twice, and the replayed result stays byte-identical
to the offline run.

**Hardening** (docs/RESILIENCE.md): ``connect`` retries the TCP connect
*and* the ``hello`` exchange with full-jitter exponential backoff under
a hard cap, reports its attempt count in the handshake metadata, and can
sit behind a :class:`CircuitBreaker` (closed → open → half-open probe).
``replay`` takes a per-reply ``request_timeout`` so a stalled or
half-dead connection is abandoned instead of hanging, and it treats an
undecodable frame as a dead connection: the session makes the resend
exact whatever the wire did (corrupted frames, mid-frame cuts,
reconnect storms).

The sync wrapper :func:`replay_trace` runs a whole replay under
``asyncio.run`` for CLI and test use.
"""

from __future__ import annotations

import asyncio
import random
import time
import uuid
from typing import Any, Dict, List, Optional, Sequence

from repro.service import protocol
from repro.trace.records import PacketRecord


class ServiceClientError(RuntimeError):
    """A protocol-level failure the client cannot retry."""


class CircuitBreaker:
    """Connect-attempt circuit breaker (closed → open → half-open).

    ``failure_threshold`` *consecutive* transport failures trip the
    breaker open: the next attempt waits out a full-jitter cooldown
    (doubling per consecutive trip, capped at ``max_cooldown_s``), then
    runs as the single half-open probe.  A successful probe closes the
    breaker and resets the cooldown ladder; a failed probe re-opens it
    one rung higher.  ``clock``/``rng``/``sleep`` are injectable so
    tests drive the state machine deterministically.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown_s: float = 0.1,
        max_cooldown_s: float = 5.0,
        clock=time.monotonic,
        rng: Optional[random.Random] = None,
        sleep=asyncio.sleep,
    ):
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.max_cooldown_s = max_cooldown_s
        self._clock = clock
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep
        self.state = "closed"
        self.consecutive_failures = 0
        #: Consecutive open transitions (resets on success) — the rung
        #: of the cooldown ladder.
        self.trips = 0
        self._open_until = 0.0

    async def before_attempt(self) -> None:
        """Gate one attempt: waits out the cooldown when open."""
        if self.state != "open":
            return
        remaining = self._open_until - self._clock()
        if remaining > 0:
            await self._sleep(remaining)
        self.state = "half_open"

    def record_success(self) -> None:
        self.state = "closed"
        self.consecutive_failures = 0
        self.trips = 0

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if (
            self.state == "half_open"
            or self.consecutive_failures >= self.failure_threshold
        ):
            self.trips += 1
            self.state = "open"
            cooldown = min(
                self.max_cooldown_s, self.cooldown_s * (2 ** (self.trips - 1))
            )
            # Full jitter, floored at a tenth of the nominal cooldown so
            # a zero draw cannot turn "open" into a busy-loop.
            self._open_until = self._clock() + max(
                cooldown * 0.1, self._rng.uniform(0.0, cooldown)
            )


class ServiceClient:
    """One connection (plus reconnect identity) to a translation service."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        sid: Optional[int] = None,
        connect_timeout: float = 10.0,
        trace: bool = False,
        request_timeout: Optional[float] = None,
        breaker: Optional[CircuitBreaker] = None,
        backoff_base: float = 0.05,
        backoff_cap: float = 0.5,
        rng: Optional[random.Random] = None,
    ):
        self.host = host
        self.port = port
        #: Tenant binding sent in ``hello``; ``None`` = replay connection
        #: (per-request SIDs).
        self.sid = sid
        self.connect_timeout = connect_timeout
        #: Propagate span identity on every translate: one trace per
        #: request, ids derived from ``seq`` so two identical replays
        #: produce identical trees.  Old servers ignore the field.
        self.trace = trace
        #: Per-reply deadline in :meth:`replay`; ``None`` waits forever
        #: (the legacy behaviour — correct only on a fault-free wire).
        self.request_timeout = request_timeout
        #: Exactly-once session id sent in every ``hello``.
        self.session_id = uuid.uuid4().hex
        #: Whether the last ``hello_ok`` echoed :attr:`session_id`.  A
        #: peer that does not keep the session cannot dedupe a resend,
        #: so :meth:`replay` then fails loudly on an undecodable frame
        #: instead of resending.
        self.session_kept = False
        #: Optional connect-attempt circuit breaker (shared across
        #: clients if the caller wants a per-endpoint breaker).
        self.breaker = breaker
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._rng = rng if rng is not None else random.Random()
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        #: Wall-clock RTTs of awaited single requests (load-gen latency).
        self.rtts: List[float] = []
        self.reconnects = 0
        #: Total connect attempts (TCP dials) over the client's lifetime.
        self.connect_attempts = 0
        #: Replies that hit ``request_timeout`` and forced a reconnect.
        self.request_timeouts = 0

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    async def connect(self) -> Dict[str, Any]:
        """Open the connection and perform the ``hello`` handshake.

        Retries the TCP connect *and the handshake itself* with
        full-jitter exponential backoff (base ``backoff_base``, hard cap
        ``backoff_cap``) up to ``connect_timeout`` seconds — this
        bridges both a warm restart (port not bound yet) and a chaotic
        wire that cuts the connection mid-``hello``.  The attempt count
        travels in the hello metadata so the server can account for
        handshake churn.  A *typed* handshake refusal is a real answer
        and raises immediately; only transport failures retry.
        """
        deadline = time.monotonic() + self.connect_timeout
        delay = self.backoff_base
        attempts = 0
        while True:
            if self.breaker is not None:
                await self.breaker.before_attempt()
            attempts += 1
            self.connect_attempts += 1
            try:
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port
                )
                hello: Dict[str, Any] = {
                    "type": protocol.HELLO,
                    "schema": protocol.PROTOCOL_SCHEMA,
                    "attempts": attempts,
                    "session": self.session_id,
                }
                if self.sid is not None:
                    hello["sid"] = self.sid
                budget = max(0.05, deadline - time.monotonic())
                reply = await asyncio.wait_for(self._request(hello), budget)
                if reply.get("type") != protocol.HELLO_OK:
                    if self.breaker is not None:
                        self.breaker.record_failure()
                    raise ServiceClientError(f"handshake failed: {reply}")
                if self.breaker is not None:
                    self.breaker.record_success()
                self.session_kept = reply.get("session") == self.session_id
                return reply
            except (
                ConnectionError,
                OSError,
                asyncio.IncompleteReadError,
                asyncio.TimeoutError,
                protocol.ProtocolError,
            ):
                if self.breaker is not None:
                    self.breaker.record_failure()
                await self.close()
                if time.monotonic() >= deadline:
                    raise
                # Full jitter: sleep uniform(0, delay), doubling the
                # window each failed attempt up to the hard cap.
                await asyncio.sleep(self._rng.uniform(0.0, delay))
                delay = min(delay * 2, self.backoff_cap)

    async def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass
        self._reader = None
        self._writer = None

    async def _reconnect(self) -> None:
        self.reconnects += 1
        await self.close()
        await self.connect()

    # ------------------------------------------------------------------
    # Wire primitives
    # ------------------------------------------------------------------
    async def _send(self, message: Dict[str, Any]) -> None:
        if self._writer is None:
            raise ServiceClientError("client is not connected")
        self._writer.write(protocol.encode(message))
        await self._writer.drain()

    async def _recv(self) -> Dict[str, Any]:
        if self._reader is None:
            raise ServiceClientError("client is not connected")
        line = await self._reader.readline()
        if not line:
            raise ConnectionResetError("server closed the connection")
        return protocol.decode(line)

    async def _request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one message and await its (next) reply, timing the RTT."""
        started = time.monotonic()
        await self._send(message)
        reply = await self._recv()
        self.rtts.append(time.monotonic() - started)
        return reply

    # ------------------------------------------------------------------
    # Single requests
    # ------------------------------------------------------------------
    def _translate_message(
        self, packet: PacketRecord, seq: int, ack: int
    ) -> Dict[str, Any]:
        message: Dict[str, Any] = {
            "type": protocol.TRANSLATE,
            "seq": seq,
            "giovas": list(packet.giovas),
            "size": packet.size_bytes,
            # Ack watermark: every seq below it has an outcome, so the
            # server can evict those entries from the session cache.
            "ack": ack,
        }
        if packet.invalidations:
            message["inv"] = list(packet.invalidations)
        if self.sid is None:
            message["sid"] = packet.sid
        if self.trace:
            message["trace"] = {"trace_id": f"t{seq:x}", "span_id": f"c{seq:x}"}
        return message

    async def stats(self, fmt: Optional[str] = None) -> Dict[str, Any]:
        """Live server stats; ``fmt="prom"`` asks for Prometheus text."""
        message: Dict[str, Any] = {"type": protocol.STATS}
        if fmt is not None:
            message["format"] = fmt
        return await self._request(message)

    async def ping(self) -> Dict[str, Any]:
        return await self._request({"type": protocol.PING})

    async def flush(self) -> Dict[str, Any]:
        """End the modeled stream; returns the server's final result.

        Retried over a reconnect on transport failures: flush is
        idempotent on the server (the engine state it reads is unchanged
        by asking twice).  Stale duplicate ``result`` frames still in
        flight from chaos resends are skipped while waiting for the
        ``flush_ok``.
        """
        attempts = 3
        for attempt in range(attempts):
            try:
                reply = await self._request({"type": protocol.FLUSH})
                while reply.get("type") == protocol.RESULT:
                    reply = await self._recv()
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                if attempt == attempts - 1:
                    raise
                await self._reconnect()
                continue
            if reply.get("type") != protocol.FLUSH_OK:
                raise ServiceClientError(f"flush failed: {reply}")
            return reply
        raise ServiceClientError("flush failed")  # pragma: no cover

    # ------------------------------------------------------------------
    # Load-generator mode
    # ------------------------------------------------------------------
    async def replay(
        self,
        packets: Sequence[PacketRecord],
        window: int = 64,
        on_outcome=None,
    ) -> List[Dict[str, Any]]:
        """Stream ``packets`` through the service; one reply per packet.

        Keeps up to ``window`` requests in flight.  Replies are matched
        by ``seq``; a ``restarting`` error/notice or a broken connection
        triggers reconnect-and-resend from the first unacknowledged
        sequence.  Returns the replies in packet order (``result``
        responses, or non-retryable typed errors such as
        ``rate_limited``).  ``on_outcome(seq, reply)`` is called as each
        reply lands.

        A ``too_many_inflight`` refusal leaves the connection open, so
        the refused seq is resent on it before any new seq.  With
        ``request_timeout`` set, a reply that fails to land within
        the deadline is treated as a dead connection (reconnect, resend).
        An undecodable frame is likewise a reconnect, because the
        server's session cache makes the resend exact.  Against a peer
        whose ``hello_ok`` did not echo the session it stays a loud
        :class:`~repro.service.protocol.ProtocolError`: nothing there
        would stop a resend from translating the packet twice.
        """
        total = len(packets)
        outcomes: List[Optional[Dict[str, Any]]] = [None] * total
        sent_at: Dict[int, float] = {}
        acked = 0
        #: Seqs the server refused on a connection it keeps open.
        refused: List[int] = []

        def apply(reply: Dict[str, Any]) -> bool:
            """Record one reply; True if it answered a pending seq."""
            kind = reply.get("type")
            if kind == protocol.RESTARTING:
                return False
            seq = reply.get("seq")
            if not isinstance(seq, int) or not 0 <= seq < total:
                return False
            code = reply.get("code") if kind == protocol.ERROR else None
            if code in protocol.RETRYABLE_CODES:
                if code == protocol.E_TOO_MANY_INFLIGHT:
                    refused.append(seq)
                # Otherwise the server is closing the connection; the seq
                # is resent after reconnecting.
                return False
            if outcomes[seq] is not None:
                return False
            outcomes[seq] = reply
            started = sent_at.pop(seq, None)
            if started is not None:
                # Pipelined RTT: queueing + service time under the
                # current window — the load-gen latency sample.
                self.rtts.append(time.monotonic() - started)
            if on_outcome is not None:
                on_outcome(seq, reply)
            return True

        async def recv_reply() -> Dict[str, Any]:
            """One reply under the request deadline and frame hygiene."""
            try:
                if self.request_timeout is None:
                    return await self._recv()
                return await asyncio.wait_for(
                    self._recv(), self.request_timeout
                )
            except asyncio.TimeoutError:
                self.request_timeouts += 1
                raise ConnectionResetError(
                    "request deadline exceeded"
                ) from None
            except protocol.ProtocolError:
                if not self.session_kept:
                    raise
                raise ConnectionResetError("corrupt frame on wire") from None

        while acked < total:
            if self._writer is None:
                await self.connect()
            sent = acked
            refused.clear()
            try:
                while acked < total:
                    for seq in refused:
                        if outcomes[seq] is None:
                            sent_at[seq] = time.monotonic()
                            await self._send(
                                self._translate_message(packets[seq], seq, acked)
                            )
                    refused.clear()
                    while sent < total and sent - acked < window:
                        if outcomes[sent] is None:
                            sent_at[sent] = time.monotonic()
                            await self._send(
                                self._translate_message(
                                    packets[sent], sent, acked
                                )
                            )
                        sent += 1
                    reply = await recv_reply()
                    if reply.get("type") == protocol.RESTARTING:
                        raise ConnectionResetError("server restarting")
                    if apply(reply):
                        while acked < total and outcomes[acked] is not None:
                            acked += 1
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                await self._reconnect()
        return [reply for reply in outcomes if reply is not None]


def replay_trace(
    host: str,
    port: int,
    packets: Sequence[PacketRecord],
    sid: Optional[int] = None,
    window: int = 64,
    flush: bool = False,
    connect_timeout: float = 10.0,
    trace: bool = False,
    request_timeout: Optional[float] = None,
    breaker: Optional[CircuitBreaker] = None,
):
    """Synchronous one-shot replay (CLI / tests / CI smoke).

    Returns ``(outcomes, flush_reply_or_None, client)`` — the client is
    returned for its RTT samples and reconnect count.  ``trace=True``
    propagates per-request span identity (see :class:`ServiceClient`).
    ``request_timeout``/``breaker`` opt into the client hardening that
    chaos replays use.
    """

    async def _run():
        client = ServiceClient(
            host,
            port,
            sid=sid,
            connect_timeout=connect_timeout,
            trace=trace,
            request_timeout=request_timeout,
            breaker=breaker,
        )
        await client.connect()
        try:
            outcomes = await client.replay(packets, window=window)
            flush_reply = await client.flush() if flush else None
        finally:
            await client.close()
        return outcomes, flush_reply, client

    return asyncio.run(_run())

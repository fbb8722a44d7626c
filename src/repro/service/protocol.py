"""Wire protocol of the translation service: JSON lines over TCP.

One request or response per line, each a JSON object with a ``type``
field.  The protocol is deliberately small — it is a thin request/response
boundary in front of the shared translation fabric (Amiri Sani et al.'s
device-file argument applied to translation): the *service* owns
admission and transport, the *engine* owns every simulated outcome.

Requests::

    {"type": "hello", "schema": "repro-service/1", "sid": 3}
    {"type": "translate", "seq": 0, "giovas": [a, b, c], "size": 1542,
     "inv": [page, ...], "sid": 5,
     "trace": {"trace_id": "t1", "span_id": "c0"}}
    {"type": "stats"}            # or {"type": "stats", "format": "prom"}
    {"type": "flush"}
    {"type": "ping"}

The optional ``trace`` field carries a client-side
:class:`~repro.obs.spans.SpanContext` so the server-side span tree
(``wire.read -> admission / dispatch -> engine.step``) parents under
the caller's span.  It is *feature-negotiated softly*: servers
advertise ``"features": ["trace", ...]`` in ``hello_ok``, but an old
server simply ignores the unknown field and an old client simply never
sends it — both directions interoperate with no version bump.

``hello`` optionally carries a ``session`` identity plus the client's
connect ``attempts`` count: a sessioned server keeps per-session
exactly-once, in-order dispatch state (an outcome cache for answered
seqs, a bounded hold buffer for out-of-order arrivals), so a client that
reconnects after wire chaos can resend unanswered seqs without ever
causing a double or out-of-trace-order translation.  ``translate``
carries the optional ``ack`` watermark (first unacknowledged seq) that
evicts the server's outcome cache.  Both ride the soft feature
negotiation above: old peers ignore the fields.

``hello`` binds the connection to one tenant (its SID); every subsequent
``translate`` is accounted to that tenant.  A ``hello`` without a SID
creates an *unbound* (replay) connection whose ``translate`` requests must
each carry an explicit ``sid`` — this is what lets one client replay a
multi-tenant trace file in exact wire order, which is the basis of the
service-vs-offline parity guarantee (see docs/SERVICE.md).

Responses mirror requests: ``hello_ok``, ``result`` (one per
``translate``, carrying the per-packet outcome), ``stats``, ``flush_ok``,
``pong``, and typed ``error`` responses.  A draining server emits a
``restarting`` notice before closing, so clients know to reconnect rather
than fail.

Everything on the wire carries the schema tag :data:`PROTOCOL_SCHEMA`;
incompatible future revisions bump the suffix.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs.spans import SpanContext

#: Protocol schema tag; sent in ``hello`` both ways and in ``stats``.
PROTOCOL_SCHEMA = "repro-service/1"

#: Optional capabilities this revision understands, advertised in
#: ``hello_ok``.  Additions here never bump the schema: every feature
#: rides an optional field old peers ignore.  ``session`` = per-session
#: exactly-once resend semantics (``hello.session`` / ``translate.ack``);
#: ``conn_supervision`` = bounded frames and typed supervision errors.
PROTOCOL_FEATURES = ("trace", "prom_stats", "session", "conn_supervision")

#: Default per-frame byte bound: no legitimate protocol line comes close
#: (a 64-entry window of translates is a few KiB), so anything larger is
#: a garbage or hostile peer and is refused with ``frame_too_large``
#: instead of growing the read buffer without limit.
MAX_FRAME_BYTES = 1 << 20

#: Chunk size of the supervised frame reader's socket reads.
_READ_CHUNK = 1 << 16

# Request types ---------------------------------------------------------
HELLO = "hello"
TRANSLATE = "translate"
STATS = "stats"
FLUSH = "flush"
PING = "ping"

# Response types --------------------------------------------------------
HELLO_OK = "hello_ok"
RESULT = "result"
STATS_REPLY = "stats"
FLUSH_OK = "flush_ok"
PONG = "pong"
ERROR = "error"
#: Unsolicited notice sent to every live connection while the server
#: drains for a (warm) restart.
RESTARTING = "restarting"

# Typed error codes -----------------------------------------------------
#: Malformed JSON, missing fields, or a bad field type.
E_BAD_REQUEST = "bad_request"
#: ``translate`` before a successful ``hello``.
E_NOT_BOUND = "not_bound"
#: The SID is not a tenant of the system the service was started with.
E_UNKNOWN_SID = "unknown_sid"
#: Per-tenant token bucket empty (admission control).
E_RATE_LIMITED = "rate_limited"
#: Per-tenant queue-depth cap reached (admission control).
E_QUEUE_FULL = "queue_full"
#: Shed because the device's PTB occupancy crossed the high watermark —
#: the service-layer mirror of the paper's PTB-overflow drop semantics.
E_BACKPRESSURE = "backpressure"
#: The server is draining for a restart; retry after reconnecting.
E_RESTARTING = "restarting"
#: The translation itself failed (e.g. a gIOVA outside the tenant's
#: address space); the request is not retryable.
E_TRANSLATION = "translation_error"
#: A single frame exceeded the server's ``max_frame_bytes``; the
#: connection is closed after this notice.
E_FRAME_TOO_LARGE = "frame_too_large"
#: The connection sat idle (no frames, nothing in flight) past the
#: server's idle timeout and was reaped.
E_IDLE_TIMEOUT = "idle_timeout"
#: A frame started but did not complete within the per-frame deadline
#: (a half-open or slowloris peer); the connection is closed.
E_FRAME_TIMEOUT = "frame_timeout"
#: The peer stopped reading and its write buffer crossed the server's
#: cap; it was evicted so the dispatcher never blocks on one bad socket.
E_SLOW_PEER = "slow_peer"
#: The connection exceeded its in-flight request cap.
E_TOO_MANY_INFLIGHT = "too_many_inflight"

#: Codes a client may transparently retry after reconnect/backoff.
RETRYABLE_CODES = frozenset({E_RESTARTING, E_SLOW_PEER, E_TOO_MANY_INFLIGHT})


class ProtocolError(ValueError):
    """A line that could not be parsed into a valid protocol message."""


class FrameStreamError(Exception):
    """Base of the supervised frame reader's typed failures.

    Each carries the typed protocol error ``code`` the server answers
    with before closing the connection.
    """

    code = E_BAD_REQUEST


class FrameTooLargeError(FrameStreamError):
    """A frame outgrew ``max_frame_bytes`` without a newline."""

    code = E_FRAME_TOO_LARGE

    def __init__(self, size: int, limit: int):
        super().__init__(
            f"frame exceeded {limit} bytes ({size} buffered without a newline)"
        )
        self.size = size
        self.limit = limit


class IdleTimeoutError(FrameStreamError):
    """No frame started within the idle timeout."""

    code = E_IDLE_TIMEOUT

    def __init__(self, idle_s: float):
        super().__init__(f"connection idle for {idle_s:.1f}s")
        self.idle_s = idle_s


class FrameDeadlineError(FrameStreamError):
    """A started frame did not complete within the frame deadline."""

    code = E_FRAME_TIMEOUT

    def __init__(self, deadline_s: float):
        super().__init__(
            f"frame incomplete after {deadline_s:.1f}s (half-open peer?)"
        )
        self.deadline_s = deadline_s


class FrameReader:
    """Bounded, deadline-supervised line framing over a stream reader.

    Replaces the server's unbounded ``readline``: frames are capped at
    ``max_frame_bytes`` (:class:`FrameTooLargeError`), a frame that
    *starts* must complete within ``frame_deadline_s``
    (:class:`FrameDeadlineError` — the slowloris/half-open guard), and a
    connection with no frame in progress raises
    :class:`IdleTimeoutError` after ``idle_timeout_s`` so the caller can
    reap it (or keep waiting while replies are still in flight).  The
    internal buffer survives across calls, so split and coalesced writes
    reassemble exactly like ``readline``'s would.

    ``read_frame`` returns one line **without** its trailing newline, or
    ``None`` at EOF (a torn trailing frame is treated as EOF — the peer
    is gone either way).
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        idle_timeout_s: Optional[float] = None,
        frame_deadline_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._reader = reader
        self.max_frame_bytes = max_frame_bytes
        self.idle_timeout_s = idle_timeout_s
        self.frame_deadline_s = frame_deadline_s
        self._clock = clock
        self._buffer = bytearray()

    async def read_frame(self) -> Optional[bytes]:
        started: Optional[float] = None
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = bytes(self._buffer[:newline])
                del self._buffer[: newline + 1]
                return line
            if len(self._buffer) > self.max_frame_bytes:
                raise FrameTooLargeError(len(self._buffer), self.max_frame_bytes)
            if self._buffer and started is None:
                started = self._clock()
            timeout: Optional[float] = None
            if self._buffer:
                if self.frame_deadline_s is not None:
                    timeout = self.frame_deadline_s - (self._clock() - started)
                    if timeout <= 0:
                        raise FrameDeadlineError(self.frame_deadline_s)
            else:
                timeout = self.idle_timeout_s
            try:
                if timeout is None:
                    chunk = await self._reader.read(_READ_CHUNK)
                else:
                    chunk = await asyncio.wait_for(
                        self._reader.read(_READ_CHUNK), timeout
                    )
            except asyncio.TimeoutError:
                if self._buffer:
                    raise FrameDeadlineError(self.frame_deadline_s) from None
                raise IdleTimeoutError(self.idle_timeout_s) from None
            if not chunk:
                return None
            self._buffer.extend(chunk)


def encode(message: Dict[str, Any]) -> bytes:
    """Serialise one protocol message to a wire line (newline included)."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into a message dict.

    Raises :class:`ProtocolError` on anything that is not a JSON object
    with a string ``type`` field — the caller answers with a typed
    ``bad_request`` error instead of dying.
    """
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"not a JSON line: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"expected a JSON object, got {type(message).__name__}")
    kind = message.get("type")
    if not isinstance(kind, str):
        raise ProtocolError("message has no string 'type' field")
    return message


def error_reply(
    code: str, message: str, seq: Optional[int] = None
) -> Dict[str, Any]:
    """Build a typed error response (``seq`` echoes the failing request)."""
    reply: Dict[str, Any] = {"type": ERROR, "code": code, "message": message}
    if seq is not None:
        reply["seq"] = seq
    return reply


@dataclass
class PacketOutcome:
    """The engine's verdict on one submitted packet.

    Field-for-field this is the per-packet slice of what the offline
    simulator accumulates into :class:`~repro.core.results.SimulationResult`:
    admission (accepted vs dropped, with the same cause vocabulary as
    ``PacketStats.drop_causes``), DevTLB hit/miss deltas, the number of
    translations performed, and the packet's virtual-time span.  Summing
    outcomes over a replayed trace reproduces the offline aggregates
    exactly — the parity tests pin this.
    """

    sid: int
    accepted: bool
    #: Drops accumulated while this packet was in flight (PTB-overflow
    #: retries, device resets, exhausted fault retries), by cause.
    drop_causes: Dict[str, int] = field(default_factory=dict)
    #: Admission retries this packet went through before acceptance.
    retried: int = 0
    #: Virtual nanoseconds: first wire arrival and final completion.
    arrival_ns: float = 0.0
    completion_ns: float = 0.0
    #: Translation requests performed (0 when dropped before translation).
    translations: int = 0
    devtlb_hits: int = 0
    devtlb_misses: int = 0
    #: Sum of the per-request translation latencies of this packet.
    latency_ns: float = 0.0

    @property
    def status(self) -> str:
        return "accepted" if self.accepted else "dropped"

    def to_wire(self, seq: int) -> Dict[str, Any]:
        """The ``result`` response for this outcome."""
        reply: Dict[str, Any] = {
            "type": RESULT,
            "seq": seq,
            "sid": self.sid,
            "status": self.status,
            "arrival_ns": self.arrival_ns,
            "completion_ns": self.completion_ns,
            "translations": self.translations,
            "devtlb_hits": self.devtlb_hits,
            "devtlb_misses": self.devtlb_misses,
            "latency_ns": self.latency_ns,
        }
        if self.drop_causes:
            reply["drops"] = dict(self.drop_causes)
        if self.retried:
            reply["retried"] = self.retried
        return reply

    @classmethod
    def from_wire(cls, reply: Dict[str, Any]) -> "PacketOutcome":
        """Rebuild an outcome from a ``result`` response."""
        return cls(
            sid=reply["sid"],
            accepted=reply["status"] == "accepted",
            drop_causes=dict(reply.get("drops", {})),
            retried=reply.get("retried", 0),
            arrival_ns=reply["arrival_ns"],
            completion_ns=reply["completion_ns"],
            translations=reply["translations"],
            devtlb_hits=reply["devtlb_hits"],
            devtlb_misses=reply["devtlb_misses"],
            latency_ns=reply["latency_ns"],
        )


def parse_trace_context(message: Dict[str, Any]) -> Optional[SpanContext]:
    """Decode the optional ``trace`` field of a request.

    Returns ``None`` when absent (an old client — fully supported), the
    :class:`~repro.obs.spans.SpanContext` when well-formed, and raises
    :class:`ProtocolError` when present but malformed: a peer that
    *tries* to propagate trace identity deserves a loud failure, not a
    silently unparented span tree.
    """
    raw = message.get("trace")
    if raw is None:
        return None
    if (
        not isinstance(raw, dict)
        or not isinstance(raw.get("trace_id"), str)
        or not isinstance(raw.get("span_id"), str)
    ):
        raise ProtocolError(
            "'trace' must be an object with string 'trace_id' and 'span_id'"
        )
    return SpanContext.from_wire(raw)


def parse_translate(
    message: Dict[str, Any], bound_sid: Optional[int]
) -> Tuple[
    int, int, Tuple[int, int, int], int, Tuple[int, ...], Optional[SpanContext]
]:
    """Validate a ``translate`` request; returns its decoded fields.

    Returns ``(seq, sid, giovas, size_bytes, invalidations, trace_ctx)``
    where ``trace_ctx`` is ``None`` unless the client propagated span
    identity (see :func:`parse_trace_context`).  Raises
    :class:`ProtocolError` with a precise message on any malformed field,
    so the server can answer ``bad_request`` naming the offending part.
    """
    seq = message.get("seq")
    if not isinstance(seq, int):
        raise ProtocolError("translate needs an integer 'seq'")
    sid = message.get("sid", bound_sid)
    if not isinstance(sid, int):
        raise ProtocolError(
            "translate on an unbound connection needs an integer 'sid'"
        )
    giovas = message.get("giovas")
    if (
        not isinstance(giovas, list)
        or len(giovas) != 3
        or not all(isinstance(g, int) for g in giovas)
    ):
        raise ProtocolError("'giovas' must be a list of exactly 3 integers")
    size = message.get("size", 1542)
    if not isinstance(size, int) or size <= 0:
        raise ProtocolError(f"'size' must be a positive integer, got {size!r}")
    inv = message.get("inv", [])
    if not isinstance(inv, list) or not all(isinstance(p, int) for p in inv):
        raise ProtocolError("'inv' must be a list of integer page numbers")
    trace_ctx = parse_trace_context(message)
    return seq, sid, (giovas[0], giovas[1], giovas[2]), size, tuple(inv), trace_ctx

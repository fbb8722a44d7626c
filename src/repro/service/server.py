"""Asyncio TCP front end of the translation service.

Architecture (one process, one event loop):

* one **connection handler** per client parses JSON lines, answers
  protocol-level requests (``hello``, ``stats``, ``ping``) inline, and
  runs the per-tenant admission gates on each ``translate`` before
  enqueueing it;
* one **dispatcher task** drains a single global FIFO queue and drives
  the :class:`~repro.service.engine.ServiceEngine` one packet at a time.
  A single queue gives the whole service a deterministic global
  submission order — for one replay connection, exactly trace order,
  which is what the service-vs-offline parity tests rely on.

The dispatcher is also where fabric-level backpressure runs, because PTB
occupancy is only meaningful at the engine's virtual submission time:
when a device's modeled PTB crosses the configured high watermark, the
request is either **shed** with a typed ``backpressure`` error (the wire
slot is still consumed — the paper's PTB-overflow drop at the service
layer) or the device's virtual clock is **paused** to the PTB drain
time before admission.

Requests queued by a client that disconnects mid-stream are discarded at
dispatch: their admission slots are released and the engine never sees
them, so a dying client leaks no engine state (pinned by
``tests/test_service_admission.py``).

**Connection supervision** (:class:`ConnectionPolicy`, see
docs/RESILIENCE.md): frames are read through the bounded
:class:`~repro.service.protocol.FrameReader` (max frame length, idle
timeout, per-frame completion deadline), each connection has an
in-flight cap, and a peer that stops reading long enough for its write
buffer to cross the cap is *evicted* — it gets a retryable typed
``slow_peer`` notice and its socket is aborted after a short grace, so
the dispatcher never blocks on one bad socket.

**Sessions** (the exactly-once layer wire chaos leans on): a ``hello``
carrying a ``session`` id attaches the connection to per-session
dispatch state — ``next_seq`` sequencing with a bounded hold buffer for
out-of-order arrivals, an outcome cache for answered seqs (evicted by
the client's ``ack`` watermark), and duplicate-waiter delivery.  A
sessioned request is therefore translated exactly once and exactly in
trace order no matter how often the client disconnects and resends,
which is what keeps the replayed ``SimulationResult`` byte-identical to
offline ``simulate`` under every :class:`~repro.faults.netchaos.
NetworkFaultPlan` fault class.  Session-*less* connections keep the
discard-on-dead-client behaviour above.  Session state (minus live
connection references) rides the warm-restart checkpoint.

Graceful shutdown (SIGTERM/SIGINT or :meth:`ServiceServer.shutdown`)
drains in order: stop accepting, refuse new translates with a typed
``restarting`` error, finish every queued request (results still reach
their clients), flush a PR 5-style checkpoint (engine kind
``"service"``), notify live connections with a ``restarting`` notice
carrying the checkpoint path, then close.  A new server started from
that checkpoint (``repro-sim serve --resume``) continues warm: caches,
PTB heaps, virtual clocks, and cumulative stats all survive.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.prom import counter_line, gauge_line, registry_to_prom
from repro.obs.slo import SloSample, SloWatcher
from repro.service import protocol
from repro.service.admission import AdmissionConfig, AdmissionController
from repro.service.engine import ServiceEngine, load_service_checkpoint
from repro.trace.records import PacketRecord

#: Dispatched packets between SLO-rule evaluations (cheap, but there is
#: no reason to re-derive percentiles on every single packet).
SLO_EVAL_INTERVAL = 16

#: Span names of the server-side request tree, in parent order.
SPAN_WIRE = "wire.read"
SPAN_ADMISSION = "admission"
SPAN_DISPATCH = "dispatch"
SPAN_ENGINE = "engine.step"


@dataclass(frozen=True)
class ConnectionPolicy:
    """Supervision knobs of one server's connections.

    Every bound is a refusal-with-a-typed-error, never a silent hang:
    see docs/RESILIENCE.md ("Network fault model & connection
    supervision") for the knob table and the CLI flags that set them.
    """

    #: Max bytes of one frame (line); larger peers get
    #: ``frame_too_large`` and are closed.
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    #: Reap a connection with no frame in progress and nothing in flight
    #: after this many wall seconds (``None`` disables).
    idle_timeout_s: Optional[float] = 600.0
    #: A frame that *started* must complete within this bound — the
    #: half-open / slowloris guard (``None`` disables).
    frame_deadline_s: Optional[float] = 30.0
    #: Max queued-but-undispatched requests per connection.
    max_inflight: int = 4096
    #: Evict a peer whose socket write buffer crosses this many bytes.
    max_write_buffer: int = 8 << 20
    #: Grace between an eviction notice and the hard transport abort.
    evict_grace_s: float = 0.25
    #: Max out-of-order seqs held per session before refusing with
    #: ``too_many_inflight``.
    session_window: int = 1024
    #: Sessions kept before the stalest is evicted.
    max_sessions: int = 1024


class _Session:
    """Per-session exactly-once, in-order dispatch state.

    ``next_seq`` is the first seq not yet admitted; arrivals above it
    wait in ``held`` (flushed in order as the head advances), arrivals
    below it are duplicates answered from ``cache`` (or registered in
    ``waiters`` while the original is still queued).  The client's
    ``ack`` watermark evicts the cache, so memory stays bounded by the
    client's window.  Only the exactly-once core (``next_seq``,
    ``acked``, ``cache``) survives pickling into a warm-restart
    checkpoint — live connection references die with the process.
    """

    __slots__ = ("session_id", "next_seq", "acked", "cache", "held", "waiters")

    def __init__(self, session_id: str):
        self.session_id = session_id
        self.next_seq = 0
        self.acked = 0
        self.cache: Dict[int, Dict[str, Any]] = {}
        self.held: Dict[int, Tuple] = {}
        self.waiters: Dict[int, "_Connection"] = {}

    def __getstate__(self):
        return {
            "session_id": self.session_id,
            "next_seq": self.next_seq,
            "acked": self.acked,
            "cache": dict(self.cache),
        }

    def __setstate__(self, state):
        self.session_id = state["session_id"]
        self.next_seq = state["next_seq"]
        self.acked = state["acked"]
        self.cache = dict(state["cache"])
        self.held = {}
        self.waiters = {}


class _Connection:
    """Per-connection state shared between its handler and the dispatcher."""

    __slots__ = ("writer", "bound_sid", "closed", "name", "session", "inflight")

    def __init__(self, writer: asyncio.StreamWriter, name: str):
        self.writer = writer
        self.bound_sid: Optional[int] = None
        self.closed = False
        self.name = name
        self.session: Optional[_Session] = None
        self.inflight = 0

    def send(self, message: Dict[str, Any]) -> None:
        """Best-effort single-line write (skipped once closed)."""
        if self.closed:
            return
        try:
            self.writer.write(protocol.encode(message))
        except (ConnectionError, RuntimeError):
            self.closed = True

    def buffer_size(self) -> int:
        """Bytes sitting unsent in the transport's write buffer."""
        try:
            return self.writer.transport.get_write_buffer_size()
        except (AttributeError, RuntimeError):
            return 0


class ServiceServer:
    """The translation-as-a-service front end.

    Parameters
    ----------
    engine:
        The :class:`~repro.service.engine.ServiceEngine` to drive —
        freshly built, or restored via
        :func:`~repro.service.engine.load_service_checkpoint` for a warm
        restart.
    admission:
        Admission configuration (or a restored
        :class:`~repro.service.admission.AdmissionController`).  The
        default config disables every gate — a pure transport.
    checkpoint_path:
        Where graceful shutdown flushes the warm-restart snapshot;
        ``None`` disables the snapshot (shutdown still drains cleanly).
    spans:
        Optional :class:`~repro.obs.spans.SpanRecorder`.  When attached,
        every translate grows a parented span tree (``wire.read`` ->
        ``admission`` / ``dispatch`` -> ``engine.step``), rooted under
        the client's wire-propagated
        :class:`~repro.obs.spans.SpanContext` when one was sent.
    slo_watcher:
        Optional :class:`~repro.obs.slo.SloWatcher`, evaluated against
        live engine state every :data:`SLO_EVAL_INTERVAL` dispatched
        packets.
    slo_backpressure:
        When true, any breached SLO rule latches service-wide admission
        backpressure (sheds/pauses like the PTB watermark gate) until
        every rule recovers.
    """

    def __init__(
        self,
        engine: ServiceEngine,
        admission: Optional[AdmissionConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        checkpoint_path=None,
        clock=time.monotonic,
        spans=None,
        slo_watcher: Optional[SloWatcher] = None,
        slo_backpressure: bool = False,
        batch_window: int = 64,
        policy: Optional[ConnectionPolicy] = None,
    ):
        self.engine = engine
        if isinstance(admission, AdmissionController):
            self.admission = admission
        else:
            self.admission = AdmissionController(admission)
        self.host = host
        self.port = port
        self.checkpoint_path = checkpoint_path
        self._clock = clock
        self.spans = spans
        self.slo_watcher = slo_watcher
        self.slo_backpressure = slo_backpressure
        self._dispatched_since_slo = 0
        #: Max queued requests translated per dispatcher pass; 1 restores
        #: strict per-packet dispatch (batching never reorders — packets
        #: drain in FIFO order either way).
        self.batch_window = max(1, batch_window)
        self._server: Optional[asyncio.base_events.Server] = None
        # Created in start(): on Python 3.9 asyncio primitives bind to the
        # event loop current at construction, which must be the running one.
        self._queue: Optional["asyncio.Queue"] = None
        self._dispatcher_task: Optional[asyncio.Task] = None
        self._connections: List[_Connection] = []
        self._draining = False
        self._shutdown_requested: Optional[asyncio.Event] = None
        self.stopped: Optional[asyncio.Event] = None
        #: Wall-clock service counters (wire-level, not modeled).
        self.requests_received = 0
        self.results_sent = 0
        #: Requests translated via the whole-batch fast path vs one at a
        #: time (observability for the dispatcher's batching behaviour).
        self.batched_requests = 0
        #: Connection supervision bounds (docs/RESILIENCE.md knob table).
        self.policy = policy if policy is not None else ConnectionPolicy()
        #: Wire-level connection churn/shed counters, exported through
        #: ``stats`` → prom → ``repro-sim top`` as the ``conn.*`` family.
        self.conn_counters: Dict[str, int] = {
            "opened": 0,
            "closed": 0,
            "reconnects": 0,
            "handshake_retries": 0,
            "idle_timeout": 0,
            "frame_timeout": 0,
            "frame_too_large": 0,
            "evicted_slow": 0,
            "too_many_inflight": 0,
            "held": 0,
            "resends_served": 0,
        }
        #: Session id → exactly-once dispatch state.
        self._sessions: Dict[str, _Session] = {}
        #: Deferred transport aborts of evicted slow peers.
        self._abort_handles: List[asyncio.TimerHandle] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start serving; resolves once the socket listens."""
        self._queue = asyncio.Queue()
        self._shutdown_requested = asyncio.Event()
        self.stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher_task = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )

    def request_shutdown(self) -> None:
        """Signal-safe shutdown trigger (wired to SIGTERM by the CLI)."""
        self._shutdown_requested.set()

    async def serve_until_shutdown(self) -> None:
        """Run until :meth:`request_shutdown`, then drain and stop."""
        await self._shutdown_requested.wait()
        await self.shutdown()

    async def shutdown(self) -> Optional[str]:
        """Graceful drain: see the module docstring for the exact order.

        Returns the checkpoint path when a snapshot was flushed.
        """
        if self._draining:
            await self.stopped.wait()
            return str(self.checkpoint_path) if self.checkpoint_path else None
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Finish everything already admitted; their results still reach
        # the clients over the open connections.
        await self._queue.join()
        if self._dispatcher_task is not None:
            self._queue.put_nowait(None)
            await self._dispatcher_task
        saved: Optional[str] = None
        if self.checkpoint_path is not None:
            self.engine.save_checkpoint(
                self.checkpoint_path,
                extra_state={
                    "admission": self.admission,
                    "sessions": self._sessions,
                },
            )
            saved = str(self.checkpoint_path)
        for handle in self._abort_handles:
            handle.cancel()
        self._abort_handles.clear()
        notice: Dict[str, Any] = {"type": protocol.RESTARTING}
        if saved is not None:
            notice["checkpoint"] = saved
        for conn in list(self._connections):
            conn.send(notice)
            conn.closed = True
            try:
                # Bounded: a stalled peer must not wedge the drain of
                # every other client's restart notice.
                await asyncio.wait_for(
                    conn.writer.drain(), timeout=self.policy.evict_grace_s
                )
            except asyncio.TimeoutError:
                conn.writer.transport.abort()
            except ConnectionError:
                pass
            conn.writer.close()
        self.stopped.set()
        return saved

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        engine = self.engine
        admission = self.admission
        queue = self._queue
        while True:
            item = await queue.get()
            if item is None:
                queue.task_done()
                return
            # One dispatcher pass: drain everything already queued (one
            # wire read's worth of requests, up to the batch window)
            # without yielding, then write replies and drain writers
            # once per touched connection.
            batch = [item]
            stop = False
            while len(batch) < self.batch_window:
                try:
                    extra = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is None:
                    stop = True
                    break
                batch.append(extra)
            touched: Dict[int, _Connection] = {}
            if (
                len(batch) > 1
                and self.spans is None
                and admission.config.ptb_high_watermark is None
                and not admission.slo_latched
                and engine._flushed is None
                and all(
                    not it[0].closed and engine.knows_sid(it[2].sid)
                    for it in batch
                )
            ):
                # Whole-batch translate: no per-packet server-side branch
                # can fire (no spans, no backpressure gate, every client
                # alive, every SID known), so the engine runs the batch
                # in one call with identical per-packet outcomes.
                outcomes = engine.submit_batch([it[2] for it in batch])
                self.batched_requests += len(outcomes)
                for (conn, seq, packet, _), outcome in zip(batch, outcomes):
                    try:
                        admission.release(packet.sid)
                        reply = outcome.to_wire(seq)
                        if conn.session is not None:
                            self._record_session_reply(
                                conn.session, conn, seq, reply
                            )
                        else:
                            conn.send(reply)
                            self.results_sent += 1
                        touched[id(conn)] = conn
                    finally:
                        conn.inflight -= 1
                        self._maybe_evaluate_slo()
                        queue.task_done()
            else:
                for it in batch:
                    conn = self._dispatch_one(it)
                    if conn is not None:
                        touched[id(conn)] = conn
            # The dispatcher never awaits any one peer's drain — a peer
            # that stops reading is evicted once its write buffer
            # crosses the cap, instead of wedging every other client.
            for conn in touched.values():
                if (
                    not conn.closed
                    and conn.buffer_size() > self.policy.max_write_buffer
                ):
                    self._evict_slow_peer(conn)
            # Yield so connection handlers and writers get scheduled
            # between passes even under a full queue.
            await asyncio.sleep(0)
            if stop:
                queue.task_done()
                return

    def _dispatch_one(self, item) -> Optional[_Connection]:
        """Translate one queued request (the strict per-packet path).

        Returns the connection a reply was written to, or ``None`` when
        the request was discarded; the caller drains writers per pass.
        """
        engine = self.engine
        admission = self.admission
        queue = self._queue
        spans = self.spans
        conn, seq, packet, wire_span = item
        session = conn.session
        dispatch_span = None
        if spans is not None:
            dispatch_span = spans.start(
                SPAN_DISPATCH, parent=wire_span, sid=packet.sid, seq=seq
            )

        def reply_with(reply: Dict[str, Any], is_result: bool) -> None:
            """Deliver one final answer: session-cached or plain send."""
            if session is not None:
                self._record_session_reply(session, conn, seq, reply)
            else:
                conn.send(reply)
                if is_result:
                    self.results_sent += 1

        try:
            if conn.closed and session is None:
                # Client died with this request still queued: discard
                # it before the engine sees it — no engine-state leak.
                # A *sessioned* request is translated anyway: the client
                # is reconnecting and will resend this seq, and skipping
                # it here would break the session's in-order guarantee.
                admission.release(packet.sid)
                if dispatch_span is not None:
                    dispatch_span.attrs["outcome"] = "discarded"
                return None
            device_id = engine.device_for_sid(packet.sid)
            occupancy = engine.ptb_occupancy(device_id)
            if admission.check_backpressure(device_id, occupancy):
                if admission.config.backpressure_mode == "shed":
                    engine.shed_slot(packet)
                    admission.record_shed(packet.sid)
                    admission.release(packet.sid)
                    reply_with(
                        protocol.error_reply(
                            protocol.E_BACKPRESSURE,
                            f"PTB occupancy {occupancy} at high watermark; "
                            f"request shed",
                            seq=seq,
                        ),
                        is_result=False,
                    )
                    if dispatch_span is not None:
                        dispatch_span.attrs["outcome"] = "shed"
                    return conn
                engine.stall_until_drained(
                    device_id, admission.config.low_watermark()
                )
            step_span = None
            if spans is not None:
                step_span = spans.start(
                    SPAN_ENGINE, parent=dispatch_span, sid=packet.sid
                )
            try:
                outcome = engine.submit(packet)
            except Exception as error:
                admission.release(packet.sid)
                reply_with(
                    protocol.error_reply(
                        protocol.E_TRANSLATION, str(error), seq=seq
                    ),
                    is_result=False,
                )
                if step_span is not None:
                    spans.finish(step_span, error=str(error))
                    dispatch_span.attrs["outcome"] = "error"
                return conn
            if step_span is not None:
                spans.finish(step_span, accepted=outcome.accepted)
                dispatch_span.attrs["outcome"] = outcome.status
            admission.release(packet.sid)
            reply_with(outcome.to_wire(seq), is_result=True)
            return conn
        finally:
            conn.inflight -= 1
            if dispatch_span is not None:
                spans.finish(dispatch_span)
            self._maybe_evaluate_slo()
            queue.task_done()

    # ------------------------------------------------------------------
    # Session exactly-once machinery
    # ------------------------------------------------------------------
    def _record_session_reply(
        self,
        session: _Session,
        conn: _Connection,
        seq: int,
        reply: Dict[str, Any],
    ) -> None:
        """Cache one final answer and deliver it to whoever still listens.

        The cache is what makes resends idempotent: a duplicate of an
        answered seq is served from here without the engine ever seeing
        it again.  ``waiters`` covers the race where the duplicate
        arrived (on a new connection) while the original was still
        queued — the reply reaches the new connection even though the
        original died.
        """
        session.cache[seq] = reply
        waiter = session.waiters.pop(seq, None)
        delivered = False
        if not conn.closed:
            conn.send(reply)
            delivered = True
        if waiter is not None and waiter is not conn and not waiter.closed:
            waiter.send(reply)
            delivered = True
        if delivered and reply.get("type") == protocol.RESULT:
            self.results_sent += 1

    def _admit_and_enqueue(
        self,
        conn: _Connection,
        seq: int,
        sid: int,
        packet: PacketRecord,
        wire_span,
        session: Optional[_Session],
        finish_wire: bool = True,
    ) -> None:
        """Run admission for one in-order request and queue or refuse it.

        For sessioned requests every final answer — including an
        admission denial — advances ``next_seq`` and lands in the
        outcome cache, so held successors can flush and a resend of the
        denied seq gets the identical denial.
        """
        spans = self.spans
        if spans is not None:
            admission_span = spans.start(SPAN_ADMISSION, parent=wire_span)
            denied = self.admission.acquire(sid, self._clock())
            spans.finish(admission_span, verdict=denied or "admitted")
        else:
            denied = self.admission.acquire(sid, self._clock())
        if denied is not None:
            reply = protocol.error_reply(
                denied, f"admission denied for sid {sid}", seq=seq
            )
            if session is not None:
                session.next_seq = max(session.next_seq, seq + 1)
                self._record_session_reply(session, conn, seq, reply)
            else:
                conn.send(reply)
            if finish_wire and wire_span is not None:
                spans.finish(wire_span, refused=denied)
            return
        if session is not None:
            session.next_seq = max(session.next_seq, seq + 1)
        if finish_wire and wire_span is not None:
            # wire.read covers parse + admission; the dispatcher's spans
            # parent under it by id, so finishing before enqueue is safe.
            spans.finish(wire_span, queued=True)
        conn.inflight += 1
        self._queue.put_nowait((conn, seq, packet, wire_span))

    def _flush_held(self, session: _Session) -> None:
        """Release held out-of-order seqs that became the in-order head."""
        while session.next_seq in session.held:
            held_conn, sid, packet, wire_span = session.held.pop(
                session.next_seq
            )
            self._admit_and_enqueue(
                held_conn,
                session.next_seq,
                sid,
                packet,
                wire_span,
                session,
                finish_wire=False,
            )

    def _evict_slow_peer(self, conn: _Connection) -> None:
        """Shed a peer that stopped reading: notice, close, deferred abort.

        The retryable ``slow_peer`` notice drains through the same
        graceful path as a restart notice; if the peer never reads it,
        the deferred transport abort reclaims the socket anyway.
        """
        size = conn.buffer_size()
        self.conn_counters["evicted_slow"] += 1
        conn.send(
            protocol.error_reply(
                protocol.E_SLOW_PEER,
                f"write buffer {size} bytes over cap "
                f"{self.policy.max_write_buffer}; evicting",
            )
        )
        conn.closed = True
        transport = conn.writer.transport
        try:
            conn.writer.close()
        except RuntimeError:
            pass
        handle = asyncio.get_running_loop().call_later(
            self.policy.evict_grace_s, transport.abort
        )
        self._abort_handles.append(handle)

    # ------------------------------------------------------------------
    # SLO watch engine
    # ------------------------------------------------------------------
    def _maybe_evaluate_slo(self) -> None:
        if self.slo_watcher is None:
            return
        self._dispatched_since_slo += 1
        if self._dispatched_since_slo < SLO_EVAL_INTERVAL:
            return
        self._dispatched_since_slo = 0
        self.evaluate_slo()

    def evaluate_slo(self):
        """Evaluate the SLO rules against live engine state now.

        Runs automatically every :data:`SLO_EVAL_INTERVAL` dispatched
        packets; callable directly (tests, future admin endpoints).
        Returns the watcher's state transitions.
        """
        watcher = self.slo_watcher
        if watcher is None:
            return []
        sim = self.engine.sim
        stats = sim.packet_stats
        arrived = stats.arrived

        def drop_rate(cause: str) -> float:
            if not arrived:
                return 0.0
            dropped = (
                stats.dropped
                if cause == "any"
                else stats.drop_causes.get(cause, 0)
            )
            return dropped / arrived

        occupancy = 0
        model_ns = 0.0
        for engine in sim.engines:
            occupancy = max(occupancy, engine.device.ptb.occupancy(engine.clock))
            model_ns = max(model_ns, engine.clock)
        transitions = watcher.evaluate(
            SloSample(
                latency_percentile=sim.latency_stats.percentile,
                drop_rate=drop_rate,
                ptb_occupancy=occupancy,
                model_ns=model_ns,
                conn_churn=float(self.conn_counters["opened"]),
            )
        )
        if self.slo_backpressure:
            # Breach latches service-wide backpressure; the dispatcher's
            # existing shed/pause machinery does the rest.
            self.admission.slo_latched = watcher.any_breached
        return transitions

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        conn = _Connection(writer, name=str(peer))
        self._connections.append(conn)
        self.conn_counters["opened"] += 1
        policy = self.policy
        frames = protocol.FrameReader(
            reader,
            max_frame_bytes=policy.max_frame_bytes,
            idle_timeout_s=policy.idle_timeout_s,
            frame_deadline_s=policy.frame_deadline_s,
            clock=self._clock,
        )
        try:
            while not conn.closed:
                try:
                    line = await frames.read_frame()
                except protocol.IdleTimeoutError as error:
                    if conn.inflight > 0:
                        # Quiet because it is *waiting* (its replies are
                        # still being dispatched), not abandoned.
                        continue
                    self.conn_counters["idle_timeout"] += 1
                    conn.send(protocol.error_reply(error.code, str(error)))
                    break
                except protocol.FrameTooLargeError as error:
                    self.conn_counters["frame_too_large"] += 1
                    conn.send(protocol.error_reply(error.code, str(error)))
                    break
                except protocol.FrameStreamError as error:
                    self.conn_counters["frame_timeout"] += 1
                    conn.send(protocol.error_reply(error.code, str(error)))
                    break
                if line is None:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    message = protocol.decode(line)
                except protocol.ProtocolError as error:
                    conn.send(
                        protocol.error_reply(protocol.E_BAD_REQUEST, str(error))
                    )
                    continue
                await self._handle_message(conn, message)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            conn.closed = True
            self.conn_counters["closed"] += 1
            if conn in self._connections:
                self._connections.remove(conn)
            try:
                await asyncio.wait_for(
                    writer.drain(), timeout=policy.evict_grace_s
                )
            except (ConnectionError, asyncio.TimeoutError, RuntimeError):
                pass
            try:
                writer.close()
            except RuntimeError:
                pass

    async def _handle_message(
        self, conn: _Connection, message: Dict[str, Any]
    ) -> None:
        kind = message["type"]
        if kind == protocol.HELLO:
            sid = message.get("sid")
            if sid is not None and not isinstance(sid, int):
                conn.send(
                    protocol.error_reply(
                        protocol.E_BAD_REQUEST, "'sid' must be an integer"
                    )
                )
                return
            if sid is not None and not self.engine.knows_sid(sid):
                conn.send(
                    protocol.error_reply(
                        protocol.E_UNKNOWN_SID,
                        f"sid {sid} is not a tenant of this service",
                    )
                )
                return
            attempts = message.get("attempts")
            if isinstance(attempts, int) and attempts > 1:
                # Client-reported connect retries: the wire-level
                # reconnect-pressure signal behind the churn SLO.
                self.conn_counters["handshake_retries"] += attempts - 1
            session_id = message.get("session")
            if session_id is not None:
                if not isinstance(session_id, str) or not session_id:
                    conn.send(
                        protocol.error_reply(
                            protocol.E_BAD_REQUEST,
                            "'session' must be a non-empty string",
                        )
                    )
                    return
                session = self._sessions.get(session_id)
                if session is None:
                    if len(self._sessions) >= self.policy.max_sessions:
                        self._sessions.pop(next(iter(self._sessions)))
                    session = _Session(session_id)
                    self._sessions[session_id] = session
                else:
                    self.conn_counters["reconnects"] += 1
                conn.session = session
            conn.bound_sid = sid
            hello_ok: Dict[str, Any] = {
                "type": protocol.HELLO_OK,
                "schema": protocol.PROTOCOL_SCHEMA,
                "sid": sid,
                "num_devices": self.engine.num_devices,
                "features": list(protocol.PROTOCOL_FEATURES),
            }
            if session_id is not None:
                hello_ok["session"] = session_id
            conn.send(hello_ok)
        elif kind == protocol.TRANSLATE:
            self._handle_translate(conn, message)
        elif kind == protocol.STATS:
            if message.get("format") == "prom":
                conn.send(self.prom_stats_reply())
            else:
                conn.send(self.stats_reply())
        elif kind == protocol.FLUSH:
            await self._handle_flush(conn)
        elif kind == protocol.PING:
            conn.send({"type": protocol.PONG})
        else:
            conn.send(
                protocol.error_reply(
                    protocol.E_BAD_REQUEST, f"unknown request type {kind!r}"
                )
            )
        try:
            await conn.writer.drain()
        except ConnectionError:
            conn.closed = True

    def _handle_translate(self, conn: _Connection, message: Dict[str, Any]) -> None:
        try:
            seq, sid, giovas, size, inv, trace_ctx = protocol.parse_translate(
                message, conn.bound_sid
            )
        except protocol.ProtocolError as error:
            conn.send(
                protocol.error_reply(
                    protocol.E_BAD_REQUEST, str(error), seq=message.get("seq")
                )
            )
            return
        self.requests_received += 1
        spans = self.spans
        wire_span = None
        if spans is not None:
            # Root of this request's server-side tree; parents under the
            # client's wire-propagated context when one was sent.
            wire_span = spans.start(
                SPAN_WIRE,
                trace_id=trace_ctx.trace_id if trace_ctx is not None else None,
                parent_id=trace_ctx.span_id if trace_ctx is not None else None,
                sid=sid,
                seq=seq,
            )
        if self._draining:
            conn.send(
                protocol.error_reply(
                    protocol.E_RESTARTING,
                    "server is draining for restart; reconnect and retry",
                    seq=seq,
                )
            )
            if wire_span is not None:
                spans.finish(wire_span, refused=protocol.E_RESTARTING)
            return
        if not self.engine.knows_sid(sid):
            conn.send(
                protocol.error_reply(
                    protocol.E_UNKNOWN_SID,
                    f"sid {sid} is not a tenant of this service",
                    seq=seq,
                )
            )
            if wire_span is not None:
                spans.finish(wire_span, refused=protocol.E_UNKNOWN_SID)
            return
        packet = PacketRecord(
            sid=sid, giovas=giovas, size_bytes=size, invalidations=inv
        )
        session = conn.session
        if session is not None:
            ack = message.get("ack")
            if isinstance(ack, int) and ack > session.acked:
                # The client's contiguous-answered watermark: everything
                # below it will never be resent, so the cache lets go.
                for answered in [s for s in session.cache if s < ack]:
                    del session.cache[answered]
                session.acked = ack
            if seq < session.next_seq:
                cached = session.cache.get(seq)
                if cached is not None:
                    self.conn_counters["resends_served"] += 1
                    conn.send(cached)
                    if cached.get("type") == protocol.RESULT:
                        self.results_sent += 1
                elif seq >= session.acked:
                    # Original still queued (its connection may be dead):
                    # deliver its reply here when it lands.
                    session.waiters[seq] = conn
                if wire_span is not None:
                    spans.finish(wire_span, resend=True)
                return
            if seq > session.next_seq:
                if (
                    seq - session.next_seq > self.policy.session_window
                    or len(session.held) >= self.policy.session_window
                ):
                    self.conn_counters["too_many_inflight"] += 1
                    conn.send(
                        protocol.error_reply(
                            protocol.E_TOO_MANY_INFLIGHT,
                            f"seq {seq} is {seq - session.next_seq} ahead of "
                            f"the session head; window is "
                            f"{self.policy.session_window}",
                            seq=seq,
                        )
                    )
                    if wire_span is not None:
                        spans.finish(wire_span, refused=protocol.E_TOO_MANY_INFLIGHT)
                    return
                # Out-of-order arrival (an earlier seq was lost on the
                # wire): hold it, never submit ahead of trace order.
                self.conn_counters["held"] += 1
                session.held[seq] = (conn, sid, packet, wire_span)
                if wire_span is not None:
                    spans.finish(wire_span, held=True)
                return
        if conn.inflight >= self.policy.max_inflight:
            self.conn_counters["too_many_inflight"] += 1
            conn.send(
                protocol.error_reply(
                    protocol.E_TOO_MANY_INFLIGHT,
                    f"{conn.inflight} requests in flight; cap is "
                    f"{self.policy.max_inflight}",
                    seq=seq,
                )
            )
            if wire_span is not None:
                spans.finish(wire_span, refused=protocol.E_TOO_MANY_INFLIGHT)
            return
        self._admit_and_enqueue(conn, seq, sid, packet, wire_span, session)
        if session is not None:
            self._flush_held(session)

    async def _handle_flush(self, conn: _Connection) -> None:
        """End-of-stream: drain the queue, then build the final result.

        ``flush`` is ordered after every already-queued request and is
        terminal for the modeled run (it applies the offline engine's
        end-of-run install drain); later translates get a
        ``translation_error``.  The reply carries the full
        :class:`SimulationResult` via the exact-round-trip serializer, so
        a client can compare it byte-for-byte with an offline run.
        """
        from repro.runner.serialize import result_to_dict

        await self._queue.join()
        result = self.engine.flush()
        conn.send(
            {
                "type": protocol.FLUSH_OK,
                "packets": self.engine.processed,
                "result": result_to_dict(result),
            }
        )

    # ------------------------------------------------------------------
    # Live metrics
    # ------------------------------------------------------------------
    def stats_reply(self) -> Dict[str, Any]:
        """The ``stats`` response: live per-SID metrics, copy-on-read."""
        engine = self.engine
        stats = engine.sim.packet_stats
        reply: Dict[str, Any] = {
            "type": protocol.STATS_REPLY,
            "schema": protocol.PROTOCOL_SCHEMA,
            "processed": engine.processed,
            "queue_depth": self._queue.qsize(),
            "requests_received": self.requests_received,
            "results_sent": self.results_sent,
            "packets": {
                "arrived": stats.arrived,
                "accepted": stats.accepted,
                "dropped": stats.dropped,
                "retried": stats.retried,
                "drop_causes": dict(stats.drop_causes),
            },
            "admission": self.admission.snapshot(),
            "conn": {
                "open": len(self._connections),
                "sessions": len(self._sessions),
                **self.conn_counters,
            },
        }
        metrics = engine.sim._metrics
        if metrics is not None:
            per_sid: Dict[str, Any] = {}
            histograms = metrics.histograms_by_label(
                "translation_latency_ns", "sid"
            )
            for sid in sorted(histograms):
                histogram = histograms[sid]
                per_sid[str(sid)] = {
                    **histogram.summary(),
                    "devtlb_hits": metrics.counter(
                        "devtlb.hit", structure="devtlb", sid=sid
                    ).value,
                    "devtlb_misses": metrics.counter(
                        "devtlb.miss", structure="devtlb", sid=sid
                    ).value,
                }
            reply["per_sid"] = per_sid
        if self.slo_watcher is not None:
            reply["slo"] = self.slo_watcher.snapshot()
        return reply

    def prom_text(self) -> str:
        """Prometheus exposition text: live registry + wire-level series.

        The registry snapshot renders through
        :func:`repro.obs.prom.registry_to_prom`; service counters that
        live outside the registry (wire traffic, queue depth) and the
        per-rule SLO breach flags ride along as extra lines, so one
        scrape covers the whole server.
        """
        metrics = self.engine.sim._metrics
        snapshot = metrics.snapshot() if metrics is not None else {}
        extra = [
            counter_line("service_requests", {}, self.requests_received),
            counter_line("service_results", {}, self.results_sent),
            counter_line("service_processed", {}, self.engine.processed),
            gauge_line(
                "service_queue_depth",
                {},
                self._queue.qsize() if self._queue is not None else 0,
            ),
            gauge_line("conn_open", {}, len(self._connections)),
            gauge_line("conn_sessions", {}, len(self._sessions)),
        ]
        for key, value in sorted(self.conn_counters.items()):
            extra.append(counter_line(f"conn_{key}", {}, value))
        watcher = self.slo_watcher
        if watcher is not None:
            for rule in watcher.rules:
                extra.append(
                    gauge_line(
                        "slo_breached",
                        {"rule": rule.name, "kind": rule.kind},
                        int(watcher.breached[rule.name]),
                    )
                )
        return registry_to_prom(snapshot, extra_lines=extra)

    def prom_stats_reply(self) -> Dict[str, Any]:
        """The ``stats --format prom`` response (text payload)."""
        return {
            "type": protocol.STATS_REPLY,
            "schema": protocol.PROTOCOL_SCHEMA,
            "format": "prom",
            "text": self.prom_text(),
        }


def build_server(
    config,
    trace,
    admission: Optional[AdmissionConfig] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    observability=None,
    fault_plan=None,
    checkpoint_path=None,
    resume_from=None,
    slo_rules=None,
    slo_backpressure: bool = False,
    policy: Optional[ConnectionPolicy] = None,
) -> ServiceServer:
    """Assemble a server around a fresh or warm-restarted engine.

    ``resume_from`` loads a service checkpoint written by a previous
    graceful shutdown: the restored engine continues at its exact model
    state, the restored admission controller keeps its cumulative stats
    but resets process-bound runtime (in-flight counts, backpressure
    latches, token-bucket refill clocks, which reference the dead
    process's monotonic epoch).

    ``observability`` feeds the engine's simulator as before; its
    ``spans`` recorder (if any) additionally attaches to the server for
    wire-to-engine request trees.  ``slo_rules`` (a list of
    :class:`~repro.obs.slo.SloRule`) arms the SLO watch engine, emitting
    ``slo.*`` events through the bundle's tracer; ``slo_backpressure``
    lets a breach drive admission backpressure.
    """
    spans = observability.spans if observability is not None else None
    watcher = None
    if slo_rules:
        tracer = observability.tracer if observability is not None else None
        watcher = SloWatcher(slo_rules, tracer=tracer)
    if resume_from is not None:
        engine, state = load_service_checkpoint(resume_from, expect_config=config)
        controller = state.get("admission")
        if isinstance(controller, AdmissionController):
            if admission is not None:
                controller.config = admission
            controller.reset_runtime()
        else:
            controller = AdmissionController(admission)
        server = ServiceServer(
            engine,
            admission=controller,
            host=host,
            port=port,
            checkpoint_path=checkpoint_path,
            spans=spans,
            slo_watcher=watcher,
            slo_backpressure=slo_backpressure,
            policy=policy,
        )
        sessions = state.get("sessions")
        if isinstance(sessions, dict):
            # Restored exactly-once state: clients resuming their
            # sessions after the warm restart get cached answers for
            # anything the old process already translated.
            server._sessions = sessions
        return server
    engine = ServiceEngine(
        config, trace, observability=observability, fault_plan=fault_plan
    )
    return ServiceServer(
        engine,
        admission=admission,
        host=host,
        port=port,
        checkpoint_path=checkpoint_path,
        spans=spans,
        slo_watcher=watcher,
        slo_backpressure=slo_backpressure,
        policy=policy,
    )

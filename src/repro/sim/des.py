"""Event-queue twin of the analytic performance model.

The paper's original performance model is event-driven ("a new event is
scheduled in a queue for a corresponding structure", Section IV-C).  The
main :class:`~repro.sim.simulator.HyperSimulator` in this repository is
*analytic*: because every request's latency is fully determined at issue,
packet arrivals can be replayed in order without an event queue.

:class:`EventDrivenSimulator` re-implements the same semantics on top of
an explicit event queue: each device's packet arrivals chain along its
serial link (one outstanding arrival event per device, as the wire
delivers packets in order), drop-and-retry admissions reschedule, and
prefetch installs fire as their own events.  Equal-time events across
devices dispatch in device-id order — exactly the ``(next_time,
device_id)`` merge the analytic engine performs — so given identical
inputs the two engines must produce *identical* results for any number of
devices; ``tests/test_des.py`` asserts exactly that, which validates the
analytic shortcut.  That is this module's role: it is the reference
oracle the test suite checks the analytic engine against (parity,
fault injection, checkpoint/resume), not a second engine to run
experiments on.  The CLI, the runner and the service all run the
analytic engine; tests import this module directly.

Both engines drive the same :class:`~repro.sim.engine.DeviceEngine`
components, so "same semantics" is structural, not coincidental: only the
top-level scheduling differs.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, List, Optional

from repro.core.config import ArchConfig
from repro.core.results import SimulationResult
from repro.sim.engine import PacketRouter
from repro.sim.simulator import HyperSimulator
from repro.trace.constructor import HyperTrace


class EventKind(IntEnum):
    """Event kinds, ordered by dispatch priority at equal timestamps.

    Prefetch installs must be visible to a packet arriving at the same
    instant (the analytic model drains installs with
    ``install_time <= arrival`` first), hence the lower priority value.
    """

    PREFETCH_INSTALL = 0
    PACKET_ARRIVAL = 1


@dataclass(order=True)
class Event:
    """One scheduled event; orders by (time, kind, tiebreak, sequence).

    ``tiebreak`` carries the device id so equal-time arrivals on
    different devices dispatch in device order, mirroring the analytic
    engine's cursor merge; it is 0 throughout a single-device run, which
    reduces to the historical (time, kind, sequence) order.
    """

    time: float
    kind: EventKind
    tiebreak: int
    sequence: int
    payload: Any = field(compare=False, default=None)


class EventQueue:
    """A time-ordered event queue with stable tie-breaking."""

    #: Instance attributes a checkpoint pickles (repro.sim.checkpoint).
    _state_fields = ("_heap", "_counter")

    def __init__(self):
        self._heap: List[Event] = []
        self._counter = itertools.count()

    def schedule(
        self, time: float, kind: EventKind, payload: Any = None, tiebreak: int = 0
    ) -> None:
        heapq.heappush(
            self._heap, Event(time, kind, tiebreak, next(self._counter), payload)
        )

    def pop(self) -> Event:
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        return heapq.heappop(self._heap)

    def peek_time(self) -> float:
        if not self._heap:
            raise IndexError("peek on an empty event queue")
        return self._heap[0].time

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class EventDrivenSimulator(HyperSimulator):
    """The performance model, driven by an explicit event queue.

    Reuses every structural component of :class:`HyperSimulator` — the
    fabric and its per-device engines (caches, PTB, prefetch unit, request
    processing); only the top-level control flow differs.
    """

    _engine_kind = "event"

    def run(
        self,
        max_packets: Optional[int] = None,
        warmup_packets: int = 0,
        checkpoint_every: int = 0,
        checkpoint_path=None,
        checkpoint_hook=None,
    ) -> SimulationResult:
        trace_packets = self.trace.packets
        total = len(trace_packets)
        if max_packets is not None:
            total = min(total, max_packets)
        if warmup_packets >= total:
            raise ValueError(
                f"warmup ({warmup_packets}) must be shorter than the trace "
                f"({total} packets)"
            )
        router = PacketRouter(trace_packets, self.fabric, limit=max_packets)
        state = _EventLoop(warmup_packets=warmup_packets, queue=EventQueue())
        for engine in self.engines:
            # Each device's link is serial: exactly one arrival per device
            # is outstanding at any time, and accepting a packet schedules
            # that device's next one.
            if engine.fetch_next(router):
                self._schedule_arrival(state.queue, engine)
        return self._run_loop(
            router, state, self._checkpoint_policy(
                checkpoint_every, checkpoint_path, checkpoint_hook
            ),
        )

    def _run_loop(self, router, state, policy=None) -> SimulationResult:
        """Drain the event queue from ``state``; checkpoint-resumable like
        the analytic loop (the queue itself is part of the loop state)."""
        queue = state.queue
        while queue:
            event = queue.pop()
            if event.kind is EventKind.PREFETCH_INSTALL:
                device_id, sid, page, hpa, page_shift = event.payload
                self.engines[device_id].apply_install(
                    event.time, sid, page, hpa, page_shift
                )
                continue
            before = state.processed
            self._dispatch_arrival(
                queue, event.time, self.engines[event.payload], router, state
            )
            # Checkpoint only at packet barriers (a completed dispatch),
            # mirroring the analytic engine's cadence packet for packet.
            if policy is not None and state.processed != before:
                self._checkpoint_barrier(policy, router, state)

        elapsed = max(state.last_completion, state.last_arrival)
        if self.telemetry is not None:
            self.telemetry.finish(elapsed)
        return self._build_result(
            elapsed,
            measure_from_ns=state.measure_from_ns,
            measure_from_bytes=state.measure_from_bytes,
        )

    # ------------------------------------------------------------------
    def _schedule_arrival(self, queue: EventQueue, engine) -> None:
        queue.schedule(
            engine.next_time,
            EventKind.PACKET_ARRIVAL,
            engine.device_id,
            tiebreak=engine.device_id,
        )

    def _dispatch_arrival(self, queue, arrival, engine, router, state):
        if not engine.current_is_retry:
            engine.begin_packet()

        if self.native:
            completion = engine.process_native(arrival)
            self._finish_packet(queue, arrival, completion, engine, router, state)
            return

        if not engine.try_admit(arrival):
            # try_admit advanced the engine's cursor to the retry slot.
            self._schedule_arrival(queue, engine)
            return

        completion = engine.complete_packet(arrival, drain_installs=False)
        # Lift the prefetches this packet issued into their own events.
        for install_time, _seq, sid, page, hpa, page_shift in (
            engine.pop_pending_installs()
        ):
            queue.schedule(
                install_time,
                EventKind.PREFETCH_INSTALL,
                (engine.device_id, sid, page, hpa, page_shift),
                tiebreak=engine.device_id,
            )
        self._finish_packet(queue, arrival, completion, engine, router, state)

    def _finish_packet(self, queue, arrival, completion, engine, router, state):
        state.last_arrival = max(state.last_arrival, arrival)
        state.last_completion = max(state.last_completion, completion)
        state.processed += 1
        if self.telemetry is not None and not self.native:
            engine.sample_telemetry(arrival, engine.current_packet)
        if state.warmup_packets and state.processed == state.warmup_packets:
            state.measure_from_ns = (
                arrival if self.native
                else max(state.last_completion, state.last_arrival)
            )
            state.measure_from_bytes = self.packet_stats.bytes_processed
            for other in self.engines:
                other.measure_from_bytes = other.packet_stats.bytes_processed
        if engine.fetch_next(router):
            self._schedule_arrival(queue, engine)


@dataclass
class _EventLoop:
    """Mutable bookkeeping threaded through the event loop.

    Checkpoint-picklable alongside the simulator — the event queue rides
    in here, so a restored run pops exactly the events the interrupted
    one still had scheduled.
    """

    warmup_packets: int = 0
    queue: EventQueue = field(default_factory=EventQueue)
    last_arrival: float = 0.0
    last_completion: float = 0.0
    processed: int = 0
    measure_from_ns: float = 0.0
    measure_from_bytes: int = 0


def simulate_evented(
    config: ArchConfig,
    trace: HyperTrace,
    native: bool = False,
    max_packets: Optional[int] = None,
    warmup_packets: int = 0,
    fault_plan=None,
    checkpoint_every: int = 0,
    checkpoint_path=None,
    checkpoint_hook=None,
    resume_from=None,
) -> SimulationResult:
    """One-call convenience mirroring :func:`repro.sim.simulator.simulate`."""
    if resume_from is not None:
        from repro.sim.checkpoint import resume_simulation

        return resume_simulation(
            resume_from,
            expect_engine="event",
            expect_config=config,
            expect_trace=trace,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            checkpoint_hook=checkpoint_hook,
        )
    simulator = EventDrivenSimulator(
        config,
        trace,
        native=native,
        fault_plan=fault_plan,
    )
    return simulator.run(
        max_packets=max_packets,
        warmup_packets=warmup_packets,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        checkpoint_hook=checkpoint_hook,
    )

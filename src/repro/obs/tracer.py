"""Per-request lifecycle event collection.

The simulator talks to a tracer through two methods only:

* :meth:`RecordingTracer.sample_packet` — called once per accepted
  packet; the returned decision gates every event of that packet (whole
  request lifecycles are either traced or skipped, never torn).
* :meth:`RecordingTracer.emit` — record one :class:`TraceEvent`.

The service records its wall-clock request tree through two more:
:meth:`RecordingTracer.start` opens a span event and
:meth:`RecordingTracer.finish` closes and records it.  Their ids come
from a counter (never ``random``/``uuid``), so two identical replays
give identical trees, and the clock is injectable.  A span event's args
carry ``trace_id`` / ``span_id`` / ``parent_id``; the ids propagate over
the service's wire protocol as a :class:`SpanContext`.

Tracing off means no tracer: the simulator resolves the bundle's
``tracer`` to ``None`` once at attach time, and the per-request hot path
then contains no tracer calls at all (guarded by
``benchmarks/bench_obs_overhead.py``).

:class:`RecordingTracer` keeps events in memory for export via
:mod:`repro.obs.export`.  Sampling is seeded and therefore deterministic:
two tracers constructed with the same ``(sample_rate, seed)`` make the
same per-packet decisions.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional


@dataclass
class TraceEvent:
    """One structured event on the translation path.

    ``dur_ns > 0`` marks a span (rendered as a Perfetto complete event);
    ``dur_ns == 0`` an instant.  ``args`` carries kind-specific detail
    (page numbers, queue delays, walk access counts, ...).
    """

    kind: str
    ts_ns: float
    sid: int = -1
    dur_ns: float = 0.0
    args: Optional[Dict[str, Any]] = None


@dataclass
class SpanContext:
    """The wire-propagated identity linking span events into one tree."""

    trace_id: str
    span_id: str

    def to_wire(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, raw: Dict[str, Any]) -> "SpanContext":
        return cls(trace_id=str(raw["trace_id"]), span_id=str(raw["span_id"]))


class RecordingTracer:
    """In-memory tracer with deterministic packet sampling.

    Parameters
    ----------
    sample_rate:
        Fraction of packets whose events are recorded (1.0 = every
        packet).  The decision is made per packet so request lifecycles
        stay intact.
    seed:
        Seed of the private sampling RNG — fixed seed, fixed decisions.
    max_events:
        Hard cap on retained events; excess emissions are counted in
        :attr:`dropped_events` instead of growing without bound.
    clock:
        Nanosecond wall clock of :meth:`start` / :meth:`finish`.
    """

    #: Instance attributes a checkpoint pickles (repro.sim.checkpoint).
    _state_fields = (
        "sample_rate", "max_events", "_rng", "events", "dropped_events",
        "packets_sampled", "packets_skipped", "_clock", "_last_span_id",
    )

    def __init__(
        self,
        sample_rate: float = 1.0,
        seed: int = 0,
        max_events: int = 2_000_000,
        clock: Callable[[], int] = time.perf_counter_ns,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in 0..1, got {sample_rate}")
        if max_events < 1:
            raise ValueError("max_events must be positive")
        self.sample_rate = sample_rate
        self.max_events = max_events
        self._rng = random.Random(seed)
        self.events: List[TraceEvent] = []
        self.dropped_events = 0
        self.packets_sampled = 0
        self.packets_skipped = 0
        self._clock = clock
        self._last_span_id = 0

    def sample_packet(self) -> bool:
        if self.sample_rate >= 1.0:
            sampled = True
        elif self.sample_rate <= 0.0:
            sampled = False
        else:
            sampled = self._rng.random() < self.sample_rate
        if sampled:
            self.packets_sampled += 1
        else:
            self.packets_skipped += 1
        return sampled

    def emit(
        self,
        kind: str,
        ts_ns: float,
        sid: int = -1,
        dur_ns: float = 0.0,
        **args: Any,
    ) -> None:
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        self.events.append(
            TraceEvent(
                kind=kind,
                ts_ns=ts_ns,
                sid=sid,
                dur_ns=dur_ns,
                args=args or None,
            )
        )

    def start(
        self,
        kind: str,
        parent: Optional[TraceEvent] = None,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        sid: int = -1,
        **args: Any,
    ) -> TraceEvent:
        """Open a span event at the current clock (recorded by :meth:`finish`).

        ``parent`` links to an open or finished span event of this tracer;
        ``trace_id`` + ``parent_id`` link to a wire-propagated
        :class:`SpanContext`.  A root with neither opens a new trace.
        """
        if parent is not None:
            trace_id = parent.args["trace_id"]
            parent_id = parent.args["span_id"]
            if sid < 0:
                sid = parent.sid
        if trace_id is None:
            self._last_span_id += 1
            trace_id = f"t{self._last_span_id:x}"
        self._last_span_id += 1
        ids = {"trace_id": trace_id, "span_id": f"s{self._last_span_id:x}"}
        if parent_id is not None:
            ids["parent_id"] = parent_id
        ids.update(args)
        return TraceEvent(kind=kind, ts_ns=self._clock(), sid=sid, args=ids)

    def finish(self, event: TraceEvent, **args: Any) -> None:
        """Close ``event`` at the current clock and record it."""
        event.dur_ns = self._clock() - event.ts_ns
        event.args.update(args)
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
        else:
            self.events.append(event)

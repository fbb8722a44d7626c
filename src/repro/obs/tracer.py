"""Per-request lifecycle event collection.

The simulator talks to a tracer through two methods only:

* :meth:`RecordingTracer.sample_packet` — called once per accepted
  packet; the returned decision gates every event of that packet (whole
  request lifecycles are either traced or skipped, never torn).
* :meth:`RecordingTracer.emit` — record one :class:`TraceEvent`.

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
from dataclasses import dataclass
from typing import Any, Dict, List, Optional


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
    """

    def __init__(
        self,
        sample_rate: float = 1.0,
        seed: int = 0,
        max_events: int = 2_000_000,
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

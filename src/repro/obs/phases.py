"""Hot-path phase profiling: host-time cost attribution per pipeline stage.

The analytic engine and its event-driven test oracle share one hot path
(:meth:`repro.sim.engine.DeviceEngine.process_request`); every speed
claim about that path needs to know *where* the host cycles go.
:class:`PhaseProfiler` splits the per-request work into three measured
segments:

* ``lookup`` — DevTLB lookup plus the prefetch-buffer probe (the
  device-local fast path);
* ``walk`` — the DevTLB-miss branch: shared-IOTLB access, bounded
  walker-pool acquisition, and the two-dimensional page-table walk model;
* ``ptb`` — Pending Translation Buffer issue (occupancy heap upkeep).

Measurements are **host** nanoseconds (``time.perf_counter_ns``), not
modeled virtual time — they attribute simulator cost, not simulated
latency.  The profiler is pure observation: it never feeds back into the
model, so enabling it cannot change a :class:`SimulationResult` beyond
populating ``phase_profile``.

The null path follows the PR 2 zero-cost-when-disabled contract: the
simulator resolves ``observability.phases`` to an attribute-level ``None``
once at attach time, and every hot-path site guards on a local
``if phases is not None`` (guarded by ``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict

#: The measured segments of one translation request, in pipeline order.
PHASE_LOOKUP = "lookup"
PHASE_WALK = "walk"
PHASE_PTB = "ptb"
ALL_PHASES = (PHASE_LOOKUP, PHASE_WALK, PHASE_PTB)


class PhaseProfiler:
    """Accumulates per-phase call counts and host-time totals.

    ``clock`` is injectable (a ``() -> int`` nanosecond counter) so tests
    can drive deterministic timings; the default is
    ``time.perf_counter_ns``.  The profiler pickles with the simulator
    (checkpoint/warm-restart): its state is two plain dicts and a
    by-reference builtin.
    """

    #: Mirrors the tracer convention: checked once at attach time.
    enabled = True

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self._clock = clock
        self.calls: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def begin(self) -> int:
        """Start one measured segment; returns the start timestamp."""
        return self._clock()

    def end(self, phase: str, started: int) -> None:
        """Close one measured segment opened by :meth:`begin`."""
        self.calls[phase] = self.calls.get(phase, 0) + 1
        self.total_ns[phase] = self.total_ns.get(phase, 0) + (
            self._clock() - started
        )

    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, int]:
        """Copy-on-read per-phase host-ns totals (for delta measurement)."""
        return dict(self.total_ns)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-phase breakdown: calls, total host ns, mean, and share.

        Phases appear in pipeline order; phases never entered are
        omitted, so a run without misses simply has no ``walk`` row.
        """
        grand_total = sum(self.total_ns.values())
        breakdown: Dict[str, Dict[str, float]] = {}
        for phase in ALL_PHASES:
            calls = self.calls.get(phase, 0)
            if not calls:
                continue
            total = self.total_ns.get(phase, 0)
            breakdown[phase] = {
                "calls": calls,
                "total_ns": total,
                "mean_ns": total / calls,
                "fraction": total / grand_total if grand_total else 0.0,
            }
        return breakdown

    def reset(self) -> None:
        self.calls.clear()
        self.total_ns.clear()


class NullPhaseProfiler:
    """Disabled profiler: attaching it must cost (near) nothing."""

    enabled = False

    def begin(self) -> int:
        return 0

    def end(self, phase: str, started: int) -> None:
        return None

    def totals(self) -> Dict[str, int]:
        return {}

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {}

    def reset(self) -> None:
        return None


def format_phase_profile(breakdown: Dict[str, Dict[str, float]]) -> str:
    """One-line human-readable rendering (``lookup 42% walk 51% ptb 7%``)."""
    parts = []
    for phase in ALL_PHASES:
        row = breakdown.get(phase)
        if row is None:
            continue
        parts.append(f"{phase} {row['fraction'] * 100.0:.0f}%")
    return " ".join(parts)

"""The service's incremental driver around :class:`HyperSimulator`.

The offline simulator consumes a whole trace through its merge loop; the
service receives packets one at a time over the wire.
:class:`ServiceEngine` bridges the two **without forking any model
state**: it owns a real :class:`~repro.sim.simulator.HyperSimulator`
(fabric, caches, PTBs, shared chipset — everything PRs 1-5 built) and
replays the merge loop's per-packet step sequence for each submitted
packet:

1. place the packet on its device's cursor and compute the wire arrival
   (``clock + wire_time``), exactly as ``fetch_next`` would;
2. ``begin_packet()`` once — never on admission retries;
3. loop ``try_admit(arrival)``; each rejection advances ``next_time`` to
   the next free arrival slot (the paper's drop-and-retry), and the next
   attempt uses that time;
4. ``complete_packet(arrival)`` on admission.

For a single-device fabric the offline merge loop is strictly sequential
per packet, so submitting a trace's packets in trace order through this
engine performs the *identical* sequence of structure accesses — the
parity tests pin that the resulting :class:`SimulationResult` objects
compare equal.  With several devices the service processes packets in
submission order rather than global ``(time, device)`` merge order, so
parity is only guaranteed at ``devices.count == 1`` (see
docs/SERVICE.md).

Everything here is synchronous and picklable: the asyncio server calls
:meth:`submit` from its single dispatcher task, and warm restart pickles
the engine's state through the offline runs' checkpoint machinery
(engine kind ``"service"``), which rebuilds the trace and tenant system
from the trace's recipe instead of storing them.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.config import ArchConfig
from repro.core.results import SimulationResult
from repro.sim.checkpoint import (
    CheckpointError,
    SimulationCheckpoint,
    check_config,
)
from repro.sim.simulator import HyperSimulator
from repro.trace.constructor import HyperTrace
from repro.trace.records import PacketRecord
from repro.service.protocol import PacketOutcome

#: Engine kind recorded in service checkpoints.
SERVICE_ENGINE_KIND = "service"


class UnknownTenantError(KeyError):
    """A submitted SID is not a tenant of the service's tenant system."""


class ServiceEngine:
    """Feed packets one at a time through an offline-identical model.

    ``trace`` provides the tenant *system* (page tables, walkers, SIDs) —
    the service ignores ``trace.packets``; packets arrive via
    :meth:`submit`.  For parity with an offline run, construct the trace
    with the same arguments on both sides (tenant systems are seeded and
    deterministic) and submit the offline trace's packets in order.
    """

    #: Instance attributes a checkpoint pickles (repro.sim.checkpoint).
    _state_fields = (
        "sim", "config", "_valid_sids", "_last_completion", "processed",
        "_flushed",
    )

    def __init__(
        self,
        config: ArchConfig,
        trace: HyperTrace,
        observability=None,
        fault_plan=None,
    ):
        self.sim = HyperSimulator(
            config,
            trace,
            observability=observability,
            fault_plan=fault_plan,
        )
        self.config = config
        self._valid_sids = frozenset(trace.system.sids())
        self._last_completion = 0.0
        self.processed = 0
        self._flushed: Optional[SimulationResult] = None

    # ------------------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return self.sim.fabric.num_devices

    def device_for_sid(self, sid: int) -> int:
        return self.sim.fabric.device_for_sid(sid)

    def knows_sid(self, sid: int) -> bool:
        return sid in self._valid_sids

    def sids(self):
        return sorted(self._valid_sids)

    # ------------------------------------------------------------------
    # Backpressure hooks (driven by the server's dispatcher)
    # ------------------------------------------------------------------
    def ptb_occupancy(self, device_id: int) -> int:
        """Modeled PTB occupancy of a device at its current virtual time."""
        engine = self.sim.engines[device_id]
        return engine.device.ptb.occupancy(engine.clock)

    def shed_slot(self, packet: PacketRecord) -> float:
        """Consume the packet's wire slot without processing it.

        Shed-mode backpressure: the packet is refused at the service
        layer, but its arrival still occupied the link — the device
        clock advances by one wire time, mirroring the paper's
        PTB-overflow drop (which also burns the arrival slot).  Returns
        the device's new virtual time.
        """
        engine = self.sim.engines[self.device_for_sid(packet.sid)]
        engine.clock += engine.wire_time(packet)
        return engine.clock

    def stall_until_drained(self, device_id: int, target_occupancy: int) -> float:
        """Pause-mode backpressure: stall the link until the PTB drains.

        Advances the device's virtual clock to the earliest time its PTB
        occupancy falls to ``target_occupancy`` — deterministic
        pause-the-link semantics.  Returns the new virtual time.
        """
        engine = self.sim.engines[device_id]
        drain_at = engine.device.ptb.drain_time_to(target_occupancy)
        if drain_at > engine.clock:
            engine.clock = drain_at
        return engine.clock

    # ------------------------------------------------------------------
    # The per-packet step sequence
    # ------------------------------------------------------------------
    def submit(self, packet: PacketRecord) -> PacketOutcome:
        """Run one packet through the model; returns its outcome.

        Raises :class:`UnknownTenantError` for a SID outside the tenant
        system — the tenant has no page tables, so there is nothing to
        translate.
        """
        return self.submit_batch((packet,))[0]

    def submit_batch(self, packets) -> "list[PacketOutcome]":
        """Run packets through the model in order; returns their outcomes.

        The attribute lookups are hoisted out of the per-packet loop, so
        the server's dispatcher can translate a drained queue batch in
        one call; :meth:`submit` is the one-packet batch.

        Validation is *total*: every SID is checked before any packet
        touches the model, so an :class:`UnknownTenantError` (or the
        flush guard) raises with the engine state untouched — the server
        can safely fall back to the per-packet path for a batch that
        fails this precheck.
        """
        if self._flushed is not None:
            # Submitting after flush() would double-count the end-of-run
            # install drain; the server never does this, but fail loudly.
            raise RuntimeError("ServiceEngine already flushed")
        valid = self._valid_sids
        for packet in packets:
            if packet.sid not in valid:
                raise UnknownTenantError(packet.sid)
        sim = self.sim
        stats = sim.packet_stats
        latency_stats = sim.latency_stats
        outcomes = []
        last_completion = self._last_completion
        for packet in packets:
            engine = sim.engines[self.device_for_sid(packet.sid)]
            # Outcome capture: deltas of the same live counters the
            # offline result is built from.
            devtlb = engine.device.devtlb.stats
            before_accepted = stats.accepted
            before_retried = stats.retried
            before_causes = dict(stats.drop_causes)
            before_hits = devtlb.hits
            before_misses = devtlb.misses
            before_count = latency_stats.count
            before_total = latency_stats.total_ns

            # fetch_next, minus the router: place the packet on the cursor.
            engine.current_packet = packet
            engine.current_is_retry = False
            engine.next_time = engine.clock + engine.wire_time(packet)
            first_arrival = engine.next_time
            engine.begin_packet()
            # The merge loop, specialised to one pending cursor:
            # re-dispatch this engine at its (advanced) next_time until
            # admission.
            while True:
                arrival = engine.next_time
                if engine.try_admit(arrival):
                    completion = engine.complete_packet(arrival)
                    break
            if completion > last_completion:
                last_completion = completion

            causes: Dict[str, int] = {}
            for cause, count in stats.drop_causes.items():
                delta = count - before_causes.get(cause, 0)
                if delta:
                    causes[cause] = delta
            outcomes.append(
                PacketOutcome(
                    sid=packet.sid,
                    accepted=stats.accepted - before_accepted > 0,
                    drop_causes=causes,
                    retried=stats.retried - before_retried,
                    arrival_ns=first_arrival,
                    completion_ns=completion,
                    translations=latency_stats.count - before_count,
                    devtlb_hits=devtlb.hits - before_hits,
                    devtlb_misses=devtlb.misses - before_misses,
                    latency_ns=latency_stats.total_ns - before_total,
                )
            )
        self._last_completion = last_completion
        self.processed += len(outcomes)
        return outcomes

    # ------------------------------------------------------------------
    def flush(self) -> SimulationResult:
        """End-of-stream accounting; returns the aggregate result.

        Mirrors the tail of the offline run loop exactly: in-flight
        prefetch installs are applied, elapsed time is the latest of the
        last completion and every device clock, and the result is built
        at warmup 0.  Idempotent — repeated flushes return the same
        result object.
        """
        if self._flushed is None:
            sim = self.sim
            for engine in sim.engines:
                engine.drain_installs(float("inf"))
            elapsed = self._last_completion
            for engine in sim.engines:
                elapsed = max(elapsed, engine.clock)
            self._flushed = sim._build_result(elapsed)
        return self._flushed

    def peek_result(self) -> SimulationResult:
        """A mid-stream aggregate result (does *not* end the stream).

        Used by the ``stats`` endpoint; unlike :meth:`flush` it leaves
        in-flight prefetch installs pending, so it is safe to keep
        submitting afterwards.
        """
        if self._flushed is not None:
            return self._flushed
        elapsed = self._last_completion
        for engine in self.sim.engines:
            elapsed = max(elapsed, engine.clock)
        return self.sim._build_result(elapsed)

    # ------------------------------------------------------------------
    # Warm restart (PR 5 checkpoint path, engine kind "service")
    # ------------------------------------------------------------------
    def save_checkpoint(self, path, extra_state: Optional[dict] = None):
        """Snapshot this engine (and any ``extra_state``) to ``path``.

        The engine's state goes through the same crash-safe machinery as
        offline runs (atomic tmp+fsync+replace, versioned header, the
        trace rebuilt from its recipe on load); a restored engine
        continues submitting where this one stopped.
        """
        state = {"service": self}
        if extra_state:
            state.update(extra_state)
        snapshot = SimulationCheckpoint(
            engine=SERVICE_ENGINE_KIND,
            packets_done=self.processed,
            config=self.sim._config_dict(),
            state=state,
            trace=self.sim.trace,
        )
        return snapshot.save(path)


def load_service_checkpoint(path, expect_config: Optional[ArchConfig] = None):
    """Restore a :class:`ServiceEngine` checkpoint written by
    :meth:`ServiceEngine.save_checkpoint`.

    Returns ``(engine, state)`` where ``state`` is the full checkpoint
    state dict (the server stores its admission controller alongside the
    engine).  Cross-checks the engine kind, and the config when one is
    expected, mirroring :func:`repro.sim.checkpoint.resume_simulation`.
    """
    snapshot = SimulationCheckpoint.load(path)
    if snapshot.engine != SERVICE_ENGINE_KIND:
        raise CheckpointError(
            f"checkpoint {path} was written by the {snapshot.engine!r} engine; "
            f"cannot warm-restart the service from it"
        )
    check_config(path, snapshot.config, expect_config)
    engine = snapshot.state["service"]
    if not isinstance(engine, ServiceEngine):
        raise CheckpointError(
            f"checkpoint {path} does not contain a service engine"
        )
    return engine, snapshot.state

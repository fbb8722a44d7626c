"""HyperSIO's trace-driven device-system performance model.

Reimplements the paper's C++ performance model (Section IV-C): packets
arrive at intervals set by the link bandwidth and packet size; each accepted
packet generates three translation requests (ring pointer, data buffer,
mailbox); a packet is dropped — and retried at the next arrival slot — when
the Pending Translation Buffer has no free entry.  Requests that hit in the
DevTLB or Prefetch Buffer complete at device speed; misses cross PCIe to the
IOMMU, which may perform a two-dimensional page-table walk, and cross PCIe
back.  At the end of a run, achieved bandwidth is total bytes processed
divided by the time taken to translate everything.

The hardware is a :class:`~repro.core.fabric.Fabric`: ``devices.count``
device paths (DevTLB + PTB + Prefetch Unit each, driven by a
:class:`~repro.sim.engine.DeviceEngine`) behind one shared chipset (IOMMU
caches, walker pool, DRAM).  Each device's link is independent — packets
routed to it by SID arrive back-to-back at the configured rate — while
every DevTLB miss contends for the shared chipset.  With one device (the
default) the model is exactly the paper's Figure 6 single device+chipset
pair.

Timing is analytic rather than event-queued: each request's latency is
fully determined at issue, so PTB occupancy and bounded IOMMU walker pools
are tracked as min-heaps of completion times (exact for this model).  The
run loop merges the per-device packet cursors in global ``(time,
device_id)`` order, which makes shared-chipset accesses happen in the same
order as the event-driven twin (:mod:`repro.sim.des`).  Two documented
approximations, both also present in trace-driven models of this kind:
cache state is updated in trace order (a request that arrives while a fill
for the same page is still in flight counts as a hit — zero-cost
hit-under-miss), and a prefetch updates chipset cache state when issued
while its device-side installs are delayed by the full prefetch latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cache.base import CacheStats
from repro.core.config import ArchConfig
from repro.core.fabric import Fabric, attach_observability
from repro.core.ptb import PtbStats
from repro.core.results import DeviceResult, FabricStats, SimulationResult
from repro.device.packet import PacketStats
from repro.faults.injector import FaultInjector
from repro.obs import events as ev
from repro.obs.metrics import LatencyHistogram
from repro.sim.engine import DeviceEngine, PacketRouter
from repro.sim.oracle import FutureOracle, oracle_for_trace
from repro.trace.constructor import HyperTrace


class HyperSimulator:
    """Run one :class:`~repro.trace.constructor.HyperTrace` through a config.

    Parameters
    ----------
    config:
        Architecture to model (see :func:`repro.core.config.base_config` and
        :func:`repro.core.config.hypertrio_config`), including the
        ``devices`` fabric dimension.
    trace:
        The hyper-trace plus the tenant system behind it.
    native:
        Model a non-virtualised host interface: no address translation at
        all (used by the Figure 5 case study's "host" series).
    observability:
        Optional :class:`~repro.obs.Observability` bundle.  Its layers
        are read **once here**: a layer that is ``None`` (or no bundle at
        all) puts no tracing or metrics calls on the per-request hot path,
        so the overhead is a handful of attribute loads (guarded by
        ``benchmarks/bench_obs_overhead.py``).
    """

    #: Instance attributes a checkpoint pickles (:mod:`repro.sim.checkpoint`);
    #: the event twin adds none.
    _state_fields = (
        "config", "trace", "native", "telemetry", "observability",
        "fault_plan", "_tracer", "_metrics", "_oracle", "fabric",
        "packet_stats", "latency_stats", "invalidation_messages", "_injector",
        "engines",
    )

    def __init__(
        self,
        config: ArchConfig,
        trace: HyperTrace,
        native: bool = False,
        telemetry=None,
        observability=None,
        fault_plan=None,
    ):
        self.config = config
        self.trace = trace
        self.native = native
        self.telemetry = telemetry
        self.observability = observability
        self.fault_plan = fault_plan
        # Resolve the hot path's observability layers to attributes
        # exactly once, at attach time; an off layer is ``None``.
        obs_on = observability is not None
        self._tracer = observability.tracer if obs_on else None
        self._metrics = observability.metrics if obs_on else None
        self._oracle: Optional[FutureOracle] = None
        next_use = None
        if config.devtlb.policy.lower() == "oracle":
            self._oracle = oracle_for_trace(trace.packets)
            next_use = self._oracle.next_use
        self.fabric = Fabric(
            config,
            walker_for_sid=trace.system.walker_for,
            sids=trace.system.sids(),
            devtlb_next_use=next_use,
        )
        attach_observability(self.fabric, observability)
        # Run-global accounting (sums over all devices, recorded live).
        self.packet_stats = PacketStats()
        self.latency_stats = LatencyHistogram()
        #: ATS-style invalidation messages sent to the devices (driver
        #: unmap events in the trace).
        self.invalidation_messages = 0
        #: Seeded fault injector, or ``None`` (the common case) so the
        #: per-packet hot path pays one attribute check, mirroring the
        #: observability resolution above.
        self._injector = (
            FaultInjector(fault_plan, self.fabric.num_devices)
            if fault_plan is not None
            else None
        )
        self.engines: List[DeviceEngine] = [
            DeviceEngine(self, self.fabric, device_id)
            for device_id in range(self.fabric.num_devices)
        ]

    #: Engine kind recorded in checkpoints (the event twin overrides).
    _engine_kind = "analytic"

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(
        self,
        max_packets: Optional[int] = None,
        warmup_packets: int = 0,
        checkpoint_every: int = 0,
        checkpoint_path=None,
        checkpoint_hook=None,
    ) -> SimulationResult:
        """Simulate the trace and return the measured result.

        ``warmup_packets`` excludes the cold-start transient from the
        bandwidth measurement (caches and predictors keep their state; only
        the byte/time accounting restarts), mirroring the paper's
        steady-state methodology (workloads run 60-360 s and traces stop
        before any tenant drains).  With several devices the warmup counts
        *fabric-wide* accepted packets.

        ``checkpoint_every`` > 0 (with ``checkpoint_path``) snapshots the
        full engine state to ``checkpoint_path`` every N processed packets
        (atomic tmp+rename write); a run restored from any such snapshot
        via :func:`repro.sim.checkpoint.resume_simulation` produces a
        byte-identical :class:`SimulationResult`.  With ``checkpoint_path``
        set, a pending interrupt (see
        :func:`repro.sim.checkpoint.request_interrupt`) flushes a final
        snapshot at the next packet barrier and raises
        :class:`~repro.sim.checkpoint.SimulationInterrupted`.
        ``checkpoint_hook`` is called as ``hook(packets_done, path)`` after
        every snapshot (the runner uses it for worker heartbeats).  At the
        default ``checkpoint_every=0`` with no path the loop is untouched.
        """
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
        state = _AnalyticLoop(
            warmup_packets=warmup_packets,
            active=[engine for engine in self.engines if engine.fetch_next(router)],
        )
        return self._run_loop(
            router, state, self._checkpoint_policy(
                checkpoint_every, checkpoint_path, checkpoint_hook
            ),
        )

    def _checkpoint_policy(self, every, path, hook):
        if not every and path is None:
            return None
        from repro.sim.checkpoint import CheckpointPolicy

        return CheckpointPolicy(every=every, path=path, hook=hook)

    def _run_loop(self, router, state, policy=None) -> SimulationResult:
        """Drive the merge loop from ``state`` to completion.

        Entered fresh from :meth:`run` and re-entered with restored state
        by :meth:`repro.sim.checkpoint.SimulationCheckpoint.resume` — the
        loop body itself is identical either way, which is what makes a
        resumed run bit-exact.
        """
        engines = self.engines
        active = state.active
        native = self.native
        telemetry = self.telemetry
        while active:
            # Merge the per-device cursors: the globally earliest pending
            # arrival (retries included) runs next, ties broken by device
            # id — the same order the event queue in repro.sim.des pops.
            engine = min(active, key=_engine_order)
            arrival = engine.next_time
            if not engine.current_is_retry:
                engine.begin_packet()
            if native:
                # No translation: the packet is processed at line rate.
                completion = engine.process_native(arrival)
            else:
                if not engine.try_admit(arrival):
                    continue
                completion = engine.complete_packet(arrival)
            state.last_completion = max(state.last_completion, completion)
            state.processed += 1
            if telemetry is not None and not native:
                engine.sample_telemetry(arrival, engine.current_packet)
            if state.warmup_packets and state.processed == state.warmup_packets:
                state.measure_from_ns = (
                    arrival if native else max(state.last_completion, arrival)
                )
                state.measure_from_bytes = self.packet_stats.bytes_processed
                for other in engines:
                    other.measure_from_bytes = other.packet_stats.bytes_processed
            if not engine.fetch_next(router):
                active.remove(engine)
            if policy is not None:
                self._checkpoint_barrier(policy, router, state)

        # Apply prefetches still in flight when the trace ends, so final
        # cache-state accounting matches the event-driven engine.
        for engine in engines:
            engine.drain_installs(float("inf"))
        elapsed = state.last_completion
        for engine in engines:
            elapsed = max(elapsed, engine.clock)
        if telemetry is not None:
            # Flush the trailing partial window so tail packets are not
            # silently excluded from the windowed series.
            telemetry.finish(elapsed)
        return self._build_result(
            elapsed,
            measure_from_ns=state.measure_from_ns,
            measure_from_bytes=state.measure_from_bytes,
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _checkpoint_barrier(self, policy, router, state) -> None:
        """One packet-granularity barrier: snapshot and/or interrupt.

        Runs after a packet fully dispatched (and the cursor advanced), so
        a snapshot taken here restores to exactly the next dispatch.
        Saving is pure observation — it mutates no engine state and
        consumes no randomness — so enabling checkpoints cannot change the
        simulated result.
        """
        from repro.sim import checkpoint as ckpt

        if policy.path is not None and ckpt.interrupt_requested():
            path = self._save_checkpoint(policy, router, state)
            raise ckpt.SimulationInterrupted(
                f"interrupted at packet {state.processed}; "
                f"checkpoint flushed to {path}",
                packets_done=state.processed,
                checkpoint_path=str(path),
            )
        if policy.due(state.processed):
            self._save_checkpoint(policy, router, state)

    def _save_checkpoint(self, policy, router, state):
        from repro.sim.checkpoint import SimulationCheckpoint

        snapshot = SimulationCheckpoint(
            engine=self._engine_kind,
            packets_done=state.processed,
            config=dict(self._config_dict()),
            state={"sim": self, "router": router, "loop": state},
            trace=self.trace,
        )
        snapshot.save(policy.path)
        if self._tracer is not None:
            self._tracer.emit(
                ev.CHECKPOINT_SAVE,
                state.last_completion,
                packets_done=state.processed,
            )
        if policy.hook is not None:
            policy.hook(state.processed, str(policy.path))
        return policy.path

    def _config_dict(self) -> Dict:
        """The serialised config recorded in checkpoint headers."""
        from repro.core.config_io import config_to_dict

        return config_to_dict(self.config)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def apply_invalidation_storm(self, storm, now: float) -> None:
        """Burst unmap of tenant ``storm.sid``: flush it fabric-wide.

        Chipset caches first (``invalidate_tenant`` also notifies the
        engines to drop the tenant's in-flight prefetch installs), then
        the IOVA history the prefetcher reads, then every device path's
        local caches.  Called from the engine dispatch path at the same
        global ``(time, device)`` point in both simulator engines.
        """
        chipset = self.fabric.chipset
        chipset.iommu.invalidate_tenant(storm.sid)
        if chipset.iova_history is not None:
            chipset.iova_history.forget(storm.sid)
        for engine in self.engines:
            engine.flush_tenant(storm.sid)
        if self._tracer is not None:
            self._tracer.emit(ev.FAULT_STORM, now, storm.sid)

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    def _build_result(
        self,
        elapsed_ns: float,
        measure_from_ns: float = 0.0,
        measure_from_bytes: int = 0,
    ) -> SimulationResult:
        timing = self.config.timing
        measured_bits = (self.packet_stats.bytes_processed - measure_from_bytes) * 8
        window_ns = elapsed_ns - measure_from_ns
        achieved = measured_bits / window_ns if window_ns > 0 else 0.0
        fabric = self.fabric
        chipset = fabric.chipset
        single = fabric.num_devices == 1
        if single:
            # One device: report the live stats objects, exactly as the
            # pre-fabric model did.
            device = fabric.devices[0]
            devtlb_stats = device.devtlb.stats
            ptb_stats = device.ptb.stats
        else:
            devtlb_stats = _merged_cache_stats(
                device.devtlb.stats for device in fabric.devices
            )
            ptb_stats = _merged_ptb_stats(
                device.ptb.stats for device in fabric.devices
            )
        cache_stats = {
            "devtlb": devtlb_stats,
            "iotlb": chipset.iommu.iotlb.stats,
            "nested_tlb": chipset.iommu.nested_tlb.stats,
            "pte_cache": chipset.iommu.pte_cache.stats,
            "context": chipset.context_cache.stats,
        }
        pb_hit_rate = 0.0
        prefetch_requests = 0
        prefetch_supplied = 0
        if fabric.devices[0].prefetch_unit is not None:
            if single:
                unit = fabric.devices[0].prefetch_unit
                cache_stats["prefetch_buffer"] = unit.buffer.stats
                pb_hit_rate = unit.stats.buffer_hit_rate
                prefetch_requests = unit.stats.prefetch_requests
                prefetch_supplied = unit.stats.supplied_translations
            else:
                cache_stats["prefetch_buffer"] = _merged_cache_stats(
                    device.prefetch_unit.buffer.stats for device in fabric.devices
                )
                pb_hits = 0
                pb_misses = 0
                for device in fabric.devices:
                    stats = device.prefetch_unit.stats
                    pb_hits += stats.buffer_hits
                    pb_misses += stats.buffer_misses
                    prefetch_requests += stats.prefetch_requests
                    prefetch_supplied += stats.supplied_translations
                pb_total = pb_hits + pb_misses
                pb_hit_rate = pb_hits / pb_total if pb_total else 0.0
        benchmark = self._benchmark_name()
        percentiles = {}
        if self.latency_stats.count:
            percentiles = {
                "p50_ns": self.latency_stats.percentile(50),
                "p95_ns": self.latency_stats.percentile(95),
                "p99_ns": self.latency_stats.percentile(99),
            }
        device_results: List[DeviceResult] = []
        fabric_stats: Optional[FabricStats] = None
        if not single:
            device_results = [
                self._device_result(engine, measure_from_ns)
                for engine in self.engines
            ]
            pool = chipset.walker_pool
            fabric_stats = FabricStats(
                num_devices=fabric.num_devices,
                sid_map=self.config.devices.sid_map,
                walker_jobs=pool.jobs_served,
                walker_total_queue_delay_ns=pool.total_queue_delay_ns,
            )
        return SimulationResult(
            config_name=self.config.name,
            benchmark=benchmark,
            num_tenants=self.trace.num_tenants,
            interleaving=str(self.trace.interleaving),
            link_bandwidth_gbps=timing.link_bandwidth_gbps,
            elapsed_ns=elapsed_ns,
            achieved_bandwidth_gbps=achieved,
            packets=self.packet_stats,
            latency=self.latency_stats,
            ptb=ptb_stats,
            dram=chipset.memory.stats,
            cache_stats=cache_stats,
            prefetch_buffer_hit_rate=pb_hit_rate,
            prefetch_requests=prefetch_requests,
            prefetch_supplied=prefetch_supplied,
            invalidation_messages=self.invalidation_messages,
            percentiles=percentiles,
            device_results=device_results,
            fabric=fabric_stats,
        )

    def _device_result(
        self, engine: DeviceEngine, measure_from_ns: float
    ) -> DeviceResult:
        """Per-device breakdown for one engine (multi-device runs only)."""
        device = engine.device
        dev_elapsed = max(engine.last_completion, engine.clock)
        dev_bits = (engine.packet_stats.bytes_processed - engine.measure_from_bytes) * 8
        dev_window = dev_elapsed - measure_from_ns
        dev_achieved = dev_bits / dev_window if dev_window > 0 else 0.0
        cache_stats: Dict[str, CacheStats] = {"devtlb": device.devtlb.stats}
        if device.prefetch_unit is not None:
            cache_stats["prefetch_buffer"] = device.prefetch_unit.buffer.stats
        return DeviceResult(
            device_id=engine.device_id,
            packets=engine.packet_stats,
            latency=engine.latency_stats,
            ptb=device.ptb.stats,
            elapsed_ns=dev_elapsed,
            achieved_bandwidth_gbps=dev_achieved,
            cache_stats=cache_stats,
            iotlb_hits=engine.iotlb_hits,
            iotlb_misses=engine.iotlb_misses,
            walker_queue_delay_ns=engine.walker_queue_delay_ns,
            invalidation_messages=engine.invalidation_messages,
        )

    def _benchmark_name(self) -> str:
        workloads = self.trace.system.workloads
        if not workloads:
            return "empty"
        first = next(iter(workloads.values()))
        return first.spec.profile.name


@dataclass
class _AnalyticLoop:
    """Loop-local state of one analytic run.

    Everything the merge loop carries between iterations lives here (not
    in locals) so a checkpoint can pickle it alongside the simulator and
    resume mid-run.  ``active`` holds the engine objects themselves;
    pickling them together with the simulator preserves identity.
    """

    warmup_packets: int = 0
    active: List[DeviceEngine] = field(default_factory=list)
    last_completion: float = 0.0
    measure_from_ns: float = 0.0
    measure_from_bytes: int = 0
    processed: int = 0


def _engine_order(engine: DeviceEngine) -> Tuple[float, int]:
    """Global dispatch order of pending per-device arrivals."""
    return (engine.next_time, engine.device_id)


def _merged_cache_stats(stats_iter) -> CacheStats:
    """Sum :class:`CacheStats` across devices into a fresh object."""
    merged = CacheStats()
    for stats in stats_iter:
        merged = merged.merged_with(stats)
    return merged


def _merged_ptb_stats(stats_iter) -> PtbStats:
    """Aggregate per-device PTB stats (max of maxima, sums elsewhere)."""
    merged = PtbStats()
    for stats in stats_iter:
        merged.issued += stats.issued
        merged.rejected_packets += stats.rejected_packets
        merged.max_occupancy = max(merged.max_occupancy, stats.max_occupancy)
        merged.occupancy_accumulator += stats.occupancy_accumulator
        merged.total_wait_ns += stats.total_wait_ns
    return merged


def simulate(
    config: ArchConfig,
    trace: HyperTrace,
    native: bool = False,
    max_packets: Optional[int] = None,
    warmup_packets: int = 0,
    observability=None,
    fault_plan=None,
    checkpoint_every: int = 0,
    checkpoint_path=None,
    checkpoint_hook=None,
    resume_from=None,
) -> SimulationResult:
    """One-call convenience: build a simulator and run it.

    ``resume_from`` restores a run from a checkpoint file written by an
    earlier ``checkpoint_every``/``checkpoint_path`` run and continues it
    to completion; the restored run's result is byte-identical to an
    uninterrupted one.  The checkpoint rebuilds its own trace, so
    ``config`` and ``trace`` (either may be ``None``) are only
    cross-checked: a different config or different packets raise
    :class:`~repro.sim.checkpoint.CheckpointError`.
    """
    if resume_from is not None:
        from repro.sim.checkpoint import resume_simulation

        return resume_simulation(
            resume_from,
            expect_engine="analytic",
            expect_config=config,
            expect_trace=trace,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            checkpoint_hook=checkpoint_hook,
        )
    simulator = HyperSimulator(
        config,
        trace,
        native=native,
        observability=observability,
        fault_plan=fault_plan,
    )
    return simulator.run(
        max_packets=max_packets,
        warmup_packets=warmup_packets,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        checkpoint_hook=checkpoint_hook,
    )

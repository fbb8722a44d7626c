"""Outside-in layer timing for one traced benchmark run.

The benchmark never edits the program to trace it.  Instead it replaces
public methods of the objects that :class:`~repro.sim.simulator.HyperSimulator`
and :class:`~repro.service.engine.ServiceEngine` build with timing wrappers
(per instance), plus two class-level wrappers: ``TwoDimensionalWalker.walk``
(there is one walker per tenant) and ``SimulationCheckpoint.save`` (a
snapshot object is built per save).  The wrappers only observe: they call
the original with the same arguments and return its result unchanged.

A span stack gives every layer its *self* time: a span's duration minus the
time of the wrapped calls made inside it.  The self times of all layers,
including the root (``sim.loop`` or ``service.server``, which keeps the time
spent outside every wrapped call), add up to the traced wall time.

Per-layer aggregates (calls, self seconds, hit counts) stay in memory.
Parented spans are kept only for a fixed sample of packets: those whose
packet number (or wire ``seq``) is a multiple of :data:`SAMPLE_EVERY`.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Parented spans are kept for every packet (or ``seq``) divisible by this.
SAMPLE_EVERY = 1024

#: Every timed layer; each reports ``<layer>.calls`` and ``<layer>.self_s``.
TIMED_LAYERS = (
    "iommu.translate",
    "iommu.iotlb.lookup",
    "iommu.iotlb.insert",
    "iommu.walkcache.lookup",
    "iommu.walkcache.insert",
    "mem.walker.walk",
    "mem.dram.read",
    "core.prefetch.predict",
    "core.prefetch.issue",
    "core.prefetch.install",
    "core.prefetch.buffer",
    "sim.admission",
    "core.ptb.can_accept",
    "core.ptb.issue",
    "sim.resources.acquire",
    "sim.router",
    "sim.engine",
    "device.devtlb.lookup",
    "device.devtlb.insert",
    "core.results.record",
    "sim.loop",
    "sim.checkpoint.save",
    "trace.build",
    "service.protocol.decode",
    "service.protocol.encode",
    "service.admission",
    "service.engine",
    "service.idle",
    "service.server",
)

#: Derived per-layer metrics besides calls and self time, with their units.
EXTRA_METRICS = (
    ("iommu.translate.demand_calls", "count"),
    ("iommu.translate.prefetch_calls", "count"),
    ("iommu.iotlb.hit_ratio", "ratio"),
    ("iommu.walkcache.hit_ratio", "ratio"),
    ("mem.walker.memo_hit_ratio", "ratio"),
    ("core.prefetch.useful_ratio", "ratio"),
    ("sim.admission.accept_ratio", "ratio"),
    ("device.devtlb.hit_ratio", "ratio"),
    ("sim.checkpoint.bytes", "bytes"),
    ("service.engine.batch_size", "pkt"),
    ("service.rtt_p50_ms", "ms"),
    ("service.rtt_p99_ms", "ms"),
    ("tracing.wall_s", "s"),
    ("tracing.overhead_ratio", "ratio"),
)


def per_layer_units() -> Dict[str, str]:
    """Name -> unit of every per-layer metric, in declaration order."""
    units: Dict[str, str] = {}
    for layer in TIMED_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


class LayerTracer:
    """Span stack plus per-layer aggregates for one traced process."""

    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Named event counts observed at layer boundaries (hits, accepts).
        self.counts: Dict[str, int] = defaultdict(int)
        #: Sampled spans: (key, id, parent id, layer, start_s, end_s).
        self.spans: List[Tuple[Any, int, Optional[int], str, float, float]] = []
        #: Current packet number (advanced at each first arrival).
        self.packet = -1
        self.sampled = False
        #: Wrappers pass straight through while inactive (the service
        #: traces only the replay window).
        self.active = True
        self.origin = time.perf_counter()
        self._stack: List[list] = []
        self._ids = itertools.count()
        self._instance_wraps: List[Tuple[object, str, Callable]] = []
        self._class_wraps: List[Tuple[type, str, Callable]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _frame(self, layer: str) -> list:
        """Push a frame: [child seconds, layer, span id, parent id, start]."""
        stack = self._stack
        parent = stack[-1][2] if stack else None
        frame = [0.0, layer, next(self._ids), parent, 0.0]
        stack.append(frame)
        return frame

    def _close(
        self, frame: list, start: float, end: float, record: bool = False, key=None
    ) -> None:
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(
                f"span stack corrupted: closing {frame[1]} but {popped[1]} is on top"
            )
        elapsed = end - start
        layer = frame[1]
        self.self_s[layer] += elapsed - frame[0]
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][0] += elapsed
        if record:
            self.spans.append(
                (key, frame[2], frame[3], layer,
                 start - self.origin, end - self.origin)
            )

    def open(self, layer: str) -> list:
        """Open a span by hand (roots and the benchmark's own calls); such
        spans are always kept, with no sample key."""
        frame = self._frame(layer)
        frame[4] = time.perf_counter()
        return frame

    def close(self, frame: list) -> None:
        self._close(frame, frame[4], time.perf_counter(), record=True)

    @property
    def depth(self) -> int:
        return len(self._stack)

    def begin_packet(self) -> None:
        self.packet += 1
        self.sampled = self.packet % SAMPLE_EVERY == 0

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def timed(
        self,
        layer: str,
        fn: Callable,
        observe: Optional[Callable[[tuple, Any], None]] = None,
        key_of: Optional[Callable[[tuple, Any], Any]] = None,
    ) -> Callable:
        """A wrapper that times ``fn`` as one call of ``layer``.

        ``observe(args, result)`` sees each successful call (hit counting);
        ``key_of(args, result)`` names the span's sample key when it is not
        the current packet (wire messages carry their own ``seq``).
        """
        tracer = self
        clock = time.perf_counter
        push = self._frame
        close = self._close

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = push(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(frame, start, clock())
                raise
            end = clock()
            if key_of is None:
                close(frame, start, end, tracer.sampled, tracer.packet)
            else:
                key = key_of(args, result)
                close(frame, start, end, key is not None and key % SAMPLE_EVERY == 0, key)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def wrap(self, obj, attr: str, layer: str, observe=None, key_of=None) -> None:
        """Time ``obj.attr`` as ``layer`` on this instance only."""
        wrapper = self.timed(layer, getattr(obj, attr), observe, key_of)
        setattr(obj, attr, wrapper)
        self._instance_wraps.append((obj, attr, wrapper))

    def wrap_class(self, cls: type, attr: str, layer: str, observe=None) -> None:
        """Time ``cls.attr`` as ``layer`` for every instance of ``cls``."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self.timed(layer, original, observe))
        self._class_wraps.append((cls, attr, original))

    def mark_packets(self, obj, attr: str) -> None:
        """Advance the packet number whenever ``obj.attr`` runs."""
        original = getattr(obj, attr)
        begin = self.begin_packet

        def marker(*args, **kwargs):
            begin()
            return original(*args, **kwargs)

        setattr(obj, attr, marker)
        self._instance_wraps.append((obj, attr, marker))

    def detach_instances(self) -> None:
        """Remove the per-instance wrappers (so the objects pickle as usual)."""
        for obj, attr, _ in self._instance_wraps:
            delattr(obj, attr)

    def attach_instances(self) -> None:
        for obj, attr, wrapper in self._instance_wraps:
            setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped method."""
        self.detach_instances()
        self._instance_wraps.clear()
        for cls, attr, original in self._class_wraps:
            setattr(cls, attr, original)
        self._class_wraps.clear()

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Callable[[tuple, Any], None]:
        """Count calls with a true result: a cache lookup returns its entry
        (a tuple or ``True``) on a hit and ``None`` on a miss, and
        ``try_admit`` returns whether the packet was admitted."""
        counts = self.counts

        def observe(_args, result):
            if result:
                counts[name] += 1

        return observe

    def _count_translate(self, _args, _result) -> None:
        # Called after the translate frame is popped: the top of the stack
        # is the caller's frame.
        stack = self._stack
        if stack and stack[-1][1] == "core.prefetch.issue":
            self.counts["iommu.translate.prefetch_calls"] += 1
        else:
            self.counts["iommu.translate.demand_calls"] += 1

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def metrics(self, sim=None) -> Dict[str, float]:
        """Per-layer metrics; ``sim`` supplies the end-of-run ratios that
        the model keeps in its own statistics."""
        calls = self.calls
        counts = self.counts
        out: Dict[str, float] = {}
        for layer in TIMED_LAYERS:
            out[f"{layer}.calls"] = calls.get(layer, 0)
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        out["iommu.translate.demand_calls"] = counts["iommu.translate.demand_calls"]
        out["iommu.translate.prefetch_calls"] = counts["iommu.translate.prefetch_calls"]
        out["iommu.iotlb.hit_ratio"] = _ratio(
            counts["iommu.iotlb.hits"], calls.get("iommu.iotlb.lookup", 0)
        )
        out["iommu.walkcache.hit_ratio"] = _ratio(
            counts["iommu.walkcache.hits"], calls.get("iommu.walkcache.lookup", 0)
        )
        out["sim.admission.accept_ratio"] = _ratio(
            counts["sim.admission.accepted"], calls.get("sim.admission", 0)
        )
        out["device.devtlb.hit_ratio"] = _ratio(
            counts["device.devtlb.hits"], calls.get("device.devtlb.lookup", 0)
        )
        saves = calls.get("sim.checkpoint.save", 0)
        out["sim.checkpoint.bytes"] = _ratio(counts["sim.checkpoint.bytes"], saves)
        batches = calls.get("service.engine", 0)
        out["service.engine.batch_size"] = _ratio(
            counts["service.engine.packets"], batches
        )
        out["mem.walker.memo_hit_ratio"] = 0.0
        out["core.prefetch.useful_ratio"] = 0.0
        if sim is not None:
            system = sim.trace.system
            memo_hits = computed = 0
            for sid in system.sids():
                stats = system.walker_for(sid).stats
                memo_hits += stats.memo_hits
                computed += stats.walks_computed
            out["mem.walker.memo_hit_ratio"] = _ratio(memo_hits, memo_hits + computed)
            supplied = issued = 0
            for device in sim.fabric.devices:
                if device.prefetch_unit is not None:
                    supplied += device.prefetch_unit.stats.supplied_translations
                    issued += device.prefetch_unit.stats.prefetch_requests
            out["core.prefetch.useful_ratio"] = _ratio(supplied, issued)
        return out

    def accounted_s(self) -> float:
        """Sum of every layer's self time."""
        return sum(self.self_s.values())

    def span_records(self) -> List[Dict[str, Any]]:
        return [
            {"key": key, "id": span_id, "parent": parent, "layer": layer,
             "start_s": start, "end_s": end}
            for key, span_id, parent, layer, start, end in self.spans
        ]


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def instrument_simulator(tracer: LayerTracer, sim) -> None:
    """Wrap the per-instance layers of one :class:`HyperSimulator`."""
    chipset = sim.fabric.chipset
    iommu = chipset.iommu
    tracer.wrap(iommu, "translate", "iommu.translate", observe=tracer._count_translate)
    tracer.wrap(iommu.iotlb, "lookup", "iommu.iotlb.lookup",
                observe=tracer.counter("iommu.iotlb.hits"))
    tracer.wrap(iommu.iotlb, "insert", "iommu.iotlb.insert")
    walk_hits = tracer.counter("iommu.walkcache.hits")
    for cache in (iommu.nested_tlb, iommu.pte_cache):
        tracer.wrap(cache, "lookup", "iommu.walkcache.lookup", observe=walk_hits)
        tracer.wrap(cache, "insert", "iommu.walkcache.insert")
    tracer.wrap(chipset.memory, "read", "mem.dram.read")
    tracer.wrap(chipset.walker_pool, "acquire", "sim.resources.acquire")
    tracer.wrap(sim.latency_stats, "record", "core.results.record")
    devtlb_hits = tracer.counter("device.devtlb.hits")
    accepted = tracer.counter("sim.admission.accepted")
    for engine in sim.engines:
        tracer.mark_packets(engine, "begin_packet")
        tracer.wrap(engine, "fetch_next", "sim.router")
        tracer.wrap(engine, "try_admit", "sim.admission", observe=accepted)
        tracer.wrap(engine, "complete_packet", "sim.engine")
        tracer.wrap(engine, "process_request", "sim.engine")
        tracer.wrap(engine, "maybe_prefetch", "core.prefetch.issue")
        tracer.wrap(engine, "drain_installs", "core.prefetch.install")
        tracer.wrap(engine.latency_stats, "record", "core.results.record")
        device = engine.device
        tracer.wrap(device.devtlb, "lookup", "device.devtlb.lookup", observe=devtlb_hits)
        tracer.wrap(device.devtlb, "insert", "device.devtlb.insert")
        tracer.wrap(device.ptb, "can_accept", "core.ptb.can_accept")
        tracer.wrap(device.ptb, "issue", "core.ptb.issue")
        unit = device.prefetch_unit
        if unit is not None:
            tracer.wrap(unit, "observe_and_predict", "core.prefetch.predict")
            tracer.wrap(unit, "lookup", "core.prefetch.buffer")


def instrument_classes(tracer: LayerTracer) -> None:
    """Wrap the two class-level layers (walker and checkpoint save).

    A checkpoint pickles the simulator, so the save wrapper takes the
    per-instance wrappers off for the duration of the save: the snapshot is
    byte-for-byte what an untraced run writes.
    """
    from repro.mem.walker import TwoDimensionalWalker
    from repro.sim.checkpoint import SimulationCheckpoint

    tracer.wrap_class(TwoDimensionalWalker, "walk", "mem.walker.walk")
    save = SimulationCheckpoint.__dict__["save"]

    def save_unwrapped(snapshot, path):
        tracer.detach_instances()
        try:
            return save(snapshot, path)
        finally:
            tracer.attach_instances()

    def count_bytes(_args, written):
        tracer.counts["sim.checkpoint.bytes"] += os.path.getsize(written)

    SimulationCheckpoint.save = tracer.timed(
        "sim.checkpoint.save", save_unwrapped, observe=count_bytes
    )
    tracer._class_wraps.append((SimulationCheckpoint, "save", save))


def instrument_service(tracer: LayerTracer, server) -> None:
    """Wrap the service layers of one :class:`ServiceServer` and its engine."""
    tracer.wrap(server.admission, "acquire", "service.admission")
    tracer.wrap(server.admission, "release", "service.admission")
    counts = tracer.counts

    def count_batch(args, _result):
        counts["service.engine.packets"] += len(args[0])

    def count_one(_args, _result):
        counts["service.engine.packets"] += 1

    tracer.wrap(server.engine, "submit_batch", "service.engine", observe=count_batch)
    tracer.wrap(server.engine, "submit", "service.engine", observe=count_one)
    instrument_simulator(tracer, server.engine.sim)

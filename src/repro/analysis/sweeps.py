"""Parameter-sweep helpers shared by the experiment drivers.

Traces are expensive to construct (page tables for every tenant), so a
small keyed cache shares them between configurations evaluated at the same
sweep point: simulators only read the tenant systems, never mutate them.

The cache is strictly **per process**.  Parallel runs through
:mod:`repro.runner` execute sweep points in worker processes, each of which
keeps its own bounded cache (primed by the pool initializer); the cache in
the orchestrating process is never consulted by workers.  Hit/miss counters
are exposed via :func:`trace_cache_stats` so the runner's telemetry can
report cache effectiveness per worker.

:func:`run_point` additionally supports an *execution hook* (see
:func:`point_hook`): when installed, the hook may answer a sweep point with
a precomputed :class:`~repro.core.results.SimulationResult` instead of
simulating in-process.  The parallel orchestrator uses this to run every
experiment driver unmodified: a planning pass records the points a driver
asks for, the runner executes them in worker processes, and a replay pass
feeds the finished results back through the same hook.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.scale import RunScale
from repro.core.config import ArchConfig
from repro.core.results import SimulationResult
from repro.sim.simulator import simulate
from repro.trace.constructor import HyperTrace, construct_trace
from repro.trace.tenant import profile_by_name

#: Default number of traces kept alive at once per process (each
#: 1024-tenant trace is tens of MB).  The effective capacity can be lowered
#: or raised per process with :func:`set_trace_cache_capacity` — worker
#: pools do this in their initializer so memory use is bounded per worker,
#: not per machine.
_TRACE_CACHE_CAPACITY = 8

_trace_cache: "OrderedDict[Tuple, HyperTrace]" = OrderedDict()
_trace_cache_capacity = _TRACE_CACHE_CAPACITY
_trace_cache_hits = 0
_trace_cache_misses = 0


@dataclass(frozen=True)
class TraceCacheStats:
    """Per-process trace-cache counters (for the runner's telemetry)."""

    hits: int
    misses: int
    size: int
    capacity: int

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": self.size,
            "capacity": self.capacity,
        }


def trace_cache_stats() -> TraceCacheStats:
    """Current per-process trace-cache counters."""
    return TraceCacheStats(
        hits=_trace_cache_hits,
        misses=_trace_cache_misses,
        size=len(_trace_cache),
        capacity=_trace_cache_capacity,
    )


def reset_trace_cache_stats() -> None:
    """Zero the hit/miss counters (cache contents are kept)."""
    global _trace_cache_hits, _trace_cache_misses
    _trace_cache_hits = 0
    _trace_cache_misses = 0


def set_trace_cache_capacity(capacity: int) -> None:
    """Bound the per-process trace cache to ``capacity`` entries.

    Takes effect immediately: excess entries are evicted oldest-first.
    """
    if capacity < 1:
        raise ValueError("trace cache capacity must be at least 1")
    global _trace_cache_capacity
    _trace_cache_capacity = capacity
    while len(_trace_cache) > _trace_cache_capacity:
        _trace_cache.popitem(last=False)


def cached_trace(
    benchmark: str,
    num_tenants: int,
    interleaving: str,
    scale: RunScale,
    seed: int = 0,
) -> HyperTrace:
    """Construct (or reuse) the trace for one sweep point."""
    global _trace_cache_hits, _trace_cache_misses
    max_packets = scale.packets_for(num_tenants)
    key = (
        benchmark,
        num_tenants,
        interleaving,
        scale.packets_per_tenant,
        max_packets,
        seed,
    )
    trace = _trace_cache.get(key)
    if trace is not None:
        _trace_cache_hits += 1
        _trace_cache.move_to_end(key)
        return trace
    _trace_cache_misses += 1
    trace = construct_trace(
        profile_by_name(benchmark),
        num_tenants=num_tenants,
        packets_per_tenant=scale.packets_per_tenant,
        interleaving=interleaving,
        seed=seed,
        max_packets=max_packets,
    )
    _trace_cache[key] = trace
    while len(_trace_cache) > _trace_cache_capacity:
        _trace_cache.popitem(last=False)
    return trace


def clear_trace_cache() -> None:
    """Drop all cached traces (tests use this to bound memory)."""
    _trace_cache.clear()


# ----------------------------------------------------------------------
# Execution hook (parallel orchestration)
# ----------------------------------------------------------------------

#: A hook receives the full description of one sweep point and either
#: returns a finished :class:`SimulationResult` (which :func:`run_point`
#: wraps and returns without simulating) or ``None`` (point is executed
#: in-process as usual).
PointHook = Callable[..., Optional[SimulationResult]]

_point_hook: Optional[PointHook] = None


@contextmanager
def point_hook(hook: Optional[PointHook]) -> Iterator[None]:
    """Install ``hook`` as the active sweep-point interceptor.

    Used by :mod:`repro.runner.orchestrate` for its plan/replay passes;
    restores the previous hook on exit, so scopes nest safely.
    """
    global _point_hook
    previous = _point_hook
    _point_hook = hook
    try:
        yield
    finally:
        _point_hook = previous


def clear_point_hook() -> None:
    """Unconditionally remove any active hook (worker initializers call
    this so a hook active in the parent at fork time cannot leak in)."""
    global _point_hook
    _point_hook = None


@dataclass(frozen=True)
class SweepPoint:
    """One (config, benchmark, tenants, interleaving) evaluation."""

    config_name: str
    benchmark: str
    num_tenants: int
    interleaving: str
    result: SimulationResult

    @property
    def utilization_percent(self) -> float:
        return self.result.link_utilization * 100.0

    @property
    def bandwidth_gbps(self) -> float:
        return self.result.achieved_bandwidth_gbps


def run_point(
    config: ArchConfig,
    benchmark: str,
    num_tenants: int,
    interleaving: str,
    scale: RunScale,
    native: bool = False,
    seed: int = 0,
    telemetry=None,
    observability=None,
    fault_plan=None,
    trace=None,
    checkpoint_every: int = 0,
    checkpoint_path=None,
    checkpoint_hook=None,
    resume_from=None,
) -> SweepPoint:
    """Simulate one sweep point at the given scale.

    ``telemetry`` and ``observability`` are forwarded to the simulator
    (points answered by an execution hook were simulated elsewhere and
    ignore them).  ``fault_plan`` runs the point under fault injection
    (see :mod:`repro.faults`); it is part of the point's identity for
    orchestration hooks.

    ``trace`` substitutes an externally supplied
    :class:`~repro.trace.constructor.HyperTrace` for the synthesized one
    (the CLI's ``--trace-file`` path); the benchmark/tenant coordinates
    then only label the point.  The ``checkpoint_*`` / ``resume_from``
    knobs plumb straight into :func:`repro.sim.simulator.simulate` —
    ``resume_from`` restores a mid-run snapshot (no trace is synthesized
    here; the snapshot rebuilds its own from the recipe it stores).
    """
    if _point_hook is not None:
        result = _point_hook(
            config=config,
            benchmark=benchmark,
            num_tenants=num_tenants,
            interleaving=interleaving,
            scale=scale,
            native=native,
            seed=seed,
            fault_plan=fault_plan,
        )
        if result is not None:
            return SweepPoint(
                config_name=config.name,
                benchmark=benchmark,
                num_tenants=num_tenants,
                interleaving=interleaving,
                result=result,
            )
    if resume_from is not None:
        # The snapshot carries the loop state and rebuilds its trace;
        # nothing to synthesize.  The config is still cross-checked
        # inside simulate.
        result = simulate(
            config,
            trace=None,
            resume_from=resume_from,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            checkpoint_hook=checkpoint_hook,
        )
        return SweepPoint(
            config_name=config.name,
            benchmark=benchmark,
            num_tenants=num_tenants,
            interleaving=interleaving,
            result=result,
        )
    if trace is None:
        trace = cached_trace(benchmark, num_tenants, interleaving, scale, seed=seed)
    warmup = scale.warmup_for(len(trace.packets))
    result = simulate(
        config,
        trace,
        native=native,
        warmup_packets=warmup,
        telemetry=telemetry,
        observability=observability,
        fault_plan=fault_plan,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        checkpoint_hook=checkpoint_hook,
    )
    return SweepPoint(
        config_name=config.name,
        benchmark=benchmark,
        num_tenants=num_tenants,
        interleaving=interleaving,
        result=result,
    )


def sweep_tenants(
    configs: Iterable[ArchConfig],
    benchmarks: Iterable[str],
    interleavings: Iterable[str],
    scale: RunScale,
    tenant_counts: Optional[Iterable[int]] = None,
    runner: Optional[object] = None,
) -> List[SweepPoint]:
    """Full cartesian sweep used by the scalability figures.

    With ``runner`` (an :class:`repro.runner.ExperimentRunner`), the sweep
    is submitted as one :class:`~repro.runner.spec.JobSpec` per point and
    executed by the runner's worker pool — memoized, parallel, and
    resumable; the returned points are identical to the sequential path,
    in the same order.
    """
    counts = tuple(tenant_counts) if tenant_counts is not None else scale.tenant_counts
    config_list = tuple(configs)
    benchmark_list = tuple(benchmarks)
    interleaving_list = tuple(interleavings)
    if runner is not None:
        from repro.runner.orchestrate import run_sweep

        return run_sweep(
            runner, config_list, benchmark_list, interleaving_list, scale, counts
        )
    points: List[SweepPoint] = []
    for benchmark in benchmark_list:
        for interleaving in interleaving_list:
            for count in counts:
                for config in config_list:
                    points.append(
                        run_point(config, benchmark, count, interleaving, scale)
                    )
    return points


def utilization_by_count(points: Iterable[SweepPoint]) -> Dict[Tuple, Dict[int, float]]:
    """Group sweep points into series: (config, benchmark, interleaving) ->
    {tenants: utilization%}."""
    series: Dict[Tuple, Dict[int, float]] = {}
    for point in points:
        key = (point.config_name, point.benchmark, point.interleaving)
        series.setdefault(key, {})[point.num_tenants] = point.utilization_percent
    return series

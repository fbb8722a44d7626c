"""Bridge between experiment drivers and the parallel runner.

Experiment drivers (:mod:`repro.analysis.experiments`) are plain functions
that interleave :func:`~repro.analysis.sweeps.run_point` calls with table
construction.  Rather than rewriting every driver into an enumerate-then-
tabulate shape, the orchestrator runs each driver twice through the sweep
execution hook (:func:`repro.analysis.sweeps.point_hook`):

1. **Planning pass** — the hook records a deduplicated
   :class:`~repro.runner.spec.JobSpec` for every point the driver asks
   for and answers with a zeroed placeholder result, so the driver
   completes instantly without simulating.  Drivers enumerate their
   points deterministically (loops over scale presets), so the plan is
   exact.
2. **Execution** — the runner executes the plan in worker processes,
   memoized against the result store.
3. **Replay pass** — the driver runs again; this time the hook answers
   each point from the finished results, so the produced table is
   bit-identical to the sequential driver's.

A driver that never calls ``run_point`` (e.g. ``table2``) yields an empty
plan, in which case the planning pass's table is already the real output
and is returned directly — nothing runs twice.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis import sweeps
from repro.analysis.scale import RunScale
from repro.analysis.sweeps import SweepPoint
from repro.cache.base import CacheStats
from repro.core.config import ArchConfig
from repro.core.results import SimulationResult
from repro.core.ptb import PtbStats
from repro.device.packet import PacketStats
from repro.mem.dram import DramStats
from repro.obs.metrics import LatencyHistogram
from repro.runner.serialize import result_from_dict
from repro.runner.spec import JobSpec


class _AnyCacheStats(dict):
    """cache_stats stand-in that answers every lookup with zero counters
    (planning-pass tables may probe arbitrary structures)."""

    def __missing__(self, key: str) -> CacheStats:
        return CacheStats()


def _placeholder_result(
    config: ArchConfig, benchmark: str, num_tenants: int, interleaving: str
) -> SimulationResult:
    """A zeroed result for the planning pass (the table it produces is
    discarded unless the plan turns out to be empty)."""
    return SimulationResult(
        config_name=config.name,
        benchmark=benchmark,
        num_tenants=num_tenants,
        interleaving=interleaving,
        link_bandwidth_gbps=config.timing.link_bandwidth_gbps,
        elapsed_ns=0.0,
        achieved_bandwidth_gbps=0.0,
        packets=PacketStats(),
        latency=LatencyHistogram(),
        ptb=PtbStats(),
        dram=DramStats(),
        cache_stats=_AnyCacheStats(),
    )


def plan_driver(
    driver: Callable[..., Any], kwargs: Optional[Dict[str, Any]] = None
) -> Tuple[List[JobSpec], Any]:
    """Enumerate the sweep points ``driver(**kwargs)`` would execute.

    Returns the deduplicated specs in first-use order plus whatever the
    driver returned under placeholder results (only meaningful when the
    plan is empty).
    """
    kwargs = dict(kwargs or {})
    specs: List[JobSpec] = []
    seen: Set[str] = set()

    def hook(
        *,
        config: ArchConfig,
        benchmark: str,
        num_tenants: int,
        interleaving: str,
        scale: RunScale,
        native: bool,
        seed: int,
        fault_plan=None,
    ) -> SimulationResult:
        spec = JobSpec.from_point(
            config, benchmark, num_tenants, interleaving, scale,
            seed=seed, native=native, fault_plan=fault_plan,
        )
        if spec.spec_hash not in seen:
            seen.add(spec.spec_hash)
            specs.append(spec)
        return _placeholder_result(config, benchmark, num_tenants, interleaving)

    with sweeps.point_hook(hook):
        table = driver(**kwargs)
    return specs, table


def run_experiment(
    driver: Callable[..., Any],
    runner: "ExperimentRunner",
    kwargs: Optional[Dict[str, Any]] = None,
) -> Any:
    """Produce ``driver(**kwargs)``'s table with points run by ``runner``.

    Raises :class:`~repro.runner.scheduler.RunFailedError` if any point
    fails after retries.
    """
    kwargs = dict(kwargs or {})
    specs, planning_table = plan_driver(driver, kwargs)
    if not specs:
        return planning_table
    results = runner.run_or_raise(specs)
    memo = {
        record.spec_hash: result_from_dict(record.result) for record in results
    }

    def hook(
        *,
        config: ArchConfig,
        benchmark: str,
        num_tenants: int,
        interleaving: str,
        scale: RunScale,
        native: bool,
        seed: int,
        fault_plan=None,
    ) -> Optional[SimulationResult]:
        spec = JobSpec.from_point(
            config, benchmark, num_tenants, interleaving, scale,
            seed=seed, native=native, fault_plan=fault_plan,
        )
        # A miss (nondeterministic driver) falls back to in-process
        # simulation inside run_point — correct, just not parallel.
        return memo.get(spec.spec_hash)

    with sweeps.point_hook(hook):
        return driver(**kwargs)


def run_experiment_queue(
    driver: Callable[..., Any],
    runner: "ExperimentRunner",
    queue: "ExperimentQueue",
    kwargs: Optional[Dict[str, Any]] = None,
    poll_s: float = 0.25,
    on_event: Optional[Callable[[str], None]] = None,
) -> Tuple[Optional[Any], Optional["QueueWorkStats"]]:
    """Cooperative variant of :func:`run_experiment` over a shared queue.

    Plans the driver, idempotently enqueues the plan (every cooperating
    worker does the same — dedup by spec hash makes it safe and lets any
    worker rebuild a deleted queue), marks points already in this
    worker's store ``done`` (the rebuild-from-store path), then drains
    the queue via :func:`~repro.runner.queue.work_queue` — pulling jobs
    other workers haven't claimed, taking over expired leases, answering
    store hits without executing.

    Returns ``(table, stats)``.  The table is rendered from this
    worker's store, which absorbs other workers' records via
    :meth:`~repro.runner.store.ResultStore.refresh` when the run
    directory is shared; if some results live only on another machine
    (separate stores), the table is ``None`` and the caller reports the
    queue summary instead.
    """
    from repro.runner.queue import work_queue

    kwargs = dict(kwargs or {})
    specs, planning_table = plan_driver(driver, kwargs)
    if not specs:
        return planning_table, None
    queue.enqueue_specs(specs)
    store = runner.store
    if store is not None:
        store.refresh()
        queue.complete_memoized(
            [s.spec_hash for s in specs if store.get(s.spec_hash) is not None]
        )
    stats = work_queue(queue, runner, poll_s=poll_s, on_event=on_event)
    if store is None:
        return None, stats
    store.refresh()
    memo: Dict[str, SimulationResult] = {}
    for spec in specs:
        record = store.get(spec.spec_hash)
        if record is None or record.result is None:
            return None, stats  # finished elsewhere; no local replay
        memo[spec.spec_hash] = result_from_dict(record.result)

    def hook(
        *,
        config: ArchConfig,
        benchmark: str,
        num_tenants: int,
        interleaving: str,
        scale: RunScale,
        native: bool,
        seed: int,
        fault_plan=None,
    ) -> Optional[SimulationResult]:
        spec = JobSpec.from_point(
            config, benchmark, num_tenants, interleaving, scale,
            seed=seed, native=native, fault_plan=fault_plan,
        )
        return memo.get(spec.spec_hash)

    with sweeps.point_hook(hook):
        return driver(**kwargs), stats


def run_sweep(
    runner: "ExperimentRunner",
    configs: Sequence[ArchConfig],
    benchmarks: Sequence[str],
    interleavings: Sequence[str],
    scale: RunScale,
    tenant_counts: Sequence[int],
) -> List[SweepPoint]:
    """Parallel, memoized equivalent of the sequential ``sweep_tenants``
    loop — same nesting order, point-for-point identical results."""
    specs: List[JobSpec] = []
    for benchmark in benchmarks:
        for interleaving in interleavings:
            for count in tenant_counts:
                for config in configs:
                    specs.append(
                        JobSpec.from_point(config, benchmark, count, interleaving, scale)
                    )
    results = runner.run_or_raise(specs)
    return [
        SweepPoint(
            config_name=spec.config["name"],
            benchmark=spec.benchmark,
            num_tenants=spec.num_tenants,
            interleaving=spec.interleaving,
            result=result_from_dict(record.result),
        )
        for spec, record in zip(specs, results)
    ]

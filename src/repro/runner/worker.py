"""Worker-process entry points (top-level, picklable by reference).

These functions are shipped to :class:`~concurrent.futures.ProcessPoolExecutor`
workers, so they must stay importable module-level callables and exchange
only plain data: a :class:`~repro.runner.spec.JobSpec` in, a payload dict
out (the scheduler turns payloads into
:class:`~repro.runner.spec.JobResult` records).

The module-global trace cache in :mod:`repro.analysis.sweeps` is
**per process**: sharing it through the orchestrating process would be
silently useless across workers.  Instead :func:`pool_initializer` primes
each worker's own cache — bounding its capacity (memory is per worker, so
the pool-wide footprint is ``jobs x capacity`` traces), zeroing its
counters so telemetry is attributable, and clearing any state inherited
from the parent at fork time.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict

from repro.analysis import sweeps
from repro.faults.plan import plan_from_dict
from repro.runner.serialize import result_to_dict
from repro.runner.spec import JobSpec

#: Default per-worker trace-cache capacity.  Deliberately smaller than the
#: in-process default (8): a pool holds one cache *per worker*.
DEFAULT_WORKER_TRACE_CAPACITY = 4


def pool_initializer(trace_cache_capacity: int = DEFAULT_WORKER_TRACE_CAPACITY) -> None:
    """Prime one worker process: bounded private trace cache, clean state."""
    sweeps.clear_point_hook()
    sweeps.clear_trace_cache()
    sweeps.reset_trace_cache_stats()
    sweeps.set_trace_cache_capacity(trace_cache_capacity)


def job_metrics_summary(result) -> Dict[str, Any]:
    """Compact per-job metric block for the runner's manifest.

    Carries the headline health numbers of one sweep point — latency
    percentiles, drop rate, DevTLB hit rate — so a run directory answers
    "did tail latency regress?" without deserialising every full result.
    """
    packets = result.packets
    arrived = packets.arrived or 1
    devtlb = result.cache_stats.get("devtlb")
    return {
        "latency": {
            "mean_ns": result.latency.mean_ns,
            "min_ns": result.latency.min_ns,
            "max_ns": result.latency.max_ns,
            **result.percentiles,
        },
        "drop_rate": packets.dropped / arrived,
        "devtlb_hit_rate": devtlb.hit_rate if devtlb is not None else 0.0,
        "link_utilization": result.link_utilization,
    }


def execute_job(spec: JobSpec) -> Dict[str, Any]:
    """Run one sweep point and return its payload (the default job fn)."""
    start = time.perf_counter()
    config = spec.arch_config()
    scale = spec.run_scale()
    fault_plan = None
    if spec.fault_plan is not None:
        fault_plan = plan_from_dict(dict(spec.fault_plan))
    point = sweeps.run_point(
        config,
        spec.benchmark,
        spec.num_tenants,
        spec.interleaving,
        scale,
        native=spec.native,
        seed=spec.seed,
        fault_plan=fault_plan,
    )
    return {
        "result": result_to_dict(point.result),
        "duration_s": time.perf_counter() - start,
        "pid": os.getpid(),
        "trace_cache": sweeps.trace_cache_stats().as_dict(),
        "metrics": job_metrics_summary(point.result),
    }


def execute_job_supervised(
    spec: JobSpec, supervision: Dict[str, Any]
) -> Dict[str, Any]:
    """Like :func:`execute_job`, under heartbeat + checkpoint supervision.

    Shipped to workers as ``functools.partial(execute_job_supervised,
    supervision=...)`` with ``supervision`` a plain dict (see
    :meth:`repro.runner.supervise.SupervisionOptions.worker_payload`).

    On entry: clears any stale interrupt flag, routes SIGTERM/SIGINT to
    the cooperative interrupt (so pool teardown flushes a final
    snapshot), starts the heartbeat thread, and — if a checkpoint from a
    previous killed attempt exists — resumes from it instead of starting
    over (a corrupt or version-mismatched snapshot is discarded and the
    point re-runs from scratch).  On success the job's checkpoint is
    deleted; on interrupt it is kept and the worker raises
    :class:`~repro.runner.supervise.JobInterrupted`.
    """
    from pathlib import Path

    from repro.runner.supervise import (
        HeartbeatWriter,
        JobInterrupted,
        checkpoint_path_for,
        rss_peak_kb,
    )
    from repro.sim import checkpoint as ckpt

    run_dir = Path(supervision["run_dir"])
    checkpoint_every = int(supervision.get("checkpoint_every", 0) or 0)
    interval_s = float(supervision.get("heartbeat_interval_s", 0.5))
    ckpt_path = checkpoint_path_for(run_dir, spec.spec_hash)

    start = time.perf_counter()
    config = spec.arch_config()
    scale = spec.run_scale()
    fault_plan = None
    if spec.fault_plan is not None:
        fault_plan = plan_from_dict(dict(spec.fault_plan))

    heartbeat = HeartbeatWriter(run_dir, spec.spec_hash, interval_s=interval_s)
    ckpt.clear_interrupt()
    previous_handlers = ckpt.install_signal_handlers()
    heartbeat.start()
    try:
        resume_from = ckpt_path if ckpt_path.exists() else None
        try:
            point = sweeps.run_point(
                config,
                spec.benchmark,
                spec.num_tenants,
                spec.interleaving,
                scale,
                native=spec.native,
                seed=spec.seed,
                fault_plan=fault_plan,
                checkpoint_every=checkpoint_every,
                checkpoint_path=ckpt_path,
                checkpoint_hook=heartbeat.note_checkpoint,
                resume_from=resume_from,
            )
        except ckpt.CheckpointError:
            if resume_from is None:
                raise
            # The leftover snapshot is unusable (torn before the atomic
            # write landed, or from an older format): drop it and run
            # the point from the top.
            try:
                ckpt_path.unlink()
            except OSError:
                pass
            point = sweeps.run_point(
                config,
                spec.benchmark,
                spec.num_tenants,
                spec.interleaving,
                scale,
                native=spec.native,
                seed=spec.seed,
                fault_plan=fault_plan,
                checkpoint_every=checkpoint_every,
                checkpoint_path=ckpt_path,
                checkpoint_hook=heartbeat.note_checkpoint,
            )
    except ckpt.SimulationInterrupted as error:
        heartbeat.stop(status="interrupted")
        raise JobInterrupted(
            str(error),
            packets_done=error.packets_done,
            checkpoint_path=error.checkpoint_path,
        ) from None
    finally:
        heartbeat.stop()
        ckpt.restore_signal_handlers(previous_handlers)
    try:
        ckpt_path.unlink()
    except OSError:
        pass
    heartbeat.stop(status="completed")
    return {
        "result": result_to_dict(point.result),
        "duration_s": time.perf_counter() - start,
        "pid": os.getpid(),
        "trace_cache": sweeps.trace_cache_stats().as_dict(),
        "metrics": job_metrics_summary(point.result),
        "exit_cause": "completed",
        "rss_peak_kb": rss_peak_kb(),
    }

"""Pinned benchmark matrix: ``repro-sim bench`` -> ``BENCH_<n>.json``.

The matrix is deliberately small and *pinned* (fixed benchmark, tenant
count, packet budget, seed) so successive runs are comparable: the
analytic engine's packets/s for the Base and HyperTRIO configs (plus a
phase-profiled HyperTRIO row carrying the per-phase host-time
breakdown), the service front end's end-to-end requests/s over a
loopback replay (plus a chaos twin of that row riding a seeded
reconnect storm through a :class:`~repro.faults.netchaos.ChaosProxy`,
whose delta prices the connection-supervision machinery under churn),
the runner's job throughput, the checkpointing
overhead of a supervised run, and the distributed queue's coordination
cost (raw ``claims_per_s`` plus a 2-worker end-to-end drain through one
shared queue and result store).

The ``--analytic-packets`` budget applies uniformly to every
analytic-engine row (config comparison, profiled, runner, and
checkpointed); the service rows have their own budget.
Each row records the exact packet count it ran, and the ``matrix``
block documents every per-row budget, so two bench files are comparable
at a glance.

Each run writes ``BENCH_<n>.json`` at the repository root with ``n`` one
past the highest existing file, and reports the throughput delta against
the previous file when one exists.  Index selection and the write happen
under an exclusive ``.bench.lock`` flock, so two concurrent ``bench``
runs in the same ``--root`` get distinct files instead of clobbering one
``BENCH_<n>.json``.  Wall-clock numbers are machine-dependent; the files
exist to track *relative* drift on one machine (e.g. in CI,
``scripts/bench_gate.py`` flags a grossly slower run against the
committed baseline).
"""

from __future__ import annotations

import asyncio
import fcntl
import json
import os
import platform
import re
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import ArchConfig, base_config, hypertrio_config
from repro.sim.simulator import HyperSimulator
from repro.trace.constructor import HyperTrace, construct_trace
from repro.trace.tenant import profile_by_name

#: Schema tag written into every bench file.
BENCH_SCHEMA = "repro-bench/1"

#: The pinned matrix (benchmark, tenants, seed are part of the contract).
PINNED_BENCHMARK = "mediastream"
PINNED_TENANTS = 16
PINNED_SEED = 0
#: Packet budgets: analytic engine vs (slower, per-request) service path.
ANALYTIC_PACKETS = 6000
SERVICE_PACKETS = 2500
#: Sequential jobs timed for the runner job-throughput row.
RUNNER_JOBS = 4
#: Connections severed by the chaos-replay row's reconnect storm.
CHAOS_STORM_CONNECTIONS = 3
#: Stub rows claimed back-to-back for the queue's ``claims_per_s``, and
#: the worker threads draining the queue row's end-to-end sweep.
QUEUE_CLAIM_JOBS = 512
QUEUE_WORKERS = 2

_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")


@contextmanager
def _bench_lock(root: Path):
    """Exclusive flock held across index selection *and* the write.

    Without it two concurrent ``bench`` runs both compute the same
    ``next_bench_path`` and the second silently overwrites the first.
    """
    path = root / ".bench.lock"
    with path.open("a") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def _pinned_trace(packets: int) -> HyperTrace:
    return construct_trace(
        profile_by_name(PINNED_BENCHMARK),
        num_tenants=PINNED_TENANTS,
        packets_per_tenant=200_000,
        seed=PINNED_SEED,
        max_packets=packets,
    )


def _bench_analytic(config: ArchConfig, packets: int) -> Dict[str, Any]:
    """Time one offline simulation; traces are never reused across runs."""
    trace = _pinned_trace(packets)
    simulator = HyperSimulator(config, trace)
    started = time.perf_counter()
    result = simulator.run(warmup_packets=0)
    wall = time.perf_counter() - started
    n = len(trace.packets)
    return {
        "engine": "analytic",
        "config": config.name,
        "packets": n,
        "wall_s": wall,
        "packets_per_s": n / wall if wall > 0 else 0.0,
        "link_utilization": result.link_utilization,
        "packets_dropped": result.packets.dropped,
    }


def _bench_service(packets: int) -> Dict[str, Any]:
    """Time a full loopback replay through the service front end."""
    from repro.service.client import ServiceClient
    from repro.service.engine import ServiceEngine
    from repro.service.server import ServiceServer

    trace = _pinned_trace(packets)

    async def _run() -> Tuple[float, int]:
        engine = ServiceEngine(hypertrio_config(), trace)
        server = ServiceServer(engine)
        await server.start()
        client = ServiceClient("127.0.0.1", server.port)
        await client.connect()
        started = time.perf_counter()
        outcomes = await client.replay(trace.packets, window=64)
        wall = time.perf_counter() - started
        await client.close()
        await server.shutdown()
        return wall, len(outcomes)

    wall, replies = asyncio.run(_run())
    return {
        "engine": "service",
        "config": "HyperTRIO",
        "packets": replies,
        "wall_s": wall,
        "packets_per_s": replies / wall if wall > 0 else 0.0,
    }


def _bench_chaos_replay(packets: int) -> Dict[str, Any]:
    """The service replay riding a reconnect storm: resilience overhead.

    Same pinned trace and budget as the plain service row, but the wire
    passes through a seeded :class:`ChaosProxy` that severs the
    connection ``CHAOS_STORM_CONNECTIONS`` times mid-run while a
    sessioned client (circuit breaker, request deadlines, resume-replay)
    rides the churn.  The row carries the reconnect/resend counts and a
    ``parity`` flag asserting the flushed ``SimulationResult`` stayed
    byte-identical to the offline run, so the delta against the plain
    service row prices the supervision machinery under faults.
    """
    import random

    from repro.faults.netchaos import (
        ChaosProxy,
        NetworkFaultPlan,
        ReconnectStormSpec,
    )
    from repro.runner.serialize import result_to_dict
    from repro.service.client import CircuitBreaker, ServiceClient
    from repro.service.engine import ServiceEngine
    from repro.service.server import ServiceServer

    golden = HyperSimulator(hypertrio_config(), _pinned_trace(packets)).run(
        warmup_packets=0
    )
    # result_to_dict keys per-tenant maps by int; the wire copy has been
    # through JSON (string keys).  Round-trip the golden so sort_keys
    # orders both sides identically.
    golden_json = json.dumps(
        json.loads(json.dumps(result_to_dict(golden))), sort_keys=True
    )
    plan = NetworkFaultPlan(
        seed=PINNED_SEED,
        reconnect_storms=(
            ReconnectStormSpec(
                connections=CHAOS_STORM_CONNECTIONS,
                after_frames=8,
                jitter_frames=16,
            ),
        ),
    )
    trace = _pinned_trace(packets)

    async def _run():
        engine = ServiceEngine(hypertrio_config(), trace)
        server = ServiceServer(engine)
        await server.start()
        proxy = ChaosProxy("127.0.0.1", server.port, plan)
        await proxy.start()
        client = ServiceClient(
            "127.0.0.1",
            proxy.port,
            session=True,
            request_timeout=2.0,
            breaker=CircuitBreaker(failure_threshold=8),
            rng=random.Random(PINNED_SEED),
        )
        try:
            await client.connect()
            started = time.perf_counter()
            outcomes = await client.replay(trace.packets, window=64)
            wall = time.perf_counter() - started
            flush = await client.flush()
            resends = server.conn_counters["resends_served"]
            return (
                wall, len(outcomes), flush["result"],
                client.reconnects, resends,
            )
        finally:
            await client.close()
            await proxy.aclose()
            await server.shutdown()

    wall, replies, wire_result, reconnects, resends = asyncio.run(_run())
    return {
        "engine": "service",
        "config": "HyperTRIO/chaos-storm",
        "packets": replies,
        "wall_s": wall,
        "packets_per_s": replies / wall if wall > 0 else 0.0,
        "reconnects": reconnects,
        "resends_served": resends,
        "parity": json.dumps(wire_result, sort_keys=True) == golden_json,
    }


def _bench_profiled(packets: int) -> Dict[str, Any]:
    """The analytic hot path with phase profiling on.

    The per-phase breakdown (lookup / walk / ptb host time) rides into
    the bench document, and the throughput delta against the plain
    HyperTRIO row shows what profiling itself costs when enabled.
    """
    from repro.obs import Observability

    trace = _pinned_trace(packets)
    simulator = HyperSimulator(
        hypertrio_config(),
        trace,
        observability=Observability.profiling(spans=False, metrics=False),
    )
    started = time.perf_counter()
    result = simulator.run(warmup_packets=0)
    wall = time.perf_counter() - started
    n = len(trace.packets)
    return {
        "engine": "analytic",
        "config": "HyperTRIO/profiled",
        "packets": n,
        "wall_s": wall,
        "packets_per_s": n / wall if wall > 0 else 0.0,
        "phases": result.phase_profile,
    }


def _bench_runner(jobs: int, packets: int) -> Dict[str, Any]:
    """Time sequential runner jobs end to end (spec -> ``execute_job``).

    Covers the runner's per-job fixed costs — spec resolution, trace
    construction/caching, result serialisation — that no analytic row
    sees.  Jobs after the first hit the worker's trace cache, exactly as
    they do inside a real run.
    """
    from repro.analysis.scale import RunScale
    from repro.runner.spec import JobSpec
    from repro.runner.worker import execute_job

    scale = RunScale(
        name="bench",
        tenant_counts=(PINNED_TENANTS,),
        interleavings=("RR1",),
        benchmarks=(PINNED_BENCHMARK,),
        max_packets=packets,
    )
    spec = JobSpec.from_point(
        hypertrio_config(),
        PINNED_BENCHMARK,
        PINNED_TENANTS,
        "RR1",
        scale,
        seed=PINNED_SEED,
    )
    started = time.perf_counter()
    done = 0
    for _ in range(jobs):
        payload = execute_job(spec)
        done += payload["result"]["packets"]["arrived"]
    wall = time.perf_counter() - started
    return {
        "engine": "runner",
        "config": "HyperTRIO",
        "packets": done,
        "wall_s": wall,
        "packets_per_s": done / wall if wall > 0 else 0.0,
        "jobs": jobs,
        "jobs_per_s": jobs / wall if wall > 0 else 0.0,
    }


def _bench_checkpoint(packets: int) -> Dict[str, Any]:
    """Checkpointed vs plain run of one point: snapshot overhead.

    Both runs execute back to back on fresh traces, so the reported
    ``checkpoint_overhead_pct`` is the cost of the periodic snapshots
    alone, not machine drift between bench invocations.
    """
    trace = _pinned_trace(packets)
    simulator = HyperSimulator(hypertrio_config(), trace)
    started = time.perf_counter()
    simulator.run(warmup_packets=0)
    plain = time.perf_counter() - started

    every = max(1, packets // 4)
    trace = _pinned_trace(packets)
    simulator = HyperSimulator(hypertrio_config(), trace)
    handle, path = tempfile.mkstemp(suffix=".ckpt")
    os.close(handle)
    try:
        started = time.perf_counter()
        simulator.run(
            warmup_packets=0,
            checkpoint_every=every,
            checkpoint_path=Path(path),
        )
        wall = time.perf_counter() - started
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass
    n = len(trace.packets)
    return {
        "engine": "analytic",
        "config": "HyperTRIO/checkpointed",
        "packets": n,
        "wall_s": wall,
        "packets_per_s": n / wall if wall > 0 else 0.0,
        "checkpoint_every": every,
        "checkpoint_overhead_pct": (
            (wall - plain) / plain * 100.0 if plain > 0 else 0.0
        ),
    }


def _bench_queue(jobs: int, packets: int) -> Dict[str, Any]:
    """The distributed queue's coordination cost, in two measurements.

    First the raw claim path: ``QUEUE_CLAIM_JOBS`` stub rows claimed
    back-to-back from one connection (each claim is a full
    ``BEGIN IMMEDIATE`` transaction with its audit row), reported as
    ``claims_per_s``.  Then end to end: ``QUEUE_WORKERS`` worker threads
    — each with its own queue connection, runner, and store instance —
    cooperatively drain a real ``jobs``-point sweep through one shared
    queue and ``results.jsonl``, which is the gated throughput number
    (same packet budget as the runner row, so the delta against it is
    the queue's coordination overhead).
    """
    import threading

    from repro.analysis.scale import RunScale
    from repro.runner import (
        ExperimentQueue,
        ExperimentRunner,
        ResultStore,
        RunnerOptions,
        work_queue,
    )
    from repro.runner.spec import JobSpec

    with tempfile.TemporaryDirectory() as tmp:
        claim_queue = ExperimentQueue(
            Path(tmp) / "claims.db", worker_id="bench-claims"
        )
        claim_queue.enqueue_specs([
            JobSpec(
                config={"name": "Stub", "index": index},
                benchmark="stub",
                num_tenants=1,
                interleaving="RR1",
                max_packets=1,
                seed=index,
            )
            for index in range(QUEUE_CLAIM_JOBS)
        ])
        started = time.perf_counter()
        claimed = 0
        while claim_queue.claim() is not None:
            claimed += 1
        claim_wall = time.perf_counter() - started
        claim_queue.close()

        scale = RunScale(
            name="bench-queue",
            tenant_counts=(PINNED_TENANTS,),
            interleavings=("RR1",),
            benchmarks=(PINNED_BENCHMARK,),
            max_packets=packets,
        )
        sweep = [
            JobSpec.from_point(
                hypertrio_config(),
                PINNED_BENCHMARK,
                PINNED_TENANTS,
                "RR1",
                scale,
                seed=seed,
            )
            for seed in range(jobs)
        ]
        queue_path = Path(tmp) / "queue.db"
        with ExperimentQueue(queue_path, worker_id="bench-seed") as seeder:
            seeder.enqueue_specs(sweep)

        def drain(name: str) -> None:
            queue = ExperimentQueue(queue_path, worker_id=name, lease_s=60)
            runner = ExperimentRunner(
                store=ResultStore(Path(tmp) / "runs", "bench"),
                options=RunnerOptions(jobs=1),
            )
            try:
                work_queue(queue, runner, poll_s=0.01)
            finally:
                queue.close()

        threads = [
            threading.Thread(target=drain, args=(f"bench-w{index}",))
            for index in range(QUEUE_WORKERS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        store = ResultStore(Path(tmp) / "runs", "bench")
        done = sum(
            result.result["packets"]["arrived"]
            for result in store.iter_completed()
        )
    return {
        "engine": "queue",
        "config": "HyperTRIO",
        "packets": done,
        "wall_s": wall,
        "packets_per_s": done / wall if wall > 0 else 0.0,
        "jobs": jobs,
        "jobs_per_s": jobs / wall if wall > 0 else 0.0,
        "workers": QUEUE_WORKERS,
        "claim_jobs": claimed,
        "claims_per_s": claimed / claim_wall if claim_wall > 0 else 0.0,
    }


def existing_bench_paths(root: Path) -> List[Path]:
    """All ``BENCH_<n>.json`` files under ``root``, ordered by ``n``."""
    found = []
    for path in root.iterdir():
        match = _BENCH_RE.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return [path for _, path in sorted(found)]


def next_bench_path(root: Path) -> Path:
    """The next free ``BENCH_<n>.json`` (``BENCH_1.json`` on first run)."""
    existing = existing_bench_paths(root)
    if not existing:
        return root / "BENCH_1.json"
    last = int(_BENCH_RE.match(existing[-1].name).group(1))
    return root / f"BENCH_{last + 1}.json"


def run_bench(
    root: Path,
    analytic_packets: int = ANALYTIC_PACKETS,
    service_packets: int = SERVICE_PACKETS,
    output: Optional[Path] = None,
) -> Tuple[Path, Dict[str, Any], List[str]]:
    """Run the pinned matrix; returns (path, document, report lines).

    ``analytic_packets`` applies uniformly to every analytic-engine row
    (config comparison, profiled, runner, checkpointed); the service
    rows run their own pinned budget.
    """
    rows = [
        _bench_analytic(base_config(), analytic_packets),
        _bench_analytic(hypertrio_config(), analytic_packets),
        _bench_profiled(analytic_packets),
        _bench_service(service_packets),
        _bench_chaos_replay(service_packets),
        _bench_runner(RUNNER_JOBS, analytic_packets),
        _bench_checkpoint(analytic_packets),
        _bench_queue(RUNNER_JOBS, analytic_packets),
    ]
    document: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "matrix": {
            "benchmark": PINNED_BENCHMARK,
            "tenants": PINNED_TENANTS,
            "seed": PINNED_SEED,
            "analytic_packets": analytic_packets,
            "service_packets": service_packets,
            "chaos_packets": service_packets,
            "chaos_storm_connections": CHAOS_STORM_CONNECTIONS,
            "runner_packets": analytic_packets,
            "checkpoint_packets": analytic_packets,
            "runner_jobs": RUNNER_JOBS,
            "queue_packets": analytic_packets,
            "queue_jobs": RUNNER_JOBS,
            "queue_workers": QUEUE_WORKERS,
            "queue_claim_jobs": QUEUE_CLAIM_JOBS,
        },
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "results": rows,
    }
    with _bench_lock(root):
        previous = existing_bench_paths(root)
        path = Path(output) if output is not None else next_bench_path(root)
        path.write_text(
            json.dumps(document, indent=2) + "\n", encoding="utf-8"
        )

    lines = [f"wrote {path}"]
    for row in rows:
        lines.append(
            f"  {row['engine']:>8} {row['config']:<22} "
            f"{row['packets']:>6} pkts in {row['wall_s']:.3f} s "
            f"({row['packets_per_s']:.0f} pkts/s)"
        )
        if row.get("phases"):
            from repro.obs.phases import format_phase_profile

            lines.append(f"           phases: {format_phase_profile(row['phases'])}")
        if "jobs_per_s" in row:
            lines.append(
                f"           {row['jobs']} jobs ({row['jobs_per_s']:.2f} jobs/s)"
            )
        if "claims_per_s" in row:
            lines.append(
                f"           {row['claim_jobs']} raw claims "
                f"({row['claims_per_s']:.0f} claims/s), "
                f"{row['workers']} workers end-to-end"
            )
        if "reconnects" in row:
            lines.append(
                f"           storm: {row['reconnects']} reconnects, "
                f"{row['resends_served']} resends served, "
                f"parity={'ok' if row['parity'] else 'FAILED'}"
            )
        if "checkpoint_overhead_pct" in row:
            lines.append(
                f"           checkpoint every {row['checkpoint_every']} pkts: "
                f"{row['checkpoint_overhead_pct']:+.1f}% wall"
            )
    if previous and previous[-1] != path:
        lines.extend(_delta_lines(previous[-1], rows))
    return path, document, lines


def _delta_lines(previous_path: Path, rows: List[Dict[str, Any]]) -> List[str]:
    """Throughput deltas vs the previous bench file (best-effort)."""
    try:
        old = json.loads(previous_path.read_text(encoding="utf-8"))
        old_rows = {
            (row["engine"], row["config"]): row["packets_per_s"]
            for row in old.get("results", [])
        }
    except (OSError, ValueError, KeyError, TypeError):
        return [f"  (could not read {previous_path.name} for deltas)"]
    lines = [f"  delta vs {previous_path.name}:"]
    for row in rows:
        before = old_rows.get((row["engine"], row["config"]))
        if not before:
            lines.append(f"    {row['engine']}/{row['config']}: (new)")
            continue
        change = (row["packets_per_s"] - before) / before * 100.0
        lines.append(
            f"    {row['engine']}/{row['config']}: {change:+.1f}% pkts/s"
        )
    return lines

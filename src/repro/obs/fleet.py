"""Runner-fleet aggregation: fold a run directory into a metrics registry.

The supervised runner (docs/RUNNER.md) leaves two machine-readable
records behind: per-worker heartbeat files
(``<run-dir>/heartbeats/<spec_hash>.json``, rewritten every interval
with pid / progress / status / RSS) and the append-only
``results.jsonl`` of finished :class:`~repro.runner.spec.JobResult`
records (status, exit cause, duration).  :func:`fleet_registry` folds
both into the same :class:`~repro.obs.metrics.MetricsRegistry` shape the
live service exports, so one renderer
(:func:`repro.obs.prom.registry_to_prom`) and one terminal view
(``repro-sim top --run-dir``) serve both the service and the fleet.

Exported series:

* ``runner_heartbeat_age_s{spec, status}`` — seconds since each worker's
  last heartbeat write (the watchdog's staleness signal);
* ``runner_packets_done{spec}`` / ``runner_rss_kb{spec}`` — per-worker
  progress and memory from the heartbeat;
* ``runner_workers{status}`` — live worker count per heartbeat status;
* ``runner_jobs{status}`` / ``runner_jobs_exit{cause}`` — finished-job
  counts by status and by watchdog/deadline/interrupt exit cause;
* ``runner_job_duration_ns`` — histogram of job wall times;
* ``runner_quarantined_lines`` — lines parked in ``quarantine.jsonl``
  (corrupt records recovered from the results file).

Everything is read best-effort: a corrupt heartbeat or result line is
skipped (the store has its own quarantine machinery), never fatal.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Union

from repro.obs.metrics import MetricsRegistry

#: Mirrors :data:`repro.runner.supervise.HEARTBEAT_DIR` without importing
#: the runner package (keeps obs dependency-free).
HEARTBEAT_DIR = "heartbeats"
RESULTS_FILE = "results.jsonl"
QUARANTINE_FILE = "quarantine.jsonl"


def _iter_json_lines(path: Path):
    try:
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict):
                    yield record
    except OSError:
        return


def fleet_registry(
    run_dir: Union[str, Path],
    registry: MetricsRegistry = None,
    now: Callable[[], float] = time.time,
) -> MetricsRegistry:
    """Fold ``run_dir``'s heartbeat and result records into a registry.

    Pass an existing ``registry`` to merge a fleet view into a registry
    that already carries other series; by default a fresh one is built.
    ``now`` is injectable so heartbeat-age gauges are testable.
    """
    run_dir = Path(run_dir)
    if registry is None:
        registry = MetricsRegistry()
    current = now()

    heartbeat_dir = run_dir / HEARTBEAT_DIR
    workers_by_status = {}
    if heartbeat_dir.is_dir():
        for path in sorted(heartbeat_dir.glob("*.json")):
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                continue
            if not isinstance(record, dict):
                continue
            spec = str(record.get("spec_hash", path.stem))
            status = str(record.get("status", "unknown"))
            workers_by_status[status] = workers_by_status.get(status, 0) + 1
            updated = record.get("updated_at")
            if isinstance(updated, (int, float)):
                registry.gauge(
                    "runner_heartbeat_age_s", spec=spec, status=status
                ).set(max(0.0, current - updated))
            packets = record.get("packets_done")
            if isinstance(packets, (int, float)):
                registry.gauge("runner_packets_done", spec=spec).set(packets)
            rss = record.get("rss_kb")
            if isinstance(rss, (int, float)):
                registry.gauge("runner_rss_kb", spec=spec).set(rss)
    for status, count in sorted(workers_by_status.items()):
        registry.gauge("runner_workers", status=status).set(count)

    durations = registry.histogram("runner_job_duration_ns")
    for record in _iter_json_lines(run_dir / RESULTS_FILE):
        status = str(record.get("status", "unknown"))
        registry.counter("runner_jobs", status=status).inc()
        cause = record.get("exit_cause")
        if cause:
            registry.counter("runner_jobs_exit", cause=str(cause)).inc()
        duration = record.get("duration_s")
        if isinstance(duration, (int, float)) and duration >= 0:
            durations.record(duration * 1e9)

    quarantine = run_dir / QUARANTINE_FILE
    quarantined = 0
    try:
        with quarantine.open("rb") as handle:
            quarantined = sum(1 for line in handle if line.strip())
    except OSError:
        pass
    registry.gauge("runner_quarantined_lines").set(quarantined)
    return registry


"""Parallel experiment orchestration: jobs, workers, result store, resume.

The runner turns sweep execution into orchestrated, parallel, resumable
jobs (see ``docs/RUNNER.md``)::

    from pathlib import Path
    from repro.runner import ExperimentRunner, ResultStore, RunnerOptions
    from repro.analysis.experiments import run_driver
    from repro.analysis.scale import DEFAULT

    store = ResultStore(Path(".repro-runs"), "figure10-default")
    runner = ExperimentRunner(store=store, options=RunnerOptions(jobs=4))
    table = run_driver("figure10", scale=DEFAULT, runner=runner)

Modules:

* :mod:`repro.runner.spec` — :class:`JobSpec` / :class:`JobResult`, the
  pure, picklable, content-hashed job model
* :mod:`repro.runner.scheduler` — process-pool scheduler with retries
  and per-job limits
* :mod:`repro.runner.store` — crash-safe JSON-lines result store + run
  manifest (the memoization and resume layer)
* :mod:`repro.runner.worker` — worker-process entry points and per-worker
  trace-cache priming
* :mod:`repro.runner.progress` — jobs done/failed/cached, ETA, per-worker
  throughput telemetry
* :mod:`repro.runner.supervise` — worker heartbeats, the scheduler-side
  watchdog checks, and the interrupt/checkpoint supervision plumbing
* :mod:`repro.runner.orchestrate` — plan/execute/replay bridge that runs
  unmodified experiment drivers in parallel
"""

from repro.runner.orchestrate import plan_driver, run_experiment, run_sweep
from repro.runner.progress import ProgressReporter
from repro.runner.scheduler import (
    ExperimentRunner,
    RunFailedError,
    RunnerOptions,
    RunStats,
)
from repro.runner.serialize import result_from_dict, result_to_dict
from repro.runner.spec import JobResult, JobSpec
from repro.runner.store import DEFAULT_RUNS_DIR, ResultStore, list_runs
from repro.runner.supervise import (
    JobInterrupted,
    SupervisionOptions,
    WatchdogError,
    list_heartbeats,
    read_heartbeat,
)
from repro.runner.worker import execute_job, pool_initializer

__all__ = [
    "JobSpec",
    "JobResult",
    "ExperimentRunner",
    "RunnerOptions",
    "RunStats",
    "RunFailedError",
    "ResultStore",
    "DEFAULT_RUNS_DIR",
    "list_runs",
    "ProgressReporter",
    "SupervisionOptions",
    "WatchdogError",
    "JobInterrupted",
    "list_heartbeats",
    "read_heartbeat",
    "plan_driver",
    "run_experiment",
    "run_sweep",
    "result_to_dict",
    "result_from_dict",
    "execute_job",
    "pool_initializer",
]

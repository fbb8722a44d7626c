"""Parallel job scheduler: process pool, retries, job limits.

:class:`ExperimentRunner` executes a batch of
:class:`~repro.runner.spec.JobSpec` jobs with:

* **memoization** — jobs whose hash is already in the
  :class:`~repro.runner.store.ResultStore` are answered without executing
  anything (this is what makes runs resumable and re-runs free);
* **parallelism** — a :class:`~concurrent.futures.ProcessPoolExecutor`
  with a configurable worker count, each worker primed by
  :func:`~repro.runner.worker.pool_initializer`;
* **bounded retry with backoff** — a failed attempt re-queues with
  exponential backoff until its budget is exhausted, at which point the
  worker's exception is surfaced in the
  :class:`~repro.runner.spec.JobResult`.  Infrastructure failures
  (broken pool, a killed job, OS errors) are retryable up to
  ``max_attempts``; exceptions raised by the job itself are
  deterministic and budgeted by ``job_error_attempts`` (default 1: a
  poison job fails fast);
* **per-job limits** — the wait loop is the one place that decides a
  kill: at each wake it checks the in-flight jobs against the
  :class:`~repro.runner.supervise.SupervisionOptions` limits (deadline,
  memory budget, heartbeat silence), and a job over one is declared
  failed (or re-queued, if attempts remain) and the pool is recycled,
  which kills the worker process rather than leaking it;
* **bounded pool restarts** — a broken pool (a worker died hard, a
  fork failed) is replaced up to ``max_pool_restarts`` times.  Past
  that, every job still queued, waiting to retry or in flight is
  recorded as failed with an error naming the broken pool.  There is no
  in-process fallback, because no limit could apply there.  A kill is
  not a pool failure and never counts towards the restarts.

Exactly ``jobs`` futures are kept in flight, so a job's deadline clock
starts when it genuinely starts running, not while queued behind others.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import itertools
import os
import time
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.runner.progress import ProgressReporter
from repro.runner.spec import JobResult, JobSpec
from repro.runner.store import ResultStore
from repro.runner.supervise import (
    EXIT_FAILED,
    EXIT_INTERRUPTED,
    JobInterrupted,
    SupervisionOptions,
    WatchdogError,
    scan_inflight,
)
from repro.runner.worker import (
    DEFAULT_WORKER_TRACE_CAPACITY,
    execute_job,
    pool_initializer,
)


#: Failures of the execution *infrastructure* (a worker died, a job was
#: killed over a limit, the OS refused resources) — transient by nature,
#: so retrying the same job can succeed.  Anything else is an exception
#: the job itself raised, which is deterministic for this codebase's
#: pure-function jobs: retrying a poison job burns a full backoff ladder
#: per spec for nothing, so job-raised errors get their own (default
#: fail-fast) budget.
_INFRASTRUCTURE_ERRORS = (BrokenProcessPool, WatchdogError, OSError)


class RunFailedError(RuntimeError):
    """One or more jobs failed after exhausting their attempts."""

    def __init__(self, failures: Sequence[JobResult]):
        self.failures = list(failures)
        preview = "; ".join(
            f"{f.spec_hash}: {f.error}" for f in self.failures[:3]
        )
        more = f" (+{len(self.failures) - 3} more)" if len(self.failures) > 3 else ""
        super().__init__(
            f"{len(self.failures)} job(s) failed after retries: {preview}{more}"
        )


@dataclass
class RunnerOptions:
    """Scheduling knobs (all per-run, not global state).

    ``jobs=0`` means "all cores"; ``jobs=1`` executes in-process with no
    pool at all.  ``max_attempts`` budgets *infrastructure* failures
    (broken pool, a killed job, OS errors) and counts the first try, so
    ``2`` means one retry; ``job_error_attempts`` budgets exceptions
    raised by the job function itself — deterministic failures, so the
    default of 1 fails a poison job fast instead of replaying it through
    the backoff ladder.  ``max_pool_restarts`` bounds how often a broken
    pool is replaced; past it, every job left fails.  The
    :class:`~repro.runner.supervise.SupervisionOptions` limits apply only
    to pooled execution — an in-process job cannot be killed.
    """

    jobs: int = 0
    max_attempts: int = 2
    backoff_s: float = 0.25
    backoff_factor: float = 2.0
    trace_cache_capacity: int = DEFAULT_WORKER_TRACE_CAPACITY
    max_pool_restarts: int = 2
    job_error_attempts: int = 1

    @property
    def effective_jobs(self) -> int:
        return self.jobs if self.jobs > 0 else (os.cpu_count() or 1)


@dataclass
class RunStats:
    """Accounting for the most recent :meth:`ExperimentRunner.run`."""

    total: int = 0
    executed: int = 0
    cached: int = 0
    failed: int = 0
    interrupted: int = 0
    retried: int = 0
    wall_clock_s: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass
class _InFlight:
    spec: JobSpec
    attempt: int
    started_mono: float
    started_wall: float


class ExperimentRunner:
    """Orchestrates a batch of jobs through workers, store, and reporter."""

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        options: Optional[RunnerOptions] = None,
        job_fn: Callable[[JobSpec], Any] = execute_job,
        reporter: Optional[ProgressReporter] = None,
        initializer: Optional[Callable[..., None]] = pool_initializer,
        supervision: Optional[SupervisionOptions] = None,
    ):
        self.store = store
        self.options = options or RunnerOptions()
        self.job_fn = job_fn
        self.reporter = reporter or ProgressReporter(enabled=False)
        self.initializer = initializer
        self.stats = RunStats()
        self._retry_seq = itertools.count()
        self.supervision = supervision
        if supervision is not None:
            if supervision.run_dir is None and store is not None:
                supervision.run_dir = str(store.directory)
            # Supervise the worker only when the caller kept the default
            # job function — custom job functions (tests, orchestration
            # replay) keep their own behaviour, but the limits still
            # cover them via deadlines.
            if supervision.run_dir is not None and job_fn is execute_job:
                self.job_fn = functools.partial(
                    execute_job, supervision=supervision.worker_payload()
                )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, specs: Iterable[JobSpec]) -> List[JobResult]:
        """Execute ``specs``; returns one result per spec, in order.

        Duplicate specs (same hash) execute once and share the result.
        Failures are returned as ``status="failed"`` records, never
        raised — use :meth:`run_or_raise` for raise-on-failure semantics.
        """
        specs = list(specs)
        started = time.monotonic()
        unique: "OrderedDict[str, JobSpec]" = OrderedDict()
        for spec in specs:
            unique.setdefault(spec.spec_hash, spec)
        results: Dict[str, JobResult] = {}
        pending: List[JobSpec] = []
        for spec_hash, spec in unique.items():
            hit = self.store.get(spec_hash) if self.store is not None else None
            if hit is not None:
                results[spec_hash] = dataclasses.replace(hit, cached=True)
            else:
                pending.append(spec)
        self.stats = RunStats(total=len(unique), cached=len(unique) - len(pending))
        self.reporter.start(total=len(unique), cached=self.stats.cached)
        try:
            if pending:
                if self.options.effective_jobs <= 1:
                    self._run_inline(pending, results)
                else:
                    self._run_pool(pending, results)
        finally:
            # Interrupts (KeyboardInterrupt out of either path) must still
            # leave the stats consistent — the CLI writes them into the
            # ``interrupted`` manifest.
            self.stats.wall_clock_s = time.monotonic() - started
            self.reporter.finish(self.stats)
        return [results[spec.spec_hash] for spec in specs]

    def run_or_raise(self, specs: Iterable[JobSpec]) -> List[JobResult]:
        """Like :meth:`run`, but raises :class:`RunFailedError` on failures."""
        results = self.run(specs)
        failures = [result for result in results if not result.ok]
        if failures:
            raise RunFailedError(failures)
        return results

    # ------------------------------------------------------------------
    # Result plumbing
    # ------------------------------------------------------------------
    def _backoff(self, attempt: int) -> float:
        return self.options.backoff_s * self.options.backoff_factor ** (attempt - 1)

    def _attempt_budget(self, error: BaseException) -> int:
        """Retry budget for ``error``: infrastructure failures get
        ``max_attempts``, deterministic job failures ``job_error_attempts``."""
        if isinstance(error, _INFRASTRUCTURE_ERRORS):
            return self.options.max_attempts
        return self.options.job_error_attempts

    def _ok_result(
        self, spec: JobSpec, payload: Any, attempt: int, fallback_duration: float
    ) -> JobResult:
        exit_cause = None
        rss_peak = None
        if isinstance(payload, Mapping) and "result" in payload:
            result = payload.get("result")
            duration = payload.get("duration_s", fallback_duration)
            pid = payload.get("pid")
            trace_cache = payload.get("trace_cache")
            metrics = payload.get("metrics")
            exit_cause = payload.get("exit_cause")
            rss_peak = payload.get("rss_peak_kb")
        else:
            result, duration, pid, trace_cache, metrics = (
                payload, fallback_duration, None, None, None
            )
        return JobResult(
            spec_hash=spec.spec_hash,
            status="ok",
            spec=spec.to_dict(),
            result=result,
            attempts=attempt,
            duration_s=duration,
            worker_pid=pid,
            trace_cache=trace_cache,
            metrics=metrics,
            exit_cause=exit_cause,
            rss_peak_kb=rss_peak,
        )

    def _failed_result(
        self, spec: JobSpec, error: BaseException, attempt: int
    ) -> JobResult:
        exit_cause = (
            error.exit_cause if isinstance(error, WatchdogError) else EXIT_FAILED
        )
        return JobResult(
            spec_hash=spec.spec_hash,
            status="failed",
            spec=spec.to_dict(),
            error=f"{type(error).__name__}: {error}",
            attempts=attempt,
            exit_cause=exit_cause,
        )

    def _interrupted_result(
        self, spec: JobSpec, error: JobInterrupted, attempt: int
    ) -> JobResult:
        """A job stopped cooperatively mid-simulation (checkpoint kept).

        Never memoized (the store only memoizes ``ok`` records), so a
        resumed run re-executes the job — and the supervised worker then
        restores the flushed checkpoint instead of starting over.
        """
        return JobResult(
            spec_hash=spec.spec_hash,
            status="interrupted",
            spec=spec.to_dict(),
            error=f"{type(error).__name__}: {error}",
            attempts=attempt,
            exit_cause=EXIT_INTERRUPTED,
        )

    def _record(self, result: JobResult, results: Dict[str, JobResult]) -> None:
        if self.store is not None:
            self.store.record(result)
        results[result.spec_hash] = result
        if result.ok:
            self.stats.executed += 1
            self.reporter.job_done(result)
        elif result.interrupted:
            self.stats.interrupted += 1
            self.reporter.job_interrupted(result)
        else:
            self.stats.failed += 1
            self.reporter.job_failed(result)

    # ------------------------------------------------------------------
    # In-process execution (jobs=1)
    # ------------------------------------------------------------------
    def _run_inline(
        self, pending: List[JobSpec], results: Dict[str, JobResult]
    ) -> None:
        for spec in pending:
            attempt = 1
            while True:
                start = time.perf_counter()
                try:
                    payload = self.job_fn(spec)
                except JobInterrupted as error:
                    self._record(
                        self._interrupted_result(spec, error, attempt), results
                    )
                    # A cooperative interrupt (SIGINT/SIGTERM) stops the
                    # whole run, not just this job — the installed signal
                    # handler swallowed the KeyboardInterrupt in favour of
                    # flushing a checkpoint first, so restore it here.
                    raise KeyboardInterrupt from error
                except Exception as error:  # noqa: BLE001 — jobs may raise anything
                    if attempt < self._attempt_budget(error):
                        delay = self._backoff(attempt)
                        self.stats.retried += 1
                        self.reporter.job_retry(spec, attempt, delay)
                        time.sleep(delay)
                        attempt += 1
                        continue
                    self._record(self._failed_result(spec, error, attempt), results)
                    break
                self._record(
                    self._ok_result(
                        spec, payload, attempt, time.perf_counter() - start
                    ),
                    results,
                )
                break

    # ------------------------------------------------------------------
    # Pooled execution
    # ------------------------------------------------------------------
    def _new_executor(self, workers: int) -> ProcessPoolExecutor:
        kwargs: Dict[str, Any] = {}
        if self.initializer is not None:
            kwargs["initializer"] = self.initializer
            kwargs["initargs"] = (self.options.trace_cache_capacity,)
        return ProcessPoolExecutor(max_workers=workers, **kwargs)

    @staticmethod
    def _shutdown(executor: ProcessPoolExecutor, kill: bool) -> None:
        # Take the worker map first: shutdown() sets ``_processes`` to None.
        processes = list((getattr(executor, "_processes", None) or {}).values())
        try:
            executor.shutdown(wait=not kill, cancel_futures=True)
        except Exception:  # pragma: no cover — best effort
            pass
        if kill:
            for process in processes:
                try:
                    process.terminate()
                except Exception:  # pragma: no cover — already dead
                    pass
            # A supervised worker turns SIGTERM into a checkpoint request
            # that it honours only at a packet barrier; one that does not
            # reach one within a second is killed outright.
            for process in processes:
                try:
                    process.join(timeout=1.0)
                    if process.is_alive():
                        process.kill()
                        process.join(timeout=1.0)
                except Exception:  # pragma: no cover
                    pass

    def _attempt_failed(
        self,
        info: _InFlight,
        error: BaseException,
        retry_heap: List[Tuple[float, int, JobSpec, int]],
        results: Dict[str, JobResult],
    ) -> None:
        if isinstance(error, JobInterrupted):
            # The worker flushed a checkpoint and stopped on request
            # (run teardown, Ctrl-C): not a failure and not retryable
            # inside this invocation — the *next* invocation resumes it.
            self._record(
                self._interrupted_result(info.spec, error, info.attempt), results
            )
            return
        if info.attempt < self._attempt_budget(error):
            delay = self._backoff(info.attempt)
            self.stats.retried += 1
            self.reporter.job_retry(info.spec, info.attempt, delay)
            heapq.heappush(
                retry_heap,
                (
                    time.monotonic() + delay,
                    next(self._retry_seq),
                    info.spec,
                    info.attempt + 1,
                ),
            )
        else:
            self._record(self._failed_result(info.spec, error, info.attempt), results)

    def _settle(
        self,
        future: Future,
        info: _InFlight,
        retry_heap: List[Tuple[float, int, JobSpec, int]],
        results: Dict[str, JobResult],
    ) -> bool:
        """Record a finished attempt's outcome (or queue its retry);
        True when it found the pool broken."""
        try:
            payload = future.result()
        except Exception as error:  # noqa: BLE001
            self._attempt_failed(info, error, retry_heap, results)
            return isinstance(error, BrokenProcessPool)
        self._record(
            self._ok_result(info.spec, payload, info.attempt, 0.0), results
        )
        return False

    def _run_pool(
        self, pending: List[JobSpec], results: Dict[str, JobResult]
    ) -> None:
        opts = self.options
        supervision = self.supervision
        workers = opts.effective_jobs
        # Created when the loop next has a job to submit, so a recycled
        # pool stays down while every job left waits out its backoff.
        executor: Optional[ProcessPoolExecutor] = None
        restarts = 0
        queue: Deque[Tuple[JobSpec, int]] = deque((spec, 1) for spec in pending)
        retry_heap: List[Tuple[float, int, JobSpec, int]] = []
        inflight: Dict[Future, _InFlight] = {}

        def recycle_pool() -> None:
            """Kill the pool's workers and put the jobs still in flight
            back at the head of the queue, at their current attempt.
            Retries waiting in ``retry_heap`` keep their backoff."""
            nonlocal executor
            queue.extendleft(
                reversed([(info.spec, info.attempt) for info in inflight.values()])
            )
            inflight.clear()
            if executor is not None:
                self._shutdown(executor, kill=True)
                executor = None

        def pool_broke() -> bool:
            """Recycle a broken pool; past ``max_pool_restarts``, fail
            every job left and return True (the run is over)."""
            nonlocal restarts
            recycle_pool()
            restarts += 1
            if restarts <= opts.max_pool_restarts:
                self.reporter.event("restarting worker pool")
                return False
            left = list(queue) + [
                (spec, attempt) for _, _, spec, attempt in sorted(retry_heap)
            ]
            queue.clear()
            retry_heap.clear()
            self.reporter.event(
                f"worker pool broke {restarts} time(s); failing the "
                f"{len(left)} job(s) left"
            )
            error = BrokenProcessPool(
                f"the worker pool broke {restarts} time(s); "
                f"max_pool_restarts is {opts.max_pool_restarts}"
            )
            for spec, attempt in left:
                self._record(self._failed_result(spec, error, attempt), results)
            return True

        try:
            while queue or retry_heap or inflight:
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    _, _, spec, attempt = heapq.heappop(retry_heap)
                    queue.append((spec, attempt))

                # Keep exactly `workers` jobs in flight so per-job deadlines
                # measure running time, not queueing time.
                while queue and len(inflight) < workers:
                    if executor is None:
                        executor = self._new_executor(workers)
                    spec, attempt = queue.popleft()
                    try:
                        future = executor.submit(self.job_fn, spec)
                    except (BrokenProcessPool, RuntimeError) as error:
                        queue.appendleft((spec, attempt))
                        if pool_broke():
                            return
                        self.reporter.event(f"submit failed, pool restarted: {error}")
                        break
                    inflight[future] = _InFlight(
                        spec, attempt, time.monotonic(), time.time()
                    )

                if not inflight:
                    if retry_heap and not queue:
                        time.sleep(
                            min(0.05, max(0.0, retry_heap[0][0] - time.monotonic()))
                        )
                    continue

                wait_timeout = 0.5
                if supervision is not None and supervision.deadline_s is not None:
                    first_start = min(info.started_mono for info in inflight.values())
                    wait_timeout = min(
                        wait_timeout,
                        max(0.01, first_start + supervision.deadline_s - now),
                    )
                if retry_heap:
                    wait_timeout = min(
                        wait_timeout, max(0.01, retry_heap[0][0] - now)
                    )
                done, _ = wait(
                    list(inflight), timeout=wait_timeout, return_when=FIRST_COMPLETED
                )

                pool_broken = False
                for future in done:
                    info = inflight.pop(future)
                    if self._settle(future, info, retry_heap, results):
                        pool_broken = True

                if pool_broken:
                    if pool_broke():
                        return
                    continue

                if supervision is None or not inflight:
                    continue
                flags = scan_inflight(
                    Path(supervision.run_dir or "."),
                    [
                        (info.spec.spec_hash, info.started_mono, info.started_wall)
                        for info in inflight.values()
                    ],
                    supervision,
                )
                if not flags:
                    continue
                for future, info in list(inflight.items()):
                    if info.spec.spec_hash not in flags:
                        continue
                    del inflight[future]
                    future.cancel()
                    cause, detail = flags[info.spec.spec_hash]
                    self.reporter.event(
                        f"watchdog.{cause}: job {info.spec.spec_hash} {detail}"
                    )
                    self._attempt_failed(
                        info,
                        WatchdogError(
                            f"job {info.spec.spec_hash} ({info.spec.label}) "
                            f"killed by watchdog ({cause})",
                            cause=cause,
                        ),
                        retry_heap,
                        results,
                    )
                # Recycling the pool is the only way to kill a pool worker.
                # Innocent in-flight jobs are re-queued at their current
                # attempt, and a killed job's retry resumes from its last
                # checkpoint.  Not a pool failure, so not counted by
                # pool_broke.
                recycle_pool()
        except KeyboardInterrupt:
            # Ctrl-C: a job that already finished keeps its own outcome;
            # every other one is recorded interrupted.  Shutting the pool
            # down below makes its worker flush a final checkpoint.
            stopped = JobInterrupted("the run was interrupted")
            for future, info in inflight.items():
                if future.done():
                    self._settle(future, info, retry_heap, results)
                else:
                    self._record(
                        self._interrupted_result(info.spec, stopped, info.attempt),
                        results,
                    )
            raise
        finally:
            if executor is not None:
                self._shutdown(executor, kill=bool(inflight))

"""Worker supervision: heartbeats, watchdog, and interrupt plumbing.

The runner's process pool gives parallelism but no *liveness* insight: a
worker stuck in an infinite retry storm, ballooning its RSS, or silently
wedged looks exactly like a slow job.  This module closes that gap:

* each supervised worker runs a :class:`HeartbeatWriter` — a daemon
  thread that periodically writes an atomic JSON record (job hash, pid,
  packets done, current RSS, last checkpoint) into
  ``<run-dir>/heartbeats/``;
* the scheduler's wait loop calls :func:`scan_inflight` at each wake,
  which reads those records for every in-flight job and flags jobs
  whose wall clock exceeded their deadline (``deadline_s``), whose RSS
  crossed the soft memory budget (``memory_budget_kb``), or whose
  heartbeat went silent (``heartbeat_timeout_s``).  The scheduler kills
  flagged jobs (pool recycle — the only way to actually kill a pool
  worker) and requeues them under the existing infrastructure-retry
  budget; a requeued job resumes from its last checkpoint instead of
  starting over.

Interrupts ride the same machinery: SIGTERM/SIGINT in a supervised
worker set the checkpoint module's interrupt flag, the simulation
flushes a final snapshot at the next packet barrier, and the worker
surfaces :class:`JobInterrupted` so the store marks the job
``interrupted`` (never memoized — ``repro-sim run --resume`` picks it up
mid-simulation).

Everything here exchanges plain data (dicts, module-level functions), so
it crosses the ``ProcessPoolExecutor`` pickle boundary untouched.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

HEARTBEAT_DIR = "heartbeats"
CHECKPOINT_DIR = "checkpoints"

#: Manifest-level exit causes (see ``docs/RUNNER.md``).
EXIT_COMPLETED = "completed"
EXIT_INTERRUPTED = "interrupted"
EXIT_DEADLINE = "deadline"
EXIT_WATCHDOG = "watchdog-killed"
EXIT_FAILED = "failed"


# ----------------------------------------------------------------------
# Exceptions that cross the pool boundary
# ----------------------------------------------------------------------
def _rebuild_job_interrupted(message, packets_done, checkpoint_path):
    return JobInterrupted(
        message, packets_done=packets_done, checkpoint_path=checkpoint_path
    )


class JobInterrupted(RuntimeError):
    """A supervised worker stopped at a barrier and flushed a checkpoint.

    Pickles safely across the process-pool boundary (``__reduce__``), so
    the scheduler sees the packets-done count and the snapshot path.
    """

    def __init__(
        self,
        message: str,
        packets_done: int = 0,
        checkpoint_path: Optional[str] = None,
    ):
        super().__init__(message)
        self.packets_done = packets_done
        self.checkpoint_path = checkpoint_path

    def __reduce__(self):
        return (
            _rebuild_job_interrupted,
            (self.args[0] if self.args else "", self.packets_done,
             self.checkpoint_path),
        )


class WatchdogError(RuntimeError):
    """The watchdog killed a job (stale heartbeat, deadline, or memory).

    Treated as an *infrastructure* failure by the scheduler: the job
    requeues under ``max_attempts`` and resumes from its last checkpoint.
    """

    def __init__(self, message: str, cause: str = "stale"):
        super().__init__(message)
        self.cause = cause

    @property
    def exit_cause(self) -> str:
        return EXIT_DEADLINE if self.cause == "deadline" else EXIT_WATCHDOG

    def __reduce__(self):
        return (WatchdogError, (self.args[0] if self.args else "", self.cause))


# ----------------------------------------------------------------------
# Supervision knobs
# ----------------------------------------------------------------------
@dataclass
class SupervisionOptions:
    """Per-run supervision configuration (scheduler + worker halves).

    ``run_dir`` is where heartbeats and per-job checkpoints live — the
    runner defaults it to the result store's directory.  The limits are
    individually optional: leave a knob ``None`` to skip that check
    (heartbeats are still written; they cost one small atomic write per
    ``heartbeat_interval_s``).
    """

    run_dir: Optional[str] = None
    checkpoint_every: int = 0
    heartbeat_interval_s: float = 0.5
    heartbeat_timeout_s: Optional[float] = None
    deadline_s: Optional[float] = None
    memory_budget_kb: Optional[int] = None

    def worker_payload(self) -> Dict[str, Any]:
        """The picklable subset a worker process needs."""
        return {
            "run_dir": self.run_dir,
            "checkpoint_every": self.checkpoint_every,
            "heartbeat_interval_s": self.heartbeat_interval_s,
        }


# ----------------------------------------------------------------------
# Process memory
# ----------------------------------------------------------------------
def rss_kb() -> Optional[int]:
    """Current resident set size in KiB (``None`` where unreadable)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def rss_peak_kb() -> Optional[int]:
    """Peak resident set size in KiB (``ru_maxrss``; ``None`` off-POSIX)."""
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, OSError, ValueError):
        return None
    # Linux reports KiB; macOS reports bytes.
    import sys

    return peak // 1024 if sys.platform == "darwin" else peak


# ----------------------------------------------------------------------
# Heartbeats (worker side)
# ----------------------------------------------------------------------
def heartbeat_path(run_dir: Path, spec_hash: str) -> Path:
    return Path(run_dir) / HEARTBEAT_DIR / f"{spec_hash}.json"


def checkpoint_path_for(run_dir: Path, spec_hash: str) -> Path:
    return Path(run_dir) / CHECKPOINT_DIR / f"{spec_hash}.ckpt"


def read_heartbeat(run_dir: Path, spec_hash: str) -> Optional[Dict[str, Any]]:
    """The last heartbeat for ``spec_hash`` (``None`` if absent/corrupt)."""
    path = heartbeat_path(run_dir, spec_hash)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


def clear_heartbeat(run_dir: Path, spec_hash: str) -> None:
    try:
        heartbeat_path(run_dir, spec_hash).unlink()
    except OSError:
        pass


class HeartbeatWriter:
    """Daemon thread writing one job's liveness record atomically.

    The record is rewritten every ``interval_s`` and immediately after
    every checkpoint (via :meth:`note_checkpoint`, which the simulator's
    ``checkpoint_hook`` calls).  Writes are tmp+``os.replace`` so the
    watchdog never reads a torn record.
    """

    def __init__(self, run_dir: Path, spec_hash: str, interval_s: float = 0.5):
        self.path = heartbeat_path(run_dir, spec_hash)
        self.spec_hash = spec_hash
        self.interval_s = interval_s
        self.started_at = time.time()
        self._lock = threading.Lock()
        self._fields: Dict[str, Any] = {
            "spec_hash": spec_hash,
            "pid": os.getpid(),
            "started_at": self.started_at,
            "packets_done": 0,
            "last_checkpoint": None,
            "status": "running",
        }
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.write()
        self._thread = threading.Thread(
            target=self._loop, name=f"heartbeat-{self.spec_hash}", daemon=True
        )
        self._thread.start()

    def stop(self, status: Optional[str] = None) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        if status is not None:
            with self._lock:
                self._fields["status"] = status
            self.write()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.write()

    # -- updates -------------------------------------------------------
    def note_checkpoint(self, packets_done: int, path: str) -> None:
        """Checkpoint hook: record progress and flush immediately."""
        with self._lock:
            self._fields["packets_done"] = packets_done
            self._fields["last_checkpoint"] = path
        self.write()

    def write(self) -> None:
        with self._lock:
            record = dict(self._fields)
        record["updated_at"] = time.time()
        # CLOCK_MONOTONIC is system-wide per host, so the scheduler
        # measures staleness against its own monotonic clock — immune to
        # wall-clock steps.
        record["updated_mono"] = time.monotonic()
        record["rss_kb"] = rss_kb()
        tmp = self.path.with_name(self.path.name + f".{os.getpid()}.tmp")
        try:
            tmp.write_text(
                json.dumps(record, separators=(",", ":")) + "\n",
                encoding="utf-8",
            )
            os.replace(tmp, self.path)
        except OSError:  # pragma: no cover — heartbeat loss is non-fatal
            try:
                tmp.unlink()
            except OSError:
                pass


# ----------------------------------------------------------------------
# Watchdog checks (scheduler side)
# ----------------------------------------------------------------------
def heartbeat_silence_s(
    beat: Dict[str, Any], now_mono: Optional[float] = None
) -> float:
    """Seconds since ``beat`` was written, robust to wall-clock steps.

    Prefers the monotonic pair — the writer's ``updated_mono`` against
    the caller's own monotonic clock, valid because CLOCK_MONOTONIC is
    system-wide per host — and falls back to wall-clock arithmetic for
    legacy records without ``updated_mono``.
    """
    if "updated_mono" in beat:
        if now_mono is None:
            now_mono = time.monotonic()
        return now_mono - beat["updated_mono"]
    return time.time() - beat.get("updated_at", 0.0)


def scan_inflight(
    run_dir: Path,
    inflight: Iterable[Tuple[str, float, float]],
    options: SupervisionOptions,
) -> Dict[str, Tuple[str, str]]:
    """Check each running job against ``options``' limits.

    ``inflight`` holds ``(spec_hash, started_monotonic, started_wall)``
    triples; the result maps each job over a limit to ``(cause,
    detail)``, with cause ``"deadline"``, ``"memory"`` or ``"stale"``
    (checked in that order).  Heartbeats older than the job's own start
    time are ignored, so a leftover record from a previous attempt can
    never kill the retry.
    """
    flags: Dict[str, Tuple[str, str]] = {}
    for spec_hash, started_mono, started_wall in inflight:
        now_mono = time.monotonic()
        if (
            options.deadline_s is not None
            and now_mono - started_mono > options.deadline_s
        ):
            flags[spec_hash] = (
                "deadline",
                f"exceeded {options.deadline_s:g}s wall-clock deadline",
            )
            continue
        if options.memory_budget_kb is None and options.heartbeat_timeout_s is None:
            continue
        beat = read_heartbeat(run_dir, spec_hash)
        # A heartbeat predating this attempt belongs to a previous
        # (killed) attempt of the same job: treat it as absent.  The
        # comparison uses the monotonic pair when the record carries
        # one, so a wall-clock step between attempts cannot resurrect —
        # or falsely bury — it.
        if beat is not None:
            if "updated_mono" in beat:
                stale_attempt = beat["updated_mono"] < started_mono
            else:
                stale_attempt = beat.get("updated_at", 0.0) < started_wall
            if stale_attempt:
                beat = None
        if (
            options.memory_budget_kb is not None
            and beat is not None
            and (beat.get("rss_kb") or 0) > options.memory_budget_kb
        ):
            flags[spec_hash] = (
                "memory",
                f"RSS {beat['rss_kb']} KiB over the "
                f"{options.memory_budget_kb} KiB budget",
            )
            continue
        if options.heartbeat_timeout_s is not None:
            # Monotonic-anchored staleness: a host wall-clock step
            # (NTP slew, manual set) can neither falsely kill a
            # healthy worker nor immortalize a wedged one.
            if beat is not None:
                silent_s = heartbeat_silence_s(beat, now_mono)
            else:
                silent_s = now_mono - started_mono
            if silent_s > options.heartbeat_timeout_s:
                flags[spec_hash] = (
                    "stale",
                    f"heartbeat silent for {silent_s:.1f}s "
                    f"(timeout {options.heartbeat_timeout_s:g}s)",
                )
    return flags


def list_heartbeats(run_dir: Path) -> List[Dict[str, Any]]:
    """All readable heartbeat records under ``run_dir`` (for inspection)."""
    directory = Path(run_dir) / HEARTBEAT_DIR
    if not directory.is_dir():
        return []
    records = []
    for path in sorted(directory.glob("*.json")):
        try:
            records.append(json.loads(path.read_text(encoding="utf-8")))
        except (OSError, json.JSONDecodeError):
            continue
    return records

"""Lease-based distributed experiment queue over a shared SQLite store.

The single-host runner plans a sweep, executes it in a local process
pool, and memoizes results in ``.repro-runs/``.  This module generalizes
the *coordination* half of that into a shared job table so several
``repro-sim run --queue`` invocations — on one machine or many, as long
as they can reach the same SQLite file — cooperate on one sweep:

* **enqueue** — every worker enqueues the full plan; rows are
  deduplicated by :attr:`~repro.runner.spec.JobSpec.spec_hash`
  (``INSERT OR IGNORE``), so enqueueing is idempotent and any worker can
  rebuild a deleted queue from the plan alone;
* **claim-by-update** — a worker claims the oldest ``pending`` row
  inside a single ``BEGIN IMMEDIATE`` transaction, stamping its identity
  (``claimed_by``) and a wall-clock **lease** (``lease_expires_at``).
  SQLite serializes write transactions, so two workers can never claim
  the same row while a lease is valid;
* **lease renewal** — a :class:`LeaseRenewer` thread extends the lease
  while the job runs.  Renewal is *monotonic-safe*: expiry only ever
  moves forward (``MAX(old, now + lease)``), so a backwards host clock
  step cannot shrink a lease, and renewal is piggybacked on the PR 5
  worker heartbeat — a supervised worker whose heartbeat stops advancing
  (measured against the renewer's own monotonic clock) stops being
  renewed, so a wedged host loses its claims;
* **reclamation** — a claim whose lease expired (SIGKILLed worker,
  rebooted host, network partition) is taken over by any survivor; the
  takeover is audited and counted, and the new claimant resumes from the
  dead worker's checkpoint when the run directory is shared;
* **terminal states** — ``done`` / ``failed`` / ``quarantined`` (a job
  whose claims keep dying burns a bounded claim budget, then is parked
  so a poison job cannot take down every host in turn), with per-attempt
  audit rows in the ``attempts`` table;
* **backoff polling** — a worker finding the queue dry while other
  workers still hold claims polls with exponential backoff plus jitter
  instead of hammering the database.

The queue is **coordination, not storage**: results live only in the
fsynced ``results.jsonl`` of the result store, so a corrupt or deleted
queue database loses nothing — it is rebuilt by re-running the same
command (the plan re-enqueues, memoized points are marked ``done``
straight from the store).  Corruption is reported loudly as
:class:`QueueCorruptError` with that rebuild recipe, never as a
traceback.
"""

from __future__ import annotations

import json
import os
import random
import socket
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.runner.spec import JobSpec

#: Schema tag stored in the ``meta`` table (bump on incompatible change).
QUEUE_SCHEMA = "repro-queue/1"

#: Default lease duration.  Long enough that one renewal hiccup (GC
#: pause, NFS stall) does not lose a claim at the default renewal
#: interval of a third of the lease; short enough that a dead host's
#: jobs are reclaimed quickly.
DEFAULT_LEASE_S = 30.0

#: Claims a single job may burn (first claim + takeovers) before it is
#: quarantined instead of handed to yet another victim.
DEFAULT_MAX_CLAIMS = 5

_REBUILD_HINT = (
    "the queue is coordination, not storage — no results live in it. "
    "Rebuild: delete the queue file and re-run the same "
    "'repro-sim run --queue' command; every worker re-enqueues the plan "
    "and already-finished points are marked done straight from the "
    "result store's results.jsonl"
)

#: sqlite error fragments that mean the file itself is damaged (as
#: opposed to contention or schema drift).
_CORRUPTION_MARKERS = (
    "file is not a database",
    "database disk image is malformed",
    "unsupported file format",
    "file is encrypted",
)


class QueueError(RuntimeError):
    """The queue database refused an operation (schema drift, locking)."""


class QueueCorruptError(QueueError):
    """The queue database file is damaged beyond reading.

    Carries the rebuild recipe in the message so the CLI surfaces an
    actionable hint instead of a traceback.
    """

    def __init__(self, path: Union[str, Path], detail: str):
        self.path = str(path)
        self.detail = detail
        super().__init__(
            f"experiment queue {path} is unreadable ({detail}); "
            f"{_REBUILD_HINT}"
        )


def default_worker_id() -> str:
    """``host:pid`` — unique per cooperating invocation, stable within it."""
    return f"{socket.gethostname()}:{os.getpid()}"


@dataclass(frozen=True)
class ClaimedJob:
    """One successfully claimed row, ready to execute."""

    spec: JobSpec
    spec_hash: str
    attempts: int
    takeover: bool = False
    taken_from: Optional[str] = None


class ExperimentQueue:
    """Shared SQLite job table (one connection; safe across threads).

    All operations serialize on an internal lock, so the claim loop and
    the :class:`LeaseRenewer` thread may share one instance.  ``lease_s``
    is the lease granted at claim time and extended by each renewal;
    ``max_claims`` bounds how many claims one job may burn before
    quarantine.
    """

    def __init__(
        self,
        path: Union[str, Path],
        worker_id: Optional[str] = None,
        lease_s: float = DEFAULT_LEASE_S,
        max_claims: int = DEFAULT_MAX_CLAIMS,
        busy_timeout_s: float = 30.0,
    ):
        self.path = Path(path)
        self.worker_id = worker_id or default_worker_id()
        self.lease_s = float(lease_s)
        self.max_claims = int(max_claims)
        self._lock = threading.Lock()
        try:
            self._conn = sqlite3.connect(
                str(self.path),
                timeout=busy_timeout_s,
                check_same_thread=False,
                isolation_level=None,  # explicit BEGIN/COMMIT below
            )
        except sqlite3.Error as error:
            raise self._translate(error)
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(
                f"PRAGMA busy_timeout={int(busy_timeout_s * 1000)}"
            )
            self._init_schema()
        except sqlite3.Error as error:
            self._conn.close()
            raise self._translate(error)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _translate(self, error: sqlite3.Error) -> QueueError:
        text = str(error)
        if any(marker in text for marker in _CORRUPTION_MARKERS):
            return QueueCorruptError(self.path, text)
        return QueueError(f"experiment queue {self.path}: {text}")

    def _init_schema(self) -> None:
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.execute(
                "CREATE TABLE IF NOT EXISTS meta ("
                " key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            conn.execute(
                "INSERT OR IGNORE INTO meta(key, value) VALUES('schema', ?)",
                (QUEUE_SCHEMA,),
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS jobs ("
                " spec_hash TEXT PRIMARY KEY,"
                " spec TEXT NOT NULL,"
                " status TEXT NOT NULL DEFAULT 'pending',"
                " claimed_by TEXT,"
                " lease_expires_at REAL,"
                " attempts INTEGER NOT NULL DEFAULT 0,"
                " takeovers INTEGER NOT NULL DEFAULT 0,"
                " error TEXT,"
                " created_at REAL NOT NULL,"
                " updated_at REAL NOT NULL)"
            )
            conn.execute(
                "CREATE INDEX IF NOT EXISTS jobs_status"
                " ON jobs(status, lease_expires_at)"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS attempts ("
                " id INTEGER PRIMARY KEY AUTOINCREMENT,"
                " spec_hash TEXT NOT NULL,"
                " worker TEXT NOT NULL,"
                " event TEXT NOT NULL,"
                " detail TEXT,"
                " at REAL NOT NULL)"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS workers ("
                " worker TEXT PRIMARY KEY,"
                " pid INTEGER,"
                " started_at REAL,"
                " last_seen_at REAL,"
                " claims INTEGER NOT NULL DEFAULT 0,"
                " takeovers INTEGER NOT NULL DEFAULT 0,"
                " renewals INTEGER NOT NULL DEFAULT 0,"
                " done INTEGER NOT NULL DEFAULT 0,"
                " failed INTEGER NOT NULL DEFAULT 0)"
            )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        row = conn.execute(
            "SELECT value FROM meta WHERE key='schema'"
        ).fetchone()
        if row is None or row[0] != QUEUE_SCHEMA:
            raise QueueError(
                f"experiment queue {self.path} has schema "
                f"{row[0] if row else None!r}, expected {QUEUE_SCHEMA!r}"
            )

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ExperimentQueue":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _audit(self, spec_hash: str, event: str, detail: str = "") -> None:
        """Append one per-attempt audit row (caller holds a transaction)."""
        self._conn.execute(
            "INSERT INTO attempts(spec_hash, worker, event, detail, at)"
            " VALUES(?,?,?,?,?)",
            (spec_hash, self.worker_id, event, detail, time.time()),
        )

    def _bump_worker(self, **deltas: int) -> None:
        """Fold counters into this worker's row (caller holds a txn)."""
        now = time.time()
        self._conn.execute(
            "INSERT OR IGNORE INTO workers(worker, pid, started_at,"
            " last_seen_at) VALUES(?,?,?,?)",
            (self.worker_id, os.getpid(), now, now),
        )
        sets = ", ".join(f"{key} = {key} + ?" for key in deltas)
        self._conn.execute(
            f"UPDATE workers SET last_seen_at = ?, {sets} WHERE worker = ?",
            (now, *deltas.values(), self.worker_id),
        )

    # ------------------------------------------------------------------
    # Enqueue
    # ------------------------------------------------------------------
    def enqueue(self, spec: JobSpec) -> bool:
        """Insert one job; returns False when its hash is already queued."""
        now = time.time()
        with self._lock:
            try:
                cursor = self._conn.execute(
                    "INSERT OR IGNORE INTO jobs"
                    " (spec_hash, spec, status, created_at, updated_at)"
                    " VALUES(?,?,'pending',?,?)",
                    (spec.spec_hash, spec.canonical_json(), now, now),
                )
            except sqlite3.Error as error:
                raise self._translate(error)
            return cursor.rowcount == 1

    def enqueue_specs(self, specs: Sequence[JobSpec]) -> int:
        """Idempotently enqueue a plan; returns how many rows were new."""
        return sum(1 for spec in specs if self.enqueue(spec))

    def complete_memoized(self, spec_hashes: Sequence[str]) -> int:
        """Mark still-``pending`` rows ``done`` from result-store memo hits.

        This is the rebuild path: after a queue database is deleted (or
        corrupted and removed), re-enqueueing the plan and calling this
        with the store's completed hashes restores the queue's state
        without re-running anything.  Rows another worker currently
        holds a claim on are left alone — its own completion will mark
        them.
        """
        if not spec_hashes:
            return 0
        now = time.time()
        marked = 0
        with self._lock:
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                for spec_hash in spec_hashes:
                    cursor = self._conn.execute(
                        "UPDATE jobs SET status='done', claimed_by=?,"
                        " lease_expires_at=NULL, updated_at=?"
                        " WHERE spec_hash=? AND status='pending'",
                        (f"{self.worker_id}/memo", now, spec_hash),
                    )
                    if cursor.rowcount == 1:
                        self._audit(spec_hash, "done", "memoized from store")
                        marked += 1
                if marked:
                    self._bump_worker(done=marked)
                self._conn.execute("COMMIT")
            except sqlite3.Error as error:
                self._conn.execute("ROLLBACK")
                raise self._translate(error)
        return marked

    # ------------------------------------------------------------------
    # Claim / lease lifecycle
    # ------------------------------------------------------------------
    def claim(self) -> Optional[ClaimedJob]:
        """Atomically claim the next runnable job, or ``None`` if dry.

        Prefers ``pending`` rows in enqueue order; with none left, takes
        over the longest-expired ``claimed`` row (lease reclamation).  A
        job whose claim count would exceed ``max_claims`` is moved to
        ``quarantined`` instead of being claimed again, and the next
        candidate is considered.  A row whose spec this version cannot
        parse (e.g. a point written for a since-retired engine) is marked
        ``failed`` with the parse error, and the next candidate is
        considered.
        """
        with self._lock:
            try:
                return self._claim_locked()
            except sqlite3.Error as error:
                raise self._translate(error)

    def _claim_locked(self) -> Optional[ClaimedJob]:
        conn = self._conn
        while True:
            now = time.time()
            conn.execute("BEGIN IMMEDIATE")
            try:
                row = conn.execute(
                    "SELECT spec_hash, spec, attempts, takeovers, claimed_by"
                    " FROM jobs WHERE status='pending'"
                    " ORDER BY rowid LIMIT 1"
                ).fetchone()
                takeover = False
                if row is None:
                    row = conn.execute(
                        "SELECT spec_hash, spec, attempts, takeovers,"
                        " claimed_by FROM jobs"
                        " WHERE status='claimed' AND lease_expires_at < ?"
                        " ORDER BY lease_expires_at LIMIT 1",
                        (now,),
                    ).fetchone()
                    takeover = row is not None
                if row is None:
                    conn.execute("COMMIT")
                    return None
                spec_hash, spec_json, attempts, takeovers, previous = row
                try:
                    spec = JobSpec.from_dict(json.loads(spec_json))
                except ValueError as error:
                    self._fail_row(spec_hash, now, str(error))
                    conn.execute("COMMIT")
                    continue  # look at the next candidate
                attempts += 1
                if attempts > self.max_claims:
                    conn.execute(
                        "UPDATE jobs SET status='quarantined', claimed_by=?,"
                        " lease_expires_at=NULL, attempts=?, updated_at=?,"
                        " error=? WHERE spec_hash=?",
                        (
                            self.worker_id,
                            attempts,
                            now,
                            f"quarantined after {attempts - 1} claims "
                            f"(max_claims={self.max_claims})",
                            spec_hash,
                        ),
                    )
                    self._audit(
                        spec_hash,
                        "quarantined",
                        f"claim budget exhausted ({attempts - 1} claims)",
                    )
                    conn.execute("COMMIT")
                    continue  # look at the next candidate
                conn.execute(
                    "UPDATE jobs SET status='claimed', claimed_by=?,"
                    " lease_expires_at=?, attempts=?, takeovers=?,"
                    " updated_at=? WHERE spec_hash=?",
                    (
                        self.worker_id,
                        now + self.lease_s,
                        attempts,
                        takeovers + (1 if takeover else 0),
                        now,
                        spec_hash,
                    ),
                )
                if takeover:
                    self._audit(
                        spec_hash,
                        "takeover",
                        f"lease of {previous} expired",
                    )
                    self._bump_worker(claims=1, takeovers=1)
                else:
                    self._audit(spec_hash, "claimed", f"attempt {attempts}")
                    self._bump_worker(claims=1)
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            return ClaimedJob(
                spec=spec,
                spec_hash=spec_hash,
                attempts=attempts,
                takeover=takeover,
                taken_from=previous if takeover else None,
            )

    def renew(self, spec_hash: str) -> bool:
        """Extend this worker's lease; monotonic-safe (never shrinks).

        Returns ``False`` when the claim is no longer ours — expired and
        taken over, or already terminal — in which case the caller must
        treat the job as lost.
        """
        now = time.time()
        with self._lock:
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                cursor = self._conn.execute(
                    "UPDATE jobs SET"
                    " lease_expires_at = MAX(lease_expires_at, ?),"
                    " updated_at = ?"
                    " WHERE spec_hash=? AND status='claimed'"
                    " AND claimed_by=?",
                    (now + self.lease_s, now, spec_hash, self.worker_id),
                )
                renewed = cursor.rowcount == 1
                if renewed:
                    self._bump_worker(renewals=1)
                self._conn.execute("COMMIT")
            except sqlite3.Error as error:
                self._conn.execute("ROLLBACK")
                raise self._translate(error)
        return renewed

    def mark_done(self, spec_hash: str, memo: bool = False) -> bool:
        """Terminal success.  Tolerates the row being claimed elsewhere
        meanwhile (content-addressed results make completion idempotent)."""
        now = time.time()
        detail = "memoized from store" if memo else "executed"
        with self._lock:
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                cursor = self._conn.execute(
                    "UPDATE jobs SET status='done', claimed_by=?,"
                    " lease_expires_at=NULL, updated_at=?"
                    " WHERE spec_hash=? AND status IN ('pending','claimed')",
                    (self.worker_id, now, spec_hash),
                )
                done = cursor.rowcount == 1
                if done:
                    self._audit(spec_hash, "done", detail)
                    self._bump_worker(done=1)
                self._conn.execute("COMMIT")
            except sqlite3.Error as error:
                self._conn.execute("ROLLBACK")
                raise self._translate(error)
        return done

    def mark_failed(self, spec_hash: str, error: str) -> bool:
        """Terminal failure (the runner's retry budget is already spent)."""
        with self._lock:
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                failed = self._fail_row(spec_hash, time.time(), error)
                self._conn.execute("COMMIT")
            except sqlite3.Error as sql_error:
                self._conn.execute("ROLLBACK")
                raise self._translate(sql_error)
        return failed

    def _fail_row(self, spec_hash: str, now: float, error: str) -> bool:
        """Mark a live row ``failed`` (caller holds a transaction)."""
        cursor = self._conn.execute(
            "UPDATE jobs SET status='failed', claimed_by=?,"
            " lease_expires_at=NULL, updated_at=?, error=?"
            " WHERE spec_hash=? AND status IN ('pending','claimed')",
            (self.worker_id, now, error[:500], spec_hash),
        )
        failed = cursor.rowcount == 1
        if failed:
            self._audit(spec_hash, "failed", error[:500])
            self._bump_worker(failed=1)
        return failed

    def release(self, spec_hash: str) -> bool:
        """Hand a claim back (cooperative interrupt): row returns to
        ``pending`` so any worker — including a later invocation here —
        picks it up without waiting out the lease."""
        now = time.time()
        with self._lock:
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                cursor = self._conn.execute(
                    "UPDATE jobs SET status='pending', claimed_by=NULL,"
                    " lease_expires_at=NULL, updated_at=?"
                    " WHERE spec_hash=? AND status='claimed'"
                    " AND claimed_by=?",
                    (now, spec_hash, self.worker_id),
                )
                released = cursor.rowcount == 1
                if released:
                    self._audit(spec_hash, "released", "claim handed back")
                self._conn.execute("COMMIT")
            except sqlite3.Error as error:
                self._conn.execute("ROLLBACK")
                raise self._translate(error)
        return released

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def _query(self, sql: str, params: Tuple = ()) -> List[Tuple]:
        with self._lock:
            try:
                return self._conn.execute(sql, params).fetchall()
            except sqlite3.Error as error:
                raise self._translate(error)

    def counts(self) -> Dict[str, int]:
        """Row counts by status (``{}`` for an empty queue)."""
        return dict(
            self._query("SELECT status, COUNT(*) FROM jobs GROUP BY status")
        )

    def unfinished(self) -> int:
        """Rows that still need work (``pending`` + ``claimed``)."""
        rows = self._query(
            "SELECT COUNT(*) FROM jobs"
            " WHERE status IN ('pending','claimed')"
        )
        return int(rows[0][0])

    def jobs(self, status: Optional[str] = None) -> List[Dict[str, Any]]:
        """Job rows (optionally filtered), as plain dicts."""
        sql = (
            "SELECT spec_hash, status, claimed_by, lease_expires_at,"
            " attempts, takeovers, error, created_at, updated_at FROM jobs"
        )
        params: Tuple = ()
        if status is not None:
            sql += " WHERE status=?"
            params = (status,)
        keys = (
            "spec_hash", "status", "claimed_by", "lease_expires_at",
            "attempts", "takeovers", "error", "created_at", "updated_at",
        )
        return [dict(zip(keys, row)) for row in self._query(sql + " ORDER BY rowid", params)]

    def attempt_rows(self, spec_hash: Optional[str] = None) -> List[Dict[str, Any]]:
        """The audit trail (optionally for one job), oldest first."""
        sql = "SELECT spec_hash, worker, event, detail, at FROM attempts"
        params: Tuple = ()
        if spec_hash is not None:
            sql += " WHERE spec_hash=?"
            params = (spec_hash,)
        keys = ("spec_hash", "worker", "event", "detail", "at")
        return [dict(zip(keys, row)) for row in self._query(sql + " ORDER BY id", params)]

    def worker_rows(self) -> List[Dict[str, Any]]:
        """Per-worker claim/takeover/renewal/done/failed counters."""
        keys = (
            "worker", "pid", "started_at", "last_seen_at", "claims",
            "takeovers", "renewals", "done", "failed",
        )
        rows = self._query(
            "SELECT worker, pid, started_at, last_seen_at, claims,"
            " takeovers, renewals, done, failed FROM workers ORDER BY worker"
        )
        return [dict(zip(keys, row)) for row in rows]

    def summary(self) -> Dict[str, Any]:
        """Manifest-ready snapshot: path, status counts, per-worker rows."""
        return {
            "path": str(self.path),
            "schema": QUEUE_SCHEMA,
            "worker_id": self.worker_id,
            "lease_s": self.lease_s,
            "counts": dict(sorted(self.counts().items())),
            "workers": {
                row["worker"]: {
                    key: row[key]
                    for key in ("claims", "takeovers", "renewals", "done",
                                "failed")
                }
                for row in self.worker_rows()
            },
        }


# ----------------------------------------------------------------------
# Lease renewal (worker side), piggybacked on the supervision heartbeat
# ----------------------------------------------------------------------
class LeaseRenewer:
    """Daemon thread renewing the leases of the jobs this worker runs.

    Renewal is gated on *progress*: when a run directory is given and a
    supervision heartbeat exists for a job, the renewer tracks the
    heartbeat's ``updated_at`` value against its **own monotonic clock**
    — the same discipline as the watchdog's staleness check — and stops
    renewing a job whose heartbeat has not advanced for
    ``stale_after_s``.  A wedged worker process therefore loses its
    lease and a survivor takes the job over, while clock steps on either
    host change nothing.  Without a heartbeat (unsupervised or stub
    jobs) the renewer's own liveness is the signal: it renews until
    stopped or the orchestrating process dies.
    """

    def __init__(
        self,
        queue: ExperimentQueue,
        spec_hashes: Sequence[str],
        run_dir: Optional[Union[str, Path]] = None,
        interval_s: Optional[float] = None,
        stale_after_s: Optional[float] = None,
        on_lost: Optional[Callable[[str], None]] = None,
    ):
        self.queue = queue
        self.spec_hashes = list(spec_hashes)
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.interval_s = (
            interval_s if interval_s is not None else queue.lease_s / 3.0
        )
        self.stale_after_s = (
            stale_after_s if stale_after_s is not None else queue.lease_s
        )
        self.on_lost = on_lost
        self.renewals = 0
        self.lost: List[str] = []
        #: spec_hash -> (last heartbeat ``updated_at`` value, the
        #: monotonic instant this renewer first saw that value).
        self._seen: Dict[str, Tuple[Optional[float], float]] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._loop, name="lease-renewer", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.renew_once()
            except QueueError:  # pragma: no cover — renewal must not die
                pass

    def _heartbeat_fresh(self, spec_hash: str) -> bool:
        """Has this job shown progress recently (by our monotonic clock)?"""
        if self.run_dir is None:
            return True
        from repro.runner.supervise import read_heartbeat

        beat = read_heartbeat(self.run_dir, spec_hash)
        if beat is None:
            # No record (yet): between attempts, unsupervised, or the
            # file vanished — not evidence of a wedge.
            self._seen.pop(spec_hash, None)
            return True
        value = beat.get("updated_at")
        now_mono = time.monotonic()
        seen = self._seen.get(spec_hash)
        if seen is None or seen[0] != value:
            self._seen[spec_hash] = (value, now_mono)
            return True
        return (now_mono - seen[1]) <= self.stale_after_s

    def renew_once(self) -> None:
        """One renewal pass (public for deterministic tests)."""
        for spec_hash in list(self.spec_hashes):
            if spec_hash in self.lost:
                continue
            if not self._heartbeat_fresh(spec_hash):
                continue  # wedged: let the lease run out
            if self.queue.renew(spec_hash):
                self.renewals += 1
            else:
                self.lost.append(spec_hash)
                if self.on_lost is not None:
                    self.on_lost(spec_hash)


# ----------------------------------------------------------------------
# The worker loop
# ----------------------------------------------------------------------
@dataclass
class QueueWorkStats:
    """Accounting for one :func:`work_queue` invocation."""

    claims: int = 0
    takeovers: int = 0
    executed: int = 0
    memo_hits: int = 0
    done: int = 0
    failed: int = 0
    released: int = 0
    renewals: int = 0
    polls: int = 0
    wall_clock_s: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "claims": self.claims,
            "takeovers": self.takeovers,
            "executed": self.executed,
            "memo_hits": self.memo_hits,
            "done": self.done,
            "failed": self.failed,
            "released": self.released,
            "renewals": self.renewals,
            "polls": self.polls,
            "wall_clock_s": round(self.wall_clock_s, 3),
        }


def work_queue(
    queue: ExperimentQueue,
    runner: "ExperimentRunner",
    poll_s: float = 0.25,
    poll_max_s: float = 8.0,
    rng: Optional[random.Random] = None,
    on_event: Optional[Callable[[str], None]] = None,
) -> QueueWorkStats:
    """Drain ``queue`` through ``runner`` until every job is terminal.

    Each cycle claims up to the runner's worker count, answers claims
    already present in the (refreshed) result store without executing —
    memoization parity with the single-host path — and runs the rest as
    one batch, marking each job ``done``/``failed`` in the queue *as its
    result lands* (scheduler ``on_result`` hook) while a
    :class:`LeaseRenewer` keeps the batch's leases alive.  A dry poll
    backs off exponentially with jitter up to ``poll_max_s`` and resets
    on the next successful claim.  Interrupts release the still-claimed
    jobs back to ``pending`` before propagating, so survivors (or a
    rerun here) continue immediately.
    """
    rng = rng or random.Random()
    stats = QueueWorkStats()
    store = runner.store
    run_dir = str(store.directory) if store is not None else None
    started = time.monotonic()
    say = on_event or (lambda message: None)
    idle_rounds = 0
    try:
        while True:
            batch: List[ClaimedJob] = []
            max_batch = max(1, runner.options.effective_jobs)
            while len(batch) < max_batch:
                job = queue.claim()
                if job is None:
                    break
                stats.claims += 1
                if job.takeover:
                    stats.takeovers += 1
                    say(
                        f"queue.takeover: {job.spec_hash} from "
                        f"{job.taken_from} (attempt {job.attempts})"
                    )
                if store is not None:
                    store.refresh()
                    if store.get(job.spec_hash) is not None:
                        queue.mark_done(job.spec_hash, memo=True)
                        stats.memo_hits += 1
                        stats.done += 1
                        continue
                batch.append(job)

            if not batch:
                if queue.unfinished() == 0:
                    break
                stats.polls += 1
                delay = min(poll_max_s, poll_s * (2.0 ** min(idle_rounds, 16)))
                delay *= 0.5 + rng.random()  # jitter: de-synchronize hosts
                idle_rounds += 1
                time.sleep(delay)
                continue
            idle_rounds = 0

            by_hash = {job.spec_hash: job for job in batch}
            marked: set = set()

            def _on_result(result) -> None:
                if result.spec_hash not in by_hash:
                    return
                if result.ok:
                    queue.mark_done(result.spec_hash)
                    marked.add(result.spec_hash)
                    stats.done += 1
                    stats.executed += 1
                elif result.status == "failed":
                    queue.mark_failed(result.spec_hash, result.error or "failed")
                    marked.add(result.spec_hash)
                    stats.failed += 1
                # interrupted results stay unmarked -> released below

            renewer = LeaseRenewer(queue, list(by_hash), run_dir=run_dir)
            renewer.start()
            previous_hook = runner.on_result
            runner.on_result = _on_result
            try:
                runner.run([job.spec for job in batch])
            finally:
                runner.on_result = previous_hook
                renewer.stop()
                stats.renewals += renewer.renewals
                for spec_hash in by_hash:
                    if spec_hash not in marked and queue.release(spec_hash):
                        stats.released += 1
    finally:
        stats.wall_clock_s = time.monotonic() - started
    return stats

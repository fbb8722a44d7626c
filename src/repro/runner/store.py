"""On-disk result store: memoized, append-only, crash-safe.

Layout (one directory per run under the runs root, default
``.repro-runs/``)::

    .repro-runs/<run-id>/
        manifest.json    # environment, git state, scale, wall clock, counts
        results.jsonl    # one JobResult per line, appended as jobs finish
        quarantine.jsonl # corrupt lines recovered from results.jsonl

``results.jsonl`` is append-only and fsynced per record, so a crash or
Ctrl-C loses at most the in-flight jobs; corrupt lines (a truncated
final line from a torn write, garbage bytes mid-file) are quarantined on
load — the valid records survive, the bad lines move to
``quarantine.jsonl``, and the affected jobs re-execute on resume.  A run
directory has one writer at a time: every append and the
corruption-recovery rewrite hold an ``flock``'d sidecar lock file, so a
second run invocation naming the same run id (a ``--resume`` started
while the first run still goes) waits for the first writer instead of
tearing its lines or losing appends to a racing rewrite.  Completed jobs
are memoized by :attr:`~repro.runner.spec.JobSpec.spec_hash` —
re-running a sweep, or resuming a killed run, only executes the missing
points.  Failed attempts are recorded too (for the audit trail) but
never memoized, so a resume retries them.

``manifest.json`` records *how* the results were produced: git commit and
dirty flag, python version, CPU count, the ``REPRO_BENCH_SCALE``
environment variable, and accumulated wall clock across invocations — so
result trajectories stay attributable to an environment.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

try:  # POSIX-only; on other platforms appends fall back to unlocked.
    import fcntl
except ImportError:  # pragma: no cover — non-POSIX
    fcntl = None  # type: ignore[assignment]

from repro.analysis.scale import SCALE_ENV_VAR
from repro.runner.spec import JobResult

#: Default runs root, relative to the working directory.
DEFAULT_RUNS_DIR = ".repro-runs"

RESULTS_FILE = "results.jsonl"
MANIFEST_FILE = "manifest.json"
QUARANTINE_FILE = "quarantine.jsonl"
STORE_LOCK_FILE = ".store.lock"


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def environment_info() -> Dict[str, Any]:
    """The per-run environment block recorded in the manifest."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "executable": sys.executable,
        SCALE_ENV_VAR: os.environ.get(SCALE_ENV_VAR),
    }


def git_state(cwd: Optional[Path] = None) -> Dict[str, Any]:
    """Best-effort git commit + dirty flag (``{"commit": None}`` outside a
    repository or when git is unavailable)."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=5, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd, capture_output=True, text=True, timeout=5, check=True,
        ).stdout
        return {"commit": commit, "dirty": bool(status.strip())}
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}


class ResultStore:
    """Result database for one run, keyed by job spec hash."""

    def __init__(self, root: Path, run_id: str, create: bool = True):
        self.run_id = run_id
        self.directory = Path(root) / run_id
        if create:
            self.directory.mkdir(parents=True, exist_ok=True)
        elif not self.directory.is_dir():
            raise FileNotFoundError(f"no such run directory: {self.directory}")
        self._completed: Dict[str, JobResult] = {}
        #: Record counts by status and by exit cause, plus resource peaks
        #: across every recorded attempt — the manifest's supervision
        #: block (see :meth:`supervision_summary`).
        self.status_counts: Dict[str, int] = {}
        self.exit_causes: Dict[str, int] = {}
        self.max_duration_s = 0.0
        self.max_rss_peak_kb = 0
        #: Records rejected during the last load (line number, reason,
        #: raw prefix).  Non-empty means the results file was corrupted —
        #: the bad lines were moved to ``quarantine.jsonl`` and the
        #: results file rewritten with the surviving records.
        self.corrupt_records: List[Dict[str, Any]] = []
        with self._locked():
            self._load()

    # ------------------------------------------------------------------
    @property
    def results_path(self) -> Path:
        return self.directory / RESULTS_FILE

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_FILE

    @property
    def quarantine_path(self) -> Path:
        return self.directory / QUARANTINE_FILE

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Exclusive inter-process lock over the results file.

        Taken for every append and the corruption-recovery rewrite, so
        two run invocations sharing this run directory serialize on
        whole records.  The lock lives on a sidecar file because the
        rewrite replaces the results file's inode, which would silently
        invalidate locks held on it.
        """
        if fcntl is None:  # pragma: no cover — non-POSIX
            yield
            return
        with (self.directory / STORE_LOCK_FILE).open("a") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _load(self) -> None:
        """Load the results file, recovering from corruption.

        A torn final line (crash mid-append), interleaved garbage bytes
        (torn page, concurrent writer), or any non-record line is
        collected into :attr:`corrupt_records`, appended to
        ``quarantine.jsonl`` for the audit trail, and the results file is
        atomically rewritten with only the surviving records — which also
        guarantees the file ends in a complete line, so a later append
        can never merge into a torn tail.  The affected jobs simply
        re-execute on resume.
        """
        path = self.results_path
        if not path.exists():
            return
        # Bytes + lossy decode: corruption is not guaranteed to be UTF-8.
        text = path.read_bytes().decode("utf-8", errors="replace")
        valid_lines: List[str] = []
        corrupt: List[Dict[str, Any]] = []
        for number, line in enumerate(text.split("\n"), start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = JobResult.from_dict(json.loads(stripped))
            except (json.JSONDecodeError, KeyError, TypeError) as error:
                corrupt.append(
                    {
                        "line": number,
                        "reason": f"{type(error).__name__}: {error}",
                        "raw": stripped[:500],
                    }
                )
                continue
            valid_lines.append(stripped)
            self._track(record)
            if record.ok:
                self._completed[record.spec_hash] = record
        self.corrupt_records = corrupt
        if corrupt:
            self._quarantine(corrupt, valid_lines)

    def _quarantine(
        self, corrupt: List[Dict[str, Any]], valid_lines: List[str]
    ) -> None:
        """Move corrupt lines aside and rewrite the results file."""
        with self.quarantine_path.open("a", encoding="utf-8") as handle:
            stamp = _utc_now()
            for entry in corrupt:
                handle.write(
                    json.dumps({**entry, "quarantined_at": stamp}) + "\n"
                )
            handle.flush()
            os.fsync(handle.fileno())
        tmp = self.results_path.with_name(RESULTS_FILE + ".tmp")
        tmp.write_text(
            "".join(line + "\n" for line in valid_lines), encoding="utf-8"
        )
        os.replace(tmp, self.results_path)

    # ------------------------------------------------------------------
    @property
    def completed_count(self) -> int:
        return len(self._completed)

    def get(self, spec_hash: str) -> Optional[JobResult]:
        """The memoized *successful* result for ``spec_hash``, if any."""
        return self._completed.get(spec_hash)

    def record(self, result: JobResult) -> None:
        """Append ``result`` durably; successful records become memo hits.

        The append happens under the store lock, so two invocations
        sharing the run directory interleave whole records.  If a crashed
        writer left a torn (unterminated) tail, the new record is written
        on its own line — the torn fragment stays isolated and is
        quarantined on the next load instead of merging with ours.
        """
        line = json.dumps(result.to_dict(), separators=(",", ":"))
        data = (line + "\n").encode("utf-8")
        with self._locked():
            with self.results_path.open("a+b") as handle:
                if handle.seek(0, os.SEEK_END) > 0:
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) != b"\n":
                        data = b"\n" + data
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
        self._track(result)
        if result.ok:
            self._completed[result.spec_hash] = result

    @property
    def quarantine_count(self) -> int:
        """Lines currently parked in ``quarantine.jsonl`` (0 if none)."""
        try:
            with self.quarantine_path.open("rb") as handle:
                return sum(1 for line in handle if line.strip())
        except OSError:
            return 0

    def _track(self, result: JobResult) -> None:
        """Fold one record into the status/exit-cause/peak accounting."""
        self.status_counts[result.status] = (
            self.status_counts.get(result.status, 0) + 1
        )
        cause = result.exit_cause or (
            "completed" if result.ok else result.status
        )
        self.exit_causes[cause] = self.exit_causes.get(cause, 0) + 1
        if result.duration_s and result.duration_s > self.max_duration_s:
            self.max_duration_s = result.duration_s
        if result.rss_peak_kb and result.rss_peak_kb > self.max_rss_peak_kb:
            self.max_rss_peak_kb = result.rss_peak_kb

    def supervision_summary(self) -> Dict[str, Any]:
        """Per-run exit-cause counts and resource peaks for the manifest.

        Aggregated over every *recorded attempt chain* (including failed
        and interrupted ones), so the manifest answers "how did jobs
        exit?" and "what did the worst job cost?" without re-reading
        ``results.jsonl``.
        """
        return {
            "status_counts": dict(sorted(self.status_counts.items())),
            "exit_causes": dict(sorted(self.exit_causes.items())),
            "max_job_wall_clock_s": round(self.max_duration_s, 3),
            "max_job_rss_peak_kb": self.max_rss_peak_kb,
            "quarantined_lines": self.quarantine_count,
        }

    def iter_completed(self) -> Iterator[JobResult]:
        return iter(self._completed.values())

    def metrics_summary(self) -> Dict[str, Any]:
        """Aggregate the per-job metric blocks across completed jobs.

        Worst-case numbers use max (one pathological point should not be
        averaged away); rates are means across jobs.  Jobs recorded before
        the metrics block existed are simply not counted.
        """
        blocks = [
            record.metrics
            for record in self._completed.values()
            if record.metrics
        ]
        if not blocks:
            return {"jobs_with_metrics": 0}
        p99s = [
            block["latency"].get("p99_ns", 0.0)
            for block in blocks
            if block.get("latency")
        ]
        drop_rates = [block.get("drop_rate", 0.0) for block in blocks]
        utilizations = [block.get("link_utilization", 0.0) for block in blocks]
        return {
            "jobs_with_metrics": len(blocks),
            "worst_p99_ns": max(p99s) if p99s else 0.0,
            "worst_drop_rate": max(drop_rates),
            "mean_drop_rate": sum(drop_rates) / len(drop_rates),
            "mean_link_utilization": sum(utilizations) / len(utilizations),
            "min_link_utilization": min(utilizations),
        }

    # ------------------------------------------------------------------
    def read_manifest(self) -> Dict[str, Any]:
        try:
            return json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return {}

    def write_manifest(
        self,
        wall_clock_s: Optional[float] = None,
        **fields: Any,
    ) -> Dict[str, Any]:
        """Merge ``fields`` into the manifest (atomically, via tmp+rename).

        ``wall_clock_s`` accumulates into ``total_wall_clock_s`` across
        invocations, so a resumed run reports the full cost of the result
        set, not just the final slice.
        """
        manifest = self.read_manifest()
        manifest.setdefault("run_id", self.run_id)
        manifest.setdefault("created_at", _utc_now())
        manifest["updated_at"] = _utc_now()
        manifest["environment"] = environment_info()
        manifest["git"] = git_state()
        if wall_clock_s is not None:
            manifest["total_wall_clock_s"] = round(
                manifest.get("total_wall_clock_s", 0.0) + wall_clock_s, 3
            )
        manifest.update(fields)
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        os.replace(tmp, self.manifest_path)
        return manifest


def list_runs(root: Path = Path(DEFAULT_RUNS_DIR)) -> List[str]:
    """Run ids present under ``root`` (directories with a results file or
    manifest), sorted by name."""
    root = Path(root)
    if not root.is_dir():
        return []
    runs = [
        entry.name
        for entry in root.iterdir()
        if entry.is_dir()
        and ((entry / RESULTS_FILE).exists() or (entry / MANIFEST_FILE).exists())
    ]
    return sorted(runs)

"""Test-only chaos hooks for the parallel runner.

These helpers exist so ``tests/test_chaos.py`` (and the CI ``chaos``
job) can exercise the runner's resilience guarantees for real — workers
that die mid-job, and a result store whose JSONL file was torn or
corrupted mid-line — without monkeypatching scheduler internals.

:func:`kill_worker_once` is a picklable job function: the first attempt
of each spec hard-kills its worker process (``os._exit``), later
attempts succeed.  Which specs have already been killed is tracked by
marker files under the directory named by the ``REPRO_CHAOS_DIR``
environment variable (inherited by pool workers), keyed by spec hash so
the behaviour is per-job, not per-process.

The file-corruption helpers produce the two real-world failure shapes a
crash-interrupted append-only store exhibits: a torn final line (the
process died mid-``write``) and garbage bytes inside the file (torn
page, disk error, concurrent writer).
"""

from __future__ import annotations

import multiprocessing
import os
from pathlib import Path

#: Environment variable naming the marker directory for chaos jobs.
CHAOS_DIR_ENV = "REPRO_CHAOS_DIR"

#: Exit code used for chaos-killed workers (mirrors SIGKILL's 128+9).
CHAOS_EXIT_CODE = 137


class ChaosConfigError(RuntimeError):
    """A chaos hook was invoked without its required environment."""


def kill_worker_once(spec) -> dict:
    """Job fn that kills its worker on each spec's first attempt.

    Later attempts return an ``ok_job``-style payload.  Refuses to kill
    the orchestrating process itself: if invoked in-process (no parent
    process, e.g. in a ``jobs=1`` run) it raises instead of exiting, so
    a mis-scheduled chaos job can never take the test runner down.
    """
    directory = os.environ.get(CHAOS_DIR_ENV)
    if not directory:
        raise ChaosConfigError(
            f"chaos jobs need {CHAOS_DIR_ENV} to point at a marker directory"
        )
    marker = Path(directory) / f"killed-{spec.spec_hash}"
    if not marker.exists():
        marker.write_text("killed once\n", encoding="utf-8")
        if multiprocessing.parent_process() is None:
            raise ChaosConfigError(
                "kill_worker_once invoked in the orchestrating process; "
                "refusing to os._exit it"
            )
        os._exit(CHAOS_EXIT_CODE)
    return {
        "result": {"seed": spec.seed, "benchmark": spec.benchmark},
        "duration_s": 0.0,
        "pid": os.getpid(),
    }


# ----------------------------------------------------------------------
# Result-store file corruption
# ----------------------------------------------------------------------

def truncate_last_line(path: Path) -> int:
    """Tear the file's final line mid-way (crash during append).

    Cuts the last non-empty line roughly in half and drops the trailing
    newline.  Returns the number of bytes removed.
    """
    path = Path(path)
    data = path.read_bytes()
    stripped = data.rstrip(b"\n")
    if not stripped:
        return 0
    start_of_last = stripped.rfind(b"\n") + 1
    line_length = len(stripped) - start_of_last
    cut = start_of_last + max(1, line_length // 2)
    path.write_bytes(data[:cut])
    return len(data) - cut


def insert_garbage_line(
    path: Path,
    after_line: int = 1,
    garbage: bytes = b"\x00\xfe\xffgarbage{not-json",
) -> None:
    """Splice a line of non-JSON (and non-UTF-8) bytes into the file.

    ``after_line`` counts complete existing lines; the garbage gets its
    own line so surrounding records stay intact — the mid-file
    corruption shape, as opposed to the torn tail.
    """
    path = Path(path)
    lines = path.read_bytes().split(b"\n")
    position = min(max(after_line, 0), len(lines))
    lines.insert(position, garbage)
    path.write_bytes(b"\n".join(lines))


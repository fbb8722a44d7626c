"""Worker supervision: heartbeats, the watchdog, and exit-cause records.

Companion to ``tests/test_chaos.py`` (which attacks the *processes*);
this module pins the supervision mechanics deterministically: heartbeat
records and their atomic updates, each watchdog check in isolation (via
direct ``scan_inflight`` calls with synthetic in-flight tables), the
stale-heartbeat-from-a-previous-attempt guard, scheduler integration
(deadline kills consume the infra-retry budget; cooperative interrupts
become ``interrupted`` records that are never memoized), and the
manifest's supervision summary.
"""

import json
import pickle
import time
from unittest.mock import ANY

import pytest

from repro.runner import (
    ExperimentRunner,
    JobInterrupted,
    JobResult,
    ProgressReporter,
    ResultStore,
    RunnerOptions,
    SupervisionOptions,
    WatchdogError,
    list_heartbeats,
    read_heartbeat,
)
from repro.runner.supervise import (
    EXIT_DEADLINE,
    EXIT_INTERRUPTED,
    EXIT_WATCHDOG,
    HeartbeatWriter,
    clear_heartbeat,
    heartbeat_path,
    rss_kb,
    rss_peak_kb,
    scan_inflight,
)

from tests import runner_stubs
from tests.test_runner import make_spec


# ----------------------------------------------------------------------
# Heartbeats
# ----------------------------------------------------------------------

class TestHeartbeat:
    def test_writer_records_liveness_and_checkpoints(self, tmp_path):
        writer = HeartbeatWriter(tmp_path, "abcd1234", interval_s=0.05)
        writer.start()
        try:
            beat = read_heartbeat(tmp_path, "abcd1234")
            assert beat is not None
            assert beat["status"] == "running"
            assert beat["packets_done"] == 0
            assert beat["pid"]
            writer.note_checkpoint(500, "/tmp/job.ckpt")
            beat = read_heartbeat(tmp_path, "abcd1234")
            assert beat["packets_done"] == 500
            assert beat["last_checkpoint"] == "/tmp/job.ckpt"
        finally:
            writer.stop(status="completed")
        beat = read_heartbeat(tmp_path, "abcd1234")
        assert beat["status"] == "completed"
        # Atomic writes: no temp files left next to the record.
        names = [p.name for p in heartbeat_path(tmp_path, "abcd1234").parent.iterdir()]
        assert names == ["abcd1234.json"]

    def test_writer_refreshes_updated_at(self, tmp_path):
        writer = HeartbeatWriter(tmp_path, "ffff0000", interval_s=0.02)
        writer.start()
        try:
            first = read_heartbeat(tmp_path, "ffff0000")["updated_at"]
            time.sleep(0.1)
            second = read_heartbeat(tmp_path, "ffff0000")["updated_at"]
            assert second > first
        finally:
            writer.stop()

    def test_list_and_clear(self, tmp_path):
        for spec_hash in ("aa", "bb"):
            writer = HeartbeatWriter(tmp_path, spec_hash)
            writer.path.parent.mkdir(parents=True, exist_ok=True)
            writer.write()
        assert [b["spec_hash"] for b in list_heartbeats(tmp_path)] == ["aa", "bb"]
        clear_heartbeat(tmp_path, "aa")
        assert [b["spec_hash"] for b in list_heartbeats(tmp_path)] == ["bb"]
        assert read_heartbeat(tmp_path, "aa") is None

    def test_corrupt_heartbeat_reads_as_none(self, tmp_path):
        path = heartbeat_path(tmp_path, "cc")
        path.parent.mkdir(parents=True)
        path.write_text("{torn", encoding="utf-8")
        assert read_heartbeat(tmp_path, "cc") is None
        assert list_heartbeats(tmp_path) == []

    def test_rss_helpers_report_positive(self):
        assert rss_kb() > 0
        assert rss_peak_kb() > 0


# ----------------------------------------------------------------------
# Watchdog checks in isolation
# ----------------------------------------------------------------------

def scan(tmp_path, inflight, **options):
    return scan_inflight(tmp_path, inflight, SupervisionOptions(**options))


class TestWatchdog:
    def test_deadline_flags_overdue_job(self, tmp_path):
        inflight = [("job1", time.monotonic() - 10.0, time.time() - 10.0)]
        flags = scan(tmp_path, inflight, deadline_s=5.0)
        assert flags == {"job1": ("deadline", ANY)}

    def test_fresh_job_not_flagged(self, tmp_path):
        inflight = [("job1", time.monotonic(), time.time())]
        flags = scan(
            tmp_path, inflight,
            deadline_s=60.0, heartbeat_timeout_s=60.0, memory_budget_kb=10**9,
        )
        assert flags == {}

    def test_stale_heartbeat_flags(self, tmp_path):
        started_wall = time.time() - 30.0
        inflight = [("job1", time.monotonic() - 30.0, started_wall)]
        # A heartbeat written after the attempt started, then silence.
        path = heartbeat_path(tmp_path, "job1")
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"spec_hash": "job1", "updated_at": started_wall + 1.0}),
            encoding="utf-8",
        )
        flags = scan(tmp_path, inflight, heartbeat_timeout_s=5.0)
        assert flags == {"job1": ("stale", ANY)}

    def test_missing_heartbeat_counts_from_start(self, tmp_path):
        inflight = [("job1", time.monotonic() - 30.0, time.time() - 30.0)]
        flags = scan(tmp_path, inflight, heartbeat_timeout_s=5.0)
        assert flags == {"job1": ("stale", ANY)}

    def test_previous_attempt_heartbeat_cannot_kill_retry(self, tmp_path):
        """A leftover record from a killed attempt predates the retry's
        start time and must be treated as absent — the retry gets the
        full timeout, measured from its own start."""
        now = time.time()
        inflight = [("job1", time.monotonic(), now)]  # retry started *now*
        path = heartbeat_path(tmp_path, "job1")
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"spec_hash": "job1", "updated_at": now - 300.0,
                        "rss_kb": 10**9}),
            encoding="utf-8",
        )
        flags = scan(
            tmp_path, inflight, heartbeat_timeout_s=5.0, memory_budget_kb=1000
        )
        assert flags == {}

    def test_clock_step_cannot_falsely_kill(self, tmp_path):
        """A backwards wall-clock step makes ``updated_at`` look ancient,
        but the monotonic pair shows the heartbeat is fresh — the worker
        must survive."""
        inflight = [("job1", time.monotonic() - 30.0, time.time() - 30.0)]
        path = heartbeat_path(tmp_path, "job1")
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({
                "spec_hash": "job1",
                "updated_at": time.time() - 7200.0,  # clock stepped back 2h
                "updated_mono": time.monotonic() - 0.1,  # actually fresh
            }),
            encoding="utf-8",
        )
        flags = scan(tmp_path, inflight, heartbeat_timeout_s=5.0)
        assert flags == {}

    def test_clock_step_cannot_immortalize(self, tmp_path):
        """A forwards wall-clock step makes ``updated_at`` look fresh
        forever, but the monotonic pair shows real silence — the wedged
        worker must still be flagged."""
        inflight = [("job1", time.monotonic() - 60.0, time.time() - 60.0)]
        path = heartbeat_path(tmp_path, "job1")
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({
                "spec_hash": "job1",
                "updated_at": time.time() + 7200.0,  # clock stepped ahead 2h
                "updated_mono": time.monotonic() - 30.0,  # silent for 30s
            }),
            encoding="utf-8",
        )
        flags = scan(tmp_path, inflight, heartbeat_timeout_s=5.0)
        assert flags == {"job1": ("stale", ANY)}

    def test_previous_attempt_guard_uses_monotonic(self, tmp_path):
        """The stale-attempt guard compares monotonic instants when the
        record carries them, so a wall-clock step between attempts can't
        resurrect a dead attempt's record."""
        now_mono = time.monotonic()
        inflight = [("job1", now_mono, time.time() - 7200.0)]  # wall stepped
        path = heartbeat_path(tmp_path, "job1")
        path.parent.mkdir(parents=True)
        # Written (monotonically) before this attempt started, but its
        # wall stamp looks newer than the attempt's stepped wall start.
        path.write_text(
            json.dumps({
                "spec_hash": "job1",
                "updated_at": time.time() - 300.0,
                "updated_mono": now_mono - 300.0,
                "rss_kb": 10**9,
            }),
            encoding="utf-8",
        )
        flags = scan(
            tmp_path, inflight, heartbeat_timeout_s=5.0, memory_budget_kb=1000
        )
        assert flags == {}

    def test_writer_emits_monotonic_pair(self, tmp_path):
        writer = HeartbeatWriter(tmp_path, "mono1")
        writer.path.parent.mkdir(parents=True, exist_ok=True)
        before = time.monotonic()
        writer.write()
        beat = read_heartbeat(tmp_path, "mono1")
        assert before <= beat["updated_mono"] <= time.monotonic()

    def test_memory_budget_flags(self, tmp_path):
        started_wall = time.time() - 1.0
        inflight = [("job1", time.monotonic() - 1.0, started_wall)]
        path = heartbeat_path(tmp_path, "job1")
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"spec_hash": "job1", "updated_at": time.time(),
                        "rss_kb": 2048}),
            encoding="utf-8",
        )
        flags = scan(tmp_path, inflight, memory_budget_kb=1024)
        assert flags == {"job1": ("memory", ANY)}
        assert "2048" in flags["job1"][1]

    def test_watchdog_error_exit_causes(self):
        assert WatchdogError("x", cause="deadline").exit_cause == EXIT_DEADLINE
        assert WatchdogError("x", cause="stale").exit_cause == EXIT_WATCHDOG
        assert WatchdogError("x", cause="memory").exit_cause == EXIT_WATCHDOG

    def test_exceptions_survive_pickling(self):
        error = pickle.loads(pickle.dumps(WatchdogError("boom", cause="memory")))
        assert error.cause == "memory"
        interrupted = pickle.loads(
            pickle.dumps(JobInterrupted("stop", packets_done=7,
                                        checkpoint_path="/tmp/c.ckpt"))
        )
        assert interrupted.packets_done == 7
        assert interrupted.checkpoint_path == "/tmp/c.ckpt"


# ----------------------------------------------------------------------
# Scheduler integration
# ----------------------------------------------------------------------

class TestSchedulerSupervision:
    def test_deadline_kill_requeues_then_fails_with_cause(self, tmp_path):
        spec = make_spec(benchmark="hang", seed=3)
        store = ResultStore(tmp_path / "runs", "deadline")
        runner = ExperimentRunner(
            store=store,
            options=RunnerOptions(jobs=2, max_attempts=2, backoff_s=0.01),
            supervision=SupervisionOptions(deadline_s=0.4),
            job_fn=runner_stubs.hang_job,
        )
        result = runner.run([spec])[0]
        assert result.status == "failed"
        assert result.exit_cause == EXIT_DEADLINE
        assert result.attempts == 2
        assert runner.stats.retried == 1
        assert "watchdog" in result.error

    def test_interrupted_jobs_not_memoized(self, tmp_path):
        store = ResultStore(tmp_path / "runs", "int")
        store.record(
            JobResult(
                spec_hash="dead", status="interrupted", spec={},
                error="JobInterrupted: stop", exit_cause=EXIT_INTERRUPTED,
            )
        )
        reloaded = ResultStore(tmp_path / "runs", "int")
        assert reloaded.get("dead") is None  # re-executes on resume
        assert reloaded.status_counts == {"interrupted": 1}
        assert reloaded.exit_causes == {"interrupted": 1}

    def test_inline_interrupt_stops_run_and_records(self, tmp_path):
        def interrupting_job(spec):
            raise JobInterrupted("stopped at barrier", packets_done=100,
                                 checkpoint_path="/tmp/a.ckpt")

        store = ResultStore(tmp_path / "runs", "inline")
        runner = ExperimentRunner(
            store=store,
            options=RunnerOptions(jobs=1),
            job_fn=interrupting_job,
        )
        with pytest.raises(KeyboardInterrupt):
            runner.run([make_spec(seed=1), make_spec(seed=2)])
        assert runner.stats.interrupted == 1
        reloaded = ResultStore(tmp_path / "runs", "inline")
        assert reloaded.status_counts == {"interrupted": 1}
        assert reloaded.completed_count == 0

    def test_custom_job_fn_is_not_wrapped(self, tmp_path):
        """Supervision must not swap a caller-provided job function for
        the supervised sim worker — only the default path is wrapped."""
        store = ResultStore(tmp_path / "runs", "custom")
        runner = ExperimentRunner(
            store=store,
            options=RunnerOptions(jobs=1),
            supervision=SupervisionOptions(checkpoint_every=100),
            job_fn=runner_stubs.ok_job,
        )
        assert runner.job_fn is runner_stubs.ok_job
        result = runner.run([make_spec(seed=5)])[0]
        assert result.ok


# ----------------------------------------------------------------------
# Result records and the manifest summary
# ----------------------------------------------------------------------

class TestSupervisionRecords:
    def test_old_records_serialise_unchanged(self):
        """Records without supervision fields keep their exact pre-existing
        JSON layout — resumed old runs stay byte-compatible."""
        result = JobResult(spec_hash="aa", status="ok", result={"x": 1})
        document = result.to_dict()
        assert "exit_cause" not in document
        assert "rss_peak_kb" not in document
        clone = JobResult.from_dict(json.loads(json.dumps(document)))
        assert clone.exit_cause is None
        assert clone.rss_peak_kb is None

    def test_new_fields_round_trip(self):
        result = JobResult(
            spec_hash="bb", status="ok", result={}, exit_cause="completed",
            rss_peak_kb=12345, duration_s=1.5,
        )
        clone = JobResult.from_dict(result.to_dict())
        assert clone.exit_cause == "completed"
        assert clone.rss_peak_kb == 12345

    def test_store_supervision_summary(self, tmp_path):
        store = ResultStore(tmp_path / "runs", "sum")
        store.record(JobResult(spec_hash="a", status="ok", result={},
                               exit_cause="completed", duration_s=2.0,
                               rss_peak_kb=1000))
        store.record(JobResult(spec_hash="b", status="failed", error="x",
                               exit_cause="deadline", duration_s=5.0))
        store.record(JobResult(spec_hash="c", status="interrupted", error="y",
                               exit_cause="interrupted"))
        store.record(JobResult(spec_hash="d", status="ok", result={}))  # legacy
        summary = store.supervision_summary()
        assert summary["status_counts"] == {
            "failed": 1, "interrupted": 1, "ok": 2
        }
        assert summary["exit_causes"] == {
            "completed": 2, "deadline": 1, "interrupted": 1
        }
        assert summary["max_job_wall_clock_s"] == 5.0
        assert summary["max_job_rss_peak_kb"] == 1000
        # Survives a reload from disk.
        reloaded = ResultStore(tmp_path / "runs", "sum")
        assert reloaded.supervision_summary() == summary

    def test_progress_reports_interrupted(self, capsys):
        import sys

        reporter = ProgressReporter(stream=sys.stderr, enabled=True)
        reporter.start(total=3, cached=0)
        reporter.job_interrupted(
            JobResult(spec_hash="aa", status="interrupted", error="stop")
        )
        reporter.job_failed(
            JobResult(spec_hash="bb", status="failed", error="boom",
                      exit_cause="deadline", attempts=2)
        )

        class Stats:
            executed = 1
            cached = 0
            failed = 1
            interrupted = 1
            retried = 0
            wall_clock_s = 1.0

        reporter.finish(Stats())
        err = capsys.readouterr().err
        assert "interrupted (checkpoint kept" in err
        assert "[deadline]" in err
        assert "1 interrupted" in err

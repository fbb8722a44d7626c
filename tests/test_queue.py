"""The lease-based distributed experiment queue.

The guarantees under test (the ISSUE 9 acceptance set):

* **no double execution** — two workers draining one queue (1024 jobs,
  concurrent threads, separate SQLite connections) execute every job
  exactly once: claims are atomic claim-by-update transactions;
* **crash takeover with byte parity** — a worker that dies after
  claiming a real simulation job loses its lease, a survivor takes the
  claim over (audited, counted), and the final result is byte-identical
  to a single-host run that was never interrupted;
* **loud corruption** — a garbage-corrupted queue database raises
  :class:`~repro.runner.queue.QueueCorruptError` carrying the
  rebuild-from-store recipe, never a bare sqlite traceback — and the
  rebuild recipe actually works (re-enqueue + ``complete_memoized``
  restores a deleted queue without re-running anything);

plus the mechanics those rest on: hash-dedup'd enqueue, monotonic-safe
lease renewal, heartbeat-gated renewal (a wedged worker stops renewing),
the per-job claim budget (poison jobs are quarantined, not endlessly
re-claimed), per-attempt audit rows, and per-worker fleet counters.
"""

import json
import sqlite3
import threading
import time

import pytest

from repro.analysis.scale import RunScale
from repro.core.config import hypertrio_config
from repro.faults import chaos
from repro.runner import (
    ExperimentRunner,
    ExperimentQueue,
    JobSpec,
    QueueCorruptError,
    QueueError,
    ResultStore,
    RunnerOptions,
    work_queue,
)
from repro.runner.queue import LeaseRenewer, QUEUE_SCHEMA
from repro.runner.supervise import HeartbeatWriter

from tests.test_chaos import record_bytes
from tests.test_runner import make_spec


#: A small but real simulation point (16 tenants, 4000 packets) — big
#: enough that takeover parity is meaningful, small enough for tier 1.
QUEUE_SCALE = RunScale(
    name="queue",
    tenant_counts=(16,),
    interleavings=("RR1",),
    benchmarks=("mediastream",),
    max_packets=50_000,
    packets_per_tenant=15_000,
    warmup_fraction=0.25,
)


def sim_spec(seed=0):
    return JobSpec.from_point(
        hypertrio_config(), "mediastream", 16, "RR1", QUEUE_SCALE, seed=seed
    )


# ----------------------------------------------------------------------
# Enqueue, claim, and terminal-state mechanics
# ----------------------------------------------------------------------

class TestQueueBasics:
    def test_enqueue_dedups_by_spec_hash(self, tmp_path):
        queue = ExperimentQueue(tmp_path / "q.db", worker_id="w1")
        spec = make_spec(seed=1)
        assert queue.enqueue(spec) is True
        assert queue.enqueue(spec) is False  # same hash: idempotent
        assert queue.enqueue_specs([spec, make_spec(seed=2)]) == 1
        assert queue.counts() == {"pending": 2}
        assert queue.unfinished() == 2

    def test_claim_then_done_lifecycle(self, tmp_path):
        queue = ExperimentQueue(tmp_path / "q.db", worker_id="w1", lease_s=30)
        first, second = make_spec(seed=1), make_spec(seed=2)
        queue.enqueue_specs([first, second])
        job = queue.claim()
        assert job.spec_hash == first.spec_hash  # enqueue order
        assert job.attempts == 1 and not job.takeover
        assert queue.counts() == {"claimed": 1, "pending": 1}
        row = queue.jobs(status="claimed")[0]
        assert row["claimed_by"] == "w1"
        assert row["lease_expires_at"] > time.time() + 20
        assert queue.mark_done(job.spec_hash) is True
        assert queue.mark_done(job.spec_hash) is False  # already terminal
        assert queue.counts() == {"done": 1, "pending": 1}

    def test_mark_failed_records_error(self, tmp_path):
        queue = ExperimentQueue(tmp_path / "q.db", worker_id="w1")
        queue.enqueue(make_spec(seed=1))
        job = queue.claim()
        queue.mark_failed(job.spec_hash, "ValueError: boom")
        row = queue.jobs(status="failed")[0]
        assert "boom" in row["error"]
        events = [a["event"] for a in queue.attempt_rows(job.spec_hash)]
        assert events == ["claimed", "failed"]

    def test_spec_with_retired_engine_key_is_failed_at_claim(self, tmp_path):
        path = tmp_path / "q.db"
        queue = ExperimentQueue(path, worker_id="w1")
        old = dict(make_spec(seed=1).to_dict(), engine="evented")
        with sqlite3.connect(path) as conn:
            conn.execute(
                "INSERT INTO jobs (spec_hash, spec, status, created_at,"
                " updated_at) VALUES('0123456789abcdef', ?, 'pending', 0, 0)",
                (json.dumps(old),),
            )
        conn.close()
        good = make_spec(seed=2)
        queue.enqueue(good)
        job = queue.claim()
        assert job.spec_hash == good.spec_hash
        row = queue.jobs(status="failed")[0]
        assert row["spec_hash"] == "0123456789abcdef"
        assert "unknown keys engine" in row["error"]
        events = [a["event"] for a in queue.attempt_rows("0123456789abcdef")]
        assert events == ["failed"]
        assert queue.counts() == {"claimed": 1, "failed": 1}

    def test_release_returns_job_to_pending(self, tmp_path):
        queue = ExperimentQueue(tmp_path / "q.db", worker_id="w1")
        queue.enqueue(make_spec(seed=1))
        job = queue.claim()
        assert queue.release(job.spec_hash) is True
        assert queue.counts() == {"pending": 1}
        # Immediately claimable again, no lease wait.
        assert queue.claim() is not None

    def test_claim_returns_none_when_dry(self, tmp_path):
        queue = ExperimentQueue(tmp_path / "q.db", worker_id="w1")
        assert queue.claim() is None

    def test_live_lease_is_not_stealable(self, tmp_path):
        queue_a = ExperimentQueue(tmp_path / "q.db", worker_id="a", lease_s=60)
        queue_b = ExperimentQueue(tmp_path / "q.db", worker_id="b")
        queue_a.enqueue(make_spec(seed=1))
        assert queue_a.claim() is not None
        assert queue_b.claim() is None  # lease still live

    def test_schema_tag_present(self, tmp_path):
        queue = ExperimentQueue(tmp_path / "q.db")
        assert queue.summary()["schema"] == QUEUE_SCHEMA


# ----------------------------------------------------------------------
# Lease expiry, takeover, renewal
# ----------------------------------------------------------------------

class TestLeases:
    def test_expired_lease_is_taken_over_with_audit(self, tmp_path):
        queue_a = ExperimentQueue(tmp_path / "q.db", worker_id="a")
        queue_b = ExperimentQueue(tmp_path / "q.db", worker_id="b")
        spec = make_spec(seed=1)
        queue_a.enqueue(spec)
        assert queue_a.claim() is not None
        assert chaos.steal_lease(queue_a, spec.spec_hash) is True

        job = queue_b.claim()
        assert job is not None and job.takeover
        assert job.taken_from == "a"
        assert job.attempts == 2
        events = [a["event"] for a in queue_b.attempt_rows(spec.spec_hash)]
        assert events == ["claimed", "takeover"]
        workers = queue_b.summary()["workers"]
        assert workers["a"]["claims"] == 1 and workers["a"]["takeovers"] == 0
        assert workers["b"]["claims"] == 1 and workers["b"]["takeovers"] == 1

    def test_renew_extends_forward_only(self, tmp_path):
        queue = ExperimentQueue(tmp_path / "q.db", worker_id="a", lease_s=60)
        spec = make_spec(seed=1)
        queue.enqueue(spec)
        queue.claim()
        first = queue.jobs(status="claimed")[0]["lease_expires_at"]
        assert queue.renew(spec.spec_hash) is True
        second = queue.jobs(status="claimed")[0]["lease_expires_at"]
        # MAX(old, now + lease): never shrinks, even called back-to-back.
        assert second >= first

    def test_renew_fails_after_takeover(self, tmp_path):
        queue_a = ExperimentQueue(tmp_path / "q.db", worker_id="a")
        queue_b = ExperimentQueue(tmp_path / "q.db", worker_id="b")
        spec = make_spec(seed=1)
        queue_a.enqueue(spec)
        queue_a.claim()
        chaos.steal_lease(queue_a, spec.spec_hash)
        assert queue_b.claim().takeover
        assert queue_a.renew(spec.spec_hash) is False  # no longer ours

    def test_poison_job_is_quarantined_after_claim_budget(self, tmp_path):
        queue = ExperimentQueue(
            tmp_path / "q.db", worker_id="a", max_claims=2
        )
        spec = make_spec(seed=1)
        queue.enqueue(spec)
        for _ in range(2):
            assert queue.claim() is not None
            chaos.steal_lease(queue, spec.spec_hash)
        assert queue.claim() is None  # budget burned -> quarantined, not given out
        assert queue.counts() == {"quarantined": 1}
        row = queue.jobs(status="quarantined")[0]
        assert "max_claims" in row["error"]
        assert queue.attempt_rows(spec.spec_hash)[-1]["event"] == "quarantined"

    def test_renewer_renews_until_stopped(self, tmp_path):
        queue = ExperimentQueue(tmp_path / "q.db", worker_id="a")
        spec = make_spec(seed=1)
        queue.enqueue(spec)
        queue.claim()
        renewer = LeaseRenewer(queue, [spec.spec_hash])
        renewer.renew_once()
        renewer.renew_once()
        assert renewer.renewals == 2
        assert queue.summary()["workers"]["a"]["renewals"] == 2

    def test_renewer_reports_lost_claims(self, tmp_path):
        queue_a = ExperimentQueue(tmp_path / "q.db", worker_id="a")
        queue_b = ExperimentQueue(tmp_path / "q.db", worker_id="b")
        spec = make_spec(seed=1)
        queue_a.enqueue(spec)
        queue_a.claim()
        chaos.steal_lease(queue_a, spec.spec_hash)
        queue_b.claim()
        lost = []
        renewer = LeaseRenewer(queue_a, [spec.spec_hash], on_lost=lost.append)
        renewer.renew_once()
        assert lost == [spec.spec_hash]
        assert renewer.lost == [spec.spec_hash]

    def test_renewer_is_gated_on_heartbeat_progress(self, tmp_path):
        """A job whose supervision heartbeat stops advancing stops being
        renewed — the renewer anchors the last-seen heartbeat value to
        its *own* monotonic clock (same discipline as the watchdog)."""
        queue = ExperimentQueue(tmp_path / "q.db", worker_id="a")
        spec = make_spec(seed=1)
        queue.enqueue(spec)
        queue.claim()
        writer = HeartbeatWriter(tmp_path, spec.spec_hash)
        writer.path.parent.mkdir(parents=True, exist_ok=True)
        writer.write()
        renewer = LeaseRenewer(
            queue, [spec.spec_hash], run_dir=tmp_path, stale_after_s=-1.0
        )
        renewer.renew_once()  # first observation anchors: renews
        assert renewer.renewals == 1
        renewer.renew_once()  # unchanged beyond stale_after_s: skipped
        assert renewer.renewals == 1
        writer.write()  # heartbeat advances
        renewer.renew_once()
        assert renewer.renewals == 2

    def test_renewer_without_heartbeat_keeps_renewing(self, tmp_path):
        """No heartbeat record (stub jobs, between attempts) is not
        evidence of a wedge — the renewer's own liveness is the signal."""
        queue = ExperimentQueue(tmp_path / "q.db", worker_id="a")
        spec = make_spec(seed=1)
        queue.enqueue(spec)
        queue.claim()
        renewer = LeaseRenewer(
            queue, [spec.spec_hash], run_dir=tmp_path, stale_after_s=-1.0
        )
        renewer.renew_once()
        renewer.renew_once()
        assert renewer.renewals == 2


# ----------------------------------------------------------------------
# (a) Two concurrent workers never double-execute a claim
# ----------------------------------------------------------------------

class TestNoDoubleExecution:
    def test_1024_jobs_two_workers_every_job_executes_once(self, tmp_path):
        specs = [make_spec(seed=seed) for seed in range(1024)]
        seed_queue = ExperimentQueue(tmp_path / "q.db", worker_id="seed")
        assert seed_queue.enqueue_specs(specs) == 1024
        seed_queue.close()

        executions = []
        log_lock = threading.Lock()

        def make_worker(name):
            def job_fn(spec):
                with log_lock:
                    executions.append((name, spec.spec_hash))
                return {"result": {"seed": spec.seed}}

            queue = ExperimentQueue(
                tmp_path / "q.db", worker_id=name, lease_s=60
            )
            runner = ExperimentRunner(
                options=RunnerOptions(jobs=1), job_fn=job_fn
            )
            stats_box = {}

            def drain():
                stats_box["stats"] = work_queue(
                    queue, runner, poll_s=0.01, poll_max_s=0.05
                )
                queue.close()

            return threading.Thread(target=drain), stats_box

        thread_a, box_a = make_worker("worker-a")
        thread_b, box_b = make_worker("worker-b")
        thread_a.start()
        thread_b.start()
        thread_a.join(timeout=120)
        thread_b.join(timeout=120)
        assert not thread_a.is_alive() and not thread_b.is_alive()

        executed_hashes = [h for _, h in executions]
        assert len(executed_hashes) == 1024  # nothing ran twice
        assert len(set(executed_hashes)) == 1024
        assert set(executed_hashes) == {s.spec_hash for s in specs}

        verify = ExperimentQueue(tmp_path / "q.db", worker_id="verify")
        assert verify.counts() == {"done": 1024}
        stats_a, stats_b = box_a["stats"], box_b["stats"]
        assert stats_a.claims + stats_b.claims == 1024
        assert stats_a.done + stats_b.done == 1024
        # Both workers genuinely participated.
        assert stats_a.executed > 0 and stats_b.executed > 0

    def test_concurrent_claim_hammering_yields_unique_claims(self, tmp_path):
        """Raw claim() races (no runner): N threads x one DB, every claim
        handed out exactly once."""
        specs = [make_spec(seed=seed) for seed in range(64)]
        seed_queue = ExperimentQueue(tmp_path / "q.db", worker_id="seed")
        seed_queue.enqueue_specs(specs)
        seed_queue.close()
        claimed = []
        lock = threading.Lock()

        def hammer(name):
            queue = ExperimentQueue(tmp_path / "q.db", worker_id=name)
            while True:
                job = queue.claim()
                if job is None:
                    break
                with lock:
                    claimed.append(job.spec_hash)
            queue.close()

        threads = [
            threading.Thread(target=hammer, args=(f"w{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert sorted(claimed) == sorted(s.spec_hash for s in specs)


# ----------------------------------------------------------------------
# (b) Killed worker -> lease expiry -> takeover -> byte-identical result
# ----------------------------------------------------------------------

class TestTakeoverParity:
    def test_dead_claimers_jobs_reclaimed_byte_identical(self, tmp_path):
        """Worker A claims a real simulation job and dies (its claim is
        force-expired, which is what its lease looks like after the
        SIGKILL in the queue-chaos CI job).  Worker B takes the job
        over; the merged result set is byte-identical to a single-host
        run that never saw a failure."""
        spec = sim_spec()
        clean_store = ResultStore(tmp_path / "clean-runs", "clean")
        clean = ExperimentRunner(
            store=clean_store, options=RunnerOptions(jobs=1)
        ).run([spec])[0]
        assert clean.ok

        queue_a = ExperimentQueue(tmp_path / "q.db", worker_id="a", lease_s=60)
        queue_a.enqueue(spec)
        assert queue_a.claim() is not None  # A dies here, mid-lease
        chaos.steal_lease(queue_a, spec.spec_hash)

        queue_b = ExperimentQueue(tmp_path / "q.db", worker_id="b", lease_s=60)
        store_b = ResultStore(tmp_path / "runs", "queue")
        runner_b = ExperimentRunner(
            store=store_b, options=RunnerOptions(jobs=1)
        )
        stats = work_queue(queue_b, runner_b, poll_s=0.01)
        assert stats.takeovers == 1
        assert stats.executed == 1 and stats.done == 1
        assert queue_b.counts() == {"done": 1}

        survivor = store_b.get(spec.spec_hash)
        assert record_bytes(survivor) == record_bytes(clean)
        assert queue_b.summary()["workers"]["b"]["takeovers"] == 1

    def test_memo_hit_answers_claim_without_executing(self, tmp_path):
        """A claim whose result already sits in the (refreshed) store —
        another worker finished it just before dying — is marked done
        from the store, never re-executed: memoization parity."""
        spec = make_spec(seed=1)
        store = ResultStore(tmp_path / "runs", "memo")
        runner = ExperimentRunner(
            store=store, options=RunnerOptions(jobs=1),
            job_fn=lambda s: {"result": {"seed": s.seed}},
        )
        runner.run([spec])  # result is now durable

        queue = ExperimentQueue(tmp_path / "q.db", worker_id="b")
        queue.enqueue(spec)

        def forbidden(s):
            raise AssertionError("memoized job must not re-execute")

        fresh_store = ResultStore(tmp_path / "runs", "memo")
        stats = work_queue(
            queue,
            ExperimentRunner(
                store=fresh_store, options=RunnerOptions(jobs=1),
                job_fn=forbidden,
            ),
            poll_s=0.01,
        )
        assert stats.memo_hits == 1 and stats.executed == 0
        assert queue.counts() == {"done": 1}
        events = [a["event"] for a in queue.attempt_rows(spec.spec_hash)]
        assert events == ["claimed", "done"]
        assert queue.attempt_rows(spec.spec_hash)[-1]["detail"] == (
            "memoized from store"
        )

    def test_failed_jobs_reach_terminal_failed_state(self, tmp_path):
        def poison(spec):
            raise ValueError("deterministic poison")

        queue = ExperimentQueue(tmp_path / "q.db", worker_id="a")
        queue.enqueue_specs([make_spec(seed=1), make_spec(seed=2)])
        store = ResultStore(tmp_path / "runs", "fail")
        runner = ExperimentRunner(
            store=store, options=RunnerOptions(jobs=1, backoff_s=0.01),
            job_fn=poison,
        )
        stats = work_queue(queue, runner, poll_s=0.01)
        assert stats.failed == 2 and stats.done == 0
        assert queue.counts() == {"failed": 2}
        assert "poison" in queue.jobs(status="failed")[0]["error"]


# ----------------------------------------------------------------------
# (c) Corruption fails loudly; the rebuild recipe works
# ----------------------------------------------------------------------

class TestCorruptionAndRebuild:
    def test_corrupt_db_raises_queue_corrupt_error_with_rebuild_hint(
        self, tmp_path
    ):
        path = tmp_path / "q.db"
        queue = ExperimentQueue(path, worker_id="a")
        queue.enqueue(make_spec(seed=1))
        queue.close()
        chaos.corrupt_queue_db(path)
        with pytest.raises(QueueCorruptError) as excinfo:
            ExperimentQueue(path, worker_id="a")
        message = str(excinfo.value)
        assert "Rebuild" in message
        assert "repro-sim run --queue" in message
        assert "results.jsonl" in message
        # Typed, catchable — not a bare sqlite traceback.
        assert isinstance(excinfo.value, QueueError)
        assert not isinstance(excinfo.value, sqlite3.Error)

    def test_rebuild_from_store_marks_finished_points_done(self, tmp_path):
        """The recipe in the error message, executed: delete the queue,
        re-enqueue the plan, complete from the store — nothing re-runs."""
        specs = [make_spec(seed=seed) for seed in range(6)]
        store = ResultStore(tmp_path / "runs", "rebuild")
        runner = ExperimentRunner(
            store=store, options=RunnerOptions(jobs=1),
            job_fn=lambda s: {"result": {"seed": s.seed}},
        )
        runner.run(specs[:4])  # 4 of 6 finished before the db was lost

        path = tmp_path / "q.db"
        queue = ExperimentQueue(path, worker_id="a")
        queue.enqueue_specs(specs)
        done = queue.complete_memoized(
            [s.spec_hash for s in specs if store.get(s.spec_hash)]
        )
        assert done == 4
        assert queue.counts() == {"done": 4, "pending": 2}

        executed = []
        stats = work_queue(
            queue,
            ExperimentRunner(
                store=store, options=RunnerOptions(jobs=1),
                job_fn=lambda s: (
                    executed.append(s.spec_hash) or {"result": {"seed": s.seed}}
                ),
            ),
            poll_s=0.01,
        )
        assert stats.executed == 2  # only the genuinely missing points
        assert len(executed) == 2
        assert queue.counts() == {"done": 6}

    def test_complete_memoized_leaves_live_claims_alone(self, tmp_path):
        queue_a = ExperimentQueue(tmp_path / "q.db", worker_id="a")
        queue_b = ExperimentQueue(tmp_path / "q.db", worker_id="b")
        spec = make_spec(seed=1)
        queue_a.enqueue(spec)
        queue_a.claim()
        assert queue_b.complete_memoized([spec.spec_hash]) == 0
        assert queue_b.counts() == {"claimed": 1}


# ----------------------------------------------------------------------
# Fleet view
# ----------------------------------------------------------------------

class TestQueueObservability:
    def test_queue_registry_exports_counts_and_worker_counters(self, tmp_path):
        from repro.obs.fleet import queue_registry

        queue_a = ExperimentQueue(tmp_path / "q.db", worker_id="a", lease_s=60)
        specs = [make_spec(seed=seed) for seed in range(3)]
        queue_a.enqueue_specs(specs)
        job = queue_a.claim()
        queue_a.mark_done(job.spec_hash)
        queue_a.claim()  # leave one claimed with a live lease

        registry = queue_registry(tmp_path / "q.db")
        assert registry.gauge("queue_jobs", status="pending").value == 1
        assert registry.gauge("queue_jobs", status="claimed").value == 1
        assert registry.gauge("queue_jobs", status="done").value == 1
        assert registry.gauge("queue_worker_claims", worker="a").value == 2
        assert registry.gauge("queue_worker_done", worker="a").value == 1
        leases = [
            row for row in registry.snapshot()["gauges"]
            if row["name"] == "queue_lease_remaining_s"
        ]
        assert len(leases) == 1
        assert 0 < leases[0]["value"] <= 60

    def test_manifest_summary_shape(self, tmp_path):
        queue = ExperimentQueue(tmp_path / "q.db", worker_id="host:1")
        queue.enqueue(make_spec(seed=1))
        job = queue.claim()
        queue.mark_done(job.spec_hash)
        summary = queue.summary()
        assert summary["counts"] == {"done": 1}
        assert summary["workers"]["host:1"] == {
            "claims": 1, "takeovers": 0, "renewals": 0, "done": 1, "failed": 0,
        }
        json.dumps(summary)  # manifest-ready

"""Chaos tests: the runner under killed workers and a torn result store.

``tests/test_faults.py`` proves injected *simulation* faults are
deterministic; this module attacks the infrastructure around the
simulator instead.  Worker processes are hard-killed mid-job
(:func:`repro.faults.chaos.kill_worker_once`) and the persistent result
store's JSONL file is torn and corrupted the way real crashes tear it.
The guarantees under test:

* a run whose workers die mid-job still completes (the scheduler
  retries infrastructure failures and restarts the pool);
* a *poison* job — one that deterministically raises — fails fast
  instead of burning the retry budget;
* a corrupt ``results.jsonl`` degrades to its valid prefix: bad records
  are quarantined with line numbers, the store keeps every record before
  (and after) the damage, and subsequent appends/reloads are clean;
* **kill/resume parity**: a worker SIGKILLed *mid-simulation* — after a
  checkpoint landed but long before completion — produces, once resumed,
  a result record byte-identical to an uninterrupted run's.  Pinned for
  the supervised runner (analytic engine) and for a raw subprocess on
  both engines, under a non-trivial fault plan.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.config import hypertrio_config
from repro.analysis.scale import RunScale
from repro.faults import chaos
from repro.runner import (
    ExperimentRunner,
    JobResult,
    JobSpec,
    ResultStore,
    RunnerOptions,
    SupervisionOptions,
    read_heartbeat,
)
from repro.runner.serialize import result_to_dict
from repro.runner.supervise import checkpoint_path_for

from tests import checkpoint_driver, runner_stubs
from tests.test_runner import make_spec


@pytest.fixture
def chaos_dir(tmp_path, monkeypatch):
    directory = tmp_path / "chaos-markers"
    directory.mkdir()
    monkeypatch.setenv(chaos.CHAOS_DIR_ENV, str(directory))
    return directory


# ----------------------------------------------------------------------
# Killed workers
# ----------------------------------------------------------------------

class TestKilledWorkers:
    def test_run_completes_after_worker_kills(self, chaos_dir, tmp_path):
        specs = [make_spec(seed=1), make_spec(seed=2)]
        store = ResultStore(tmp_path / "runs", "chaos")
        runner = ExperimentRunner(
            store=store,
            options=RunnerOptions(
                jobs=2, max_attempts=3, max_pool_restarts=8, backoff_s=0.01
            ),
            job_fn=chaos.kill_worker_once,
        )
        results = runner.run(specs)
        assert all(result.ok for result in results)
        # Every spec's first attempt died with the worker.
        markers = sorted(p.name for p in chaos_dir.iterdir())
        assert markers == sorted(
            f"killed-{spec.spec_hash}" for spec in specs
        )
        assert runner.stats.retried >= len(specs)
        # Completions were persisted despite the carnage.
        reloaded = ResultStore(tmp_path / "runs", "chaos")
        assert reloaded.completed_count == len(specs)
        assert not reloaded.corrupt_records

    def test_kill_refuses_to_take_down_orchestrator(self, chaos_dir):
        with pytest.raises(chaos.ChaosConfigError, match="refusing"):
            chaos.kill_worker_once(make_spec(seed=9))

    def test_kill_requires_marker_directory(self, monkeypatch):
        monkeypatch.delenv(chaos.CHAOS_DIR_ENV, raising=False)
        with pytest.raises(chaos.ChaosConfigError, match=chaos.CHAOS_DIR_ENV):
            chaos.kill_worker_once(make_spec(seed=9))


# ----------------------------------------------------------------------
# Poison jobs fail fast; infrastructure failures keep their budget
# ----------------------------------------------------------------------

class TestPoisonJobs:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_deterministic_failure_fails_fast(self, jobs):
        runner = ExperimentRunner(
            options=RunnerOptions(jobs=jobs, max_attempts=3, backoff_s=0.01),
            job_fn=runner_stubs.failing_job,
        )
        result = runner.run([make_spec(seed=4)])[0]
        assert result.status == "failed"
        assert result.attempts == 1
        assert runner.stats.retried == 0

    def test_job_error_attempts_raises_the_budget(self):
        runner = ExperimentRunner(
            options=RunnerOptions(
                jobs=1, max_attempts=1, job_error_attempts=3, backoff_s=0.01
            ),
            job_fn=runner_stubs.failing_job,
        )
        result = runner.run([make_spec(seed=4)])[0]
        assert result.status == "failed"
        assert result.attempts == 3
        assert runner.stats.retried == 2


# ----------------------------------------------------------------------
# Result-store corruption recovery
# ----------------------------------------------------------------------

def _ok_record(seed):
    spec = make_spec(seed=seed)
    return JobResult(
        spec_hash=spec.spec_hash,
        status="ok",
        spec=spec.to_dict(),
        result={"seed": seed},
    )


def _store_with_records(tmp_path, seeds):
    store = ResultStore(tmp_path / "runs", "torn")
    for seed in seeds:
        store.record(_ok_record(seed))
    return store


class TestStoreCorruptionRecovery:
    def test_truncated_last_line_recovers_valid_prefix(self, tmp_path):
        store = _store_with_records(tmp_path, [1, 2, 3])
        removed = chaos.truncate_last_line(store.results_path)
        assert removed > 0

        recovered = ResultStore(tmp_path / "runs", "torn")
        assert recovered.completed_count == 2
        assert len(recovered.corrupt_records) == 1
        assert recovered.corrupt_records[0]["line"] == 3
        # The quarantine report names the damage.
        entries = [
            json.loads(line)
            for line in recovered.quarantine_path.read_text().splitlines()
        ]
        assert len(entries) == 1
        assert entries[0]["line"] == 3
        assert entries[0]["raw"]

        # The rewritten file is clean: appends and reloads work.
        recovered.record(_ok_record(4))
        final = ResultStore(tmp_path / "runs", "torn")
        assert final.completed_count == 3
        assert not final.corrupt_records

    def test_garbage_mid_file_keeps_records_on_both_sides(self, tmp_path):
        store = _store_with_records(tmp_path, [1, 2])
        chaos.insert_garbage_line(store.results_path, after_line=1)

        recovered = ResultStore(tmp_path / "runs", "torn")
        assert recovered.completed_count == 2
        assert len(recovered.corrupt_records) == 1
        assert recovered.corrupt_records[0]["line"] == 2
        # Both real records survive on either side of the garbage.
        hashes = {r.spec_hash for r in recovered.iter_completed()}
        assert hashes == {make_spec(seed=1).spec_hash,
                          make_spec(seed=2).spec_hash}

    def test_empty_results_file_is_not_corruption(self, tmp_path):
        store = _store_with_records(tmp_path, [])
        store.results_path.write_text("", encoding="utf-8")
        recovered = ResultStore(tmp_path / "runs", "torn")
        assert recovered.completed_count == 0
        assert not recovered.corrupt_records
        assert not recovered.quarantine_path.exists()

    def test_resume_after_truncation_reexecutes_only_the_torn_job(
        self, tmp_path
    ):
        specs = [make_spec(seed=1), make_spec(seed=2), make_spec(seed=3)]
        store = ResultStore(tmp_path / "runs", "resume")
        runner = ExperimentRunner(
            store=store, options=RunnerOptions(jobs=1),
            job_fn=runner_stubs.ok_job,
        )
        assert all(r.ok for r in runner.run(specs))
        chaos.truncate_last_line(store.results_path)

        resumed_store = ResultStore(tmp_path / "runs", "resume")
        assert resumed_store.completed_count == 2
        runner = ExperimentRunner(
            store=resumed_store, options=RunnerOptions(jobs=1),
            job_fn=runner_stubs.ok_job,
        )
        results = runner.run(specs)
        assert all(r.ok for r in results)
        assert runner.stats.cached == 2
        assert runner.stats.executed == 1
        assert ResultStore(tmp_path / "runs", "resume").completed_count == 3


# ----------------------------------------------------------------------
# Kill/resume parity: SIGKILL mid-simulation, resume, identical bytes
# ----------------------------------------------------------------------

# ``RunScale.packets_for`` sizes a point at ``max(4000, 16 x tenants)``
# packets, so tenant count is the only lever that makes a runner job
# long enough to kill mid-flight: 512 tenants -> 8192 packets, a
# multi-second simulation with several checkpoint barriers.
CHAOS_SCALE = RunScale(
    name="chaos",
    tenant_counts=(512,),
    interleavings=("RR1",),
    benchmarks=("mediastream",),
    max_packets=200_000,
    packets_per_tenant=60_000,
    warmup_fraction=0.25,
)


def chaos_spec(seed=3):
    """One real, multi-second simulation job under a non-trivial plan."""
    return JobSpec.from_point(
        hypertrio_config(), "mediastream", 512, "RR1", CHAOS_SCALE,
        seed=seed, fault_plan=checkpoint_driver.build_fault_plan(),
    )


def record_bytes(result: JobResult) -> bytes:
    """Canonical bytes of a record's result payload.

    The JSON round-trip applies the durable store's key normalisation
    (int dict keys become strings), so in-memory and reloaded records
    serialise identically when — and only when — their contents match.
    """
    dumped = json.dumps(result.result, sort_keys=True)
    return json.dumps(json.loads(dumped), sort_keys=True).encode()


class TestKillResumeParity:
    @pytest.mark.slow
    def test_sigkilled_runner_job_resumes_byte_identical(self, tmp_path):
        """SIGKILL a supervised worker after its first checkpoint lands;
        the scheduler requeues the job, the retry resumes mid-simulation
        from the snapshot, and the final record is byte-identical to a
        run that was never touched."""
        spec = chaos_spec()

        clean_store = ResultStore(tmp_path / "runs", "clean")
        clean = ExperimentRunner(
            store=clean_store, options=RunnerOptions(jobs=2)
        ).run([spec])[0]
        assert clean.ok

        chaos_store = ResultStore(tmp_path / "runs", "chaos")
        run_dir = chaos_store.directory
        ckpt_path = checkpoint_path_for(run_dir, spec.spec_hash)
        killed = threading.Event()
        give_up = time.monotonic() + 60.0

        def assassin():
            while not killed.is_set() and time.monotonic() < give_up:
                if ckpt_path.exists():
                    beat = read_heartbeat(run_dir, spec.spec_hash)
                    if beat and beat.get("status") == "running":
                        try:
                            os.kill(beat["pid"], signal.SIGKILL)
                        except (OSError, KeyError):
                            pass
                        killed.set()
                        return
                time.sleep(0.005)

        thread = threading.Thread(target=assassin, daemon=True)
        thread.start()
        runner = ExperimentRunner(
            store=chaos_store,
            options=RunnerOptions(
                jobs=2, max_attempts=3, max_pool_restarts=8, backoff_s=0.05
            ),
            supervision=SupervisionOptions(checkpoint_every=1_000),
        )
        result = runner.run([spec])[0]
        thread.join(timeout=5.0)

        assert killed.is_set(), "worker finished before the kill — grow the job"
        assert result.ok
        assert runner.stats.retried >= 1
        assert record_bytes(result) == record_bytes(clean)
        # The snapshot was consumed by the successful resume.
        assert not ckpt_path.exists()
        # The durable record matches too (what 'run --resume' would read).
        reloaded = ResultStore(tmp_path / "runs", "chaos").get(spec.spec_hash)
        assert record_bytes(reloaded) == record_bytes(clean)

    @pytest.mark.slow
    @pytest.mark.parametrize("engine,packets,every", [
        ("analytic", 150_000, 5_000),
        ("event", 100_000, 5_000),
    ])
    def test_sigkilled_process_resumes_byte_identical(
        self, engine, packets, every, tmp_path
    ):
        """Raw-engine twin of the runner test, covering the DES engine
        too: SIGKILL the whole simulating process (no pool, no signal
        grace), then resume from its last snapshot."""
        reference = json.dumps(
            result_to_dict(checkpoint_driver.run_clean(engine, packets)),
            sort_keys=True,
        )
        ckpt_path = tmp_path / "driver.ckpt"
        out_path = tmp_path / "result.json"
        repo_root = Path(__file__).parent.parent
        env = dict(os.environ, PYTHONPATH=str(repo_root / "src"))
        argv = [
            sys.executable, "-m", "tests.checkpoint_driver",
            "--engine", engine, "--packets", str(packets),
            "--checkpoint-every", str(every),
            "--checkpoint-path", str(ckpt_path), "--out", str(out_path),
        ]
        proc = subprocess.Popen(argv, cwd=repo_root, env=env)
        deadline = time.monotonic() + 60.0
        while not ckpt_path.exists():
            assert proc.poll() is None, "driver finished before checkpointing"
            assert time.monotonic() < deadline, "no checkpoint appeared"
            time.sleep(0.005)
        proc.kill()  # SIGKILL: no handler, no flush, no goodbye
        proc.wait(timeout=30)
        assert not out_path.exists()

        resumed = subprocess.run(
            argv + ["--resume"], cwd=repo_root, env=env, timeout=300,
        )
        assert resumed.returncode == 0
        assert out_path.read_text(encoding="utf-8") == reference


# ----------------------------------------------------------------------
# Two run invocations sharing one results.jsonl
# ----------------------------------------------------------------------

class TestConcurrentStores:
    def test_two_schedulers_interleave_appends_losslessly(self, tmp_path):
        """Two run invocations sharing one run id append to the *same*
        ``results.jsonl`` (here: two store instances racing from two
        threads).  The sidecar file lock serializes whole-record
        appends, so the merged file holds every record, one per line —
        no torn, interleaved, or lost records."""
        per_writer = 150
        barrier = threading.Barrier(2)
        failures = []

        def writer(offset):
            try:
                store = ResultStore(tmp_path / "runs", "shared")
                barrier.wait(timeout=30)
                for index in range(per_writer):
                    store.record(_ok_record(offset + index))
            except BaseException as error:  # pragma: no cover — diagnostics
                failures.append(error)

        threads = [
            threading.Thread(target=writer, args=(offset,))
            for offset in (0, 10_000)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures
        assert not any(thread.is_alive() for thread in threads)

        merged = ResultStore(tmp_path / "runs", "shared")
        assert merged.completed_count == 2 * per_writer
        assert not merged.corrupt_records
        lines = merged.results_path.read_text(
            encoding="utf-8"
        ).splitlines()
        assert len(lines) == 2 * per_writer
        assert all(json.loads(line)["status"] == "ok" for line in lines)
        expected = {
            make_spec(seed=offset + index).spec_hash
            for offset in (0, 10_000)
            for index in range(per_writer)
        }
        assert {r.spec_hash for r in merged.iter_completed()} == expected

    def test_append_after_foreign_torn_tail_stays_isolated(self, tmp_path):
        """Of two run invocations sharing one run id, a crashed one's torn
        (unterminated) tail does not merge with the other's next append:
        the new record starts on its own line and only the torn fragment
        is quarantined on reload."""
        store = _store_with_records(tmp_path, [1, 2])
        with store.results_path.open("ab") as handle:
            handle.write(b'{"status": "ok", "spec_hash": "to')  # no newline
        store.record(_ok_record(3))

        recovered = ResultStore(tmp_path / "runs", "torn")
        assert recovered.completed_count == 3
        assert len(recovered.corrupt_records) == 1
        assert recovered.get(make_spec(seed=3).spec_hash) is not None

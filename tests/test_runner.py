"""Tests for the parallel experiment orchestrator (repro.runner)."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.experiments import figure9, run_driver
from repro.analysis.scale import SMOKE, RunScale
from repro.analysis.sweeps import (
    cached_trace,
    clear_trace_cache,
    reset_trace_cache_stats,
    set_trace_cache_capacity,
    sweep_tenants,
    trace_cache_stats,
)
from repro.core.config import base_config, hypertrio_config
from repro.runner import (
    ExperimentRunner,
    JobSpec,
    ResultStore,
    RunFailedError,
    RunnerOptions,
    list_runs,
    plan_driver,
    result_from_dict,
    result_to_dict,
)

from tests import runner_stubs

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_spec(benchmark="stub", seed=0, **config):
    """A tiny spec for stub job functions (config dict is free-form)."""
    return JobSpec(
        config={"name": "Stub", **config},
        benchmark=benchmark,
        num_tenants=1,
        interleaving="RR1",
        max_packets=100,
        seed=seed,
    )


@pytest.fixture
def restore_trace_cache():
    yield
    clear_trace_cache()
    reset_trace_cache_stats()
    set_trace_cache_capacity(8)


# ----------------------------------------------------------------------
# JobSpec hashing
# ----------------------------------------------------------------------

class TestSpecHash:
    def test_round_trip_preserves_hash(self):
        spec = JobSpec.from_point(base_config(), "mediastream", 4, "RR1", SMOKE,
                                  seed=3)
        rebuilt = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.spec_hash == spec.spec_hash

    def test_hash_distinguishes_configs_with_same_name(self):
        # figure11b evaluates several configs all named "Base": the hash
        # must key on content, not on the display name.
        from repro.core.config import TlbConfig

        lru = base_config().with_overrides(
            devtlb=TlbConfig(num_entries=64, ways=8, policy="lru")
        )
        a = JobSpec.from_point(lru, "mediastream", 2, "RR1", SMOKE)
        b = JobSpec.from_point(base_config(), "mediastream", 2, "RR1", SMOKE)
        assert a.spec_hash != b.spec_hash

    def test_hash_ignores_scale_name_and_sweep_shape(self):
        # Two presets with the same per-point knobs share results.
        wide = RunScale(name="wide", tenant_counts=(2, 4, 8),
                        interleavings=("RR1", "RR4"),
                        benchmarks=("mediastream", "iperf3"),
                        max_packets=SMOKE.max_packets,
                        packets_per_tenant=SMOKE.packets_per_tenant,
                        warmup_fraction=SMOKE.warmup_fraction)
        a = JobSpec.from_point(base_config(), "mediastream", 2, "RR1", SMOKE)
        b = JobSpec.from_point(base_config(), "mediastream", 2, "RR1", wide)
        assert a.spec_hash == b.spec_hash

    def test_hash_stable_across_processes(self):
        spec = JobSpec.from_point(base_config(), "mediastream", 4, "RR1", SMOKE,
                                  seed=3)
        script = (
            "from repro.analysis.scale import SMOKE\n"
            "from repro.core.config import base_config\n"
            "from repro.runner import JobSpec\n"
            "print(JobSpec.from_point(base_config(), 'mediastream', 4, 'RR1',"
            " SMOKE, seed=3).spec_hash)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
            cwd=REPO_ROOT, timeout=120,
        ).stdout.strip()
        assert output == spec.spec_hash
        # Pinned: existing result stores and queue databases are keyed by
        # this hash, so a JobSpec field change must not move it.
        assert spec.spec_hash == "b05cb686ee32a311"


# ----------------------------------------------------------------------
# Store, memoization, resume
# ----------------------------------------------------------------------

class TestStoreAndResume:
    def test_rerun_is_fully_cached(self, tmp_path):
        specs = [make_spec(seed=i) for i in range(4)]
        runner = ExperimentRunner(
            store=ResultStore(tmp_path, "r1"),
            options=RunnerOptions(jobs=2),
            job_fn=runner_stubs.ok_job,
        )
        first = runner.run(specs)
        assert all(r.ok for r in first)
        assert runner.stats.executed == 4 and runner.stats.cached == 0

        # Re-run against the same store with a job fn that would fail if it
        # executed even once: everything must come from the cache.
        resumed = ExperimentRunner(
            store=ResultStore(tmp_path, "r1"),
            options=RunnerOptions(jobs=2),
            job_fn=runner_stubs.failing_job,
        )
        second = resumed.run(specs)
        assert resumed.stats.executed == 0 and resumed.stats.cached == 4
        assert all(r.cached for r in second)
        assert [r.result for r in second] == [r.result for r in first]

    def test_resume_executes_only_missing_points(self, tmp_path):
        old = [make_spec(seed=i) for i in range(2)]
        runner = ExperimentRunner(
            store=ResultStore(tmp_path, "r2"),
            options=RunnerOptions(jobs=2),
            job_fn=runner_stubs.ok_job,
        )
        runner.run(old)

        # Simulates resuming a killed run: two points done, two missing.
        extended = old + [make_spec(seed=i) for i in (7, 8)]
        resumed = ExperimentRunner(
            store=ResultStore(tmp_path, "r2"),
            options=RunnerOptions(jobs=2),
            job_fn=runner_stubs.ok_job,
        )
        results = resumed.run(extended)
        assert resumed.stats.cached == 2 and resumed.stats.executed == 2
        assert [r.result["seed"] for r in results] == [0, 1, 7, 8]

    def test_torn_final_line_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path, "r3")
        runner = ExperimentRunner(
            store=store, options=RunnerOptions(jobs=1),
            job_fn=runner_stubs.ok_job,
        )
        runner.run([make_spec(seed=1)])
        with store.results_path.open("a", encoding="utf-8") as handle:
            handle.write('{"spec_hash": "deadbeef", "status": "ok", "resu')
        reloaded = ResultStore(tmp_path, "r3")
        assert reloaded.completed_count == 1

    def test_failed_records_are_not_memoized(self, tmp_path):
        spec = make_spec(seed=9)
        failing = ExperimentRunner(
            store=ResultStore(tmp_path, "r4"),
            options=RunnerOptions(jobs=1, max_attempts=1),
            job_fn=runner_stubs.failing_job,
        )
        assert not failing.run([spec])[0].ok
        retried = ExperimentRunner(
            store=ResultStore(tmp_path, "r4"),
            options=RunnerOptions(jobs=1),
            job_fn=runner_stubs.ok_job,
        )
        result = retried.run([spec])[0]
        assert result.ok and not result.cached

    def test_manifest_records_environment(self, tmp_path):
        store = ResultStore(tmp_path, "r5")
        manifest = store.write_manifest(wall_clock_s=1.5, experiment="figure9")
        env = manifest["environment"]
        assert env["python"] and env["cpu_count"] >= 1
        assert "REPRO_BENCH_SCALE" in env
        assert manifest["experiment"] == "figure9"
        # Wall clock accumulates across invocations (resumed runs).
        manifest = store.write_manifest(wall_clock_s=2.0)
        assert manifest["total_wall_clock_s"] == pytest.approx(3.5)
        assert list_runs(tmp_path) == ["r5"]


# ----------------------------------------------------------------------
# Retry, failure surfacing, timeout
# ----------------------------------------------------------------------

class TestRetryAndTimeout:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retry_then_fail_surfaces_worker_exception(self, jobs):
        runner = ExperimentRunner(
            options=RunnerOptions(
                jobs=jobs, max_attempts=3, job_error_attempts=3, backoff_s=0.01
            ),
            job_fn=runner_stubs.failing_job,
        )
        result = runner.run([make_spec(seed=5)])[0]
        assert result.status == "failed"
        assert result.attempts == 3
        assert "ValueError" in result.error and "kaboom-5" in result.error
        assert runner.stats.retried == 2

        with pytest.raises(RunFailedError, match="kaboom-5"):
            runner.run_or_raise([make_spec(seed=5)])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retry_then_succeed(self, jobs, tmp_path):
        marker = tmp_path / f"marker-{jobs}"
        spec = make_spec(seed=1, marker=str(marker))
        runner = ExperimentRunner(
            options=RunnerOptions(
                jobs=jobs, max_attempts=2, job_error_attempts=2, backoff_s=0.01
            ),
            job_fn=runner_stubs.fail_once_job,
        )
        result = runner.run([spec])[0]
        assert result.ok
        assert result.attempts == 2

    def test_timeout_kills_hung_job_and_run_completes(self):
        specs = [
            make_spec(benchmark="hang", seed=1),
            make_spec(seed=2),
            make_spec(seed=3),
        ]
        runner = ExperimentRunner(
            options=RunnerOptions(jobs=2, timeout_s=1.0, max_attempts=1),
            job_fn=runner_stubs.hang_job,
        )
        started = time.monotonic()
        results = runner.run(specs)
        elapsed = time.monotonic() - started
        by_seed = {r.spec["seed"]: r for r in results}
        assert by_seed[1].status == "failed"
        assert "timed out" in by_seed[1].error
        assert by_seed[2].ok and by_seed[3].ok
        # Far below the 120s hang: the worker was killed, not awaited.
        assert elapsed < 30


# ----------------------------------------------------------------------
# End-to-end equivalence with the sequential paths
# ----------------------------------------------------------------------

class TestParallelEquivalence:
    def test_mini_sweep_matches_sequential_point_for_point(
        self, tmp_path, restore_trace_cache
    ):
        scale = RunScale(
            name="test", tenant_counts=(2, 4), interleavings=("RR1",),
            benchmarks=("mediastream",), max_packets=500,
            packets_per_tenant=50_000,
        )
        configs = [base_config(), hypertrio_config()]
        sequential = sweep_tenants(configs, ["mediastream"], ["RR1"], scale)
        clear_trace_cache()
        runner = ExperimentRunner(
            store=ResultStore(tmp_path, "sweep"), options=RunnerOptions(jobs=2)
        )
        parallel = sweep_tenants(
            configs, ["mediastream"], ["RR1"], scale, runner=runner
        )
        assert runner.stats.executed == len(sequential)
        assert len(parallel) == len(sequential)
        for seq_point, par_point in zip(sequential, parallel):
            assert par_point.config_name == seq_point.config_name
            assert par_point.benchmark == seq_point.benchmark
            assert par_point.num_tenants == seq_point.num_tenants
            assert par_point.interleaving == seq_point.interleaving
            assert par_point.result == seq_point.result

    def test_result_serialization_round_trips_exactly(self, restore_trace_cache):
        from repro.analysis.sweeps import run_point

        scale = RunScale(
            name="test", tenant_counts=(2,), interleavings=("RR1",),
            benchmarks=("mediastream",), max_packets=400,
        )
        result = run_point(
            hypertrio_config(), "mediastream", 2, "RR1", scale
        ).result
        restored = result_from_dict(
            json.loads(json.dumps(result_to_dict(result)))
        )
        assert restored == result
        # The observability-era fields survive the trip with int bucket keys.
        assert restored.latency.buckets == result.latency.buckets
        assert all(isinstance(k, int) for k in restored.latency.buckets)
        assert restored.latency.min_ns == result.latency.min_ns
        assert restored.percentiles == result.percentiles
        assert restored.percentiles["p50_ns"] <= restored.percentiles["p99_ns"]

    def test_deserializes_records_predating_latency_histograms(
        self, restore_trace_cache
    ):
        """Stored results from before buckets/min_ns/percentiles load fine."""
        from repro.analysis.sweeps import run_point

        scale = RunScale(
            name="test", tenant_counts=(2,), interleavings=("RR1",),
            benchmarks=("mediastream",), max_packets=400,
        )
        result = run_point(
            hypertrio_config(), "mediastream", 2, "RR1", scale
        ).result
        raw = json.loads(json.dumps(result_to_dict(result)))
        del raw["latency"]["buckets"]
        del raw["latency"]["min_ns"]
        del raw["percentiles"]
        restored = result_from_dict(raw)
        assert restored.latency.count == result.latency.count
        assert restored.latency.mean_ns == result.latency.mean_ns
        assert restored.latency.buckets == {}
        assert restored.latency.min_ns == 0.0
        assert restored.percentiles == {}
        assert restored.latency.percentile(99) == 0.0  # no histogram: defined

    def test_experiment_driver_matches_sequential(
        self, tmp_path, restore_trace_cache
    ):
        small = RunScale(
            name="smoke", tenant_counts=(2,), interleavings=("RR1",),
            benchmarks=("mediastream",), max_packets=400,
        )
        sequential = figure9(scale=small)
        runner = ExperimentRunner(
            store=ResultStore(tmp_path, "fig9"), options=RunnerOptions(jobs=2)
        )
        parallel = run_driver("figure9", scale=small, runner=runner)
        assert parallel.columns == sequential.columns
        assert [tuple(r) for r in parallel.rows] == \
            [tuple(r) for r in sequential.rows]
        assert runner.stats.executed == 4  # 2 configs x 2 tenant counts

    def test_driver_without_sweep_points_runs_once(self, tmp_path):
        runner = ExperimentRunner(
            store=ResultStore(tmp_path, "t2"), options=RunnerOptions(jobs=2)
        )
        table = run_driver("table2", runner=runner)
        assert table.experiment_id == "Table II"
        assert runner.stats.total == 0  # nothing was planned or executed

    def test_plan_deduplicates_points(self):
        small = RunScale(
            name="smoke", tenant_counts=(2,), interleavings=("RR1",),
            benchmarks=("mediastream",), max_packets=400,
        )
        specs, _ = plan_driver(figure9, {"scale": small})
        assert len(specs) == len({s.spec_hash for s in specs}) == 4


# ----------------------------------------------------------------------
# Trace-cache telemetry (per-process bounded cache)
# ----------------------------------------------------------------------

class TestTraceCacheTelemetry:
    def test_hit_miss_counters(self, tiny_scale, restore_trace_cache):
        clear_trace_cache()
        reset_trace_cache_stats()
        first = cached_trace("mediastream", 2, "RR1", tiny_scale)
        second = cached_trace("mediastream", 2, "RR1", tiny_scale)
        assert first is second
        stats = trace_cache_stats()
        assert stats.hits == 1 and stats.misses == 1 and stats.size == 1

    def test_capacity_is_enforced_immediately(self, tiny_scale, restore_trace_cache):
        clear_trace_cache()
        reset_trace_cache_stats()
        set_trace_cache_capacity(1)
        cached_trace("mediastream", 2, "RR1", tiny_scale)
        cached_trace("mediastream", 2, "RR4", tiny_scale)
        stats = trace_cache_stats()
        assert stats.size == 1 and stats.capacity == 1
        # Shrinking below current occupancy evicts eagerly.
        set_trace_cache_capacity(2)
        cached_trace("mediastream", 2, "RR1", tiny_scale)
        assert trace_cache_stats().size == 2
        set_trace_cache_capacity(1)
        assert trace_cache_stats().size == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            set_trace_cache_capacity(0)

"""Checkpoint/restore: resumed runs are byte-identical to uninterrupted ones.

The contract under test (see ``src/repro/sim/checkpoint.py``):

* saving a checkpoint is pure observation — enabling ``checkpoint_every``
  never changes the result (pinned against the golden file for the
  analytic engine, against a fresh baseline for the DES twin);
* restoring a snapshot and running to completion produces a
  :class:`~repro.core.results.SimulationResult` whose serialised form is
  *byte-identical* to the uninterrupted run's — across engines, prefetch
  and partitioning settings, fault plans, and observability;
* a cooperative interrupt flushes a final snapshot and raises
  :class:`SimulationInterrupted` carrying its path;
* corrupt, truncated, version-skewed, wrong-engine, wrong-config or
  wrong-trace checkpoints are rejected with :class:`CheckpointError`,
  never silently resumed;
* a snapshot stores the run's state, not its inputs: the state stream
  names the trace, its packets and its tenant system by reference, and a
  snapshot whose inputs do not rebuild exactly is refused.
"""

import dataclasses
import io
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import base_config, hypertrio_config
from repro.obs import Observability
from repro.obs import events as ev
from repro.runner.serialize import result_to_dict
from repro.sim import checkpoint as ckpt
from repro.sim.des import simulate_evented
from repro.sim.simulator import simulate
from repro.trace.constructor import construct_trace
from repro.trace.tenant import profile_by_name

from tests.golden_common import GOLDEN_PATH, GOLDEN_POINTS, compute_golden_point


def small_trace(benchmark="mediastream", tenants=4, packets=600,
                interleaving="RR1", seed=0):
    return construct_trace(
        profile_by_name(benchmark),
        num_tenants=tenants,
        packets_per_tenant=2_000,
        interleaving=interleaving,
        seed=seed,
        max_packets=packets,
    )


def result_bytes(result) -> bytes:
    """Canonical serialised form — equality here is byte-identity."""
    return json.dumps(result_to_dict(result), sort_keys=True).encode()


ENGINES = {"analytic": simulate, "event": simulate_evented}


@pytest.fixture(autouse=True)
def _clean_interrupt_flag():
    ckpt.clear_interrupt()
    yield
    ckpt.clear_interrupt()


# ----------------------------------------------------------------------
# Resume byte-identity
# ----------------------------------------------------------------------

class TestResumeIdentity:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_resume_is_byte_identical(self, engine, tmp_path):
        run = ENGINES[engine]
        trace = small_trace()
        config = hypertrio_config()
        baseline = run(config, trace, warmup_packets=100)
        path = tmp_path / "run.ckpt"
        checkpointed = run(
            config, small_trace(), warmup_packets=100,
            checkpoint_every=150, checkpoint_path=path,
        )
        # Periodic snapshotting is pure observation.
        assert result_bytes(checkpointed) == result_bytes(baseline)
        # The file left behind is the last periodic snapshot; replaying
        # the tail from it reproduces the run byte for byte.
        assert path.exists()
        resumed = run(config, None, resume_from=path)
        assert result_bytes(resumed) == result_bytes(baseline)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_resume_checks_the_given_trace(self, engine, tmp_path):
        run = ENGINES[engine]
        config = hypertrio_config()
        baseline = run(config, small_trace(), warmup_packets=100)
        path = tmp_path / "run.ckpt"
        run(config, small_trace(), warmup_packets=100,
            checkpoint_every=150, checkpoint_path=path)
        resumed = run(config, small_trace(), resume_from=path)
        assert result_bytes(resumed) == result_bytes(baseline)
        with pytest.raises(ckpt.CheckpointError, match="different trace"):
            run(config, small_trace(seed=1), resume_from=path)

    def test_snapshot_of_a_reused_trace_resumes_identically(self, tmp_path):
        """A trace an earlier run used (as sweeps' trace cache reuses
        them) already holds that run's host backings; the snapshot's log
        carries them too."""
        config = hypertrio_config()

        def used_trace():
            trace = small_trace()
            simulate(base_config(), trace, warmup_packets=100)
            return trace

        baseline = simulate(config, used_trace(), warmup_packets=100)
        path = tmp_path / "reused.ckpt"
        reused = used_trace()
        checkpointed = simulate(config, reused, warmup_packets=100,
                                checkpoint_every=150, checkpoint_path=path)
        assert result_bytes(checkpointed) == result_bytes(baseline)
        resumed = simulate(config, reused, resume_from=path)
        assert result_bytes(resumed) == result_bytes(baseline)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_resume_with_fault_plan(self, engine, tmp_path):
        from repro.faults import (
            FaultPlan,
            InvalidationStormSpec,
            LatencySpikeSpec,
            TranslationFaultSpec,
        )

        plan = FaultPlan(
            seed=7,
            translation_faults=(TranslationFaultSpec(probability=0.01),),
            invalidation_storms=(InvalidationStormSpec(sid=1, at_ns=50_000.0),),
            latency_spikes=(
                LatencySpikeSpec(
                    target="dram", start_ns=0.0, end_ns=200_000.0,
                    extra_ns=40.0,
                ),
            ),
        )
        run = ENGINES[engine]
        config = hypertrio_config()
        baseline = run(config, small_trace(), warmup_packets=50,
                       fault_plan=plan)
        path = tmp_path / "faulted.ckpt"
        run(config, small_trace(), warmup_packets=50, fault_plan=plan,
            checkpoint_every=200, checkpoint_path=path)
        resumed = run(config, None, resume_from=path)
        assert result_bytes(resumed) == result_bytes(baseline)

    def test_checkpoint_every_zero_writes_nothing(self, tmp_path):
        trace = small_trace(packets=300)
        baseline = simulate(hypertrio_config(), trace, warmup_packets=50)
        fresh = simulate(
            hypertrio_config(), small_trace(packets=300), warmup_packets=50,
            checkpoint_every=0,
        )
        assert result_bytes(fresh) == result_bytes(baseline)
        assert list(tmp_path.iterdir()) == []

    def test_save_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "run.ckpt"
        simulate(
            hypertrio_config(), small_trace(packets=300), warmup_packets=50,
            checkpoint_every=100, checkpoint_path=path,
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ckpt"]


# ----------------------------------------------------------------------
# Property: checkpoint anywhere, restore exactly
# ----------------------------------------------------------------------

CONFIGS = {
    # No prefetch, unpartitioned TLBs vs the full prefetch + partitioned
    # HyperTRIO design — the two ends of the state-richness spectrum.
    "base": base_config,
    "hypertrio": hypertrio_config,
}


class TestCheckpointProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        engine=st.sampled_from(sorted(ENGINES)),
        config_name=st.sampled_from(sorted(CONFIGS)),
        benchmark=st.sampled_from(["mediastream", "iperf3", "keyvalue"]),
        tenants=st.sampled_from([2, 4]),
        packets=st.integers(min_value=120, max_value=400),
        every=st.integers(min_value=17, max_value=97),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_restore_equals_uninterrupted(
        self, tmp_path_factory, engine, config_name, benchmark, tenants,
        packets, every, seed,
    ):
        ckpt.clear_interrupt()
        run = ENGINES[engine]
        config = CONFIGS[config_name]()
        make = lambda: small_trace(  # noqa: E731 - tiny local factory
            benchmark=benchmark, tenants=tenants, packets=packets, seed=seed
        )
        baseline = run(config, make(), warmup_packets=packets // 4)
        path = tmp_path_factory.mktemp("ckpt") / "point.ckpt"
        checkpointed = run(
            config, make(), warmup_packets=packets // 4,
            checkpoint_every=every, checkpoint_path=path,
        )
        assert result_bytes(checkpointed) == result_bytes(baseline)
        if path.exists():  # a barrier at a multiple of ``every`` was hit
            resumed = run(config, None, resume_from=path)
            assert result_bytes(resumed) == result_bytes(baseline)


# ----------------------------------------------------------------------
# Cooperative interrupt
# ----------------------------------------------------------------------

class TestInterrupt:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_interrupt_flushes_snapshot_then_resumes(self, engine, tmp_path):
        run = ENGINES[engine]
        config = hypertrio_config()
        baseline = run(config, small_trace(), warmup_packets=100)
        path = tmp_path / "stop.ckpt"

        def stop_after_first_save(packets_done, saved_path):
            ckpt.request_interrupt()

        with pytest.raises(ckpt.SimulationInterrupted) as info:
            run(
                config, small_trace(), warmup_packets=100,
                checkpoint_every=100, checkpoint_path=path,
                checkpoint_hook=stop_after_first_save,
            )
        stop = info.value
        assert stop.checkpoint_path == str(path)
        assert 0 < stop.packets_done < 600
        ckpt.clear_interrupt()
        resumed = run(config, None, resume_from=path)
        assert result_bytes(resumed) == result_bytes(baseline)

    def test_interrupted_exception_survives_pickling(self):
        error = ckpt.SimulationInterrupted(
            "stopped", packets_done=42, checkpoint_path="/tmp/x.ckpt"
        )
        clone = pickle.loads(pickle.dumps(error))
        assert clone.packets_done == 42
        assert clone.checkpoint_path == "/tmp/x.ckpt"
        assert str(clone) == "stopped"

    def test_signal_handlers_set_flag_and_restore(self):
        import os
        import signal

        previous = ckpt.install_signal_handlers(signals=(signal.SIGUSR1,))
        try:
            assert not ckpt.interrupt_requested()
            os.kill(os.getpid(), signal.SIGUSR1)
            assert ckpt.interrupt_requested()
        finally:
            ckpt.restore_signal_handlers(previous)
        assert signal.getsignal(signal.SIGUSR1) == previous[signal.SIGUSR1]


# ----------------------------------------------------------------------
# Validation and rejection
# ----------------------------------------------------------------------

class TestCheckpointValidation:
    def make_checkpoint(self, tmp_path, engine="analytic"):
        run = ENGINES[engine]
        path = tmp_path / "valid.ckpt"
        run(
            hypertrio_config(), small_trace(packets=200), warmup_packets=50,
            checkpoint_every=100, checkpoint_path=path,
        )
        assert path.exists()
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(ckpt.CheckpointError, match="not found"):
            ckpt.resume_simulation(tmp_path / "nope.ckpt")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ckpt.CheckpointError, match="bad magic"):
            ckpt.SimulationCheckpoint.load(path)

    def test_truncated_payload(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ckpt.CheckpointError, match="failed to read"):
            ckpt.SimulationCheckpoint.load(path)

    def test_version_skew(self, tmp_path):
        path = tmp_path / "future.ckpt"
        payload = {"version": ckpt.CHECKPOINT_VERSION + 1, "engine": "analytic",
                   "packets_done": 0, "config": {}, "state": {}}
        with open(path, "wb") as handle:
            handle.write(ckpt.CHECKPOINT_MAGIC)
            pickle.dump(payload, handle)
        with pytest.raises(ckpt.CheckpointError, match="format version"):
            ckpt.SimulationCheckpoint.load(path)

    def test_version_1_file_refused(self, tmp_path):
        """A version-1 file held the whole trace in its one payload."""
        path = tmp_path / "v1.ckpt"
        payload = {"version": 1, "engine": "analytic", "packets_done": 0,
                   "config": {}, "state": {"sim": None}}
        with open(path, "wb") as handle:
            handle.write(ckpt.CHECKPOINT_MAGIC)
            pickle.dump(payload, handle)
        with pytest.raises(ckpt.CheckpointError, match="format version 1;"):
            ckpt.SimulationCheckpoint.load(path)

    def test_engine_mismatch(self, tmp_path):
        path = self.make_checkpoint(tmp_path, engine="analytic")
        with pytest.raises(ckpt.CheckpointError, match="analytic"):
            ckpt.resume_simulation(path, expect_engine="event")

    def test_config_mismatch_names_differing_fields(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        with pytest.raises(ckpt.CheckpointError, match="differs in"):
            ckpt.resume_simulation(
                path, expect_engine="analytic", expect_config=base_config()
            )

    def test_policy_requires_path(self):
        with pytest.raises(ckpt.CheckpointError, match="requires a checkpoint"):
            ckpt.CheckpointPolicy(every=10, path=None)
        with pytest.raises(ckpt.CheckpointError, match=">= 0"):
            ckpt.CheckpointPolicy(every=-1)


# ----------------------------------------------------------------------
# Snapshot format: state by value, inputs rebuilt and checked
# ----------------------------------------------------------------------

#: Classes of the run's inputs, which a state stream must never contain.
INPUT_CLASSES = {
    ("repro.mem.pagetable", "PageTable"),
    ("repro.mem.pagetable", "PageTableNode"),
    ("repro.mem.pagetable", "AddressSpace"),
    ("repro.trace.workload", "TenantWorkload"),
    ("repro.trace.workload", "HyperTenantSystem"),
    ("repro.mem.walker", "TwoDimensionalWalker"),
}


class _InputRefusingUnpickler(pickle.Unpickler):
    def __init__(self, handle, trace):
        super().__init__(handle)
        self._objects = ckpt.input_references(trace)

    def find_class(self, module, name):
        if (module, name) in INPUT_CLASSES:
            raise pickle.UnpicklingError(f"state stream holds {module}.{name}")
        return super().find_class(module, name)

    def persistent_load(self, pid):
        return self._objects[pid]


def read_parts(path):
    """``(header, state stream bytes)`` of a snapshot file."""
    blob = path.read_bytes()
    assert blob.startswith(ckpt.CHECKPOINT_MAGIC)
    stream = io.BytesIO(blob[len(ckpt.CHECKPOINT_MAGIC):])
    header = pickle.load(stream)
    return header, stream.read()


def write_parts(path, header, state):
    path.write_bytes(
        ckpt.CHECKPOINT_MAGIC + pickle.dumps(header, protocol=5) + state
    )


class TestSnapshotFormat:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_state_stream_holds_no_inputs(self, engine, tmp_path):
        path = tmp_path / "state.ckpt"
        ENGINES[engine](
            hypertrio_config(), small_trace(), warmup_packets=100,
            checkpoint_every=150, checkpoint_path=path,
        )
        header, state = read_parts(path)
        assert header["version"] == 2 and header["inputs"]["packets"] is None
        trace = header["inputs"]["recipe"].build()
        roots = _InputRefusingUnpickler(io.BytesIO(state), trace).load()
        assert sorted(roots) == ["loop", "router", "sim"]
        assert roots["sim"].trace is trace
        assert roots["router"]._packets is trace.packets

    def test_service_state_stream_holds_no_inputs(self, tmp_path):
        from repro.service.engine import ServiceEngine

        engine = ServiceEngine(hypertrio_config(), small_trace())
        engine.submit_batch(small_trace().packets[:300])
        path = engine.save_checkpoint(tmp_path / "svc.ckpt")
        header, state = read_parts(path)
        trace = header["inputs"]["recipe"].build()
        roots = _InputRefusingUnpickler(io.BytesIO(state), trace).load()
        assert roots["service"].sim.trace is trace

    def test_dropped_backing_refused_by_allocator_cursor(self, tmp_path):
        path = tmp_path / "run.ckpt"
        simulate(base_config(), small_trace(), warmup_packets=100,
                 checkpoint_every=450, checkpoint_path=path)
        header, state = read_parts(path)
        backings = header["inputs"]["backings"]
        assert backings
        del backings[len(backings) // 2]
        write_parts(path, header, state)
        with pytest.raises(ckpt.CheckpointError, match="allocator cursor"):
            ckpt.resume_simulation(path)

    def test_changed_recipe_seed_refused_by_input_digest(self, tmp_path):
        path = tmp_path / "run.ckpt"
        simulate(base_config(), small_trace(interleaving="RAND1"),
                 warmup_packets=100, checkpoint_every=450,
                 checkpoint_path=path)
        header, state = read_parts(path)
        recipe = header["inputs"]["recipe"]
        header["inputs"]["recipe"] = dataclasses.replace(
            recipe, seed=recipe.seed + 1
        )
        write_parts(path, header, state)
        with pytest.raises(ckpt.CheckpointError, match="input digest"):
            ckpt.resume_simulation(path)


# ----------------------------------------------------------------------
# Observability integration
# ----------------------------------------------------------------------

class TestCheckpointEvents:
    def test_save_and_resume_events(self, tmp_path):
        path = tmp_path / "traced.ckpt"
        obs = Observability.recording()
        simulate(
            hypertrio_config(), small_trace(packets=300), warmup_packets=50,
            observability=obs,
            checkpoint_every=100, checkpoint_path=path,
        )
        saves = [e for e in obs.tracer.events if e.kind == ev.CHECKPOINT_SAVE]
        assert len(saves) == 3
        assert [e.args["packets_done"] for e in saves] == [100, 200, 300]

        snapshot = ckpt.SimulationCheckpoint.load(path)
        snapshot.resume()
        tracer = snapshot.state["sim"]._tracer
        kinds = [e.kind for e in tracer.events]
        assert ev.CHECKPOINT_RESUME in kinds


# ----------------------------------------------------------------------
# Golden pinning: checkpointing cannot move any pinned number
# ----------------------------------------------------------------------

class TestGoldenWithCheckpoints:
    @pytest.mark.parametrize("name", sorted(GOLDEN_POINTS))
    def test_checkpointed_run_matches_pinned_golden(self, name, tmp_path):
        """Re-run each golden point *with snapshots enabled* and compare
        against the pinned pre-checkpoint expectations, field by field."""
        spec = GOLDEN_POINTS[name]
        pinned = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        fresh = compute_golden_point(
            spec,
            checkpoint_every=max(1, spec["packets"] // 3),
            checkpoint_path=tmp_path / f"{name}.ckpt",
        )
        fresh = json.loads(json.dumps(fresh))
        assert fresh == pinned["points"][name], name

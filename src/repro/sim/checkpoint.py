"""Crash-safe checkpoint/restore of in-flight simulation runs.

A :class:`SimulationCheckpoint` snapshots a live simulator at a *packet
barrier* — the instant after one packet fully dispatched and the cursor
advanced.  Everything the run loop will ever touch again is reachable
from three roots, all plain picklable Python data:

* the simulator itself (fabric, caches, PTB heaps, prefetch buffer and
  SID-predictor history, fault-injector RNG, telemetry window, counters),
* the :class:`~repro.sim.engine.PacketRouter` (an index cursor into the
  trace plus per-device overflow queues),
* the loop-state dataclass (``_AnalyticLoop`` or the event twin's
  ``_EventLoop``, which carries the DES event queue).

Pickling the three together in one protocol-5 stream preserves object
identity across the graph (engines referenced from both the simulator
and the loop's ``active`` list restore as the *same* objects), so a
resumed run re-enters ``_run_loop`` with state bit-identical to the
interrupted one — floats round-trip exactly, ``random.Random`` restores
its Mersenne state, heaps and insertion-ordered dicts keep their order.
``tests/test_checkpoint.py`` pins byte-identity of resumed results for
both engines.

The stream pickles each state object by a fixed list of attribute names
(:func:`state_fields`: a dataclass's fields, or the ``_state_fields``
tuple a plain class declares), read with plain attribute loads and
restored with ``object.__setattr__``.  Default pickling asks the object
for its ``__getstate__``, and on CPython 3.11 that materialises its
instance ``__dict__``: every later attribute and method access on it
then takes a slower path, so a run that saved once stayed slower for the
rest of its life, and a resumed run started out slow (DESIGN.md
section 6).

The roots also reach the run's inputs: the
:class:`~repro.trace.constructor.HyperTrace`, its packet list and its
tenant system (page tables and walkers).  Those are far larger than the
state and do not change in a run, with one exception, so the state
stream writes them as persistent references and the snapshot stores how
to rebuild them instead:

* the trace's :class:`~repro.trace.constructor.TraceRecipe` (the
  construction arguments) and a SHA-256 of its packets — plus the packets
  themselves only when they were swapped in after construction;
* the tenant system's backing log.  Walks back host pages on demand from
  an allocator all tenants share, so the host page tables are run state;
  replaying the ``(sid, gpa)`` log on a rebuilt system reproduces them,
  and the host allocator cursor is recorded to check the replay.

``load`` rebuilds the trace, checks the digest, replays the log, checks
the cursor, and only then unpickles the state against the rebuilt
objects.  Walker memos are not restored: once the page tables match they
are a pure cache.

Writes are atomic and durable: the stream goes to a same-directory temp
file, is fsync'd, and then ``os.replace``\\ s the target, so a crash
mid-save leaves either the previous snapshot or the new one — never a
torn file.  ``load`` verifies a magic prefix and a format version before
trusting the payload.

The module also owns the cooperative-interrupt flag: a SIGTERM/SIGINT
handler (or the runner's watchdog) calls :func:`request_interrupt`; the
run loop notices at the next packet barrier, flushes a final snapshot
and raises :class:`SimulationInterrupted` carrying the snapshot path.
"""

from __future__ import annotations

import copyreg
import dataclasses
import os
import pickle
import signal
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.trace.constructor import HyperTrace
from repro.trace.records import compute_trace_stats

CHECKPOINT_MAGIC = b"REPRO-CKPT\n"
CHECKPOINT_VERSION = 7

#: Why each earlier format version cannot be read, quoted in the refusal.
_OLD_VERSIONS = {
    1: "it pickled the whole trace",
    2: "its stream pickles result and simulator classes this build no "
       "longer has",
    3: "its stream pickles every state object through its __dict__",
    4: "its stream pickles each cache's sets as three parallel lists of "
       "entries, policies and pins, not one object per set",
    5: "its LFU sets carry no index of their count-0/1 keys",
    6: "its caches pickle a set-index function, not a partition geometry, "
       "and its context cache is keyed by bare SIDs",
}

PathLike = Union[str, os.PathLike]


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, corrupt, or from the wrong run."""


def _rebuild_interrupted(message, packets_done, checkpoint_path):
    """Unpickle helper for :class:`SimulationInterrupted` (see __reduce__)."""
    return SimulationInterrupted(
        message, packets_done=packets_done, checkpoint_path=checkpoint_path
    )


class SimulationInterrupted(RuntimeError):
    """Raised at a packet barrier after an interrupt flushed a snapshot.

    Carries where the run stopped and where the snapshot landed so
    callers (the CLI, the runner worker) can report and later resume.
    Defines ``__reduce__`` because the runner ships it across the
    process-pool boundary.
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
            _rebuild_interrupted,
            (self.args[0] if self.args else "", self.packets_done,
             self.checkpoint_path),
        )


# ----------------------------------------------------------------------
# Cooperative interrupt flag
# ----------------------------------------------------------------------
_interrupt_requested = False


def request_interrupt() -> None:
    """Ask the running simulation to stop at its next packet barrier."""
    global _interrupt_requested
    _interrupt_requested = True


def clear_interrupt() -> None:
    global _interrupt_requested
    _interrupt_requested = False


def interrupt_requested() -> bool:
    return _interrupt_requested


def install_signal_handlers(signals=(signal.SIGTERM, signal.SIGINT)):
    """Route SIGTERM/SIGINT to :func:`request_interrupt`.

    Returns ``{signum: previous_handler}`` so callers can restore.  The
    handler only sets a flag — all snapshot I/O happens synchronously at
    the next packet barrier, never inside the signal frame.
    """
    previous = {}
    for signum in signals:
        previous[signum] = signal.signal(signum, _signal_handler)
    return previous


def restore_signal_handlers(previous) -> None:
    for signum, handler in previous.items():
        signal.signal(signum, handler)


def _signal_handler(signum, frame):  # pragma: no cover - signal frame
    request_interrupt()


# ----------------------------------------------------------------------
# Policy and snapshot
# ----------------------------------------------------------------------
@dataclass
class CheckpointPolicy:
    """When and where the run loop snapshots.

    ``every`` is in processed packets; 0 disables periodic snapshots but
    (with a ``path``) still flushes on interrupt.  ``hook`` is called as
    ``hook(packets_done, path_str)`` after every successful save — the
    runner uses it to stamp worker heartbeats.
    """

    every: int = 0
    path: Optional[Path] = None
    hook: Optional[Callable[[int, str], None]] = None

    def __post_init__(self):
        if self.every < 0:
            raise CheckpointError(f"checkpoint_every must be >= 0, got {self.every}")
        if self.every > 0 and self.path is None:
            raise CheckpointError("checkpoint_every > 0 requires a checkpoint path")
        if self.path is not None:
            self.path = Path(self.path)

    def due(self, processed: int) -> bool:
        return self.every > 0 and processed > 0 and processed % self.every == 0


@dataclass
class SimulationCheckpoint:
    """One versioned snapshot of a simulation at a packet barrier.

    ``state`` holds the roots the run loop will touch again; ``trace`` is
    the run's input, which the state refers to and the file rebuilds
    rather than stores.
    """

    engine: str
    packets_done: int
    config: Dict[str, Any]
    state: Dict[str, Any]
    trace: HyperTrace
    version: int = CHECKPOINT_VERSION

    # -- persistence ---------------------------------------------------
    def save(self, path: PathLike) -> Path:
        """Atomically write the snapshot to ``path`` (tmp + fsync + replace).

        The file is the magic, a pickled header (format version, engine,
        packets done, config and the inputs' rebuild description), then
        the state stream.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "version": self.version,
            "engine": self.engine,
            "packets_done": self.packets_done,
            "config": self.config,
            "inputs": _describe_inputs(self.trace),
        }
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(CHECKPOINT_MAGIC)
                pickle.dump(header, handle, protocol=pickle.HIGHEST_PROTOCOL)
                _StatePickler(handle, self.trace).dump(self.state)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        _fsync_dir(path.parent)
        return path

    @classmethod
    def load(cls, path: PathLike) -> "SimulationCheckpoint":
        """Read and validate a snapshot written by :meth:`save`.

        Rebuilds and checks the inputs before it unpickles any state, so
        a snapshot whose inputs no longer rebuild raises
        :class:`CheckpointError` without resuming anything.
        """
        path = Path(path)
        if not path.exists():
            raise CheckpointError(f"checkpoint not found: {path}")
        try:
            with open(path, "rb") as handle:
                magic = handle.read(len(CHECKPOINT_MAGIC))
                if magic != CHECKPOINT_MAGIC:
                    raise CheckpointError(
                        f"{path} is not a simulation checkpoint "
                        f"(bad magic {magic!r})"
                    )
                header = pickle.load(handle)
                version = header.get("version")
                if version != CHECKPOINT_VERSION:
                    reason = _OLD_VERSIONS.get(version)
                    raise CheckpointError(
                        f"checkpoint {path} has format version {version}; "
                        f"this build reads version {CHECKPOINT_VERSION}"
                        + (f" ({reason})" if reason else "")
                    )
                trace = _rebuild_inputs(path, header["inputs"])
                state = _StateUnpickler(handle, trace).load()
        except CheckpointError:
            raise
        except Exception as exc:
            raise CheckpointError(f"failed to read checkpoint {path}: {exc}") from exc
        return cls(
            engine=header["engine"],
            packets_done=header["packets_done"],
            config=header["config"],
            state=state,
            trace=trace,
            version=version,
        )

    # -- resumption ----------------------------------------------------
    def resume(
        self,
        checkpoint_every: int = 0,
        checkpoint_path: Optional[PathLike] = None,
        checkpoint_hook: Optional[Callable[[int, str], None]] = None,
    ):
        """Re-enter the run loop from this snapshot and run to completion.

        Continued checkpointing is independent of how the snapshot was
        produced: pass ``checkpoint_every``/``checkpoint_path`` to keep
        snapshotting (e.g. to survive a second crash), or neither to just
        finish the run.
        """
        sim = self.state["sim"]
        router = self.state["router"]
        loop = self.state["loop"]
        policy = sim._checkpoint_policy(
            checkpoint_every, checkpoint_path, checkpoint_hook
        )
        if sim._tracer is not None:
            from repro.obs import events as ev

            sim._tracer.emit(
                ev.CHECKPOINT_RESUME,
                loop.last_completion,
                packets_done=self.packets_done,
            )
        return sim._run_loop(router, loop, policy)


def _fsync_dir(directory: Path) -> None:
    """Best-effort directory fsync so the rename itself is durable."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# Inputs: described on save, rebuilt and checked on load
# ----------------------------------------------------------------------
def input_references(trace: HyperTrace) -> Dict[str, Any]:
    """The input objects the state stream names instead of pickling."""
    return {"trace": trace, "packets": trace.packets, "system": trace.system}


def _describe_inputs(trace: HyperTrace) -> Dict[str, Any]:
    """What :func:`_rebuild_inputs` needs to rebuild and check ``trace``."""
    if trace.recipe is None:
        raise CheckpointError(
            "cannot checkpoint a trace that TraceConstructor.construct "
            "did not build: there is no recipe to rebuild it from"
        )
    system = trace.system
    return {
        "recipe": trace.recipe,
        "packets_digest": trace.packets_digest(),
        "packets": None if trace.packets_from_recipe else trace.packets,
        "backings": system.backing_log,
        "host_frames": system.host_allocator.frames_allocated,
    }


def _rebuild_inputs(path: Path, inputs: Dict[str, Any]) -> HyperTrace:
    """Rebuild the trace ``inputs`` describe and check it is the run's."""
    trace = inputs["recipe"].build()
    packets = inputs["packets"]
    if packets is not None:
        # Swapped in after construction, as the CLI's --trace-file does.
        trace = dataclasses.replace(
            trace, packets=packets, stats=compute_trace_stats(packets)
        )
    if trace.packets_digest() != inputs["packets_digest"]:
        raise CheckpointError(
            f"checkpoint {path}: the trace rebuilt from its recipe does not "
            f"match its input digest (packets digest "
            f"{trace.packets_digest()[:16]}, recorded "
            f"{inputs['packets_digest'][:16]})"
        )
    system = trace.system
    backings = inputs["backings"]
    system.replay_backings(backings)
    frames = system.host_allocator.frames_allocated
    if frames != inputs["host_frames"]:
        raise CheckpointError(
            f"checkpoint {path}: replaying its {len(backings)} host backings "
            f"leaves the host allocator cursor at frame {frames}, not the "
            f"recorded {inputs['host_frames']}"
        )
    return trace


_ABSENT = object()


def state_fields(cls: type) -> Optional[Tuple[str, ...]]:
    """The instance attributes the state stream pickles a ``cls`` object by.

    A plain class names them in a ``_state_fields`` tuple (a subclass
    extends its base's); a dataclass's are its fields.  ``None`` for
    every other type: those pickle as usual.
    """
    fields = getattr(cls, "_state_fields", None)
    if fields is None and dataclasses.is_dataclass(cls):
        fields = tuple(field.name for field in dataclasses.fields(cls))
    return fields


def _restore_fields(obj, state: Dict[str, Any]) -> None:
    """Unpickle helper: set the attributes :class:`_StatePickler` wrote."""
    for name, value in state.items():
        object.__setattr__(obj, name, value)


class _StatePickler(pickle.Pickler):
    """Pickles the state roots, naming the run's inputs by reference.

    An object whose type has :func:`state_fields` is written as its class
    and a ``{name: value}`` dict of the attributes it has, and rebuilt by
    ``cls.__new__`` plus :func:`_restore_fields`: neither side touches
    its ``__dict__``.
    """

    def __init__(self, file, trace: HyperTrace):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._names = {
            id(obj): name for name, obj in input_references(trace).items()
        }
        self._fields: Dict[type, Optional[Tuple[str, ...]]] = {}

    def persistent_id(self, obj):
        return self._names.get(id(obj))

    def reducer_override(self, obj):
        cls = type(obj)
        try:
            fields = self._fields[cls]
        except KeyError:
            fields = self._fields[cls] = state_fields(cls)
        if fields is None:
            return NotImplemented
        state = {}
        for name in fields:
            value = getattr(obj, name, _ABSENT)
            if value is not _ABSENT:
                state[name] = value
        return copyreg.__newobj__, (cls,), state, None, None, _restore_fields


class _StateUnpickler(pickle.Unpickler):
    """Unpickles the state roots against rebuilt inputs."""

    def __init__(self, file, trace: HyperTrace):
        super().__init__(file)
        self._objects = input_references(trace)

    def persistent_load(self, pid):
        try:
            return self._objects[pid]
        except KeyError:
            raise pickle.UnpicklingError(
                f"unknown input reference {pid!r}"
            ) from None


def check_config(path: PathLike, written: Dict[str, Any], expect_config) -> None:
    """Refuse a snapshot whose config ``written`` is not ``expect_config``.

    No check when ``expect_config`` is ``None``.  The error names every
    differing top-level field.
    """
    if expect_config is None:
        return
    from repro.core.config_io import config_to_dict

    expected = config_to_dict(expect_config)
    if expected != written:
        mismatched = sorted(
            key for key in set(expected) | set(written)
            if expected.get(key) != written.get(key)
        )
        raise CheckpointError(
            f"checkpoint {path} was written for a different config "
            f"(differs in: {', '.join(mismatched)})"
        )


def resume_simulation(
    path: PathLike,
    expect_engine: Optional[str] = None,
    expect_config=None,
    expect_trace: Optional[HyperTrace] = None,
    checkpoint_every: int = 0,
    checkpoint_path: Optional[PathLike] = None,
    checkpoint_hook: Optional[Callable[[int, str], None]] = None,
):
    """Load ``path`` and run the snapshotted simulation to completion.

    ``expect_engine`` / ``expect_config`` / ``expect_trace`` cross-check
    that the caller is resuming the run it thinks it is: a snapshot from
    the other engine, from a different architecture or over different
    packets raises :class:`CheckpointError` instead of silently producing
    numbers for the wrong experiment.  ``expect_trace`` is only compared:
    the run always continues on the trace rebuilt from the snapshot,
    because a trace an earlier run used already holds that run's host
    backings.  When continued checkpointing is requested
    (``checkpoint_every`` > 0) without an explicit ``checkpoint_path``,
    snapshots keep going to the file being resumed.
    """
    snapshot = SimulationCheckpoint.load(path)
    if expect_engine is not None and snapshot.engine != expect_engine:
        raise CheckpointError(
            f"checkpoint {path} was written by the {snapshot.engine!r} engine; "
            f"cannot resume it as {expect_engine!r}"
        )
    check_config(path, snapshot.config, expect_config)
    if expect_trace is not None:
        expected = expect_trace.packets_digest()
        written = snapshot.trace.packets_digest()
        if expected != written:
            raise CheckpointError(
                f"checkpoint {path} was written for a different trace "
                f"(packets digest {written[:16]}, given trace {expected[:16]})"
            )
    if checkpoint_every > 0 and checkpoint_path is None:
        checkpoint_path = path
    return snapshot.resume(
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        checkpoint_hook=checkpoint_hook,
    )

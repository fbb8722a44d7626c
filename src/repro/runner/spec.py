"""Job model: one sweep point as a pure, picklable, content-addressed job.

A :class:`JobSpec` is everything a worker process needs to reproduce one
simulation — the architecture (as plain data, via
:mod:`repro.core.config_io`), the workload coordinates, and the scaling
knobs that affect the result.  Deliberately *excluded* is anything that
does not change the outcome (e.g. the name of the
:class:`~repro.analysis.scale.RunScale` preset, or which other points the
surrounding sweep contains), so the content hash identifies the result
itself: two sweeps that share a point share its cache entry.

Hashes are computed over canonical JSON (sorted keys, no whitespace) with
SHA-256 and truncated to 16 hex characters; they are stable across
processes, interpreter restarts, and platforms.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional

from repro.analysis.scale import RunScale
from repro.core.config import ArchConfig
from repro.core.config_io import config_from_dict, config_to_dict

#: Truncated SHA-256 length (64 bits: collision-safe for any plausible run).
_HASH_CHARS = 16


@dataclass(frozen=True)
class JobSpec:
    """A pure description of one sweep point.

    ``config`` is the :class:`ArchConfig` serialised to plain data;
    ``max_packets`` / ``packets_per_tenant`` / ``warmup_fraction`` are the
    three :class:`RunScale` knobs that influence a single point.
    """

    config: Dict[str, Any]
    benchmark: str
    num_tenants: int
    interleaving: str
    max_packets: int
    packets_per_tenant: int = 200_000
    warmup_fraction: float = 0.25
    seed: int = 0
    native: bool = False
    #: Serialised :class:`~repro.faults.plan.FaultPlan` (via
    #: ``plan_to_dict``) or ``None``.  Part of the content hash when set,
    #: so a faulted point never shares a cache entry with its fault-free
    #: twin; omitted from serialisation when ``None`` so every pre-fault
    #: hash is unchanged.
    fault_plan: Optional[Dict[str, Any]] = None

    @classmethod
    def from_point(
        cls,
        config: ArchConfig,
        benchmark: str,
        num_tenants: int,
        interleaving: str,
        scale: RunScale,
        *,
        seed: int = 0,
        native: bool = False,
        fault_plan=None,
    ) -> "JobSpec":
        """Build the spec for ``run_point(config, benchmark, ...)``.

        ``fault_plan`` accepts a :class:`~repro.faults.plan.FaultPlan`
        (serialised here) or an already-serialised plan dict.
        """
        if fault_plan is not None and not isinstance(fault_plan, dict):
            from repro.faults.plan import plan_to_dict

            fault_plan = plan_to_dict(fault_plan)
        return cls(
            config=config_to_dict(config),
            benchmark=benchmark,
            num_tenants=num_tenants,
            interleaving=interleaving,
            max_packets=scale.max_packets,
            packets_per_tenant=scale.packets_per_tenant,
            warmup_fraction=scale.warmup_fraction,
            seed=seed,
            native=native,
            fault_plan=fault_plan,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        document = {
            "config": dict(self.config),
            "benchmark": self.benchmark,
            "num_tenants": self.num_tenants,
            "interleaving": self.interleaving,
            "max_packets": self.max_packets,
            "packets_per_tenant": self.packets_per_tenant,
            "warmup_fraction": self.warmup_fraction,
            "seed": self.seed,
            "native": self.native,
        }
        if self.fault_plan is not None:
            document["fault_plan"] = dict(self.fault_plan)
        return document

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "JobSpec":
        """Inverse of :meth:`to_dict`.

        Raises :class:`ValueError` naming any key this version does not
        know, e.g. the ``engine`` key older versions wrote for points run
        on a since-retired simulator engine.
        """
        unknown = sorted(set(raw) - {known.name for known in fields(cls)})
        if unknown:
            raise ValueError(
                f"job spec has unknown keys {', '.join(unknown)}; it was "
                f"written by a version this one cannot run"
            )
        return cls(**raw)

    def canonical_json(self) -> str:
        """Deterministic serialisation (the hash input)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @property
    def spec_hash(self) -> str:
        """Stable content hash identifying this job's result."""
        digest = hashlib.sha256(self.canonical_json().encode("utf-8"))
        return digest.hexdigest()[:_HASH_CHARS]

    # ------------------------------------------------------------------
    def arch_config(self) -> ArchConfig:
        """Reconstruct the :class:`ArchConfig` (raises on malformed data)."""
        return config_from_dict(dict(self.config))

    def run_scale(self) -> RunScale:
        """A single-point :class:`RunScale` carrying this spec's knobs."""
        return RunScale(
            name="job",
            tenant_counts=(self.num_tenants,),
            interleavings=(self.interleaving,),
            benchmarks=(self.benchmark,),
            max_packets=self.max_packets,
            packets_per_tenant=self.packets_per_tenant,
            warmup_fraction=self.warmup_fraction,
        )

    @property
    def label(self) -> str:
        """Short human-readable identity for progress lines."""
        name = self.config.get("name", "?") if isinstance(self.config, dict) else "?"
        return (
            f"{name}/{self.benchmark}/{self.num_tenants}t/"
            f"{self.interleaving}/s{self.seed}"
        )


@dataclass
class JobResult:
    """Outcome of one job attempt chain (success or exhausted failure).

    ``result`` holds the :class:`~repro.core.results.SimulationResult`
    serialised via :mod:`repro.runner.serialize`; ``trace_cache`` holds the
    worker's cumulative per-process trace-cache counters at completion
    time; ``metrics`` holds the compact per-job observability summary
    (latency percentiles, drop rate — see
    :func:`repro.runner.worker.job_metrics_summary`) that the run manifest
    aggregates.  ``cached`` is a per-invocation flag (never persisted): it
    marks results answered from the store without executing anything.

    ``exit_cause`` records *why* the job ended the way it did
    (``completed`` / ``interrupted`` / ``deadline`` / ``watchdog-killed``
    / ``failed`` — see :mod:`repro.runner.supervise`); ``rss_peak_kb`` is
    the worker's peak resident set while the job ran (supervised jobs
    only).  ``interrupted`` records, like failures, are persisted for the
    audit trail but never memoized, so a resumed run re-executes them —
    picking up from the job's on-disk checkpoint when one exists.
    """

    spec_hash: str
    status: str  # "ok" | "failed" | "interrupted"
    spec: Dict[str, Any] = field(default_factory=dict)
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    attempts: int = 1
    duration_s: float = 0.0
    worker_pid: Optional[int] = None
    trace_cache: Optional[Dict[str, int]] = None
    metrics: Optional[Dict[str, Any]] = None
    cached: bool = False
    exit_cause: Optional[str] = None
    rss_peak_kb: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def interrupted(self) -> bool:
        return self.status == "interrupted"

    def to_dict(self) -> Dict[str, Any]:
        document = {
            "spec_hash": self.spec_hash,
            "status": self.status,
            "spec": self.spec,
            "result": self.result,
            "error": self.error,
            "attempts": self.attempts,
            "duration_s": self.duration_s,
            "worker_pid": self.worker_pid,
            "trace_cache": self.trace_cache,
            "metrics": self.metrics,
        }
        # Optional supervision fields are omitted when unset so records
        # from unsupervised runs serialise exactly as before these fields
        # existed.
        if self.exit_cause is not None:
            document["exit_cause"] = self.exit_cause
        if self.rss_peak_kb is not None:
            document["rss_peak_kb"] = self.rss_peak_kb
        return document

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "JobResult":
        return cls(
            spec_hash=raw["spec_hash"],
            status=raw["status"],
            spec=raw.get("spec") or {},
            result=raw.get("result"),
            error=raw.get("error"),
            attempts=raw.get("attempts", 1),
            duration_s=raw.get("duration_s", 0.0),
            worker_pid=raw.get("worker_pid"),
            trace_cache=raw.get("trace_cache"),
            metrics=raw.get("metrics"),
            exit_cause=raw.get("exit_cause"),
            rss_peak_kb=raw.get("rss_peak_kb"),
        )

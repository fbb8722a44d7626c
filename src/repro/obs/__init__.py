"""End-to-end observability for the translation path.

The unified telemetry pipeline (see docs/OBSERVABILITY.md):

* **event tracing** (:mod:`repro.obs.tracer`, :mod:`repro.obs.events`) —
  per-request lifecycle events with deterministic sampling, exportable as
  Perfetto-compatible Chrome trace JSON or JSONL.  The service records
  its parented wire-to-engine request tree as span events of the same
  tracer, linked to the client through the protocol's ``trace`` field;
* **metrics** (:mod:`repro.obs.metrics`) — counters, gauges, log-bucketed
  latency histograms keyed by structure and SID, plus cross-tenant
  eviction attribution; rendered live as Prometheus text by
  :mod:`repro.obs.prom` and aggregated over runner fleets by
  :mod:`repro.obs.fleet`;
* **SLO watching** (:mod:`repro.obs.slo`) — declarative rules over the
  live registry, emitting ``slo.*`` events and optionally driving
  service admission backpressure;
* **surfacing** (:mod:`repro.obs.export`) — file exporters consumed by the
  ``repro-sim`` CLI and the parallel runner.

The simulator accepts an :class:`Observability` bundle::

    obs = Observability.recording(sample_rate=1.0, seed=0)
    result = HyperSimulator(config, trace, observability=obs).run()
    write_trace(obs.tracer.events, "run.trace.json")     # Perfetto
    write_metrics("run.metrics.json", obs, result)

Off means ``None``: a layer the bundle does not carry is ``None``, and
``Observability()`` (or simply ``observability=None``) leaves the hot
path free of tracer, span and metrics calls — the simulator resolves the
layers once at attach time, and ``benchmarks/bench_obs_overhead.py``
checks that an empty bundle makes no more calls than none.
"""

from __future__ import annotations

from typing import Optional

from repro.obs import events
from repro.obs.export import (
    METRICS_SCHEMA,
    metrics_document,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_metrics,
    write_trace,
)
from repro.obs.metrics import (
    Counter,
    EvictionAttribution,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    latency_bucket,
    bucket_bounds,
    bucket_midpoint,
    percentile_from_buckets,
)
from repro.obs.tracer import RecordingTracer, SpanContext, TraceEvent

__all__ = [
    "Observability",
    "RecordingTracer",
    "TraceEvent",
    "SpanContext",
    "MetricsRegistry",
    "LatencyHistogram",
    "Counter",
    "Gauge",
    "EvictionAttribution",
    "latency_bucket",
    "bucket_bounds",
    "bucket_midpoint",
    "percentile_from_buckets",
    "events",
    "metrics_document",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_metrics",
    "write_trace",
    "METRICS_SCHEMA",
]


class Observability:
    """Bundle of the instruments a simulator or service can carry.

    Each layer — ``tracer``, ``metrics``, ``evictions`` and ``spans`` — is
    ``None`` when it is off.  With every layer off the hot path is
    identical to running with no observability at all.
    """

    def __init__(
        self,
        tracer: Optional[RecordingTracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        evictions: Optional[EvictionAttribution] = None,
        spans: Optional[RecordingTracer] = None,
    ):
        self.tracer = tracer
        self.metrics = metrics
        self.evictions = evictions
        self.spans = spans

    # ------------------------------------------------------------------
    @classmethod
    def recording(
        cls,
        sample_rate: float = 1.0,
        seed: int = 0,
        max_events: int = 2_000_000,
    ) -> "Observability":
        """Event tracing, registry, and attribution (spans off)."""
        return cls(
            tracer=RecordingTracer(
                sample_rate=sample_rate, seed=seed, max_events=max_events
            ),
            metrics=MetricsRegistry(),
            evictions=EvictionAttribution(),
        )

    @classmethod
    def metrics_only(cls) -> "Observability":
        """Metrics and eviction attribution without event tracing."""
        return cls(metrics=MetricsRegistry(), evictions=EvictionAttribution())

    @classmethod
    def profiling(cls, metrics: bool = True) -> "Observability":
        """The service-telemetry bundle: request spans + metrics.

        This is what ``repro-sim serve --span-out`` attaches: a span
        tracer for the wire-to-engine request tree and the registry
        behind ``stats``/prom export.  The simulator's event tracing
        stays off.
        """
        return cls(
            metrics=MetricsRegistry() if metrics else None,
            spans=RecordingTracer(max_events=1_000_000),
        )

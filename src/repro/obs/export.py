"""Exporters: Chrome trace-event / Perfetto JSON, JSONL, and metrics files.

**Chrome trace format** (loadable by Perfetto's legacy importer and
``chrome://tracing``): events carry microsecond timestamps, so the
nanosecond simulation clock is divided by 1000.  Track layout: one
*process* per structure (``packet``, ``request``, ``devtlb``, ``ptb``,
``walker``, ``prefetch``, the service's request tree under ``service``,
...) and one *thread* per SID inside it, so both per-structure and
per-tenant views exist without duplicating events.  Spans
(``dur_ns > 0``) become complete (``"X"``) events, everything else
thread-scoped instants (``"i"``).

**JSONL** is one event object per line — the grep/pandas-friendly form.

**Metrics files** bundle a run's per-SID latency percentiles, cross-tenant
eviction attribution, and the registry snapshot into one JSON document
(schema ``repro-obs-metrics/1``), consumed by ``repro-sim report-metrics``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Union

from repro.obs.events import structure_of
from repro.obs.tracer import TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.results import SimulationResult
    from repro.obs import Observability

#: Schema tag written into every metrics file.
METRICS_SCHEMA = "repro-obs-metrics/1"

#: Schema tag written into every Chrome-trace export.  JSONL exports stay
#: one bare event per line (no header object) so they remain directly
#: grep/pandas-loadable; their schema is implied by the file suffix.
TRACE_SCHEMA = "repro-obs-trace/1"


def _event_dict(event: TraceEvent) -> Dict[str, Any]:
    record: Dict[str, Any] = {
        "kind": event.kind,
        "ts_ns": event.ts_ns,
        "sid": event.sid,
    }
    if event.dur_ns:
        record["dur_ns"] = event.dur_ns
    if event.args:
        record["args"] = event.args
    return record


def to_chrome_trace(events: Iterable[TraceEvent]) -> Dict[str, Any]:
    """Build a Chrome trace-event document from ``events``."""
    trace_events: List[Dict[str, Any]] = []
    pids: Dict[str, int] = {}
    named_threads = set()

    for event in events:
        structure = structure_of(event.kind)
        pid = pids.get(structure)
        if pid is None:
            pid = len(pids) + 1
            pids[structure] = pid
            trace_events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": structure},
                }
            )
        tid = event.sid if event.sid >= 0 else 0
        if (pid, tid) not in named_threads:
            named_threads.add((pid, tid))
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        "name": f"sid {event.sid}" if event.sid >= 0 else "global"
                    },
                }
            )
        record: Dict[str, Any] = {
            "name": event.kind,
            "cat": structure,
            "ts": event.ts_ns / 1000.0,
            "pid": pid,
            "tid": tid,
        }
        if event.args:
            record["args"] = dict(event.args)
        if event.dur_ns > 0.0:
            record["ph"] = "X"
            record["dur"] = event.dur_ns / 1000.0
        else:
            record["ph"] = "i"
            record["s"] = "t"
        trace_events.append(record)

    # Extra top-level keys are legal in the trace-event format; viewers
    # ignore "schema".
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ns",
        "schema": TRACE_SCHEMA,
    }


def write_chrome_trace(events: Iterable[TraceEvent], path: Union[str, Path]) -> Path:
    """Write a Perfetto-loadable Chrome trace JSON file; returns the path."""
    path = Path(path)
    path.write_text(
        json.dumps(to_chrome_trace(events), separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    return path


def write_jsonl(events: Iterable[TraceEvent], path: Union[str, Path]) -> Path:
    """Write one JSON object per event per line; returns the path."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(_event_dict(event), separators=(",", ":")))
            handle.write("\n")
    return path


def write_trace(events: Iterable[TraceEvent], path: Union[str, Path]) -> Path:
    """Dispatch on suffix: ``.jsonl`` -> JSONL, anything else -> Chrome JSON."""
    path = Path(path)
    if path.suffix == ".jsonl":
        return write_jsonl(events, path)
    return write_chrome_trace(events, path)


# ----------------------------------------------------------------------
# Metrics documents
# ----------------------------------------------------------------------

def metrics_document(
    observability: "Observability",
    result: Optional["SimulationResult"] = None,
) -> Dict[str, Any]:
    """Assemble the metrics JSON document for one finished run."""
    document: Dict[str, Any] = {"schema": METRICS_SCHEMA}
    if result is not None:
        document["run"] = {
            "config": result.config_name,
            "benchmark": result.benchmark,
            "num_tenants": result.num_tenants,
            "interleaving": result.interleaving,
            "elapsed_ns": result.elapsed_ns,
            "achieved_bandwidth_gbps": result.achieved_bandwidth_gbps,
            "link_utilization": result.link_utilization,
            "packets_dropped": result.packets.dropped,
        }
        document["overall_latency"] = {
            "count": result.latency.count,
            "mean_ns": result.latency.mean_ns,
            "min_ns": result.latency.min_ns,
            "max_ns": result.latency.max_ns,
            **result.percentiles,
        }
    metrics = observability.metrics
    if metrics is not None:
        per_sid = metrics.histograms_by_label("translation_latency_ns", "sid")
        document["per_sid_latency"] = {
            str(sid): histogram.summary()
            for sid, histogram in sorted(per_sid.items())
        }
        document["registry"] = metrics.snapshot()
    evictions = observability.evictions
    if evictions is not None:
        document["cross_tenant_evictions"] = evictions.to_dict()
    return document


def write_metrics(
    path: Union[str, Path],
    observability: "Observability",
    result: Optional["SimulationResult"] = None,
) -> Path:
    """Write the metrics document for a run to ``path``; returns the path."""
    path = Path(path)
    path.write_text(
        json.dumps(metrics_document(observability, result), indent=2) + "\n",
        encoding="utf-8",
    )
    return path

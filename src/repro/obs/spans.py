"""Span-based request tracing across the service's layer boundaries.

PR 2's tracer sees inside one simulation; since the service split a
request's life across four layers (client wire -> dispatcher -> admission
-> engine), end-to-end latency attribution needs *spans*: named,
parented intervals forming one tree per request.  The repro-service/1
protocol propagates the linking identity as an optional ``trace`` field
(:class:`SpanContext`), so a client-side span can parent the server-side
tree::

    wire.read -> {admission, dispatch -> engine.step}

Design constraints, matching the rest of the obs layer:

* **deterministic ids** — span ids come from a counter, never from
  ``random``/``uuid``, so two runs of the same replay produce the same
  tree (tests pin this);
* **injectable clock** — wall timestamps default to
  ``time.perf_counter_ns`` but tests drive a fake counter;
* **off means no recorder** — a server without a :class:`SpanRecorder`
  keeps ``spans = None``, and spans then never appear on the wire or in
  the dispatch path.

Export joins the existing Chrome/Perfetto path: see
:func:`repro.obs.export.spans_to_chrome_events`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass
class SpanContext:
    """The wire-propagated identity linking spans into one tree."""

    trace_id: str
    span_id: str

    def to_wire(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, raw: Dict[str, Any]) -> "SpanContext":
        return cls(trace_id=str(raw["trace_id"]), span_id=str(raw["span_id"]))


@dataclass
class Span:
    """One named interval in a request's tree.

    ``end_ns`` stays ``None`` while the span is open;
    :meth:`SpanRecorder.finish` closes and records it.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    sid: int = -1
    start_ns: int = 0
    end_ns: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def dur_ns(self) -> int:
        return (self.end_ns - self.start_ns) if self.end_ns is not None else 0

    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "sid": self.sid,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
        }
        if self.parent_id is not None:
            record["parent_id"] = self.parent_id
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record


class SpanRecorder:
    """Collects finished spans with counter-based deterministic ids.

    ``max_spans`` bounds memory like the tracer's ``max_events``: excess
    finishes are counted in :attr:`dropped_spans` instead of growing the
    list without bound.
    """

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        max_spans: int = 1_000_000,
    ):
        if max_spans < 1:
            raise ValueError("max_spans must be positive")
        self._clock = clock
        self.max_spans = max_spans
        self._ids = itertools.count(1)
        self.spans: List[Span] = []
        self.dropped_spans = 0

    # ------------------------------------------------------------------
    def next_id(self) -> str:
        return f"s{next(self._ids):x}"

    def start(
        self,
        name: str,
        parent: Optional[Span] = None,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        sid: int = -1,
        **attrs: Any,
    ) -> Span:
        """Open a span.  ``parent`` links server-side; ``trace_id`` +
        ``parent_id`` link to a wire-propagated :class:`SpanContext`."""
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
            if sid < 0:
                sid = parent.sid
        if trace_id is None:
            trace_id = f"t{self.next_id()[1:]}"
        return Span(
            name=name,
            trace_id=trace_id,
            span_id=self.next_id(),
            parent_id=parent_id,
            sid=sid,
            start_ns=self._clock(),
            attrs=dict(attrs),
        )

    def finish(self, span: Span, **attrs: Any) -> Span:
        """Close ``span`` at the current clock and record it."""
        span.end_ns = self._clock()
        if attrs:
            span.attrs.update(attrs)
        if len(self.spans) >= self.max_spans:
            self.dropped_spans += 1
        else:
            self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    def by_trace(self) -> Dict[str, List[Span]]:
        """Finished spans grouped by trace id, in record order."""
        trees: Dict[str, List[Span]] = {}
        for span in self.spans:
            trees.setdefault(span.trace_id, []).append(span)
        return trees

    def find(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]


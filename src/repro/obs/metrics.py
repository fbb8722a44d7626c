"""Metrics registry: counters, gauges, and log-bucketed latency histograms.

Everything here is deliberately dependency-free (no imports from
:mod:`repro.core`), so the result records in :mod:`repro.core.results` can
hold a :class:`LatencyHistogram` without an import cycle.

Histograms are **log-bucketed**: a recorded value lands in one of eight
geometric sub-buckets per power of two (via :func:`math.frexp`, no
``log`` call on the hot path), so the bucket table stays tiny — a few
dozen occupied buckets cover nanoseconds to seconds — while
:meth:`LatencyHistogram.percentile` reconstructs any quantile with a
relative error bounded by half a bucket width (< ~6 %).

:class:`MetricsRegistry` keys every instrument by ``(name, labels)``;
the conventional labels along the translation path are ``structure`` and
``sid``, which is what lets per-tenant interference be separated from
aggregate behaviour.  :class:`EvictionAttribution` is the specialised
instrument behind the paper's isolation claim: it counts, per cache,
how often tenant *a*'s fill evicted tenant *b*'s entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

#: Schema version of :meth:`MetricsRegistry.snapshot` dumps.
REGISTRY_SCHEMA = "repro-obs-registry/1"

#: Sub-buckets per power of two (3 bits -> 8 sub-buckets).
_SUB_BITS = 3
_SUB_COUNT = 1 << _SUB_BITS
#: Exponent offset keeping bucket ids positive for sub-nanosecond values.
_EXP_BIAS = 1024


def latency_bucket(value_ns: float) -> int:
    """Bucket id for ``value_ns`` (0 for non-positive values).

    Buckets are geometric: ``frexp`` splits the value into mantissa
    ``m in [0.5, 1)`` and exponent ``e``; the id packs the biased exponent
    with which of the 8 equal mantissa slices ``m`` falls into.
    """
    if value_ns <= 0.0:
        return 0
    mantissa, exponent = math.frexp(value_ns)
    sub = int((mantissa - 0.5) * (2 * _SUB_COUNT))
    if sub >= _SUB_COUNT:  # mantissa rounding at the top edge
        sub = _SUB_COUNT - 1
    return ((exponent + _EXP_BIAS) << _SUB_BITS) | sub


def bucket_bounds(bucket: int) -> Tuple[float, float]:
    """``[low, high)`` value range covered by ``bucket``."""
    if bucket <= 0:
        return (0.0, 0.0)
    exponent = (bucket >> _SUB_BITS) - _EXP_BIAS
    sub = bucket & (_SUB_COUNT - 1)
    scale = 2.0 ** exponent
    low = (0.5 + sub / (2 * _SUB_COUNT)) * scale
    high = (0.5 + (sub + 1) / (2 * _SUB_COUNT)) * scale
    return (low, high)


def bucket_midpoint(bucket: int) -> float:
    """Representative value of ``bucket`` (midpoint of its range)."""
    low, high = bucket_bounds(bucket)
    return (low + high) / 2.0


def percentile_from_buckets(
    buckets: Dict[int, int], count: int, p: float
) -> float:
    """The ``p``-th percentile (``0 <= p <= 100``) of a bucketed sample.

    Returns the midpoint of the bucket containing the rank-``ceil(p% * n)``
    observation — exact to within half a bucket width.
    """
    if count <= 0 or not buckets:
        return 0.0
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in 0..100, got {p}")
    rank = max(1, math.ceil(p / 100.0 * count))
    seen = 0
    for bucket in sorted(buckets):
        seen += buckets[bucket]
        if seen >= rank:
            return bucket_midpoint(bucket)
    return bucket_midpoint(max(buckets))


@dataclass
class LatencyHistogram:
    """Log-bucketed latency distribution with exact count/total/min/max.

    Also the translation-latency record of every
    :class:`~repro.core.results.SimulationResult`; the field order is the
    order of its serialised ``latency`` block.
    """

    count: int = 0
    total_ns: float = 0.0
    max_ns: float = 0.0
    min_ns: float = 0.0
    buckets: Dict[int, int] = field(default_factory=dict)

    def record(self, value_ns: float) -> None:
        if self.count == 0 or value_ns < self.min_ns:
            self.min_ns = value_ns
        if value_ns > self.max_ns:
            self.max_ns = value_ns
        self.count += 1
        self.total_ns += value_ns
        bucket = latency_bucket(value_ns)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Histogram-estimated ``p``-th percentile (see module docstring)."""
        return percentile_from_buckets(self.buckets, self.count, p)

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s observations into this histogram."""
        if other.count == 0:
            return
        if self.count == 0 or other.min_ns < self.min_ns:
            self.min_ns = other.min_ns
        if other.max_ns > self.max_ns:
            self.max_ns = other.max_ns
        self.count += other.count
        self.total_ns += other.total_ns
        for bucket, bucket_count in other.buckets.items():
            self.buckets[bucket] = self.buckets.get(bucket, 0) + bucket_count

    def summary(self) -> Dict[str, float]:
        """The standard percentile summary exported everywhere."""
        return {
            "count": self.count,
            "mean_ns": self.mean_ns,
            "min_ns": self.min_ns if self.count else 0.0,
            "max_ns": self.max_ns,
            "p50_ns": self.percentile(50.0),
            "p95_ns": self.percentile(95.0),
            "p99_ns": self.percentile(99.0),
        }


@dataclass
class Counter:
    """A monotonically increasing count."""

    value: int = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value (last write wins)."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


_LabelKey = Tuple[str, Tuple[Tuple[str, Any], ...]]


def _instrument_key(name: str, labels: Dict[str, Any]) -> _LabelKey:
    return (name, tuple(sorted(labels.items())))


def _by_label(table: Dict[_LabelKey, Any], name: str, label: str) -> Dict[Any, Any]:
    found: Dict[Any, Any] = {}
    for (metric_name, labels), instrument in table.items():
        if metric_name != name:
            continue
        for key, value in labels:
            if key == label:
                found[value] = instrument
    return found


class MetricsRegistry:
    """Get-or-create registry of labelled instruments.

    Instruments are identified by ``(name, labels)``; repeated calls with
    the same identity return the same object, so hot paths can cache the
    instrument locally and skip the registry lookup.
    """

    #: Instance attributes a checkpoint pickles (repro.sim.checkpoint).
    _state_fields = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[_LabelKey, Counter] = {}
        self._gauges: Dict[_LabelKey, Gauge] = {}
        self._histograms: Dict[_LabelKey, LatencyHistogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        key = _instrument_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = Counter()
            self._counters[key] = instrument
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _instrument_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = Gauge()
            self._gauges[key] = instrument
        return instrument

    def histogram(self, name: str, **labels: Any) -> LatencyHistogram:
        key = _instrument_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = LatencyHistogram()
            self._histograms[key] = instrument
        return instrument

    # ------------------------------------------------------------------
    def histograms_by_label(
        self, name: str, label: str
    ) -> Dict[Any, LatencyHistogram]:
        """All histograms named ``name``, keyed by their ``label`` value."""
        return _by_label(self._histograms, name, label)

    def counters_by_label(self, name: str, label: str) -> Dict[Any, Counter]:
        """All counters named ``name``, keyed by their ``label`` value.

        Reads only: unlike :meth:`counter` it creates nothing, and it finds
        a counter whatever its other labels (a multi-device fabric adds
        ``device``).
        """
        return _by_label(self._counters, name, label)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-compatible dump of every instrument (copy-on-read).

        Safe to call while a simulation or the translation service is
        mid-update: the instrument tables are copied before iteration
        (so concurrent get-or-create cannot invalidate it) and histogram
        summaries are computed over a copied bucket table (so concurrent
        ``record`` calls cannot change its size mid-summary).  The
        result shares no mutable state with the registry.
        """

        def rows(items, value_of):
            return [
                {"name": name, "labels": dict(labels), **value_of(instrument)}
                for (name, labels), instrument in sorted(
                    items, key=lambda item: (item[0][0], str(item[0][1]))
                )
            ]

        def histogram_row(histogram: LatencyHistogram) -> Dict[str, float]:
            frozen = LatencyHistogram(
                count=histogram.count,
                total_ns=histogram.total_ns,
                min_ns=histogram.min_ns,
                max_ns=histogram.max_ns,
                buckets=dict(histogram.buckets),
            )
            return frozen.summary()

        return {
            "schema": REGISTRY_SCHEMA,
            "counters": rows(list(self._counters.items()), lambda c: {"value": c.value}),
            "gauges": rows(list(self._gauges.items()), lambda g: {"value": g.value}),
            "histograms": rows(list(self._histograms.items()), histogram_row),
        }


# ----------------------------------------------------------------------
# Cross-tenant eviction attribution
# ----------------------------------------------------------------------

def _sid_of(key: Hashable) -> Optional[int]:
    """The SID of a ``(sid, secondary)`` cache key, else ``None``."""
    if type(key) is tuple and len(key) == 2 and type(key[0]) is int:
        return key[0]
    return None


class _EvictionListener:
    """Picklable per-cache eviction callback bound to an attribution."""

    __slots__ = ("attribution", "cache_name")

    def __init__(self, attribution: "EvictionAttribution", cache_name: str):
        self.attribution = attribution
        self.cache_name = cache_name

    def __call__(self, inserted_key: Hashable, victim_key: Hashable) -> None:
        self.attribution.record(self.cache_name, inserted_key, victim_key)


class EvictionAttribution:
    """Per-cache counts of which tenant evicted which tenant's entry.

    Attached to :class:`~repro.cache.setassoc.SetAssociativeCache`
    instances via their ``eviction_listener`` hook.  ``pairs[cache][(a, b)]``
    counts fills by SID ``a`` that evicted an entry of SID ``b``; the
    ``a != b`` slice is the direct measurement behind HyperTRIO's
    isolation claim (a partitioned DevTLB drives it to zero across
    partitions by construction).
    """

    _state_fields = ("pairs",)

    def __init__(self) -> None:
        self.pairs: Dict[str, Dict[Tuple[int, int], int]] = {}

    def listener_for(self, cache_name: str) -> Callable[[Hashable, Hashable], None]:
        """A listener suitable for ``cache.eviction_listener``.

        A named callable rather than a closure so listeners installed on
        caches pickle with the rest of the simulator (checkpointing).
        """
        return _EvictionListener(self, cache_name)

    def record(
        self, cache_name: str, inserted_key: Hashable, victim_key: Hashable
    ) -> None:
        evictor = _sid_of(inserted_key)
        victim = _sid_of(victim_key)
        if evictor is None or victim is None:
            return
        table = self.pairs.setdefault(cache_name, {})
        pair = (evictor, victim)
        table[pair] = table.get(pair, 0) + 1

    # ------------------------------------------------------------------
    def cross_tenant_count(self, cache_name: Optional[str] = None) -> int:
        """Evictions where the evictor and victim SIDs differ."""
        tables = (
            [self.pairs.get(cache_name, {})]
            if cache_name is not None
            else list(self.pairs.values())
        )
        return sum(
            count
            for table in tables
            for (evictor, victim), count in table.items()
            if evictor != victim
        )

    def victim_counts(self, cache_name: str) -> Dict[int, int]:
        """Per-victim-SID counts of entries lost to *other* tenants."""
        victims: Dict[int, int] = {}
        for (evictor, victim), count in self.pairs.get(cache_name, {}).items():
            if evictor != victim:
                victims[victim] = victims.get(victim, 0) + count
        return victims

    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """JSON-compatible dump: ``{cache: {"total_cross_tenant": n,
        "pairs": {"a->b": count (a != b only)}}}``."""
        dump: Dict[str, Dict[str, Any]] = {}
        for cache_name, table in sorted(self.pairs.items()):
            cross = {
                f"{evictor}->{victim}": count
                for (evictor, victim), count in sorted(table.items())
                if evictor != victim
            }
            dump[cache_name] = {
                "total_cross_tenant": sum(cross.values()),
                "pairs": cross,
            }
        return dump

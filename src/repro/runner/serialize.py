"""(De)serialisation of simulation results for the on-disk result store.

:class:`~repro.core.results.SimulationResult` is a tree of plain
dataclasses, so serialising is ``dataclasses.asdict``; deserialising
rebuilds each component explicitly so that schema drift fails loudly
instead of resurrecting half-filled records.  The only JSON wrinkle is
that integer-keyed dicts (``PacketStats.per_tenant_processed``, the
latency histogram's buckets) are stringified by JSON — keys are converted
back on load.

Round-tripping is exact: ``json`` serialises floats via ``repr``, which
Python guarantees to round-trip, so a restored result compares equal
(``==``) to the original.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict

from repro.analysis.scale import RunScale
from repro.cache.base import CacheStats
from repro.core.ptb import PtbStats
from repro.core.results import DeviceResult, FabricStats, SimulationResult
from repro.device.packet import PacketStats
from repro.mem.dram import DramStats
from repro.obs.metrics import LatencyHistogram


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    """Serialise a :class:`SimulationResult` to JSON-compatible data.

    The multi-device fields are omitted at their defaults (no per-device
    breakdowns, no fabric aggregates), so single-device serialisations
    stay byte-identical to the pre-fabric format — the same documents
    hash, cache, and diff the same.  ``drop_causes`` follows the same
    rule: without fault injection every drop is a PTB overflow, so the
    breakdown is omitted whenever it carries no information beyond
    ``dropped`` (and reconstructed on load).
    """
    document = dataclasses.asdict(result)
    _strip_trivial_drop_causes(document["packets"])
    for entry in document.get("device_results") or []:
        _strip_trivial_drop_causes(entry["packets"])
    if not document.get("device_results"):
        document.pop("device_results", None)
    if document.get("fabric") is None:
        document.pop("fabric", None)
    return document


def _strip_trivial_drop_causes(packets_raw: Dict[str, Any]) -> None:
    """Drop a ``drop_causes`` breakdown that only restates ``dropped``."""
    causes = packets_raw.get("drop_causes")
    if causes is not None and (
        not causes or causes == {"ptb_overflow": packets_raw["dropped"]}
    ):
        del packets_raw["drop_causes"]


def _packets_from_dict(packets_raw: Dict[str, Any]) -> PacketStats:
    """Rebuild :class:`PacketStats`, restoring an omitted breakdown."""
    packets_raw = dict(packets_raw)
    packets_raw["per_tenant_processed"] = {
        int(sid): count
        for sid, count in (packets_raw.get("per_tenant_processed") or {}).items()
    }
    if "drop_causes" not in packets_raw and packets_raw.get("dropped"):
        packets_raw["drop_causes"] = {"ptb_overflow": packets_raw["dropped"]}
    return PacketStats(**packets_raw)


def _latency_from_dict(latency_raw: Dict[str, Any]) -> LatencyHistogram:
    """Rebuild a result's latency histogram.

    Records written before the histogram had ``min_ns`` load with 0.0.
    """
    latency_raw = dict(latency_raw)
    latency_raw["buckets"] = {
        int(bucket): count
        for bucket, count in (latency_raw.get("buckets") or {}).items()
    }
    latency_raw.setdefault("min_ns", 0.0)
    return LatencyHistogram(**latency_raw)


def _device_result_from_dict(raw: Dict[str, Any]) -> DeviceResult:
    return DeviceResult(
        device_id=raw["device_id"],
        packets=_packets_from_dict(raw["packets"]),
        latency=_latency_from_dict(raw["latency"]),
        ptb=PtbStats(**raw["ptb"]),
        elapsed_ns=raw["elapsed_ns"],
        achieved_bandwidth_gbps=raw["achieved_bandwidth_gbps"],
        cache_stats={
            name: CacheStats(**stats)
            for name, stats in (raw.get("cache_stats") or {}).items()
        },
        iotlb_hits=raw.get("iotlb_hits", 0),
        iotlb_misses=raw.get("iotlb_misses", 0),
        walker_queue_delay_ns=raw.get("walker_queue_delay_ns", 0.0),
        invalidation_messages=raw.get("invalidation_messages", 0),
    )


def result_from_dict(raw: Dict[str, Any]) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`result_to_dict` data."""
    return SimulationResult(
        config_name=raw["config_name"],
        benchmark=raw["benchmark"],
        num_tenants=raw["num_tenants"],
        interleaving=raw["interleaving"],
        link_bandwidth_gbps=raw["link_bandwidth_gbps"],
        elapsed_ns=raw["elapsed_ns"],
        achieved_bandwidth_gbps=raw["achieved_bandwidth_gbps"],
        packets=_packets_from_dict(raw["packets"]),
        latency=_latency_from_dict(raw["latency"]),
        ptb=PtbStats(**raw["ptb"]),
        dram=DramStats(**raw["dram"]),
        cache_stats={
            name: CacheStats(**stats)
            for name, stats in (raw.get("cache_stats") or {}).items()
        },
        prefetch_buffer_hit_rate=raw.get("prefetch_buffer_hit_rate", 0.0),
        prefetch_requests=raw.get("prefetch_requests", 0),
        prefetch_supplied=raw.get("prefetch_supplied", 0),
        invalidation_messages=raw.get("invalidation_messages", 0),
        percentiles=raw.get("percentiles") or {},
        device_results=[
            _device_result_from_dict(entry)
            for entry in (raw.get("device_results") or [])
        ],
        fabric=(
            FabricStats(**raw["fabric"]) if raw.get("fabric") is not None else None
        ),
    )


def scale_to_dict(scale: RunScale) -> Dict[str, Any]:
    """Serialise a :class:`RunScale` (tuples become lists)."""
    return dataclasses.asdict(scale)


def scale_from_dict(raw: Dict[str, Any]) -> RunScale:
    """Rebuild a :class:`RunScale` from :func:`scale_to_dict` data."""
    return RunScale(
        name=raw["name"],
        tenant_counts=tuple(raw["tenant_counts"]),
        interleavings=tuple(raw["interleavings"]),
        benchmarks=tuple(raw["benchmarks"]),
        max_packets=raw["max_packets"],
        packets_per_tenant=raw.get("packets_per_tenant", 200_000),
        warmup_fraction=raw.get("warmup_fraction", 0.25),
    )

"""Experiment drivers: one function per table and figure of the paper.

Each driver regenerates the rows/series of its table or figure using the
performance model, at a :class:`~repro.analysis.scale.RunScale` chosen by
the caller (benchmarks use :func:`~repro.analysis.scale.current_scale`).
Absolute numbers differ from the paper (scaled traces, modelled latencies);
the drivers exist to reproduce *shapes*: who wins, by what rough factor,
and where the crossovers fall.  EXPERIMENTS.md records paper-vs-measured
for every driver.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.device_scaling import device_scaling
from repro.analysis.report import ExperimentTable
from repro.analysis.resilience import resilience
from repro.analysis.scale import DEFAULT, RunScale
from repro.analysis.service_saturation import service_saturation
from repro.analysis.sweeps import cached_trace, run_point
from repro.core.config import (
    ArchConfig,
    PrefetchConfig,
    TimingParams,
    TlbConfig,
    base_config,
    case_study_timing,
    hypertrio_config,
)
from repro.trace.collector import collect_single_tenant
from repro.trace.characterize import characterize_single_tenant
from repro.trace.constructor import construct_trace
from repro.trace.records import compute_trace_stats
from repro.trace.tenant import (
    BENCHMARKS,
    MEDIASTREAM,
    make_tenant_specs,
    profile_by_name,
)

# ----------------------------------------------------------------------
# Table I: case-study host parameters (documentation)
# ----------------------------------------------------------------------

#: The paper's Table I, kept as data so the Figure 4/5 drivers can cite the
#: systems they model.
TABLE1_SYSTEMS: Tuple[Dict[str, str], ...] = (
    {
        "host": "Server Host 1",
        "cpu": "AMD Ryzen 9 3900X, 1 socket, 24 threads",
        "chipset": "x570",
        "memory": "64 GB, 400 MB/VM",
        "role": "Figure 4 (IOMMU performance counters)",
    },
    {
        "host": "Server Host 2",
        "cpu": "Xeon E7-4870, 4 sockets, 80 threads",
        "chipset": "Intel 7500",
        "memory": "256 GB, 2 GB/VM",
        "role": "Figure 5 (native vs VF bandwidth)",
    },
    {
        "host": "Client Host",
        "cpu": "Xeon E3-1231 v3, 1 socket, 8 threads",
        "chipset": "Intel C224",
        "memory": "16 GB",
        "role": "iperf3 clients",
    },
)


def table1() -> ExperimentTable:
    """Table I: the case-study hosts (reference data, nothing to measure)."""
    table = ExperimentTable(
        experiment_id="Table I",
        title="System parameters for the SR-IOV NIC case study",
        columns=["host", "cpu", "chipset", "memory", "modelled by"],
    )
    for system in TABLE1_SYSTEMS:
        table.add_row(
            system["host"], system["cpu"], system["chipset"], system["memory"],
            system["role"],
        )
    table.add_note(
        "Hardware hosts are replaced by the performance model; Figures 4-5 "
        "reproduce their modelled analogues (see DESIGN.md substitutions)."
    )
    return table


# ----------------------------------------------------------------------
# Table II: performance-model parameters
# ----------------------------------------------------------------------

def table2() -> ExperimentTable:
    """Table II: parameters used by the performance simulator."""
    timing = TimingParams()
    table = ExperimentTable(
        experiment_id="Table II",
        title="System parameters used by the performance simulator",
        columns=["parameter", "paper", "this model"],
    )
    table.add_row("One-way PCIe latency", "450 ns", f"{timing.pcie_one_way_ns:.0f} ns")
    table.add_row("DRAM latency", "50 ns", f"{timing.dram_latency_ns:.0f} ns")
    table.add_row("IOTLB hit", "2 ns", f"{timing.iotlb_hit_ns:.0f} ns")
    table.add_row("# memory accesses during PTW", "24", "24 (walked, 4 KB)")
    table.add_row("Packet size at I/O link", "1542 B", f"{timing.packet_bytes} B")
    table.add_row(
        "I/O link bandwidth", "200 Gb/s", f"{timing.link_bandwidth_gbps:.0f} Gb/s"
    )
    table.add_row("L2 Page Cache", "512 entries, 16-way", "512 entries, 16-way")
    table.add_row("L3 Page Cache", "1024 entries, 16-way", "1024 entries, 16-way")
    table.add_row(
        "Packet inter-arrival", "~62 ns", f"{timing.packet_interarrival_ns:.2f} ns"
    )
    return table


# ----------------------------------------------------------------------
# Table IV: architectural configurations
# ----------------------------------------------------------------------

def table4() -> ExperimentTable:
    """Table IV: Base vs HyperTRIO architectural parameters."""
    base = base_config()
    hyper = hypertrio_config()
    table = ExperimentTable(
        experiment_id="Table IV",
        title="Architectural parameters of evaluated configurations",
        columns=["parameter", "Base", "HyperTRIO"],
    )
    table.add_row("PTB entries", base.ptb_entries, hyper.ptb_entries)
    table.add_row(
        "DevTLB",
        _describe_tlb(base.devtlb),
        _describe_tlb(hyper.devtlb),
    )
    table.add_row("L2TLB", _describe_tlb(base.l2_tlb), _describe_tlb(hyper.l2_tlb))
    table.add_row("L3TLB", _describe_tlb(base.l3_tlb), _describe_tlb(hyper.l3_tlb))
    table.add_row(
        "Prefetching",
        "no",
        (
            f"{hyper.prefetch.buffer_entries}-entry buffer, "
            f"{hyper.prefetch.history_length}-access stride, "
            f"{hyper.prefetch.pages_per_tenant} pages history/tenant"
        ),
    )
    return table


def _describe_tlb(tlb: TlbConfig) -> str:
    return (
        f"{tlb.num_entries} entries, {tlb.ways}-way, {tlb.policy.upper()}, "
        f"{tlb.num_partitions} partition(s)"
    )


# ----------------------------------------------------------------------
# Figure 4: IOMMU TLB PTE miss rate vs connection count (AMD case study)
# ----------------------------------------------------------------------

def figure4(scale: Optional[RunScale] = None) -> ExperimentTable:
    """Figure 4: page-walk-cache miss rate rises past ~80 connections.

    Models the AMD host: a 10 Gb/s link shared by iperf3 tenants and an
    unpartitioned translation path.  The paper's counters report IOMMU TLB
    PTE hits/misses (our PTE cache) and nested page reads (our DRAM
    page-table reads); both are tabulated per connection count.
    """
    scale = scale or DEFAULT
    config = base_config(timing=case_study_timing())
    table = ExperimentTable(
        experiment_id="Figure 4",
        title="IOMMU TLB PTE miss rate vs parallel iperf3 connections (10 Gb/s)",
        columns=[
            "connections",
            "pte miss rate %",
            "nested page reads",
            "reads per packet",
        ],
    )
    counts = (40, 60, 80, 100, 120) if scale.name != "smoke" else (8, 16)
    for count in counts:
        point = run_point(config, "iperf3", count, "RR1", scale)
        result = point.result
        packets = max(1, result.packets.accepted)
        table.add_row(
            count,
            result.miss_rate("pte_cache") * 100.0,
            result.dram.page_table_reads,
            result.dram.page_table_reads / packets,
        )
    return table


# ----------------------------------------------------------------------
# Figure 5: native vs virtualized cumulative bandwidth (Intel case study)
# ----------------------------------------------------------------------

#: Per-connection CPU-bound caps measured in the paper (Gb/s).
NATIVE_PER_CONNECTION_CAP = 8.7
VF_PER_CONNECTION_CAP = 6.7
USEFUL_10G_BANDWIDTH = 9.49


def figure5(scale: Optional[RunScale] = None) -> ExperimentTable:
    """Figure 5: cumulative bandwidth, host-native vs VF, 10 Gb/s link.

    Native connections bypass translation entirely (bounded by the
    per-connection CPU cap); VF connections translate through a shared
    DevTLB and collapse once the tenant count thrashes it.
    """
    scale = scale or DEFAULT
    timing = case_study_timing()
    config = base_config(timing=timing)
    table = ExperimentTable(
        experiment_id="Figure 5",
        title="Cumulative I/O bandwidth vs concurrent connections (10 Gb/s)",
        columns=["connections", "native Gb/s", "VF Gb/s"],
    )
    counts = (1, 2, 4, 8, 12, 16, 24, 32) if scale.name != "smoke" else (1, 4)
    for count in counts:
        offered = min(timing.link_bandwidth_gbps * (USEFUL_10G_BANDWIDTH / 10.0),
                      count * NATIVE_PER_CONNECTION_CAP)
        native_gbps = offered  # no translation bottleneck on the host path
        vf_offered = min(
            timing.link_bandwidth_gbps * (USEFUL_10G_BANDWIDTH / 10.0),
            count * VF_PER_CONNECTION_CAP,
        )
        point = run_point(config, "iperf3", count, "RR1", scale)
        # Achieved bandwidth includes framing; derate to useful bandwidth.
        achieved_useful = (
            point.result.achieved_bandwidth_gbps * USEFUL_10G_BANDWIDTH / 10.0
        )
        vf_gbps = min(vf_offered, achieved_useful)
        table.add_row(count, native_gbps, vf_gbps)
    return table


# ----------------------------------------------------------------------
# Figure 8: single-tenant characterisation
# ----------------------------------------------------------------------

def figure8(packets: int = 95_000) -> ExperimentTable:
    """Figure 8: page access frequency groups and periodicity.

    Runs the mediastream workload for one tenant through the log-collector
    substitute and reproduces the three frequency groups (8a) and the
    periodic, ~1500-use sequential data-page pattern (8b).  The single
    tenant is run without the small irregularity used in multi-tenant
    mediastream traces — the paper's single-tenant trace is what that
    irregularity is calibrated against.
    """
    profile = dataclasses.replace(MEDIASTREAM, jump_probability=0.0)
    log = collect_single_tenant(profile, packets=packets)
    characterization = characterize_single_tenant(log)
    table = ExperimentTable(
        experiment_id="Figure 8",
        title="Single-tenant I/O virtual page access characterisation",
        columns=["group", "pages", "total accesses", "accesses/page"],
    )
    for name in ("ring", "data", "init"):
        group = characterization.groups[name]
        table.add_row(
            name, group.page_count, group.total_accesses, group.accesses_per_page
        )
    table.add_note(
        f"Data-page access pattern periodic: {characterization.periodic}; "
        f"mean sequential run length "
        f"{characterization.mean_run_length:.0f} uses/page "
        "(paper: ~1500, periodic ring order)."
    )
    table.add_note(
        "'ring' includes the mailbox page, which is likewise touched every "
        "packet."
    )
    return table


# ----------------------------------------------------------------------
# Figure 9: motivation — bandwidth vs tenant count for DevTLB configs
# ----------------------------------------------------------------------

def figure9(scale: Optional[RunScale] = None) -> ExperimentTable:
    """Figure 9: modeled bandwidth collapses as tenants thrash the DevTLB."""
    scale = scale or DEFAULT
    table = ExperimentTable(
        experiment_id="Figure 9",
        title="Modeled I/O bandwidth vs concurrent connections (200 Gb/s)",
        columns=["tenants", "64-entry 8-way Gb/s", "1024-entry 8-way Gb/s"],
    )
    small = base_config()
    large = base_config().with_overrides(
        devtlb=TlbConfig(num_entries=1024, ways=8, policy="lfu")
    )
    counts = (1, 2, 4, 8, 16, 32, 64) if scale.name != "smoke" else (2, 8)
    for count in counts:
        small_point = run_point(small, "mediastream", count, "RR1", scale)
        large_point = run_point(large, "mediastream", count, "RR1", scale)
        table.add_row(
            count,
            small_point.bandwidth_gbps,
            large_point.bandwidth_gbps,
        )
    return table


# ----------------------------------------------------------------------
# Table III: translation-request counts per benchmark
# ----------------------------------------------------------------------

def table3(
    num_tenants: int = 256, packets_per_tenant: int = 1200
) -> ExperimentTable:
    """Table III: min/max/total translation requests per benchmark.

    The paper's counts come from 1024-tenant traces with up to 108k
    translations per tenant; we generate scaled traces with the same
    per-tenant *spread* (min/max ratio) and report both the raw counts and
    the ratios, which are the scale-free quantities.
    """
    table = ExperimentTable(
        experiment_id="Table III",
        title="Translation requests per benchmark (scaled trace)",
        columns=[
            "benchmark",
            "max/tenant",
            "min/tenant",
            "total",
            "min/max ratio",
            "paper min/max ratio",
        ],
    )
    paper_ratios = {
        "iperf3": 68_079 / 108_510,
        "mediastream": 5_520 / 73_657,
        "websearch": 43_362 / 108_513,
    }
    for name in sorted(paper_ratios):
        # Table III reports the per-tenant request counts of the collected
        # logs (what the constructor reads), not of the interleaved trace —
        # RR interleaving equalises per-tenant counts in the trace itself.
        specs = make_tenant_specs(
            profile_by_name(name), num_tenants, packets_per_tenant
        )
        translations = [3 * spec.packets for spec in specs]
        ratio = min(translations) / max(translations)
        table.add_row(
            name,
            max(translations),
            min(translations),
            sum(translations),
            ratio,
            paper_ratios[name],
        )
    table.add_note(
        "Counts are scaled; the min/max ratios are scale-free."
    )
    table.add_note(
        "The interleaver stops at the first exhausted tenant (edge-effect "
        "rule), so totals reflect the least-active tenant, as in the paper."
    )
    return table


# ----------------------------------------------------------------------
# Figure 10: headline scalability, Base vs HyperTRIO
# ----------------------------------------------------------------------

def figure10(scale: Optional[RunScale] = None) -> ExperimentTable:
    """Figure 10: I/O bandwidth scalability of Base vs HyperTRIO."""
    scale = scale or DEFAULT
    table = ExperimentTable(
        experiment_id="Figure 10",
        title="Scalability of I/O bandwidth for HyperTRIO and Base designs",
        columns=[
            "benchmark",
            "interleaving",
            "tenants",
            "Base Gb/s",
            "HyperTRIO Gb/s",
            "Base util %",
            "HyperTRIO util %",
        ],
    )
    base = base_config()
    hyper = hypertrio_config()
    for benchmark in ("iperf3", "mediastream", "websearch"):
        for interleaving in scale.interleavings:
            for count in scale.tenant_counts:
                base_point = run_point(base, benchmark, count, interleaving, scale)
                hyper_point = run_point(hyper, benchmark, count, interleaving, scale)
                table.add_row(
                    benchmark,
                    interleaving,
                    count,
                    base_point.bandwidth_gbps,
                    hyper_point.bandwidth_gbps,
                    base_point.utilization_percent,
                    hyper_point.utilization_percent,
                )
    return table


# ----------------------------------------------------------------------
# Figure 11a: scaling the DevTLB
# ----------------------------------------------------------------------

def figure11a(scale: Optional[RunScale] = None) -> ExperimentTable:
    """Figure 11a: a bigger DevTLB does not fix hyper-tenant scaling."""
    scale = scale or DEFAULT
    table = ExperimentTable(
        experiment_id="Figure 11a",
        title="Base design with 64- vs 1024-entry 8-way DevTLB",
        columns=["benchmark", "tenants", "64-entry util %", "1024-entry util %"],
    )
    small = base_config()
    large = base_config().with_overrides(
        devtlb=TlbConfig(num_entries=1024, ways=8, policy="lfu")
    )
    for benchmark in scale.benchmarks:
        for count in scale.tenant_counts:
            small_point = run_point(small, benchmark, count, "RR1", scale)
            large_point = run_point(large, benchmark, count, "RR1", scale)
            table.add_row(
                benchmark,
                count,
                small_point.utilization_percent,
                large_point.utilization_percent,
            )
    return table


# ----------------------------------------------------------------------
# Figure 11b: replacement policies
# ----------------------------------------------------------------------

def figure11b(scale: Optional[RunScale] = None) -> ExperimentTable:
    """Figure 11b: LRU vs LFU vs Belady oracle on the Base DevTLB."""
    scale = scale or DEFAULT
    table = ExperimentTable(
        experiment_id="Figure 11b",
        title="Base-design DevTLB replacement policies",
        columns=["benchmark", "tenants", "LRU util %", "LFU util %", "oracle util %"],
    )
    for benchmark in scale.benchmarks:
        for count in scale.tenant_counts:
            utilizations = []
            for policy in ("lru", "lfu", "oracle"):
                config = base_config().with_overrides(
                    devtlb=TlbConfig(num_entries=64, ways=8, policy=policy)
                )
                point = run_point(config, benchmark, count, "RR1", scale)
                utilizations.append(point.utilization_percent)
            table.add_row(benchmark, count, *utilizations)
    return table


# ----------------------------------------------------------------------
# Figure 11c: fully associative DevTLB with oracle replacement
# ----------------------------------------------------------------------

def figure11c(scale: Optional[RunScale] = None) -> ExperimentTable:
    """Figure 11c: even an ideal fully-associative DevTLB cannot scale."""
    scale = scale or DEFAULT
    table = ExperimentTable(
        experiment_id="Figure 11c",
        title="Fully associative 64-entry DevTLB with oracle replacement",
        columns=["benchmark", "tenants", "util %", "active set/tenant"],
    )
    for benchmark in scale.benchmarks:
        profile = profile_by_name(benchmark)
        for count in scale.tenant_counts:
            config = base_config().with_overrides(
                devtlb=TlbConfig(
                    num_entries=64, ways=64, policy="oracle", fully_associative=True
                )
            )
            point = run_point(config, benchmark, count, "RR1", scale)
            table.add_row(
                benchmark,
                count,
                point.utilization_percent,
                profile.active_translation_set,
            )
    return table


# ----------------------------------------------------------------------
# Figure 12a: partitioning only
# ----------------------------------------------------------------------

def partitioned_only_config() -> ArchConfig:
    """HyperTRIO's partitioning without PTB or prefetching (Figure 12a)."""
    hyper = hypertrio_config()
    return hyper.with_overrides(
        name="P-DevTLB",
        ptb_entries=1,
        prefetch=PrefetchConfig(enabled=False),
    )


def figure12a(scale: Optional[RunScale] = None) -> ExperimentTable:
    """Figure 12a: effect of partitioning the DevTLB and L[2-3] TLBs."""
    scale = scale or DEFAULT
    table = ExperimentTable(
        experiment_id="Figure 12a",
        title="Partitioned DevTLB + translation caches (no PTB, no prefetch)",
        columns=["benchmark", "tenants", "Base util %", "partitioned util %"],
    )
    base = base_config()
    partitioned = partitioned_only_config()
    for benchmark in scale.benchmarks:
        for count in scale.tenant_counts:
            base_point = run_point(base, benchmark, count, "RR1", scale)
            part_point = run_point(partitioned, benchmark, count, "RR1", scale)
            table.add_row(
                benchmark,
                count,
                base_point.utilization_percent,
                part_point.utilization_percent,
            )
    return table


# ----------------------------------------------------------------------
# Figure 12b: Pending Translation Buffer sizes
# ----------------------------------------------------------------------

def figure12b(scale: Optional[RunScale] = None) -> ExperimentTable:
    """Figure 12b: PTB size sweep on top of the partitioned design."""
    scale = scale or DEFAULT
    table = ExperimentTable(
        experiment_id="Figure 12b",
        title="Effect of PTB size (partitioned design, no prefetch)",
        columns=["benchmark", "tenants", "PTB=1 util %", "PTB=8 util %",
                 "PTB=32 util %"],
    )
    for benchmark in scale.benchmarks:
        for count in scale.tenant_counts:
            utilizations = []
            for entries in (1, 8, 32):
                config = partitioned_only_config().with_overrides(
                    name=f"PTB{entries}", ptb_entries=entries
                )
                point = run_point(config, benchmark, count, "RR1", scale)
                utilizations.append(point.utilization_percent)
            table.add_row(benchmark, count, *utilizations)
    return table


# ----------------------------------------------------------------------
# Figure 12c: prefetching contribution
# ----------------------------------------------------------------------

def figure12c(scale: Optional[RunScale] = None) -> ExperimentTable:
    """Figure 12c: translation prefetching on top of PTB + partitioning."""
    scale = scale or DEFAULT
    table = ExperimentTable(
        experiment_id="Figure 12c",
        title="Prefetching contribution (vs partitioned + PTB32)",
        columns=[
            "benchmark",
            "tenants",
            "no-prefetch util %",
            "prefetch util %",
            "prefetch-supplied %",
        ],
    )
    without = partitioned_only_config().with_overrides(
        name="PTB32+Part", ptb_entries=32
    )
    with_prefetch = hypertrio_config()
    for benchmark in scale.benchmarks:
        for count in scale.tenant_counts:
            off_point = run_point(without, benchmark, count, "RR1", scale)
            on_point = run_point(with_prefetch, benchmark, count, "RR1", scale)
            table.add_row(
                benchmark,
                count,
                off_point.utilization_percent,
                on_point.utilization_percent,
                on_point.result.prefetch_supplied_fraction * 100.0,
            )
    return table


#: Every driver, keyed by its paper anchor (benchmarks iterate this).
#: ``device_scaling`` extends the paper with the multi-device fabric axis
#: (see :mod:`repro.analysis.device_scaling`); ``resilience`` extends it
#: with fault injection (see :mod:`repro.analysis.resilience`).
ALL_EXPERIMENTS = {
    "device_scaling": device_scaling,
    "resilience": resilience,
    "service_saturation": service_saturation,
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "figure4": figure4,
    "figure5": figure5,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "figure11a": figure11a,
    "figure11b": figure11b,
    "figure11c": figure11c,
    "figure12a": figure12a,
    "figure12b": figure12b,
    "figure12c": figure12c,
}


def run_driver(
    name: str,
    scale: Optional[RunScale] = None,
    runner: Optional[object] = None,
) -> ExperimentTable:
    """Run one registered driver by name, sequentially or orchestrated.

    ``scale`` is forwarded only to drivers that take it (the tables and
    Figure 8 scale themselves).  With ``runner`` (an
    :class:`repro.runner.ExperimentRunner`), every sweep point the driver
    needs is submitted as a job through the runner — parallel, memoized
    against the runner's store, and resumable — and the returned table is
    identical to the sequential one.  Raises :class:`KeyError` for an
    unregistered name.
    """
    import inspect

    try:
        driver = ALL_EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; known: {sorted(ALL_EXPERIMENTS)}"
        ) from None
    kwargs = {}
    if scale is not None and "scale" in inspect.signature(driver).parameters:
        kwargs["scale"] = scale
    if runner is None:
        return driver(**kwargs)
    from repro.runner.orchestrate import run_experiment

    return run_experiment(driver, runner, kwargs)



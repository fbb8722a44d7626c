"""Manifest of every reproduced experiment: driver, paper claim, verdict.

This is the single source of truth tying each table/figure driver to what
the paper reports and to this model's known deviations.  The
EXPERIMENTS.md generator renders it; tests check it stays complete and
consistent with the driver registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.analysis import experiments
from repro.analysis.scale import RunScale


@dataclass(frozen=True)
class ExperimentEntry:
    """One reproduced experiment."""

    key: str
    driver: Callable
    #: What the paper's table/figure reports (condensed).
    paper_claim: str
    #: How this model's measurement relates to the claim.
    shape_verdict: str

    def kwargs_for(self, scale: RunScale) -> Dict:
        """Driver keyword arguments appropriate at ``scale``."""
        if self.key == "table3":
            tenants = {"smoke": 16, "default": 256, "full": 1024}[scale.name]
            return {"num_tenants": tenants, "packets_per_tenant": 1200}
        if self.key == "figure8":
            return {"packets": 10_000 if scale.name == "smoke" else 95_000}
        if (
            self.key.startswith("figure")
            or self.key
            in ("device_scaling", "resilience", "service_saturation")
        ):
            return {"scale": scale}
        return {}


MANIFEST: Tuple[ExperimentEntry, ...] = (
    ExperimentEntry(
        "table1", experiments.table1,
        "Three hosts (AMD Ryzen 3900X, Xeon E7-4870, Xeon E3 client) used "
        "for the hardware case studies.",
        "Reference data only; the hosts are replaced by the performance "
        "model.",
    ),
    ExperimentEntry(
        "table2", experiments.table2,
        "PCIe 450 ns one-way, DRAM 50 ns, IOTLB hit 2 ns, 24-access PTW, "
        "1542 B packets, 200 Gb/s link, 512/1024-entry 16-way page caches.",
        "All parameters adopted verbatim; the 24-access walk is walked "
        "over real radix tables rather than charged as a constant.",
    ),
    ExperimentEntry(
        "table3", experiments.table3,
        "iperf3 108,510/68,079 max/min translations per tenant (69.7M "
        "total at 1024 tenants); mediastream 73,657/5,520; websearch "
        "108,513/43,362.",
        "Counts are scaled; the scale-free min/max ratios match the paper "
        "per benchmark.",
    ),
    ExperimentEntry(
        "table4", experiments.table4,
        "Base: PTB 1, unpartitioned 64-entry 8-way LFU DevTLB, 512/1024 "
        "L2/L3 TLBs, no prefetch.  HyperTRIO: PTB 32, 8/32/64 partitions, "
        "8-entry prefetch buffer, 48-access stride, 2 pages/tenant.",
        "Identical except the prefetch stride (36 here vs 48): the "
        "host-tuned just-in-time lead depends on modelled latencies.",
    ),
    ExperimentEntry(
        "figure4", experiments.figure4,
        "PTE miss rate <0.1% below 80 connections rising to 4.3% at 120; "
        "nested page reads rise >400x from 80 to 120 connections.",
        "Monotone rise reproduced; absolute rates are higher because the "
        "modelled page-walk caches saturate before 40 connections.",
    ),
    ExperimentEntry(
        "figure5", experiments.figure5,
        "Native rises to ~9.4 Gb/s and stays flat; VF matches the link up "
        "to ~8 connections then collapses toward ~0.5 Gb/s beyond 16.",
        "Shape reproduced: native saturates, VF peaks early and collapses "
        "well below native.",
    ),
    ExperimentEntry(
        "figure8", experiments.figure8,
        "Three page groups: 1 ring page every packet (~30x hotter than "
        "data pages), 32 x 2 MB data pages used ~1500 times sequentially "
        "in ring order, ~70 cold init pages.",
        "Groups, frequency gap, ~1500-use runs and periodicity all "
        "reproduce ('ring' here includes the per-packet mailbox page).",
    ),
    ExperimentEntry(
        "figure9", experiments.figure9,
        "Full 200 Gb/s up to ~4 connections for a 64-entry 8-way DevTLB, "
        "then eviction-driven collapse; larger DevTLBs delay, not avoid it.",
        "Reproduced: near line rate at 1-4 connections, collapse by "
        "32-64; the 1024-entry variant holds on longer and converges.",
    ),
    ExperimentEntry(
        "figure10", experiments.figure10,
        "Base <=15% of the link beyond 32 tenants; HyperTRIO up to 100% "
        "at 1024 tenants for RR orders and up to 80% for RAND1.",
        "RR shapes reproduce (Base ~1-2%, HyperTRIO 92-100% at 1024).  "
        "Our Base collapses deeper and RAND1 lands near ~40%: both stem "
        "from our costlier unwarmed walk path (see docs/MODEL.md).",
    ),
    ExperimentEntry(
        "figure11a", experiments.figure11a,
        "A 1024-entry DevTLB helps up to ~64 tenants; beyond ~128 both "
        "sizes give the same collapsed utilisation.",
        "Reproduced: the 16x DevTLB wins mid-range and converges at "
        "hyper-tenant scale.",
    ),
    ExperimentEntry(
        "figure11b", experiments.figure11b,
        "LFU outperforms LRU mid-range (up to 2x for iperf3 at 16 "
        "tenants); oracle slightly better; none scale past ~64 tenants.",
        "Ordering (oracle >= LFU >= LRU) and the universal collapse "
        "reproduce.",
    ),
    ExperimentEntry(
        "figure11c", experiments.figure11c,
        "Fully associative + oracle: high utilisation only while tenants "
        "x active-set (8/32/36) fits 64 entries; low beyond ~8 tenants.",
        "Reproduced: full utilisation while the product fits, collapse "
        "beyond.",
    ),
    ExperimentEntry(
        "figure12a", experiments.figure12a,
        "Partitioning keeps utilisation high until tenants share "
        "partitions; beats size/policy changes but insufficient alone.",
        "Reproduced: partitioned >= base everywhere, saturating well "
        "below the link at 256+ tenants.",
    ),
    ExperimentEntry(
        "figure12b", experiments.figure12b,
        "PTB=8 reaches full bandwidth up to 16 tenants; PTB=32 gives "
        "~136 Gb/s (68%) at 1024 tenants.",
        "Monotone PTB benefit and the large factor reproduce; at 1024 "
        "tenants the caches thrash and utilisation grows linearly with "
        "PTB entries, since outstanding translations are the only "
        "concurrency (Section III's sizing argument).  Our PTB=32 plateau "
        "sits lower (~40-45%) due to costlier unwarmed walks.",
    ),
    ExperimentEntry(
        "figure12c", experiments.figure12c,
        "Prefetching adds up to ~30 points for websearch at hyper-tenant "
        "scale; the prefetcher supplies ~45% of translations at 1024.",
        "Reproduced and amplified: +45-55 points at 1024 tenants with "
        "~60% of translations prefetch-supplied.",
    ),
    ExperimentEntry(
        "device_scaling", experiments.device_scaling,
        "Not in the paper — an extension: N device paths (DevTLB + PTB + "
        "Prefetch Unit each) behind the paper's one shared chipset, with "
        "tenants striped round-robin over devices.",
        "Per-device bandwidth holds under fabric scaling while "
        "shared-chipset contention (IOTLB hit rate, walker queueing) "
        "grows with device count, as expected for a shared IOMMU.",
    ),
    ExperimentEntry(
        "resilience", experiments.resilience,
        "Not in the paper — an extension: Base vs HyperTRIO under seeded "
        "fault plans (transient translation faults with retry/backoff, "
        "tenant invalidation storms) across fault rates.",
        "HyperTRIO's higher hit rates shelter it: fewer packets reach "
        "the faultable walk path, so bandwidth and tail latency degrade "
        "more slowly than Base as the fault rate rises.",
    ),
    ExperimentEntry(
        "service_saturation", experiments.service_saturation,
        "Not in the paper — an extension: the translation-as-a-service "
        "front end (asyncio TCP, per-tenant admission) under concurrent "
        "trace-replay load generators, swept over client and tenant "
        "counts.",
        "Throughput saturates with client count (one dispatcher "
        "serializes the engine) while client-observed RTT tails grow; "
        "modeled translation percentiles stay flat.  Wall-clock columns "
        "are machine-dependent; only the modeled columns and the shapes "
        "are claims.",
    ),
)


def manifest_by_key() -> Dict[str, ExperimentEntry]:
    """The manifest as a key-indexed dictionary."""
    return {entry.key: entry for entry in MANIFEST}

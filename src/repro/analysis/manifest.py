"""Manifest of every reproduced experiment: driver, paper claim, check.

This is the single source of truth tying each table/figure driver to what
the paper reports and to what this model measures.  Each entry's
``check`` is the only statement of the claim: it reads the driver's table
at the ``default`` preset and returns one :class:`Clause` per comparison,
each marked reproduced, pinned deviation or not reproduced and quoting the
numbers it compared.  The EXPERIMENTS.md generator renders the verdict
from it, ``benchmarks/bench_paper_claims.py`` fails on any clause that is
not reproduced, and tests check the manifest stays complete and
consistent with the driver registry.

A known deviation from the paper is a pin: a band of ``PIN_TOLERANCE``
around the value ``default`` measures, so drift in either direction fails.
A cell whose row is missing from the table reads as NaN, every comparison
with it is false, and its clause is not reproduced.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.analysis import experiments
from repro.analysis.report import ExperimentTable, format_cell
from repro.analysis.scale import DEFAULT, RunScale

#: Half-width of every pinned band, as a fraction of its centre.
PIN_TOLERANCE = 0.05

REPRODUCED = "reproduced"
PINNED = "pinned deviation"
NOT_REPRODUCED = "not reproduced"

#: Verdict prefix by the entry's worst clause, mildest first.
_PREFIXES = {
    REPRODUCED: "reproduced",
    PINNED: "deviates from the paper (pinned)",
    NOT_REPRODUCED: "not reproduced",
}

#: The hyper-tenant point every paper claim is checked at, and its label.
_TOP = max(DEFAULT.tenant_counts)
_AT_TOP = f"at {_TOP:,} tenants"

_PAPER_BENCHMARKS = ("iperf3", "mediastream", "websearch")


@dataclass(frozen=True)
class Clause:
    """One checked comparison: its mark and the sentence quoting it."""

    mark: str
    text: str


def holds(condition: bool, text: str) -> Clause:
    """A clause that reproduces the paper exactly when ``condition`` holds."""
    return Clause(REPRODUCED if condition else NOT_REPRODUCED, text)


def pinned(measured: float, centre: float, paper: str, text: str) -> Clause:
    """A known deviation: ``measured`` must stay within ``PIN_TOLERANCE`` of ``centre``."""
    inside = abs(measured - centre) <= PIN_TOLERANCE * abs(centre)
    return Clause(
        PINNED if inside else NOT_REPRODUCED,
        f"{text}: {_num(measured)}, pinned at {_num(centre)} "
        f"± {PIN_TOLERANCE:.0%} (paper: {paper})",
    )


def worst(clauses: List[Clause]) -> str:
    """The entry's verdict: its worst clause (an empty check is not reproduced)."""
    order = list(_PREFIXES)
    return max((c.mark for c in clauses), key=order.index, default=NOT_REPRODUCED)


def render_verdict(clauses: List[Clause]) -> str:
    """The verdict prefix, then one marked line per clause."""
    lines = [f"{_PREFIXES[worst(clauses)]}."]
    lines.extend(f"- {clause.mark}: {clause.text}" for clause in clauses)
    return "\n".join(lines)


def _num(value: Any) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "no row"
    return f"{value:,}" if isinstance(value, int) else format_cell(value)


def _nums(values) -> str:
    return ", ".join(_num(value) for value in values)


def _cell(table: ExperimentTable, column: str, *key: Any) -> Any:
    """``column`` of the first row whose leading cells are ``key`` (NaN if none)."""
    index = table.columns.index(column)
    for row in table.rows:
        if tuple(row[: len(key)]) == key:
            return row[index]
    return math.nan


# ----------------------------------------------------------------------
# Checks, one per entry
# ----------------------------------------------------------------------

#: Table II parameters adopted verbatim (the walk is walked, the packet
#: inter-arrival derived from the link rate).
_TABLE2_VERBATIM = ("One-way PCIe latency", "DRAM latency", "IOTLB hit",
                    "Packet size at I/O link", "I/O link bandwidth",
                    "L2 Page Cache", "L3 Page Cache")


def _media(table: ExperimentTable, column: str, tenants: int) -> Any:
    """A mediastream cell of a figure swept over ``DEFAULT.tenant_counts``."""
    return _cell(table, column, "mediastream", tenants)


def _check_table1(table):
    return [holds(len(table.rows) == 3, f"case-study hosts: {len(table.rows)} (paper: 3)")]


def _check_table2(table):
    cells = [(name, _cell(table, "paper", name), _cell(table, "this model", name))
             for name in _TABLE2_VERBATIM]
    return [holds(paper == model, f"{name}: paper {paper}, model {model}")
            for name, paper, model in cells]


def _check_table3(table):
    ratios = [(name, _cell(table, "min/max ratio", name),
               _cell(table, "paper min/max ratio", name)) for name in _PAPER_BENCHMARKS]
    return [holds(abs(ratio - paper) <= 0.25 * paper, f"{name} min/max ratio {_num(ratio)}"
                  f" within 25% of the paper's {_num(paper)}") for name, ratio, paper in ratios]


def _check_table4(table):
    ptb = (_cell(table, "Base", "PTB entries"), _cell(table, "HyperTRIO", "PTB entries"))
    stride = re.search(r"(\d+)-access stride", str(_cell(table, "HyperTRIO", "Prefetching")))
    return [
        holds(ptb == (1, 32), f"PTB entries, Base and HyperTRIO: {_nums(ptb)} (paper: 1, 32)"),
        pinned(int(stride.group(1)) if stride else math.nan, 36, "48",
               "HyperTRIO prefetch stride, accesses"),
    ]


def _check_figure4(table):
    rate = [_cell(table, "pte miss rate %", n) for n in (40, 120)]
    reads = [_cell(table, "nested page reads", n) for n in (40, 80, 120)]
    return [
        holds(rate[1] > rate[0], f"PTE miss rate rises from 40 to 120 connections: "
              f"{_nums(rate)}%"),
        holds(reads[2] > reads[0], "nested page reads rise from 40 to 120 connections: "
              f"{_nums(reads[::2])}"),
        pinned(rate[0], 36.2, "< 0.1%", "PTE miss rate % at 40 connections"),
        pinned(rate[1], 41.4, "4.3%", "PTE miss rate % at 120 connections"),
        pinned(reads[2] / reads[1], 1.09, "> 400x", "nested page reads, 120 over 80 connections"),
    ]


def _check_figure5(table):
    native, vf = table.column("native Gb/s"), table.column("VF Gb/s")
    native_32, vf_32 = _cell(table, "native Gb/s", 32), _cell(table, "VF Gb/s", 32)
    peaks = (max(vf, default=math.nan), max(native, default=math.nan))
    return [
        holds(all(b >= a for a, b in zip(native, native[1:])) and native_32 > 9.0,
              f"native non-decreasing and above 9 Gb/s at 32 connections: {_num(native_32)}"),
        holds(peaks[0] >= 0.9 * peaks[1],
              f"VF peak at least 0.9 x native peak: {_nums(peaks)} Gb/s"),
        holds(vf_32 < 0.5 * native_32,
              f"VF below 0.5 x native at 32 connections: {_nums((vf_32, native_32))} Gb/s"),
        pinned(vf_32, 3.13, "~0.5", "VF Gb/s at 32 connections"),
    ]


def _check_figure8(table):
    rate = [_cell(table, "accesses/page", group) for group in ("ring", "data", "init")]
    pages = (_cell(table, "pages", "data"), _cell(table, "pages", "init"))
    return [
        holds(rate[0] > 10 * rate[1] > 100 * rate[2],
              f"accesses per page, ring > 10 x data > 100 x init: {_nums(rate)}"),
        holds(pages == (30, 70), f"data and init pages: {_nums(pages)}"),
    ]


def _check_figure9(table):
    small = [_cell(table, "64-entry 8-way Gb/s", n) for n in (1, 64)]
    gap, at = max(((l - s, n) for n, s, l in table.rows), default=(math.nan, "no"))
    return [
        holds(small[0] > 160.0, f"64-entry DevTLB above 160 Gb/s at 1 tenant: {_num(small[0])}"),
        holds(small[1] < 0.3 * small[0], "64-entry DevTLB below 0.3 x its 1-tenant value "
              f"at 64 tenants: {_num(small[1])}"),
        holds(gap > 20.0, f"1024-entry DevTLB ahead by more than 20 Gb/s: {_num(gap)} at "
              f"{at} tenants"),
    ]


def _check_figure10(table):
    pairs = {(b, i): tuple(_cell(table, f"{config} util %", b, i, _TOP)
                           for config in ("Base", "HyperTRIO"))
             for b in _PAPER_BENCHMARKS for i in ("RR1", "RAND1")}

    def quote(interleavings=("RR1", "RAND1")):
        return "; ".join(f"{b} {i} {_nums(pair)}" for (b, i), pair in pairs.items()
                         if i in interleavings)

    clauses = [
        holds(all(base < 20.0 for base, _ in pairs.values()),
              f"Base below 20% {_AT_TOP} (Base, HyperTRIO %): {quote()}"),
        holds(all(hyper > 60.0 for (_, i), (_, hyper) in pairs.items() if i == "RR1"),
              f"HyperTRIO above 60% {_AT_TOP} under RR1: {quote(('RR1',))}"),
        holds(all(hyper > 4 * base for base, hyper in pairs.values()),
              f"HyperTRIO above 4 x Base {_AT_TOP}: {quote()}"),
    ]
    for b, centre in zip(_PAPER_BENCHMARKS, (1.36, 1.37, 1.37)):
        clauses.append(pinned(pairs[b, "RR1"][0], centre, "6-15%", f"Base % {_AT_TOP}, {b} RR1"))
    for b in _PAPER_BENCHMARKS:
        clauses.append(pinned(pairs[b, "RAND1"][1], 38.6, "up to 80%",
                              f"HyperTRIO % {_AT_TOP}, {b} RAND1"))
    return clauses


def _check_figure11a(table):
    utils = [_media(table, f"{n}-entry util %", _TOP) for n in (64, 1024)]
    return [holds(abs(utils[1] - utils[0]) < 15.0,
                  f"64- and 1024-entry DevTLBs within 15 points {_AT_TOP}: {_nums(utils)}%")]


def _check_figure11b(table):
    rows = [[_media(table, f"{policy} util %", n) for policy in ("LRU", "LFU", "oracle")]
            for n in DEFAULT.tenant_counts]
    return [
        holds(all(oracle >= max(lru, lfu) - 6.0 for lru, lfu, oracle in rows),
              "oracle at least max(LRU, LFU) - 6 at every tenant count (LRU, LFU, oracle): "
              + "; ".join(_nums(row) for row in rows)),
        holds(rows[-1][2] < 35.0, f"oracle below 35% {_AT_TOP}: {_num(rows[-1][2])}"),
    ]


def _check_figure11c(table):
    util = _media(table, "util %", _TOP)
    return [holds(util < 40.0, f"below 40% {_AT_TOP}: {_num(util)}")]


def _check_figure12a(table):
    rows = {n: (_media(table, "partitioned util %", n), _media(table, "Base util %", n))
            for n in DEFAULT.tenant_counts}
    return [
        holds(all(p >= b for p, b in (rows[4], rows[64])), "partitioned at least Base at 4 "
              f"and 64 tenants (partitioned, Base): {_nums(rows[4])}; {_nums(rows[64])}"),
        holds(rows[_TOP][0] < 60.0, f"partitioned below 60% {_AT_TOP}: {_num(rows[_TOP][0])}"),
        pinned(rows[_TOP][0], 1.11, "partitioned >= Base",
               f"partitioned % {_AT_TOP} (Base {_num(rows[_TOP][1])}%)"),
    ]


def _check_figure12b(table):
    rows = [[_media(table, f"PTB={e} util %", n) for e in (1, 8, 32)]
            for n in DEFAULT.tenant_counts]
    ptb1, ptb8, ptb32 = rows[-1]
    return [
        holds(all(p8 >= p1 - 5.0 and p32 >= p8 - 5.0 for p1, p8, p32 in rows),
              "PTB=8 at least PTB=1 - 5 and PTB=32 at least PTB=8 - 5 at every tenant count "
              "(PTB=1, 8, 32): " + "; ".join(_nums(row) for row in rows)),
        pinned(ptb8 / ptb1, 8.0, "not reported", f"PTB=8 over PTB=1 {_AT_TOP} (Little's law: 8)"),
        pinned(ptb32 / ptb1, 32.1, "not reported",
               f"PTB=32 over PTB=1 {_AT_TOP} (Little's law: 32)"),
        pinned(ptb32, 35.6, "68%", f"PTB=32 % {_AT_TOP}"),
    ]


def _check_figure12c(table):
    off, on, supplied = (_media(table, column, _TOP) for column in (
        "no-prefetch util %", "prefetch util %", "prefetch-supplied %"))
    return [
        holds(on > off + 15.0,
              f"prefetch above no-prefetch + 15 points {_AT_TOP}: {_nums((on, off))}%"),
        holds(supplied > 30.0, f"prefetch-supplied above 30% {_AT_TOP}: {_num(supplied)}"),
        pinned(on - off, 58.0, "up to +30, websearch",
               f"prefetch gain {_AT_TOP}, mediastream, points"),
        pinned(supplied, 62.1, "~45%", f"prefetch-supplied % {_AT_TOP}, mediastream"),
    ]


def _check_device_scaling(table):
    aggregate = [_cell(table, "aggregate Gb/s", n) for n in (1, 2, 4, 8)]
    queue = [_cell(table, "walker queue ns/walk", n) for n in (2, 4, 8)]
    return [
        holds(all(abs(a - aggregate[0]) <= 0.15 * aggregate[0] for a in aggregate[1:]),
              "aggregate within 15% of one device's at 1, 2, 4, 8 devices (the walker pool "
              f"bounds the fabric): {_nums(aggregate)} Gb/s"),
        holds(queue[0] < queue[1] < queue[2],
              f"walker queueing grows at 2, 4, 8 devices: {_nums(queue)} ns/walk"),
    ]


def _check_resilience(table):
    rates = ("0", "0.002", "0.01", "0.05")
    base, hyper = ([_cell(table, "util %", rate, config) for rate in rates]
                   for config in ("Base", "HyperTRIO"))
    p99 = [_cell(table, "p99 ns", "0.05", config) for config in ("Base", "HyperTRIO")]
    return [
        holds(all(h >= 50.0 * b for b, h in zip(base, hyper)),
              f"HyperTRIO at least 50 x Base at fault rates {', '.join(rates)}: Base "
              f"{_nums(base)}%; HyperTRIO {_nums(hyper)}%"),
        holds(all(a >= b for u in (base, hyper) for a, b in zip(u, u[1:])),
              "both utilisations non-increasing in the fault rate"),
        pinned(p99[0], 2944, "none, an extension", "Base p99 ns at a 5% fault rate"),
        pinned(p99[1], 3200, "none, an extension", "HyperTRIO p99 ns at a 5% fault rate"),
    ]


#: ``service_saturation``'s one-client model columns at ``default``,
#: tenants -> (model p99 ns, model drops); they repeat run to run.
_SERVICE_ONE_CLIENT = {8: (2.125, 0), 32: (1216.0, 45)}


def _check_service_saturation(table):
    requests = [_cell(table, "requests", t, c) for t in (8, 32) for c in (1, 2, 4)]
    clauses = [holds(all(r == 1500 for r in requests),
                     f"every point answers its 1,500 requests: {_nums(requests)}")]
    for tenants, pin in _SERVICE_ONE_CLIENT.items():
        model = (_cell(table, "model p99 ns", tenants, 1), _cell(table, "model drops", tenants, 1))
        clauses.append(holds(model == pin, f"model p99 ns and drops at {tenants} tenants, "
                             f"1 client: {_nums(model)} (pinned: {_nums(pin)})"))
    return clauses


@dataclass(frozen=True)
class ExperimentEntry:
    """One reproduced experiment."""

    key: str
    driver: Callable
    #: The clauses the driver's ``default`` table must satisfy.
    check: Callable[[ExperimentTable], List[Clause]]
    #: What the paper's table/figure reports (condensed).
    paper_claim: str

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
        "table1", experiments.table1, _check_table1,
        "Three hosts (AMD Ryzen 3900X, Xeon E7-4870, Xeon E3 client) used "
        "for the hardware case studies.",
    ),
    ExperimentEntry(
        "table2", experiments.table2, _check_table2,
        "PCIe 450 ns one-way, DRAM 50 ns, IOTLB hit 2 ns, 24-access PTW, "
        "1542 B packets, 200 Gb/s link, 512/1024-entry 16-way page caches.",
    ),
    ExperimentEntry(
        "table3", experiments.table3, _check_table3,
        "iperf3 108,510/68,079 max/min translations per tenant (69.7M "
        "total at 1024 tenants); mediastream 73,657/5,520; websearch "
        "108,513/43,362.",
    ),
    ExperimentEntry(
        "table4", experiments.table4, _check_table4,
        "Base: PTB 1, unpartitioned 64-entry 8-way LFU DevTLB, 512/1024 "
        "L2/L3 TLBs, no prefetch.  HyperTRIO: PTB 32, 8/32/64 partitions, "
        "8-entry prefetch buffer, 48-access stride, 2 pages/tenant.",
    ),
    ExperimentEntry(
        "figure4", experiments.figure4, _check_figure4,
        "PTE miss rate <0.1% below 80 connections rising to 4.3% at 120; "
        "nested page reads rise >400x from 80 to 120 connections.",
    ),
    ExperimentEntry(
        "figure5", experiments.figure5, _check_figure5,
        "Native rises to ~9.4 Gb/s and stays flat; VF matches the link up "
        "to ~8 connections then collapses toward ~0.5 Gb/s beyond 16.",
    ),
    ExperimentEntry(
        "figure8", experiments.figure8, _check_figure8,
        "Three page groups: 1 ring page every packet (~30x hotter than "
        "data pages), 32 x 2 MB data pages used ~1500 times sequentially "
        "in ring order, ~70 cold init pages.",
    ),
    ExperimentEntry(
        "figure9", experiments.figure9, _check_figure9,
        "Full 200 Gb/s up to ~4 connections for a 64-entry 8-way DevTLB, "
        "then eviction-driven collapse; larger DevTLBs delay, not avoid it.",
    ),
    ExperimentEntry(
        "figure10", experiments.figure10, _check_figure10,
        "Base <=15% of the link beyond 32 tenants; HyperTRIO up to 100% "
        "at 1024 tenants for RR orders and up to 80% for RAND1.",
    ),
    ExperimentEntry(
        "figure11a", experiments.figure11a, _check_figure11a,
        "A 1024-entry DevTLB helps up to ~64 tenants; beyond ~128 both "
        "sizes give the same collapsed utilisation.",
    ),
    ExperimentEntry(
        "figure11b", experiments.figure11b, _check_figure11b,
        "LFU outperforms LRU mid-range (up to 2x for iperf3 at 16 "
        "tenants); oracle slightly better; none scale past ~64 tenants.",
    ),
    ExperimentEntry(
        "figure11c", experiments.figure11c, _check_figure11c,
        "Fully associative + oracle: high utilisation only while tenants "
        "x active-set (8/32/36) fits 64 entries; low beyond ~8 tenants.",
    ),
    ExperimentEntry(
        "figure12a", experiments.figure12a, _check_figure12a,
        "Partitioning keeps utilisation high until tenants share "
        "partitions; beats size/policy changes but insufficient alone.",
    ),
    ExperimentEntry(
        "figure12b", experiments.figure12b, _check_figure12b,
        "PTB=8 reaches full bandwidth up to 16 tenants; PTB=32 gives "
        "~136 Gb/s (68%) at 1024 tenants.",
    ),
    ExperimentEntry(
        "figure12c", experiments.figure12c, _check_figure12c,
        "Prefetching adds up to ~30 points for websearch at hyper-tenant "
        "scale; the prefetcher supplies ~45% of translations at 1024.",
    ),
    ExperimentEntry(
        "device_scaling", experiments.device_scaling, _check_device_scaling,
        "Not in the paper — an extension: N device paths (DevTLB + PTB + "
        "Prefetch Unit each) behind the paper's one shared chipset, with "
        "tenants striped round-robin over devices.",
    ),
    ExperimentEntry(
        "resilience", experiments.resilience, _check_resilience,
        "Not in the paper — an extension: Base vs HyperTRIO under seeded "
        "fault plans (transient translation faults with retry/backoff, "
        "tenant invalidation storms) across fault rates.",
    ),
    ExperimentEntry(
        "service_saturation", experiments.service_saturation, _check_service_saturation,
        "Not in the paper — an extension: the translation-as-a-service "
        "front end (asyncio TCP, per-tenant admission) under concurrent "
        "trace-replay load generators, swept over client and tenant "
        "counts.",
    ),
)


def manifest_by_key() -> Dict[str, ExperimentEntry]:
    """The manifest as a key-indexed dictionary."""
    return {entry.key: entry for entry in MANIFEST}

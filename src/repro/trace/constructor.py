"""The Trace Constructor: splice per-tenant logs into one hyper-trace.

Mirrors HyperSIO's constructor (Section IV-B): given per-tenant packet
streams, it interleaves them into a single trace using one of the paper's
schemes —

* ``RRn``: round-robin with bursts of ``n`` consecutive packets per tenant
  (RR1 and RR4 in the evaluation); models NIC queue arbitration over
  steady, long-lived connections.
* ``RANDn``: a uniformly random tenant is chosen for each burst of ``n``
  packets (RAND1 in the evaluation); models independent request arrivals.

Construction stops as soon as *any* tenant runs out of packets, avoiding
the "edge effect" where only a subset of tenants remains active.

Construction is deterministic, so every trace it returns carries its
:class:`TraceRecipe`: the construction arguments, from which the trace can
be built again (checkpoints store the recipe instead of the trace).
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.trace.records import (
    PacketRecord,
    TraceStats,
    compute_trace_stats,
    packets_digest,
)
from repro.trace.tenant import BenchmarkProfile, TenantSpec, make_tenant_specs
from repro.trace.workload import HyperTenantSystem, TenantWorkload, build_system

_INTERLEAVING_RE = re.compile(r"^(RR|RAND)(\d+)$", re.IGNORECASE)


@dataclass(frozen=True)
class Interleaving:
    """Parsed interleaving scheme: kind (``RR``/``RAND``) and burst size."""

    kind: str
    burst: int

    def __post_init__(self):
        if self.kind not in ("RR", "RAND"):
            raise ValueError(f"kind must be RR or RAND, got {self.kind!r}")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "Interleaving":
        """Parse the paper's notation: ``RR1``, ``RR4``, ``RAND1``, ...

        >>> Interleaving.parse("RR4")
        Interleaving(kind='RR', burst=4)
        """
        match = _INTERLEAVING_RE.match(text.strip())
        if not match:
            raise ValueError(f"cannot parse interleaving {text!r}")
        return cls(kind=match.group(1).upper(), burst=int(match.group(2)))

    def __str__(self) -> str:
        return f"{self.kind}{self.burst}"


@dataclass(frozen=True)
class TraceRecipe:
    """The :meth:`TraceConstructor.construct` arguments behind a trace."""

    specs: Tuple[TenantSpec, ...]
    interleaving: str
    seed: int
    max_packets: Optional[int]

    def build(self) -> "HyperTrace":
        """Construct the trace again, as it was when construction returned."""
        return TraceConstructor(seed=self.seed).construct(
            self.specs, self.interleaving, max_packets=self.max_packets
        )


@dataclass
class HyperTrace:
    """A constructed hyper-tenant trace plus the system behind it."""

    packets: List[PacketRecord]
    system: HyperTenantSystem
    interleaving: Interleaving
    stats: TraceStats
    #: How :meth:`TraceConstructor.construct` built this trace.
    recipe: Optional[TraceRecipe] = field(default=None, repr=False, compare=False)
    #: The packet list ``recipe`` builds.  ``dataclasses.replace`` copies
    #: it along with ``recipe``, so packets swapped in after construction
    #: show as ``packets is not recipe_packets``.
    recipe_packets: Optional[List[PacketRecord]] = field(
        default=None, repr=False, compare=False
    )
    _digest: Optional[Tuple[List[PacketRecord], str]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def num_tenants(self) -> int:
        return self.stats.num_tenants

    @property
    def packets_from_recipe(self) -> bool:
        """Whether ``recipe.build()`` reproduces ``packets``."""
        return self.recipe is not None and self.packets is self.recipe_packets

    def packets_digest(self) -> str:
        """:func:`~repro.trace.records.packets_digest` of ``packets``,
        computed once per packet list."""
        if self._digest is None or self._digest[0] is not self.packets:
            self._digest = (self.packets, packets_digest(self.packets))
        return self._digest[1]


def interleave(
    streams: Sequence[Iterator[PacketRecord]],
    interleaving: Interleaving,
    seed: int = 0,
) -> Iterator[PacketRecord]:
    """Merge per-tenant packet iterators under an interleaving scheme.

    Stops at the first exhausted tenant (edge-effect rule).  For ``RAND``
    the tenant of each burst is drawn from a seeded generator, so traces
    are reproducible.
    """
    if not streams:
        return
    iterators = list(streams)
    rng = random.Random(seed)
    if interleaving.kind == "RR":
        while True:
            for stream in iterators:
                for _ in range(interleaving.burst):
                    try:
                        yield next(stream)
                    except StopIteration:
                        return
    else:  # RAND
        while True:
            stream = rng.choice(iterators)
            for _ in range(interleaving.burst):
                try:
                    yield next(stream)
                except StopIteration:
                    return


class TraceConstructor:
    """Build hyper-traces from tenant specs (the public construction API)."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def construct(
        self,
        specs: Sequence[TenantSpec],
        interleaving: str = "RR1",
        max_packets: Optional[int] = None,
    ) -> HyperTrace:
        """Build tenants and produce an interleaved hyper-trace.

        ``max_packets`` caps the trace length (used to bound simulation
        time while keeping per-tenant packet budgets — and therefore the
        ~1500-use data-page periods of the paper's traces — at full scale).
        """
        scheme = Interleaving.parse(interleaving)
        specs = tuple(specs)
        system, workloads = build_system(specs)
        merged = interleave(
            [workload.packet_stream() for workload in workloads],
            scheme,
            seed=self.seed,
        )
        if max_packets is not None:
            packets = list(itertools.islice(merged, max_packets))
        else:
            packets = list(merged)
        # Host backings made from here on (walks back pages on demand)
        # are run state, not construction: the system logs them.
        system.start_backing_log()
        return HyperTrace(
            packets=packets,
            system=system,
            interleaving=scheme,
            stats=compute_trace_stats(packets),
            recipe=TraceRecipe(specs, str(scheme), self.seed, max_packets),
            recipe_packets=packets,
        )


def construct_trace(
    profile: BenchmarkProfile,
    num_tenants: int,
    packets_per_tenant: int,
    interleaving: str = "RR1",
    seed: int = 0,
    max_packets: Optional[int] = None,
) -> HyperTrace:
    """One-call convenience: specs -> workloads -> hyper-trace.

    This is the main entry point used by experiments:

    >>> from repro.trace.tenant import IPERF3
    >>> trace = construct_trace(IPERF3, num_tenants=4, packets_per_tenant=50)
    >>> trace.num_tenants
    4
    """
    specs = make_tenant_specs(profile, num_tenants, packets_per_tenant, seed=seed)
    return TraceConstructor(seed=seed).construct(
        specs, interleaving, max_packets=max_packets
    )

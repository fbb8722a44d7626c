"""Service saturation sweep: client count x tenant count vs throughput.

Not in the paper — an extension exercising the translation *service*
(PR 6) rather than the offline model: for every (tenants, clients)
point an in-process :class:`~repro.service.server.ServiceServer` is
started on a loopback socket and ``clients`` concurrent
:class:`~repro.service.client.ServiceClient` load generators replay
disjoint round-robin slices of one mediastream trace through it.

Measured per point:

* wall-clock request throughput (requests/s) and total wall time;
* client-observed RTT p50/p99 (pipelined: queueing + service time under
  the send window) — the *service* tail latency;
* the modeled translation p99 from the engine (virtual time) — the
  *model* tail latency, unchanged by client count;
* modeled drops (PTB overflow inside the engine).

Wall-clock columns are machine- and scheduler-dependent: this driver
reproduces *shapes* (single-dispatcher saturation, RTT growth with
concurrency), not absolute numbers.  The modeled columns are
deterministic for a given trace but depend on the global submission
order, which interleaves across clients — so they are only
packet-for-packet comparable with offline simulation at ``clients=1``
(see docs/SERVICE.md).
"""

from __future__ import annotations

import asyncio
import time
from typing import List, Optional, Tuple

from repro.analysis.report import ExperimentTable
from repro.analysis.scale import DEFAULT, RunScale
from repro.core.config import hypertrio_config
from repro.service.client import ServiceClient
from repro.service.server import ServiceServer
from repro.service.engine import ServiceEngine
from repro.trace.constructor import construct_trace
from repro.trace.tenant import profile_by_name

#: (clients axis, tenants axis, total packets) per scale preset.
_SWEEPS = {
    "smoke": ((1, 2), (4,), 400),
    "default": ((1, 2, 4), (8, 32), 1500),
    "full": ((1, 2, 4, 8), (8, 32, 128), 4000),
}


def _percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (empty -> 0.0)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[rank]


async def _run_point(
    num_tenants: int, num_clients: int, packets: int, window: int
) -> Tuple[float, int, List[float], float, int]:
    """One sweep point; returns (wall_s, replies, rtts, model_p99, drops)."""
    trace = construct_trace(
        profile_by_name("mediastream"),
        num_tenants=num_tenants,
        packets_per_tenant=DEFAULT.packets_per_tenant,
        max_packets=packets,
    )
    engine = ServiceEngine(hypertrio_config(), trace)
    server = ServiceServer(engine)
    await server.start()
    # Disjoint round-robin slices: together exactly the trace, no overlap.
    chunks = [trace.packets[i::num_clients] for i in range(num_clients)]
    clients = [
        ServiceClient("127.0.0.1", server.port) for _ in range(num_clients)
    ]

    async def drive(client: ServiceClient, chunk) -> int:
        await client.connect()
        try:
            return len(await client.replay(chunk, window=window))
        finally:
            await client.close()

    started = time.monotonic()
    replies = await asyncio.gather(
        *(drive(client, chunk) for client, chunk in zip(clients, chunks))
    )
    wall = time.monotonic() - started
    rtts: List[float] = []
    for client in clients:
        rtts.extend(client.rtts)
    result = engine.peek_result()
    model_p99 = result.percentiles.get("p99_ns", 0.0)
    drops = result.packets.dropped
    await server.shutdown()
    return wall, sum(replies), rtts, model_p99, drops


def service_saturation(scale: Optional[RunScale] = None) -> ExperimentTable:
    """Service throughput and tail latency vs concurrent load generators."""
    scale = scale or DEFAULT
    clients_axis, tenants_axis, packets = _SWEEPS.get(
        scale.name, _SWEEPS["default"]
    )
    table = ExperimentTable(
        experiment_id="Service saturation",
        title="Translation service under concurrent trace replay "
        "(HyperTRIO config, mediastream)",
        columns=[
            "tenants",
            "clients",
            "requests",
            "wall ms",
            "req/s",
            "rtt p50 us",
            "rtt p99 us",
            "model p99 ns",
            "model drops",
        ],
    )
    for num_tenants in tenants_axis:
        for num_clients in clients_axis:
            wall, replies, rtts, model_p99, drops = asyncio.run(
                _run_point(num_tenants, num_clients, packets, window=64)
            )
            table.add_row(
                num_tenants,
                num_clients,
                replies,
                wall * 1e3,
                replies / wall if wall > 0 else 0.0,
                _percentile(rtts, 0.50) * 1e6,
                _percentile(rtts, 0.99) * 1e6,
                model_p99,
                drops,
            )
    table.add_note(
        "Wall-clock columns (wall ms, req/s, RTT percentiles) are machine-"
        "dependent and nondeterministic; no check reads them."
    )
    table.add_note(
        "Modeled columns depend on the cross-client submission order; "
        "packet-exact offline parity holds only for clients=1 "
        "(docs/SERVICE.md)."
    )
    return table

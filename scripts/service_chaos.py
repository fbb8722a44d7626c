#!/usr/bin/env python
"""CI chaos harness for the translation service's wire resilience.

For every seed in the matrix and every wire fault class (connection
drops, mid-frame cuts, byte corruption, stalls, split/coalesced writes,
reconnect storms, everything at once):

1. run the trace offline (``simulate``) into a golden result;
2. replay the same trace through a :class:`ChaosProxy` driving that
   fault class between a ``ServiceClient`` and a live ``ServiceServer``;
3. assert the flushed ``SimulationResult`` is **byte-identical** to the
   golden offline run, that the intended faults actually fired, that a
   reconnect-storm run breaches the ``conn_churn`` SLO rule, and that
   the run leaked nothing (no live proxy links, no registered server
   connections, no dangling asyncio tasks);
4. additionally pin that a *fault-free* plan is byte-transparent on the
   wire (per-direction SHA-256 of received vs forwarded bytes) for a
   client with no request deadline and no circuit breaker, and that the
   ``conn.*`` counters surface through the prom export.

Exits nonzero with a diagnostic on any deviation.  Run from the repo
root: ``python scripts/service_chaos.py`` (CI runs the default matrix;
``--seeds 1 --packets 120`` is a quick local pass).
"""

import argparse
import asyncio
import json
import random
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.config import hypertrio_config  # noqa: E402
from repro.faults.netchaos import (  # noqa: E402
    ChaosProxy,
    CoalesceSpec,
    CorruptSpec,
    CutSpec,
    DropSpec,
    NetworkFaultPlan,
    ReconnectStormSpec,
    SplitSpec,
    StallSpec,
    netplan_from_json,
    netplan_to_json,
)
from repro.obs.slo import SloRule, SloWatcher  # noqa: E402
from repro.runner.serialize import result_to_dict  # noqa: E402
from repro.service import protocol  # noqa: E402
from repro.service.client import CircuitBreaker, ServiceClient  # noqa: E402
from repro.service.engine import ServiceEngine  # noqa: E402
from repro.service.server import ServiceServer  # noqa: E402
from repro.sim.simulator import HyperSimulator  # noqa: E402
from repro.trace.constructor import construct_trace  # noqa: E402
from repro.trace.tenant import profile_by_name  # noqa: E402

FAULT_CLASSES = (
    "null", "drop", "cut", "corrupt", "stall", "split_coalesce",
    "storm", "combined",
)


def make_trace(tenants, packets):
    return construct_trace(
        profile_by_name("mediastream"),
        num_tenants=tenants,
        packets_per_tenant=200_000,
        max_packets=packets,
    )


def plan_for(fault_class, seed):
    """A seeded plan of one fault class; positions drawn from the seed."""
    rng = random.Random(seed)
    early = rng.randint(2, 8)       # frames into connection 0
    offset = rng.randint(0, 40)     # corruption byte offset
    if fault_class == "null":
        return NetworkFaultPlan(seed=seed)
    if fault_class == "drop":
        return NetworkFaultPlan(
            seed=seed, drops=(DropSpec(after_frames=early),)
        )
    if fault_class == "cut":
        return NetworkFaultPlan(
            seed=seed, cuts=(CutSpec(frame=early, direction="request"),)
        )
    if fault_class == "corrupt":
        return NetworkFaultPlan(
            seed=seed,
            corruptions=(
                CorruptSpec(frame=early, direction="response", offset=offset),
                CorruptSpec(
                    frame=early, direction="request", offset=offset,
                    connection=1,
                ),
            ),
        )
    if fault_class == "stall":
        return NetworkFaultPlan(
            seed=seed,
            stalls=(
                StallSpec(frame=early, delay_s=1.2, direction="response"),
            ),
        )
    if fault_class == "split_coalesce":
        return NetworkFaultPlan(
            seed=seed,
            splits=(SplitSpec(chunk_bytes=rng.randint(3, 17)),),
            coalesces=(
                CoalesceSpec(frames=rng.randint(2, 6), direction="response"),
            ),
        )
    if fault_class == "storm":
        return NetworkFaultPlan(
            seed=seed,
            reconnect_storms=(
                ReconnectStormSpec(
                    connections=5, after_frames=2, jitter_frames=4
                ),
            ),
        )
    if fault_class == "combined":
        return NetworkFaultPlan(
            seed=seed,
            stalls=(
                StallSpec(
                    frame=2, delay_s=1.0, direction="response", connection=0
                ),
            ),
            corruptions=(
                CorruptSpec(
                    frame=3, direction="response", offset=offset, connection=1
                ),
            ),
            cuts=(CutSpec(frame=early, direction="request", connection=2),),
            drops=(DropSpec(after_frames=early + 2, connection=3),),
            splits=(SplitSpec(chunk_bytes=9, connection=4),),
        )
    raise SystemExit(f"unknown fault class {fault_class!r}")


def canonical(result) -> str:
    # Round-trip through JSON first: result_to_dict keys per-tenant maps
    # by int, which sort_keys orders numerically, while the wire copy
    # has string keys ordered lexically (differs from 11 tenants up).
    return json.dumps(
        json.loads(json.dumps(result_to_dict(result))), sort_keys=True
    )


async def run_one(fault_class, plan, golden_json, tenants, packets):
    """One chaos replay; returns a diagnostics dict or raises SystemExit."""
    context = f"[{fault_class} seed={plan.seed}]"
    hardened = fault_class != "null"
    engine = ServiceEngine(hypertrio_config(), make_trace(tenants, packets))
    watcher = SloWatcher(
        [SloRule(name="churn", kind="conn_churn", threshold=1.0)]
    )
    server = ServiceServer(engine, slo_watcher=watcher)
    await server.start()
    # Prime the churn rule's rate window now, so the storm's reconnect
    # burst (which front-loads the run) lands inside a measured interval
    # instead of being swallowed by the first sample.
    server.evaluate_slo()
    proxy = ChaosProxy("127.0.0.1", server.port, plan)
    await proxy.start()
    client = ServiceClient(
        "127.0.0.1",
        proxy.port,
        request_timeout=0.4 if hardened else None,
        breaker=CircuitBreaker(failure_threshold=8) if hardened else None,
        rng=random.Random(plan.seed),
    )
    try:
        await client.connect()
        outcomes = await client.replay(
            make_trace(tenants, packets).packets, window=32
        )
        flush = await client.flush()
        prom = (await client.stats(fmt="prom"))["text"]
    finally:
        await client.close()
        await proxy.aclose()
        await server.shutdown()

    if len(outcomes) != packets:
        raise SystemExit(
            f"{context} {len(outcomes)} outcomes for {packets} packets"
        )
    bad = [o for o in outcomes if o.get("type") != protocol.RESULT]
    if bad:
        raise SystemExit(f"{context} non-result outcomes: {bad[:3]}")
    wire_json = json.dumps(flush["result"], sort_keys=True)
    if wire_json != golden_json:
        raise SystemExit(
            f"{context} flushed SimulationResult differs from offline "
            f"simulate (lengths {len(wire_json)} vs {len(golden_json)})"
        )
    if server.engine.processed != packets:
        raise SystemExit(
            f"{context} engine processed {server.engine.processed} != "
            f"{packets}: a resend was double-translated or a packet lost"
        )

    # Fault accounting per class.
    if fault_class == "null":
        if not proxy.transparent() or proxy.total_faults:
            raise SystemExit(
                f"{context} null plan perturbed the wire: "
                f"faults={proxy.faults_injected}"
            )
    elif fault_class == "split_coalesce":
        if not proxy.transparent():
            raise SystemExit(f"{context} re-chunking altered wire bytes")
    elif not proxy.total_faults:
        raise SystemExit(f"{context} no fault fired; the run proved nothing")
    if fault_class == "storm":
        if proxy.faults_injected.get("drop", 0) < 5:
            raise SystemExit(
                f"{context} storm dropped "
                f"{proxy.faults_injected.get('drop', 0)}/5 connections"
            )
        if watcher.transitions < 1:
            raise SystemExit(
                f"{context} reconnect storm never breached the conn_churn "
                f"SLO rule (opened={server.conn_counters['opened']})"
            )

    # Observability: conn.* counters must surface in the prom export.
    for series in ("conn_opened", "conn_reconnects", "conn_open"):
        if series not in prom:
            raise SystemExit(f"{context} prom export misses {series}")

    # Leak checks: nothing may outlive the run.
    if proxy.live_links:
        raise SystemExit(f"{context} {proxy.live_links} proxy links leaked")
    if server._connections:
        raise SystemExit(
            f"{context} {len(server._connections)} server connections leaked"
        )
    for _ in range(200):
        dangling = [
            t for t in asyncio.all_tasks() if t is not asyncio.current_task()
        ]
        if not dangling:
            break
        await asyncio.sleep(0.01)
    else:
        raise SystemExit(f"{context} dangling asyncio tasks: {dangling}")

    return {
        "faults": dict(proxy.faults_injected),
        "reconnects": client.reconnects,
        "opened": server.conn_counters["opened"],
        "resends_served": server.conn_counters["resends_served"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seeds", default="1,2,3",
        help="comma-separated seed matrix (default 1,2,3)",
    )
    parser.add_argument("--tenants", type=int, default=8)
    parser.add_argument("--packets", type=int, default=240)
    parser.add_argument(
        "--classes", default=",".join(FAULT_CLASSES),
        help="comma-separated subset of fault classes to run",
    )
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",") if s]
    classes = [c for c in args.classes.split(",") if c]
    unknown = set(classes) - set(FAULT_CLASSES)
    if unknown:
        raise SystemExit(f"unknown fault classes: {sorted(unknown)}")

    golden = HyperSimulator(
        hypertrio_config(), make_trace(args.tenants, args.packets)
    ).run(warmup_packets=0)
    golden_json = canonical(golden)
    print(
        f"golden offline run: {args.packets} packets, "
        f"{args.tenants} tenants"
    )

    runs = 0
    for seed in seeds:
        for fault_class in classes:
            plan = plan_for(fault_class, seed)
            # The plan that runs is the plan that round-trips: chaos
            # schedules are bit-reproducible artifacts, not ephemera.
            if netplan_from_json(netplan_to_json(plan)) != plan:
                raise SystemExit(
                    f"[{fault_class} seed={seed}] plan JSON round trip drifted"
                )
            info = asyncio.run(
                run_one(
                    fault_class, plan, golden_json, args.tenants, args.packets
                )
            )
            runs += 1
            print(
                f"[{fault_class} seed={seed}] parity OK  "
                f"faults={info['faults']} reconnects={info['reconnects']} "
                f"resends_served={info['resends_served']}"
            )

    print(
        f"service chaos OK: {runs} runs byte-identical to offline simulate, "
        f"0 leaked connections, 0 dangling tasks"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

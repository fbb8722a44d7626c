#!/usr/bin/env python3
"""Walk through individual translations in the performance model.

Runs four packets through :class:`repro.HyperSimulator` with event
recording on, and prints what happened to each of a packet's three
translation requests (Figure 3's path): which structure answered, how
many DRAM reads the IOMMU walk made, at what latency, and how the picture
changes from a cold device to a warm one, after the host unmaps a page,
and for a second tenant.

Run:  python examples/translation_walkthrough.py
"""

import dataclasses

from repro import HyperSimulator, hypertrio_config
from repro.obs import Observability
from repro.obs import events as ev
from repro.trace import MEDIASTREAM, construct_trace

STEPS = (
    "1. cold device: every request walks through the IOMMU",
    "2. same packet again: DevTLB answers at device speed",
    "3. after the host unmaps the data-buffer page",
    "4. a different tenant, same gIOVAs, its own translations",
)


def requests_by_packet(events):
    """Split the recorded events into packets, each a list of requests."""
    packets = []
    request = {}
    for event in events:
        if event.kind == ev.PACKET_ADMIT:
            packets.append([])
        elif event.kind in (ev.DEVTLB_HIT, ev.DEVTLB_MISS):
            request = {"source": "devtlb" if event.kind == ev.DEVTLB_HIT else "iommu"}
        elif event.kind == ev.PB_HIT:
            request["source"] = "prefetch buffer"
        elif event.kind == ev.WALKER_WALK:
            request["dram_reads"] = event.args["memory_accesses"]
        elif event.kind == ev.REQUEST_TRANSLATE:
            request["latency_ns"] = event.dur_ns
            packets[-1].append(request)
    return packets


def main():
    trace = construct_trace(
        MEDIASTREAM, num_tenants=2, packets_per_tenant=1000, max_packets=10
    )
    packet = trace.packets[0]
    unmapped = dataclasses.replace(packet, invalidations=(packet.giovas[1] >> 12,))
    other = next(p for p in trace.packets if p.sid != packet.sid)
    trace = dataclasses.replace(trace, packets=[packet, packet, unmapped, other])

    observability = Observability.recording()
    HyperSimulator(hypertrio_config(), trace, observability=observability).run()

    for title, sent, requests in zip(
        STEPS, trace.packets, requests_by_packet(observability.tracer.events)
    ):
        print(f"\n{title}")
        space = trace.system.workloads[sent.sid].space
        for giova, request in zip(sent.giovas, requests):
            walk = ""
            if "dram_reads" in request:
                walk = f", walk made {request['dram_reads']:2d} DRAM reads"
            print(
                f"  tenant {sent.sid} gIOVA {giova:#012x} -> "
                f"hPA {space.translate(giova):#012x} via {request['source']:15s} "
                f"({request['latency_ns']:7.1f} ns{walk})"
            )
        print(
            "  packet translation latency: "
            f"{max(request['latency_ns'] for request in requests):.1f} ns"
        )

    print(
        f"\nnote how tenant {other.sid}'s translations resolve to different host "
        f"frames than tenant {packet.sid}'s\neven though the guest addresses are "
        "identical — the conflict at the heart of the paper."
    )


if __name__ == "__main__":
    main()

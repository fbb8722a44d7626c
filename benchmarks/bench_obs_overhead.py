"""Guard: observability that is off adds no work on the hot path.

The observability layer's contract (docs/OBSERVABILITY.md) is that a
simulator constructed with an empty ``Observability()`` bundle — every
layer ``None`` — runs the same hot path as one with no bundle at all:
the simulator reads the layers once at attach time, and every
per-request tracer/metrics call sits behind an ``is not None`` test on
an attribute that is ``None``.

The guard checks that contract directly instead of timing it.  It
counts the Python and C calls that ``simulator.run()`` makes
(``sys.setprofile``, ``call`` and ``c_call`` events), once with no
bundle and once with ``Observability()``, and requires the two counts to
be equal.  The model is deterministic, so the count is too: a single
call added per request under an empty bundle fails the guard, where a
wall-clock budget on a shared host cannot tell a 3% slowdown from noise.
A metrics-only bundle must count more calls than no bundle, which shows
that the count sees the hot path at all.

Runs standalone (CI calls it directly) or under pytest::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
    pytest benchmarks/bench_obs_overhead.py
"""

from __future__ import annotations

import sys

from repro.core.config import base_config
from repro.obs import Observability
from repro.sim.simulator import HyperSimulator
from repro.trace.constructor import construct_trace
from repro.trace.tenant import MEDIASTREAM

TENANTS = 32
PACKETS = 2_000


def count_calls(trace, observability) -> int:
    """Python and C calls made by one ``run()`` over ``trace``."""
    simulator = HyperSimulator(base_config(), trace, observability=observability)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        simulator.run()
    finally:
        sys.setprofile(None)
    return calls


def measure_calls() -> dict:
    """Call counts with no bundle, an empty bundle and a metrics bundle."""
    trace = construct_trace(
        MEDIASTREAM, num_tenants=TENANTS, packets_per_tenant=200_000,
        max_packets=PACKETS,
    )
    # The first run over a trace backs its page tables lazily; a warm-up
    # run lets every counted run start from the same state.
    HyperSimulator(base_config(), trace).run()
    return {
        "baseline": count_calls(trace, None),
        "empty": count_calls(trace, Observability()),
        "metrics": count_calls(trace, Observability.metrics_only()),
    }


def test_disabled_observability_adds_no_calls():
    counts = measure_calls()
    assert counts["metrics"] > counts["baseline"], counts
    assert counts["empty"] == counts["baseline"], (
        f"an empty Observability() makes "
        f"{counts['empty'] - counts['baseline']:+,} calls against no "
        f"bundle ({counts})"
    )


def main() -> int:
    counts = measure_calls()
    print(
        f"calls: no bundle {counts['baseline']:,}  "
        f"Observability() {counts['empty']:,}  "
        f"metrics_only() {counts['metrics']:,}"
    )
    if counts["metrics"] <= counts["baseline"]:
        print("FAIL: a metrics bundle adds no calls; the count misses the hot path")
        return 1
    if counts["empty"] != counts["baseline"]:
        print("FAIL: the empty bundle adds calls on the hot path")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

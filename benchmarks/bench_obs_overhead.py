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
that the count sees the hot path at all.  It counts both designs: Base
runs unpartitioned caches, and only HyperTRIO runs partitioned ones, the
Prefetch Buffer and the prefetch path.

Runs standalone (CI calls it directly) or under pytest::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
    pytest benchmarks/bench_obs_overhead.py
"""

from __future__ import annotations

import sys

import pytest

from repro.core.config import base_config, hypertrio_config
from repro.obs import Observability
from repro.sim.simulator import HyperSimulator
from repro.trace.constructor import construct_trace
from repro.trace.tenant import MEDIASTREAM

TENANTS = 32
PACKETS = 2_000
CONFIGS = {"Base": base_config, "HyperTRIO": hypertrio_config}


def count_calls(config, trace, observability) -> int:
    """Python and C calls made by one ``run()`` of ``config`` over ``trace``."""
    simulator = HyperSimulator(config, trace, observability=observability)
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


def measure_calls(name: str) -> dict:
    """Call counts of the ``name`` design with no bundle, an empty bundle
    and a metrics bundle."""
    config = CONFIGS[name]()
    trace = construct_trace(
        MEDIASTREAM, num_tenants=TENANTS, packets_per_tenant=200_000,
        max_packets=PACKETS,
    )
    # The first run over a trace backs its page tables lazily; a warm-up
    # run lets every counted run start from the same state.
    HyperSimulator(config, trace).run()
    return {
        "baseline": count_calls(config, trace, None),
        "empty": count_calls(config, trace, Observability()),
        "metrics": count_calls(config, trace, Observability.metrics_only()),
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_disabled_observability_adds_no_calls(name):
    counts = measure_calls(name)
    assert counts["metrics"] > counts["baseline"], counts
    assert counts["empty"] == counts["baseline"], (
        f"an empty Observability() makes "
        f"{counts['empty'] - counts['baseline']:+,} calls against no "
        f"bundle ({counts})"
    )


def main() -> int:
    failed = False
    for name in sorted(CONFIGS):
        counts = measure_calls(name)
        print(
            f"{name} calls: no bundle {counts['baseline']:,}  "
            f"Observability() {counts['empty']:,}  "
            f"metrics_only() {counts['metrics']:,}"
        )
        if counts["metrics"] <= counts["baseline"]:
            print(f"FAIL: a metrics bundle adds no calls to {name}; the count "
                  f"misses the hot path")
            failed = True
        if counts["empty"] != counts["baseline"]:
            print(f"FAIL: the empty bundle adds calls to {name}'s hot path")
            failed = True
    print("FAIL" if failed else "OK")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

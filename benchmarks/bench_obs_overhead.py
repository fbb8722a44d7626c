"""Guard: observability that is off must cost (near) nothing.

The observability layer's contract (docs/OBSERVABILITY.md) is that a
simulator constructed with an empty ``Observability()`` bundle — every
layer ``None`` — has the same hot path as one with no bundle at all: the
simulator reads the layers once at attach time and every per-request
tracer/metrics call is guarded by an ``is not None`` test on an attribute
that is ``None``.  This benchmark enforces the budget: the empty bundle
must stay within ``BUDGET_FRACTION`` (3 %) of the run with no bundle.

Runs standalone (CI calls it directly) or under pytest::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
    pytest benchmarks/bench_obs_overhead.py

Trials alternate the variants and the comparison uses the minimum per
side, so one-off scheduler hiccups cannot produce a false failure (or
mask a true regression behind a slow baseline trial).
"""

from __future__ import annotations

import time

from repro.core.config import base_config
from repro.obs import Observability
from repro.sim.simulator import HyperSimulator
from repro.trace.constructor import construct_trace
from repro.trace.tenant import MEDIASTREAM

#: Allowed slowdown of an empty-bundle run vs the run with no bundle.
BUDGET_FRACTION = 0.03
TRIALS = 5
TENANTS = 32
PACKETS = 6_000


def _time_run(trace, observability) -> float:
    config = base_config()
    simulator = HyperSimulator(config, trace, observability=observability)
    start = time.perf_counter()
    simulator.run()
    return time.perf_counter() - start


def measure_overhead() -> dict:
    """Min-of-N timings of the empty bundle vs no bundle; returns a report."""
    trace = construct_trace(
        MEDIASTREAM, num_tenants=TENANTS, packets_per_tenant=200_000,
        max_packets=PACKETS,
    )
    variants = {
        "baseline": lambda: None,
        "empty": Observability,
    }
    # Warm every path once (imports, allocator, trace-derived state).
    for factory in variants.values():
        _time_run(trace, factory())
    times = {name: [] for name in variants}
    for _ in range(TRIALS):
        for name, factory in variants.items():
            times[name].append(_time_run(trace, factory()))
    best = {name: min(samples) for name, samples in times.items()}
    return {
        "baseline_s": best["baseline"],
        "empty_s": best["empty"],
        "empty_fraction": best["empty"] / best["baseline"] - 1.0,
        "budget_fraction": BUDGET_FRACTION,
    }


def test_disabled_observability_within_budget():
    report = measure_overhead()
    assert report["empty_fraction"] < BUDGET_FRACTION, (
        f"an empty Observability() costs "
        f"{report['empty_fraction'] * 100:.2f}% "
        f"(budget {BUDGET_FRACTION * 100:.0f}%): "
        f"baseline {report['baseline_s'] * 1e3:.1f} ms, "
        f"empty {report['empty_s'] * 1e3:.1f} ms"
    )


def main() -> int:
    report = measure_overhead()
    print(
        f"baseline {report['baseline_s'] * 1e3:8.1f} ms  "
        f"Observability() {report['empty_s'] * 1e3:8.1f} ms "
        f"({report['empty_fraction'] * 100:+6.2f}%)  "
        f"budget {BUDGET_FRACTION * 100:.0f}%"
    )
    if report["empty_fraction"] >= BUDGET_FRACTION:
        print("FAIL: the empty bundle exceeds the overhead budget")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

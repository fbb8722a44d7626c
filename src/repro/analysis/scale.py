"""Run-scale control for experiments and benchmarks.

The paper's traces hold up to 70 M translation requests; a pure-Python
model replays scaled-down traces whose *shape* (page-reuse periods,
per-tenant spreads, interleaving) matches the originals.  A
:class:`RunScale` bundles every scaling knob; presets are selected with the
``REPRO_BENCH_SCALE`` environment variable (``smoke`` / ``default`` /
``full``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple

#: Environment variable selecting a preset for the benchmark harness.
SCALE_ENV_VAR = "REPRO_BENCH_SCALE"


@dataclass(frozen=True)
class RunScale:
    """Scaling knobs shared by all experiment drivers.

    Attributes
    ----------
    tenant_counts:
        Tenant sweep points (the paper uses 4..1024).
    interleavings:
        Inter-tenant orders to evaluate.
    benchmarks:
        Benchmark names to run for non-headline figures (the headline
        Figure 10 always runs all three).
    max_packets:
        Trace-length cap for the performance model.
    packets_per_tenant:
        Per-tenant packet budget *before* the cap; large values keep the
        paper's ~1500-use data-page periods intact (the constructor is
        lazy, so unconsumed budget costs nothing).
    warmup_fraction:
        Fraction of the trace excluded from the bandwidth measurement as
        cold-start transient (the paper measures steady state).
    """

    name: str
    tenant_counts: Tuple[int, ...]
    interleavings: Tuple[str, ...]
    benchmarks: Tuple[str, ...]
    max_packets: int
    packets_per_tenant: int = 200_000
    warmup_fraction: float = 0.25

    def packets_for(self, num_tenants: int) -> int:
        """Trace length for one run: at least ~12 rounds, capped."""
        return min(self.max_packets, max(4000, 16 * num_tenants))

    def warmup_for(self, trace_packets: int) -> int:
        """Warm-up packets excluded from the measurement."""
        return int(trace_packets * self.warmup_fraction)


SMOKE = RunScale(
    name="smoke",
    tenant_counts=(4, 16),
    interleavings=("RR1",),
    benchmarks=("mediastream",),
    max_packets=1500,
)

DEFAULT = RunScale(
    name="default",
    tenant_counts=(4, 64, 1024),
    interleavings=("RR1", "RAND1"),
    benchmarks=("mediastream",),
    max_packets=16_000,
)

FULL = RunScale(
    name="full",
    tenant_counts=(4, 16, 64, 256, 1024),
    interleavings=("RR1", "RR4", "RAND1"),
    benchmarks=("iperf3", "mediastream", "websearch"),
    max_packets=24_000,
)

_PRESETS = {"smoke": SMOKE, "default": DEFAULT, "full": FULL}


def current_scale() -> RunScale:
    """The preset selected by :data:`SCALE_ENV_VAR` (default: ``default``)."""
    name = os.environ.get(SCALE_ENV_VAR, "default").strip().lower()
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"{SCALE_ENV_VAR}={name!r} is not one of {sorted(_PRESETS)}"
        ) from None

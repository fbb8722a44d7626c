"""The HyperSIO performance model: analytic trace-driven timing."""

from repro.sim.link import IoLink
from repro.sim.oracle import FutureOracle, devtlb_key_sequence, oracle_for_trace
from repro.sim.resources import ResourcePool, UnboundedPool
from repro.sim.simulator import HyperSimulator, simulate
from repro.sim.telemetry import Telemetry, WindowSample

__all__ = [
    "IoLink",
    "FutureOracle",
    "devtlb_key_sequence",
    "oracle_for_trace",
    "ResourcePool",
    "UnboundedPool",
    "HyperSimulator",
    "simulate",
    "Telemetry",
    "WindowSample",
]

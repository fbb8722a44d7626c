"""The benchmark's workloads: what each one runs and how its inputs are made.

Every workload uses the mediastream profile.  The trace seed comes from the
``--seed`` argument, folded onto :data:`REFERENCE_SEEDS` seeds so that each
run's simulated result can be checked against a result recorded for that
seed (``references.json``).  The program only ever sees the generated trace.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

#: Root of the checkout (this file lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
#: Scratch space for checkpoints and traced-run output (ignored by git).
WORK_ROOT = ROOT / ".perfbench"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Trace seeds that have a recorded reference result.
REFERENCE_SEEDS = 16

#: Per-tenant packet budget before the trace cap, as every sweep point and
#: ``repro-sim serve`` build their traces.
PACKETS_PER_TENANT = 200_000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see ``BENCHMARK.json`` for why each exists)."""

    name: str
    config: str
    tenants: int
    interleaving: str
    packets: int
    warmup_packets: int = 0
    #: Snapshots per run, evenly spaced (0: no checkpointing).
    checkpoints: int = 0
    #: Replayed over TCP to a ``repro-sim serve`` process.
    service: bool = False

    @property
    def checkpoint_every(self) -> int:
        return self.packets // self.checkpoints if self.checkpoints else 0


WORKLOADS = {
    workload.name: workload
    for workload in (
        # The 1024-tenant points as the ``full`` run scale runs them for
        # Figure 10: 16,384 packets, the first 25% excluded as warm-up.
        Workload("hypertrio-rr1", "hypertrio", 1024, "RR1", 16_384, warmup_packets=4_096),
        Workload(
            "base-rand1-ckpt", "base", 1024, "RAND1", 16_384, warmup_packets=4_096,
            checkpoints=4,
        ),
        # Long enough per round for a steady rate and a p99 with over a
        # hundred samples beyond it.
        Workload("service-16t", "hypertrio", 16, "RR1", 12_000, service=True),
    )
}


def trace_seed(seed: int) -> int:
    """The trace seed a benchmark ``--seed`` maps to."""
    return seed % REFERENCE_SEEDS


def build_config(workload: Workload):
    from repro.core.config import base_config, hypertrio_config

    return {"base": base_config, "hypertrio": hypertrio_config}[workload.config]()


def build_trace(workload: Workload, seed: int):
    """The workload's trace for trace seed ``seed`` (as ``construct_trace``
    builds it for a sweep point or for ``repro-sim serve``)."""
    from repro.trace.constructor import construct_trace
    from repro.trace.tenant import profile_by_name

    return construct_trace(
        profile_by_name("mediastream"),
        num_tenants=workload.tenants,
        packets_per_tenant=PACKETS_PER_TENANT,
        interleaving=workload.interleaving,
        seed=seed,
        max_packets=workload.packets,
    )


def result_digest(result) -> str:
    """SHA-256 of the serialized :class:`SimulationResult`."""
    from repro.runner.serialize import result_to_dict

    text = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_references() -> dict:
    with open(REFERENCES) as handle:
        return json.load(handle)


def reference_digest(workload: Workload, seed: int):
    """The recorded digest for ``workload`` at trace seed ``seed``, or None."""
    return load_references().get(workload.name, {}).get(str(seed))


def child_env() -> dict:
    """Environment for the processes the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env

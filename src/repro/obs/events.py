"""Event taxonomy for the observability layer.

Every structured event emitted along the translation path has a *kind*
drawn from the constants below.  Kind strings are ``structure.action``:
the structure prefix selects the Perfetto track the event lands on (one
track per structure, with one row per SID inside it — see
:mod:`repro.obs.export`), and the action names the lifecycle step.

The taxonomy mirrors the paper's Figure 3 walk through the hardware:

* **packet** — link-level admission: a packet is admitted into the device,
  dropped because the Pending Translation Buffer is full, or retried at a
  later arrival slot.
* **request** — one gIOVA translation from issue to completion (emitted as
  a span carrying the full translation latency).
* **devtlb / prefetch_buffer / iotlb** — per-lookup hit/miss outcomes of
  the final-translation caches.
* **ptb** — Pending Translation Buffer entry lifecycle (enqueue carries
  the queueing delay behind a full buffer; release marks completion).
* **walker** — bounded IOMMU walker-pool usage: acquire (with queue
  delay), the walk itself (a span carrying DRAM access and nested-TLB
  outcome counts), and release.
* **prefetch** — the Translation Prefetching Scheme: a SID prediction, the
  prefetches issued for it, their installs back at the device, and demand
  translations supplied by a prefetched entry.
* **fault** — fault-injection lifecycle (only with an active
  :class:`~repro.faults.plan.FaultPlan`): an injected translation fault, a
  packet dropped after exhausting degraded-mode retries, a device reset,
  and an invalidation storm (see ``docs/RESILIENCE.md``).
* **service** — the translation service's wall-clock request tree,
  ``wire.read -> {admission, dispatch -> engine.step}``, recorded as span
  events with :meth:`~repro.obs.tracer.RecordingTracer.start` /
  ``finish``.  The one prefix keeps each request's spans on one per-SID
  track.
"""

from __future__ import annotations

# Packet admission -----------------------------------------------------
PACKET_ADMIT = "packet.admit"
PACKET_DROP = "packet.drop"

# Request lifecycle ----------------------------------------------------
REQUEST_TRANSLATE = "request.translate"

# Device-side lookup structures ---------------------------------------
DEVTLB_HIT = "devtlb.hit"
DEVTLB_MISS = "devtlb.miss"
PB_HIT = "prefetch_buffer.hit"

# Pending Translation Buffer ------------------------------------------
PTB_ENQUEUE = "ptb.enqueue"
PTB_RELEASE = "ptb.release"

# Chipset structures ---------------------------------------------------
IOTLB_HIT = "iotlb.hit"
IOTLB_MISS = "iotlb.miss"

# Bounded IOMMU walker pool -------------------------------------------
WALKER_ACQUIRE = "walker.acquire"
WALKER_WALK = "walker.walk"
WALKER_RELEASE = "walker.release"

# Translation Prefetching Scheme --------------------------------------
PREFETCH_PREDICT = "prefetch.predict"
PREFETCH_ISSUE = "prefetch.issue"
PREFETCH_INSTALL = "prefetch.install"
PREFETCH_SUPPLY = "prefetch.supply"

# Fault injection (emitted only when a fault plan is active) -----------
FAULT_TRANSLATION = "fault.translation"
FAULT_DROP = "fault.drop"
FAULT_DEVICE_RESET = "fault.device_reset"
FAULT_STORM = "fault.invalidation_storm"

# Checkpoint / restore (emitted only when checkpointing is enabled) ----
CHECKPOINT_SAVE = "checkpoint.save"
CHECKPOINT_RESUME = "checkpoint.resume"

# Runner supervision (emitted through the runner's progress stream) ----
WATCHDOG_STALE = "watchdog.stale"
WATCHDOG_DEADLINE = "watchdog.deadline"
WATCHDOG_MEMORY = "watchdog.memory"
WATCHDOG_KILL = "watchdog.kill"

# SLO watch engine (emitted only with active SLO rules; see
# repro.obs.slo) -------------------------------------------------------
SLO_BREACH = "slo.breach"
SLO_RECOVER = "slo.recover"

# Service request tree, in parent order (wall-clock span events) -------
SERVICE_WIRE_READ = "service.wire.read"
SERVICE_ADMISSION = "service.admission"
SERVICE_DISPATCH = "service.dispatch"
SERVICE_ENGINE_STEP = "service.engine.step"

#: Every kind the simulator or the service may emit (exporters and tests
#: validate against this set).
ALL_EVENT_KINDS = frozenset(
    {
        PACKET_ADMIT,
        PACKET_DROP,
        REQUEST_TRANSLATE,
        DEVTLB_HIT,
        DEVTLB_MISS,
        PB_HIT,
        PTB_ENQUEUE,
        PTB_RELEASE,
        IOTLB_HIT,
        IOTLB_MISS,
        WALKER_ACQUIRE,
        WALKER_WALK,
        WALKER_RELEASE,
        PREFETCH_PREDICT,
        PREFETCH_ISSUE,
        PREFETCH_INSTALL,
        PREFETCH_SUPPLY,
        FAULT_TRANSLATION,
        FAULT_DROP,
        FAULT_DEVICE_RESET,
        FAULT_STORM,
        CHECKPOINT_SAVE,
        CHECKPOINT_RESUME,
        WATCHDOG_STALE,
        WATCHDOG_DEADLINE,
        WATCHDOG_MEMORY,
        WATCHDOG_KILL,
        SLO_BREACH,
        SLO_RECOVER,
        SERVICE_WIRE_READ,
        SERVICE_ADMISSION,
        SERVICE_DISPATCH,
        SERVICE_ENGINE_STEP,
    }
)


def structure_of(kind: str) -> str:
    """The structure prefix of an event kind (``"devtlb.hit"`` -> ``"devtlb"``)."""
    return kind.split(".", 1)[0]

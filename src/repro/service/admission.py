"""Per-tenant admission control for the translation service.

Two independent gates run in front of the engine, per tenant:

* a **token bucket** (``rate_per_s`` tokens/second, ``burst`` capacity)
  bounds each tenant's sustained request rate — the service-layer
  analogue of the shadow-queue admission in NVMe queue passthrough
  (Chen et al.): a tenant cannot monopolise the shared fabric simply by
  submitting faster;
* a **queue-depth cap** (``max_queue_depth``) bounds how many of a
  tenant's requests may sit in the service's dispatch queue at once,
  keeping one tenant's backlog from inflating every tenant's latency.

A third, *fabric-level* gate reacts to modeled PTB occupancy: when a
device's Pending Translation Buffer crosses ``ptb_high_watermark`` the
controller latches that device into a backpressure state, released only
when occupancy falls back to ``ptb_low_watermark`` (hysteresis, so the
gate does not flap around the threshold).  What happens while latched is
``backpressure_mode``:

* ``"shed"`` (default): the request is refused with a typed
  ``backpressure`` error and the device consumes the wire slot anyway —
  the service-layer mirror of the paper's PTB-overflow drop-and-retry;
* ``"pause"``: the device's virtual clock is stalled to the PTB drain
  time before the packet is admitted (pause-the-link semantics), trading
  added latency for zero sheds.

All gates are pure bookkeeping over injected clocks, so they are
deterministic under test and checkpoint-friendly: only the token
buckets' refill timestamps reference wall time, and those are reset on
warm restart (:meth:`AdmissionController.reset_runtime`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.service import protocol


@dataclass(frozen=True)
class AdmissionConfig:
    """Tunables of the service admission layer.

    The defaults disable every gate, so a default-configured service is a
    pure transport in front of the engine — this is what keeps the
    service-vs-offline parity guarantee unconditional.
    """

    #: Sustained per-tenant request rate (requests/second).  ``None``
    #: disables rate limiting; ``0.0`` (or negative) denies every request
    #: from that tenant (a quiesced tenant).
    rate_per_s: Optional[float] = None
    #: Token-bucket capacity: the largest back-to-back burst admitted.
    burst: int = 64
    #: Max requests a tenant may have queued in the service at once.
    #: ``None`` disables the cap.
    max_queue_depth: Optional[int] = None
    #: PTB occupancy (entries) at which backpressure latches for a
    #: device.  ``None`` disables the fabric-level gate.
    ptb_high_watermark: Optional[int] = None
    #: Occupancy at which a latched device releases.  Defaults to half
    #: the high watermark when left ``None``.
    ptb_low_watermark: Optional[int] = None
    #: ``"shed"`` (typed error, wire slot consumed) or ``"pause"``
    #: (stall virtual time until the PTB drains).
    backpressure_mode: str = "shed"
    #: Per-SID overrides of ``rate_per_s``.
    tenant_rates: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.backpressure_mode not in ("shed", "pause"):
            raise ValueError(
                f"backpressure_mode must be 'shed' or 'pause', "
                f"got {self.backpressure_mode!r}"
            )
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if (
            self.ptb_high_watermark is not None
            and self.ptb_high_watermark < 1
        ):
            raise ValueError("ptb_high_watermark must be >= 1")

    def rate_for(self, sid: int) -> Optional[float]:
        return self.tenant_rates.get(sid, self.rate_per_s)

    def low_watermark(self) -> int:
        if self.ptb_low_watermark is not None:
            return self.ptb_low_watermark
        return (self.ptb_high_watermark or 0) // 2


class TokenBucket:
    """A classic token bucket over an injected monotonic clock.

    Starts full (so a cold tenant can burst exactly ``capacity``
    requests) unless the rate is zero-or-negative, in which case it is
    permanently empty — a zero-rate tenant is denied everything.
    """

    def __init__(self, rate_per_s: float, capacity: int):
        self.rate = rate_per_s
        self.capacity = capacity
        self.tokens = float(capacity) if rate_per_s > 0 else 0.0
        #: Last refill timestamp; ``None`` until first use (and after a
        #: warm restart, because monotonic epochs differ across
        #: processes).
        self.last: Optional[float] = None

    def try_take(self, now: float) -> bool:
        if self.rate <= 0:
            return False
        if self.last is not None and now > self.last:
            self.tokens = min(
                float(self.capacity), self.tokens + (now - self.last) * self.rate
            )
        self.last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class TenantAdmissionStats:
    """Admission outcomes of one tenant, for the ``stats`` endpoint."""

    admitted: int = 0
    rate_limited: int = 0
    queue_full: int = 0
    backpressure_shed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "admitted": self.admitted,
            "rate_limited": self.rate_limited,
            "queue_full": self.queue_full,
            "backpressure_shed": self.backpressure_shed,
        }


class AdmissionController:
    """Applies :class:`AdmissionConfig` to a stream of requests.

    :meth:`acquire` runs the per-tenant gates at enqueue time (in the
    connection handler); :meth:`release` returns the queue-depth slot
    when the request leaves the service (processed, shed, or the
    connection died).  The fabric-level PTB gate runs separately in the
    dispatcher (:meth:`check_backpressure`) because occupancy is only
    meaningful at the engine's virtual submission time.
    """

    def __init__(self, config: Optional[AdmissionConfig] = None):
        self.config = config or AdmissionConfig()
        self._buckets: Dict[int, TokenBucket] = {}
        self._in_flight: Dict[int, int] = {}
        self._latched: Dict[int, bool] = {}
        self.stats: Dict[int, TenantAdmissionStats] = {}
        #: Latched by the server's SLO watch engine (``--slo-backpressure``):
        #: while True, every dispatch sees backpressure regardless of PTB
        #: occupancy.
        self.slo_latched = False

    # ------------------------------------------------------------------
    def _stats_for(self, sid: int) -> TenantAdmissionStats:
        stats = self.stats.get(sid)
        if stats is None:
            stats = self.stats[sid] = TenantAdmissionStats()
        return stats

    def _bucket_for(self, sid: int) -> Optional[TokenBucket]:
        rate = self.config.rate_for(sid)
        if rate is None:
            return None
        bucket = self._buckets.get(sid)
        if bucket is None:
            bucket = self._buckets[sid] = TokenBucket(rate, self.config.burst)
        return bucket

    # ------------------------------------------------------------------
    def acquire(self, sid: int, now: float) -> Optional[str]:
        """Admit one request from ``sid`` at wall time ``now``.

        Returns ``None`` on admission (the tenant's in-flight count is
        incremented — pair with :meth:`release`) or a typed error code
        (:data:`~repro.service.protocol.E_RATE_LIMITED` /
        :data:`~repro.service.protocol.E_QUEUE_FULL`).
        """
        stats = self._stats_for(sid)
        depth_cap = self.config.max_queue_depth
        if depth_cap is not None and self._in_flight.get(sid, 0) >= depth_cap:
            stats.queue_full += 1
            return protocol.E_QUEUE_FULL
        bucket = self._bucket_for(sid)
        if bucket is not None and not bucket.try_take(now):
            stats.rate_limited += 1
            return protocol.E_RATE_LIMITED
        self._in_flight[sid] = self._in_flight.get(sid, 0) + 1
        stats.admitted += 1
        return None

    def release(self, sid: int) -> None:
        """Return ``sid``'s queue-depth slot (request left the service)."""
        count = self._in_flight.get(sid, 0)
        if count > 0:
            self._in_flight[sid] = count - 1

    def in_flight(self, sid: int) -> int:
        return self._in_flight.get(sid, 0)

    # ------------------------------------------------------------------
    def check_backpressure(self, device_id: int, occupancy: int) -> bool:
        """Update the latch for a device; True while backpressure holds.

        Hysteresis: latches at/above the high watermark, releases only
        at/below the low watermark.  An SLO-driven latch
        (:attr:`slo_latched`) overrides: it holds until the watch engine
        clears it, independent of this device's occupancy.
        """
        if self.slo_latched:
            return True
        high = self.config.ptb_high_watermark
        if high is None:
            return False
        latched = self._latched.get(device_id, False)
        if latched:
            if occupancy <= self.config.low_watermark():
                self._latched[device_id] = False
                return False
            return True
        if occupancy >= high:
            self._latched[device_id] = True
            return True
        return False

    def record_shed(self, sid: int) -> None:
        self._stats_for(sid).backpressure_shed += 1

    def is_latched(self, device_id: int) -> bool:
        return self._latched.get(device_id, False)

    # ------------------------------------------------------------------
    def reset_runtime(self) -> None:
        """Clear process-bound runtime state after a warm restart.

        In-flight counts belong to connections of the old process,
        backpressure latches are recomputed from live occupancy, and
        token-bucket refill timestamps reference the old process's
        monotonic epoch — all reset; configured rates, capacities, and
        cumulative stats survive.
        """
        self._in_flight.clear()
        self._latched.clear()
        self.slo_latched = False
        for bucket in self._buckets.values():
            bucket.last = None

    def snapshot(self) -> Dict[int, Dict[str, int]]:
        """Copy-on-read per-tenant admission stats."""
        return {sid: stats.as_dict() for sid, stats in sorted(self.stats.items())}

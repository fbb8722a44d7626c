"""The multi-device I/O fabric: N device paths behind one shared chipset.

The paper's Figure 6 describes one device + chipset pair; a hyper-tenant
host puts *several* NICs/accelerators behind the same IOMMU.  This module
splits the translation architecture into its two physical halves and
composes them:

* :class:`DevicePath` — everything that lives on one device: the
  (possibly partitioned) DevTLB, the Pending Translation Buffer, and the
  Prefetch Unit.  One instance per device.
* :class:`ChipsetPath` — everything shared at the chipset: the IOMMU with
  its IOTLB / nested TLB / PTE cache, the context cache, the bounded
  page-table-walker pool, the chipset-side IOVA history, and main memory.
  Exactly one instance per fabric.
* :class:`Fabric` — ``config.devices.count`` device paths in front of one
  chipset, plus the SID -> device routing
  (:meth:`~repro.core.config.DeviceConfig.device_for`).

With one device the fabric is exactly the paper's Figure 6 hardware.
:func:`attach_observability` wires an observability bundle's eviction
attribution into every cache of a fabric.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional

from repro.cache.setassoc import SetAssociativeCache
from repro.core.config import ArchConfig, TlbConfig
from repro.core.prefetch import IovaHistory, PrefetchUnit
from repro.core.ptb import PendingTranslationBuffer
from repro.iommu.context import ContextCache, ContextEntry
from repro.iommu.iommu import Iommu, IommuTimings
from repro.mem.dram import MainMemory


@dataclass
class DevicePath:
    """The device-side hardware of one fabric endpoint."""

    device_id: int
    devtlb: SetAssociativeCache
    ptb: PendingTranslationBuffer
    prefetch_unit: Optional[PrefetchUnit]

    def named_caches(self):
        """``(name, cache)`` pairs for this device's translation caches."""
        pairs = [("devtlb", self.devtlb)]
        if self.prefetch_unit is not None:
            pairs.append(("prefetch_buffer", self.prefetch_unit.buffer))
        return pairs


@dataclass
class ChipsetPath:
    """The chipset-side hardware every device shares."""

    iommu: Iommu
    context_cache: ContextCache
    memory: MainMemory
    walker_pool: object  #: :class:`ResourcePool` or :class:`UnboundedPool`
    iova_history: Optional[IovaHistory]

    def named_caches(self):
        """``(name, cache)`` pairs for the shared chipset caches."""
        return [
            ("iotlb", self.iommu.iotlb),
            ("nested_tlb", self.iommu.nested_tlb),
            ("pte_cache", self.iommu.pte_cache),
        ]


def _build_tlb(
    tlb_config: TlbConfig,
    name: str,
    next_use: Optional[Callable[[Hashable], Optional[float]]] = None,
) -> SetAssociativeCache:
    """Instantiate one cache from a :class:`TlbConfig`: a plain
    set-associative cache, a partitioned one (HyperTRIO's DevTLB, Section
    III) or the fully associative structure of Figure 11c (one set)."""
    return SetAssociativeCache(
        tlb_config.num_entries,
        tlb_config.num_entries if tlb_config.fully_associative else tlb_config.ways,
        tlb_config.num_partitions,
        tlb_config.policy,
        name,
        next_use,
    )


def _build_device(
    config: ArchConfig,
    device_id: int,
    name_prefix: str,
    devtlb_next_use: Optional[Callable[[Hashable], Optional[float]]],
) -> DevicePath:
    """Build one device path (DevTLB + PTB + Prefetch Unit)."""
    devtlb = _build_tlb(config.devtlb, f"{name_prefix}devtlb", devtlb_next_use)
    prefetch_unit = PrefetchUnit(config.prefetch) if config.prefetch.enabled else None
    return DevicePath(
        device_id=device_id,
        devtlb=devtlb,
        ptb=PendingTranslationBuffer(config.ptb_entries),
        prefetch_unit=prefetch_unit,
    )


def _build_chipset(
    config: ArchConfig,
    walker_for_sid: Callable[[int], object],
    sids=(),
) -> ChipsetPath:
    """Build the shared chipset path (IOMMU, walker pool, DRAM, history)."""
    memory = MainMemory(latency_ns=config.timing.dram_latency_ns)
    context_cache = ContextCache()
    for sid in sids:
        context_cache.register(sid, ContextEntry(did=sid, root_table_hpa=0))
    iotlb_config = config.effective_chipset_iotlb
    if iotlb_config.policy.lower() == "oracle" and config.chipset_iotlb is None:
        # The chipset IOTLB only mirrors the DevTLB geometry; the oracle
        # studies (Figure 11b/c) idealise the DevTLB alone, so the mirrored
        # IOTLB falls back to the paper's default LFU policy.
        ways = 8 if iotlb_config.num_entries % 8 == 0 else 1
        iotlb_config = dataclasses.replace(
            iotlb_config, policy="lfu", fully_associative=False, ways=ways,
            num_partitions=1,
        )
    iommu = Iommu(
        iotlb=_build_tlb(iotlb_config, "iotlb"),
        nested_tlb=_build_tlb(config.l3_tlb, "nested-tlb"),
        pte_cache=_build_tlb(config.l2_tlb, "pte-cache"),
        walker_for_sid=walker_for_sid,
        memory=memory,
        context_cache=context_cache,
        timings=IommuTimings(
            iotlb_hit_ns=config.timing.iotlb_hit_ns,
            cache_hit_ns=config.timing.iotlb_hit_ns,
        ),
    )
    # Imported lazily: repro.sim's package init imports the simulator,
    # which imports this module — a top-level import would be circular.
    from repro.sim.resources import ResourcePool, UnboundedPool

    if config.iommu_walkers is None:
        walker_pool = UnboundedPool()
    else:
        walker_pool = ResourcePool(config.iommu_walkers)
    iova_history = (
        IovaHistory(depth=config.prefetch.pages_per_tenant)
        if config.prefetch.enabled
        else None
    )
    return ChipsetPath(
        iommu=iommu,
        context_cache=context_cache,
        memory=memory,
        walker_pool=walker_pool,
        iova_history=iova_history,
    )


class Fabric:
    """``config.devices.count`` device paths sharing one chipset path.

    Parameters
    ----------
    walker_for_sid:
        Callback giving the IOMMU each tenant's two-dimensional walker
        (usually ``HyperTenantSystem.walker_for``).
    sids:
        Tenants to pre-register in the context cache's backing table.
    devtlb_next_use:
        Future-knowledge callable, required when the DevTLB policy is
        ``oracle``.
    """

    #: Instance attributes a checkpoint pickles (repro.sim.checkpoint).
    _state_fields = ("config", "num_devices", "chipset", "devices")

    def __init__(
        self,
        config: ArchConfig,
        walker_for_sid: Callable[[int], object],
        sids=(),
        devtlb_next_use: Optional[Callable[[Hashable], Optional[float]]] = None,
    ):
        self.config = config
        self.num_devices = config.devices.count
        self.chipset = _build_chipset(config, walker_for_sid, sids=sids)
        self.devices: List[DevicePath] = [
            _build_device(
                config,
                device_id=index,
                name_prefix="" if self.num_devices == 1 else f"dev{index}.",
                devtlb_next_use=devtlb_next_use,
            )
            for index in range(self.num_devices)
        ]

    # ------------------------------------------------------------------
    def device_for_sid(self, sid: int) -> int:
        """Route tenant ``sid`` to its device index."""
        return self.config.devices.device_for(sid)

    def named_caches(self):
        """``(name, cache)`` pairs across the whole fabric.

        Device caches come first (prefixed ``dev<i>.`` when more than one
        device exists, keeping single-device names identical to the
        pre-fabric model), then the shared chipset caches once.
        """
        pairs = []
        for device in self.devices:
            prefix = "" if self.num_devices == 1 else f"dev{device.device_id}."
            for name, cache in device.named_caches():
                pairs.append((f"{prefix}{name}", cache))
        pairs.extend(self.chipset.named_caches())
        return pairs


def attach_observability(fabric: Fabric, observability) -> None:
    """Wire an :class:`~repro.obs.Observability` bundle into ``fabric``.

    Installs cross-tenant eviction attribution listeners on every cache
    of :meth:`Fabric.named_caches` (the direct measurement behind the
    paper's isolation claim).  A disabled bundle, or one without an
    eviction layer, attaches nothing and leaves every hot path untouched.
    """
    evictions = observability.evictions if observability is not None else None
    if evictions is None:
        return
    for name, cache in fabric.named_caches():
        cache.eviction_listener = evictions.listener_for(name)

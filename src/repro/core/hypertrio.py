"""Assembly of the device + chipset translation path.

Historically this module built the *single* device + chipset pair of the
paper's Figure 6.  The hardware now lives in :mod:`repro.core.fabric`,
split into its two physical halves — :class:`~repro.core.fabric.DevicePath`
(DevTLB, PTB, Prefetch Unit) and :class:`~repro.core.fabric.ChipsetPath`
(IOMMU + caches, context cache, walker pool, IOVA history, DRAM) — which a
:class:`~repro.core.fabric.Fabric` composes N-of-one-behind.

:class:`TranslationPath` remains the single-device API: a *view* pairing
one device path with the shared chipset, exposing every structure under
its historical attribute name.  :func:`build_translation_path` builds a
one-device fabric and returns its view, so existing callers (the NIC
model, tests, examples) are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Optional

from repro.core.config import ArchConfig
from repro.core.fabric import ChipsetPath, DevicePath, Fabric


@dataclass
class TranslationPath:
    """One device path + the (possibly shared) chipset path.

    With one device this is exactly the paper's Figure 6 hardware; in a
    multi-device fabric each device gets its own view onto the shared
    chipset.  Attribute names match the pre-fabric ``TranslationPath`` so
    the simulator, NIC model, and tests read structures the same way.
    """

    config: ArchConfig
    device: DevicePath
    chipset: ChipsetPath

    # -- device-side structures ----------------------------------------
    @property
    def devtlb(self):
        return self.device.devtlb

    @property
    def ptb(self):
        return self.device.ptb

    @property
    def prefetch_unit(self):
        return self.device.prefetch_unit

    # -- chipset-side structures ---------------------------------------
    @property
    def iommu(self):
        return self.chipset.iommu

    @property
    def memory(self):
        return self.chipset.memory

    @property
    def context_cache(self):
        return self.chipset.context_cache

    @property
    def iova_history(self):
        return self.chipset.iova_history

    @property
    def walker_pool(self):
        return self.chipset.walker_pool

    def named_caches(self):
        """``(name, cache)`` pairs for every translation cache in the path
        (the names match :attr:`SimulationResult.cache_stats` keys)."""
        pairs = [
            ("devtlb", self.devtlb),
            ("iotlb", self.iommu.iotlb),
            ("nested_tlb", self.iommu.nested_tlb),
            ("pte_cache", self.iommu.pte_cache),
        ]
        if self.prefetch_unit is not None:
            pairs.append(("prefetch_buffer", self.prefetch_unit.buffer))
        return pairs


def attach_observability(path, observability) -> None:
    """Wire an :class:`~repro.obs.Observability` bundle into ``path``.

    ``path`` is anything exposing ``named_caches()`` — a
    :class:`TranslationPath` view or a whole
    :class:`~repro.core.fabric.Fabric` (whose cache names carry a
    ``dev<i>.`` prefix when more than one device exists).  Currently this
    means installing cross-tenant eviction attribution listeners on every
    cache (the direct measurement behind the paper's isolation claim).  A
    disabled bundle — or one without an eviction layer — attaches nothing,
    leaving every hot path untouched.
    """
    evictions = observability.evictions if observability is not None else None
    if evictions is None:
        return
    for name, cache in path.named_caches():
        cache.eviction_listener = evictions.listener_for(name)


def build_translation_path(
    config: ArchConfig,
    walker_for_sid: Callable[[int], object],
    sids=(),
    devtlb_next_use: Optional[Callable[[Hashable], Optional[float]]] = None,
) -> TranslationPath:
    """Build the Figure 6 hardware for ``config`` (single-device view).

    Always assembles exactly one device path regardless of
    ``config.devices.count`` — multi-device callers build a
    :class:`~repro.core.fabric.Fabric` directly.

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
    if config.devices.count != 1:
        from repro.core.config import DeviceConfig

        config = config.with_overrides(devices=DeviceConfig())
    fabric = Fabric(
        config, walker_for_sid, sids=sids, devtlb_next_use=devtlb_next_use
    )
    return fabric.view(0)

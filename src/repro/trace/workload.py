"""Per-tenant workload generation (the Log Collector substitute).

For each :class:`~repro.trace.tenant.TenantSpec` this module builds:

* the tenant's :class:`~repro.mem.pagetable.AddressSpace` — real guest and
  host page tables with the gIOVA layout of Section IV-D (identical across
  tenants, because identical guest OS + driver versions allocate identical
  gIOVAs; this is the root cause of un-partitioned TLB thrashing).
  :class:`HyperTenantSystem` maps the first tenant of each page layout page
  by page and copies it, moved by a host-frame offset, for the rest, and
  gives every tenant of a profile the same immutable ring layout and init
  requests;
* the packet stream: a :class:`~repro.device.ring.DescriptorRing` cycles
  2 MB data pages with the observed periodic reuse, optionally disturbed by
  random jumps for the less regular benchmarks.

All randomness is seeded per tenant, so traces are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Tuple

from repro.device.ring import DescriptorRing, RingLayout, make_default_layout
from repro.mem.address import PAGE_SHIFT_2M, PAGE_SHIFT_4K
from repro.mem.allocator import FrameAllocator
from repro.mem.pagetable import AddressSpace
from repro.mem.walker import TwoDimensionalWalker
from repro.trace.records import PacketRecord
from repro.trace.tenant import BenchmarkProfile, TenantSpec

#: gIOVA base of the group-3 (initialisation) pages observed in the paper
#: (the 0xf0000000..0xffffffff window).
INIT_WINDOW_BASE = 0xF000_0000

#: First guest-physical address of every tenant.
GUEST_PHYSICAL_BASE = 0x4000_0000

#: First host-physical address of the shared host allocator.
HOST_PHYSICAL_BASE = 0x10_0000_0000


class ProfileLayout(NamedTuple):
    """What every tenant of one profile shares."""

    ring_layout: RingLayout
    #: ``(gIOVA, page shift)`` of every mapped page, in mapping order.
    mappings: Tuple[Tuple[int, int], ...]
    init_requests: Tuple[int, ...]


@dataclass
class TenantWorkload:
    """A tenant's address space plus its generated packet stream."""

    spec: TenantSpec
    space: AddressSpace
    walker: TwoDimensionalWalker
    init_requests: Tuple[int, ...] = ()
    _ring: DescriptorRing = None  # set in build_tenant_workload
    _rng: random.Random = None

    def packet_stream(self) -> Iterator[PacketRecord]:
        """Yield this tenant's packets in order.

        When the profile sets ``remap_on_advance``, a data-page transition
        unmaps/remaps the page just left and attaches an invalidation event
        to the following packet (the driver behaviour the paper observed).
        """
        profile = self.spec.profile
        ring = self._ring
        num_pages = len(ring.layout.data_page_giovas)
        page_shift = PAGE_SHIFT_2M if profile.huge_data_pages else PAGE_SHIFT_4K
        previous_page = ring.current_data_page
        for _ in range(self.spec.packets):
            if profile.jump_probability and self._rng.random() < profile.jump_probability:
                ring.jump_to_page(self._rng.randrange(num_pages))
            invalidations = ()
            current_page = ring.current_data_page
            if profile.remap_on_advance and current_page != previous_page:
                self.space.remap_io_page(previous_page, page_shift)
                self.walker.invalidate(previous_page)
                invalidations = (previous_page >> 12,)
            previous_page = current_page
            giovas = ring.next_packet_giovas()
            size = profile.packet_bytes
            if (
                profile.small_packet_fraction
                and self._rng.random() < profile.small_packet_fraction
            ):
                size = profile.small_packet_bytes
            yield PacketRecord(
                sid=self.spec.sid,
                giovas=giovas,
                size_bytes=size,
                invalidations=invalidations,
            )

    def materialize(self) -> List[PacketRecord]:
        """Generate the full packet list."""
        return list(self.packet_stream())


class HyperTenantSystem:
    """Everything the performance model needs about the simulated host.

    Holds one host-physical allocator shared by all tenants (page tables of
    different VMs interleave in host memory, as on a real machine), each
    tenant's address space, and the per-tenant 2-D walkers handed to the
    IOMMU.

    Tenants with the same ``(gIOVA, page shift)`` mappings get the same
    guest tables, and host tables that differ only by a host-frame offset:
    every guest allocator starts at the same base, and the shared host
    allocator is a bump pointer handing out 4 KB frames.  So only the
    first tenant of each layout is mapped page by page; :meth:`add_tenant`
    builds the rest as shifted copies of it and leaves the allocator
    cursors where mapping would.
    """

    def __init__(self):
        self.host_allocator = FrameAllocator(base=HOST_PHYSICAL_BASE)
        self.workloads: Dict[int, TenantWorkload] = {}
        #: Host backings made since :meth:`start_backing_log`, as
        #: ``(sid, gpa)`` in the order they happened.  Walks back host
        #: pages on demand, so this is the only part of the system a run
        #: changes.
        self.backing_log: List[Tuple[int, int]] = []
        #: Page layout -> (pristine space of its first tenant, host cursor
        #: before it was mapped, host frames mapping it took).
        self._templates: Dict[
            Tuple[Tuple[int, int], ...], Tuple[AddressSpace, int, int]
        ] = {}
        #: Profile -> the layout all its tenants share.
        self._layouts: Dict[BenchmarkProfile, ProfileLayout] = {}

    def add_tenant(self, spec: TenantSpec) -> TenantWorkload:
        """Build and register the workload for ``spec``.

        The result equals :func:`build_tenant_workload` on this system's
        host allocator, but only the first tenant of each page layout is
        mapped page by page; the rest are shifted copies of it.
        """
        if spec.sid in self.workloads:
            raise ValueError(f"tenant SID {spec.sid} already registered")
        shared = self._layouts.get(spec.profile)
        if shared is None:
            shared = self._layouts[spec.profile] = _profile_layout(spec.profile)
        mappings = shared.mappings
        host = self.host_allocator
        cursor = host.frames_allocated
        template = self._templates.get(mappings)
        if template is None:
            workload = _mapped_workload(spec, shared, host)
            space = workload.space
            frames = host.frames_allocated - cursor
            self._templates[mappings] = (
                space.shifted_copy(host, space.name, 0), cursor, frames
            )
        else:
            pristine, first_cursor, frames = template
            space = pristine.shifted_copy(
                host, f"sid{spec.sid}", (cursor - first_cursor) << PAGE_SHIFT_4K
            )
            host.allocate(frames)
            workload = _tenant_workload(spec, shared, space)
        self.workloads[spec.sid] = workload
        return workload

    def start_backing_log(self) -> None:
        """Log every host backing made from now on into :attr:`backing_log`."""
        for sid, workload in self.workloads.items():
            workload.space.log_backings(self.backing_log, sid)

    def replay_backings(self, log) -> None:
        """Redo logged ``(sid, gpa)`` backings, in order (logging them again).

        On a system freshly built from the same specs this reproduces the
        logged system's host page tables and host allocator cursor.
        """
        for sid, gpa in log:
            self.workloads[sid].space.ensure_backed(gpa)

    def walker_for(self, sid: int) -> TwoDimensionalWalker:
        """Walker callback for the IOMMU."""
        return self.workloads[sid].walker

    def remove_tenant(self, sid: int) -> None:
        del self.workloads[sid]

    @property
    def num_tenants(self) -> int:
        return len(self.workloads)

    def sids(self) -> Tuple[int, ...]:
        return tuple(sorted(self.workloads))


def _profile_layout(profile: BenchmarkProfile) -> ProfileLayout:
    """The ring layout, mappings and init requests of ``profile``'s tenants."""
    layout = make_default_layout(profile.num_data_pages)
    data_page_shift = PAGE_SHIFT_2M if profile.huge_data_pages else PAGE_SHIFT_4K
    mappings = [
        (layout.ring_page_giova, PAGE_SHIFT_4K),
        (layout.mailbox_page_giova, PAGE_SHIFT_4K),
    ]
    mappings += [(data_page, data_page_shift) for data_page in layout.data_page_giovas]
    init_pages = [INIT_WINDOW_BASE + index * 4096 for index in range(profile.init_pages)]
    mappings += [(giova, PAGE_SHIFT_4K) for giova in init_pages]
    init_requests = tuple(
        giova for giova in init_pages for _ in range(profile.init_accesses_per_page)
    )
    return ProfileLayout(layout, tuple(mappings), init_requests)


def _tenant_workload(
    spec: TenantSpec, shared: ProfileLayout, space: AddressSpace
) -> TenantWorkload:
    """Wrap a tenant's mapped ``space`` with its ring and packet generator."""
    workload = TenantWorkload(
        spec=spec,
        space=space,
        walker=TwoDimensionalWalker(space),
        init_requests=shared.init_requests,
    )
    workload._ring = DescriptorRing(shared.ring_layout, uses_per_page=spec.profile.uses_per_page)
    workload._rng = random.Random(spec.seed)
    return workload


def build_tenant_workload(
    spec: TenantSpec, host_allocator: FrameAllocator
) -> TenantWorkload:
    """Construct a tenant: page tables, ring layout, packet generator.

    Every tenant gets the *same* gIOVA layout (ring page at ``0x34800000``,
    2 MB data pages from ``0xbbe00000``, init pages at ``0xf0000000``) and
    the same guest-physical addresses, but its own host frames.  Maps
    every page one by one; :meth:`HyperTenantSystem.add_tenant` gives the
    same result by copying the first tenant of each layout.
    """
    return _mapped_workload(spec, _profile_layout(spec.profile), host_allocator)


def _mapped_workload(
    spec: TenantSpec, shared: ProfileLayout, host_allocator: FrameAllocator
) -> TenantWorkload:
    """Map ``spec``'s tenant page by page, drawing host frames from ``host_allocator``."""
    guest_allocator = FrameAllocator(base=GUEST_PHYSICAL_BASE)
    space = AddressSpace(guest_allocator, host_allocator, name=f"sid{spec.sid}")
    for giova, page_shift in shared.mappings:
        space.map_io_page(giova, page_shift)
    return _tenant_workload(spec, shared, space)


def build_system(specs) -> Tuple[HyperTenantSystem, List[TenantWorkload]]:
    """Build a :class:`HyperTenantSystem` holding all ``specs``."""
    system = HyperTenantSystem()
    workloads = [system.add_tenant(spec) for spec in specs]
    return system, workloads

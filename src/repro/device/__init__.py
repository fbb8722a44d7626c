"""Device-side models: packet accounting and ring buffers."""

from repro.device.packet import PacketStats
from repro.device.ring import DescriptorRing, RingLayout, make_default_layout

__all__ = [
    "PacketStats",
    "DescriptorRing",
    "RingLayout",
    "make_default_layout",
]

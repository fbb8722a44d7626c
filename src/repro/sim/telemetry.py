"""Windowed time-series telemetry for simulation runs.

A :class:`Telemetry` object attached to a simulator samples the run in
fixed-size packet windows: achieved bandwidth, drop rate, DevTLB hit
rate, PTB occupancy, and prefetch coverage per window.  This is how the
cold-start transient, the prefetcher's lock-in, and the bistable dynamics
discussed in docs/MODEL.md can actually be *seen*::

    telemetry = Telemetry(window_packets=256)
    result = HyperSimulator(config, trace, telemetry=telemetry).run()
    for window in telemetry.windows:
        print(window.describe())

The simulator calls :meth:`on_packet` once per accepted packet; the
overhead is a handful of integer updates, so telemetry is cheap enough to
leave on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cache.base import CacheStats


@dataclass(frozen=True)
class WindowSample:
    """Aggregates for one window of accepted packets."""

    index: int
    start_ns: float
    end_ns: float
    packets: int
    bytes: int
    drops: int
    devtlb_hits: int
    devtlb_accesses: int
    prefetch_supplied: int
    requests: int
    mean_ptb_occupancy: float

    @property
    def bandwidth_gbps(self) -> float:
        duration = self.end_ns - self.start_ns
        return self.bytes * 8 / duration if duration > 0 else 0.0

    @property
    def devtlb_hit_rate(self) -> float:
        return (
            self.devtlb_hits / self.devtlb_accesses
            if self.devtlb_accesses
            else 0.0
        )

    @property
    def supplied_fraction(self) -> float:
        return self.prefetch_supplied / self.requests if self.requests else 0.0

    def describe(self) -> str:
        return (
            f"window {self.index:3d}: {self.bandwidth_gbps:6.1f} Gb/s, "
            f"devtlb {self.devtlb_hit_rate * 100:5.1f}%, "
            f"supplied {self.supplied_fraction * 100:5.1f}%, "
            f"drops {self.drops}, ptb {self.mean_ptb_occupancy:.1f}"
        )


class Telemetry:
    """Collects :class:`WindowSample` objects during a run."""

    #: Instance attributes a checkpoint pickles (repro.sim.checkpoint).
    _state_fields = (
        "window_packets", "windows", "_index", "_start_ns", "_packets",
        "_bytes", "_occupancy_sum", "_devtlb_hits0", "_devtlb_accesses0",
        "_supplied0", "_requests0", "_drops0", "_last_now_ns",
        "_last_devtlb_hits", "_last_devtlb_accesses", "_last_supplied",
        "_last_requests", "_last_drops",
    )

    def __init__(self, window_packets: int = 256):
        if window_packets < 1:
            raise ValueError("window_packets must be >= 1")
        self.window_packets = window_packets
        self.windows: List[WindowSample] = []
        self._reset_window(start_ns=0.0, index=0)
        # Baselines for differencing cumulative counters.
        self._devtlb_hits0 = 0
        self._devtlb_accesses0 = 0
        self._supplied0 = 0
        self._requests0 = 0
        self._drops0 = 0
        # Latest cumulative values seen, so finish() can close a partial
        # window without another simulator callback.
        self._last_now_ns = 0.0
        self._last_devtlb_hits = 0
        self._last_devtlb_accesses = 0
        self._last_supplied = 0
        self._last_requests = 0
        self._last_drops = 0

    def _reset_window(self, start_ns: float, index: int) -> None:
        self._index = index
        self._start_ns = start_ns
        self._packets = 0
        self._bytes = 0
        self._occupancy_sum = 0.0

    # ------------------------------------------------------------------
    def on_packet(
        self,
        now_ns: float,
        size_bytes: int,
        devtlb_stats: CacheStats,
        supplied: int,
        requests: int,
        drops: int,
        ptb_occupancy: int,
    ) -> None:
        """Record one accepted packet; close the window when full."""
        self._packets += 1
        self._bytes += size_bytes
        self._occupancy_sum += ptb_occupancy
        self._last_now_ns = now_ns
        self._last_devtlb_hits = devtlb_stats.hits
        self._last_devtlb_accesses = devtlb_stats.accesses
        self._last_supplied = supplied
        self._last_requests = requests
        self._last_drops = drops
        if self._packets < self.window_packets:
            return
        self._close_window(
            end_ns=now_ns,
            devtlb_hits=devtlb_stats.hits,
            devtlb_accesses=devtlb_stats.accesses,
            supplied=supplied,
            requests=requests,
            drops=drops,
        )

    def _close_window(
        self,
        end_ns: float,
        devtlb_hits: int,
        devtlb_accesses: int,
        supplied: int,
        requests: int,
        drops: int,
    ) -> None:
        self.windows.append(
            WindowSample(
                index=self._index,
                start_ns=self._start_ns,
                end_ns=end_ns,
                packets=self._packets,
                bytes=self._bytes,
                drops=drops - self._drops0,
                devtlb_hits=devtlb_hits - self._devtlb_hits0,
                devtlb_accesses=devtlb_accesses - self._devtlb_accesses0,
                prefetch_supplied=supplied - self._supplied0,
                requests=requests - self._requests0,
                mean_ptb_occupancy=self._occupancy_sum / self._packets,
            )
        )
        self._devtlb_hits0 = devtlb_hits
        self._devtlb_accesses0 = devtlb_accesses
        self._supplied0 = supplied
        self._requests0 = requests
        self._drops0 = drops
        self._reset_window(start_ns=end_ns, index=self._index + 1)

    def finish(self, now_ns: Optional[float] = None) -> None:
        """Flush the trailing partial window, if any.

        Called by :meth:`HyperSimulator.run` at the end of a run so tail
        packets are not silently excluded from :attr:`windows` (and hence
        from :meth:`steady_state_window`).  A run whose length divides
        evenly into windows — or an empty run — flushes nothing.  Safe to
        call more than once.
        """
        if self._packets == 0:
            return
        end_ns = now_ns if now_ns is not None else self._last_now_ns
        self._close_window(
            end_ns=max(end_ns, self._last_now_ns, self._start_ns),
            devtlb_hits=self._last_devtlb_hits,
            devtlb_accesses=self._last_devtlb_accesses,
            supplied=self._last_supplied,
            requests=self._last_requests,
            drops=self._last_drops,
        )

    # ------------------------------------------------------------------
    def series(self, attribute: str) -> List[float]:
        """Extract one per-window series (e.g. ``"bandwidth_gbps"``)."""
        return [getattr(window, attribute) for window in self.windows]

    def steady_state_window(self) -> Optional[WindowSample]:
        """The last *full* window (a steady-state sample), if any.

        A trailing partial window flushed by :meth:`finish` is not a fair
        steady-state sample (it covers fewer packets), so it is skipped
        unless no full window exists at all.
        """
        if not self.windows:
            return None
        for window in reversed(self.windows):
            if window.packets >= self.window_packets:
                return window
        return self.windows[-1]

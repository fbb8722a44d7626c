"""Future-knowledge oracle for Belady replacement (Figure 11b/11c).

Having the full translation trace lets the simulator build an oracle
replacement scheme that, on a conflict, evicts the entry whose next use lies
furthest in the future.  :class:`FutureOracle` pre-scans the DevTLB key
sequence of a trace and then answers "when is this key used next?" queries
in O(1) as the simulation advances.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.trace.records import PacketRecord


def devtlb_key_sequence(packets: Iterable[PacketRecord]) -> List[Tuple[int, int]]:
    """The per-request DevTLB key stream of a trace: ``(sid, giova_page)``."""
    keys: List[Tuple[int, int]] = []
    for packet in packets:
        sid = packet.sid
        for giova in packet.giovas:
            keys.append((sid, giova >> 12))
    return keys


class FutureOracle:
    """Answers next-use queries over a known access sequence.

    The owner must call :meth:`consume` exactly once per access, in order;
    :meth:`next_use` then reports the position of each key's next access
    *after* the current point (``None`` when it never recurs).  Positions
    are indices into the access sequence, which is all Belady needs (only
    the ordering matters).  ``cursor`` starts the oracle that many accesses
    in, as if they had been consumed.
    """

    def __init__(self, keys: Iterable[Hashable], cursor: int = 0):
        self._positions: Dict[Hashable, Deque[int]] = defaultdict(deque)
        count = 0
        for position, key in enumerate(keys):
            if position >= cursor:
                self._positions[key].append(position)
            count += 1
        self._length = count
        self._cursor = cursor

    @property
    def length(self) -> int:
        return self._length

    @property
    def cursor(self) -> int:
        return self._cursor

    def consume(self, key: Hashable) -> None:
        """Advance past the current access, which must be to ``key``."""
        if self._cursor >= self._length:
            raise RuntimeError("oracle consumed past the end of the trace")
        queue = self._positions.get(key)
        if not queue or queue[0] != self._cursor:
            raise ValueError(
                f"access order mismatch at position {self._cursor}: "
                f"expected key {key!r} here"
            )
        queue.popleft()
        self._cursor += 1

    def next_use(self, key: Hashable) -> Optional[int]:
        """Position of the next access to ``key``, or ``None`` if never."""
        queue = self._positions.get(key)
        if not queue:
            return None
        return queue[0]


class TraceOracle(FutureOracle):
    """A :class:`FutureOracle` over a trace's DevTLB key stream.

    Pickles as its packet list and cursor, not its position table, which
    grows with the trace: a checkpoint names the packet list by reference,
    and the load rebuilds the table from the rebuilt packets.
    """

    def __init__(self, packets: Sequence[PacketRecord], cursor: int = 0):
        super().__init__(devtlb_key_sequence(packets), cursor)
        self._packets = packets

    def __reduce__(self):
        return TraceOracle, (self._packets, self._cursor)


def oracle_for_trace(packets: Sequence[PacketRecord]) -> FutureOracle:
    """Build a :class:`FutureOracle` over a trace's DevTLB key stream."""
    return TraceOracle(packets)

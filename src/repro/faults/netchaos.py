"""Wire-level chaos: a seeded network fault plan and an in-process proxy.

The PR 4 fault subsystem stops at the engine boundary; this module
attacks the *transport* between :class:`~repro.service.client.ServiceClient`
and :class:`~repro.service.server.ServiceServer`.  A
:class:`NetworkFaultPlan` is a pure-data, JSON-round-trippable schedule
(same strict style as :mod:`repro.faults.plan`: unknown keys fail
loudly) of wire faults, and :class:`ChaosProxy` is an asyncio TCP proxy
that sits between client and server and injects them:

* :class:`DropSpec` — clean connection close (FIN) after forwarding a
  number of request frames;
* :class:`CutSpec` — a **mid-frame** cut: forward a prefix of one frame,
  then hard-abort the proxied connection, leaving the peer a torn line;
* :class:`CorruptSpec` — overwrite one byte of one frame with ``0xFF``.
  ``0xFF`` is never valid UTF-8 and never a newline, so framing is
  preserved and :func:`repro.service.protocol.decode` is *guaranteed* to
  fail — corruption always surfaces as a typed decode error, never as a
  silently altered request;
* :class:`StallSpec` — hold one frame for ``delay_s`` before forwarding
  (exercises request deadlines and the resends they force);
* :class:`SplitSpec` — relay frames in tiny chunks (partial reads);
* :class:`CoalesceSpec` — batch several frames into one write;
* :class:`ReconnectStormSpec` — drop each of the first N connections,
  forcing a storm of reconnect/resend cycles.

Frame indices are 0-based per proxied connection and per direction
(``"request"`` = client→server, ``"response"`` = server→client);
connection indices are 0-based in accept order.  Stochastic choices
(storm jitter) come from one ``random.Random(plan.seed)`` owned by the
proxy, so a seeded plan replays bit-identically.  A null plan forwards
bytes untouched — the proxy keeps per-direction SHA-256 digests of what
it received and what it forwarded, and :meth:`ChaosProxy.transparent`
pins that a fault-free plan leaves the wire byte-stream unchanged.

The service survives every class losslessly because every client's
``translate`` rides a session, for which the server keeps exactly-once,
in-order semantics (see ``docs/RESILIENCE.md``): the chaos parity suite
replays a trace through the proxy under each fault class and asserts
the final ``SimulationResult`` is byte-identical to offline
``simulate``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlanFormatError, _check_keys

#: Direction names: request = client→server, response = server→client.
DIRECTIONS = ("request", "response")

#: Relay frame cap — far above any real protocol line; the proxy is a
#: test instrument, not a gatekeeper (the *server* enforces its own
#: ``max_frame_bytes``).
_RELAY_LIMIT = 16 << 20

#: Seconds of source silence after which a coalesce buffer flushes even
#: below its frame target, so a held reply never deadlocks the peer.
_COALESCE_FLUSH_S = 0.05


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _check_direction(direction: str) -> None:
    _require(
        direction in DIRECTIONS,
        f"direction must be one of {DIRECTIONS}, got {direction!r}",
    )


@dataclass(frozen=True)
class DropSpec:
    """Cleanly close proxied connection ``connection`` after forwarding
    ``after_frames`` request frames (0 = drop before the handshake)."""

    after_frames: int
    connection: int = 0

    def __post_init__(self):
        _require(self.after_frames >= 0, "drop after_frames must be >= 0")
        _require(self.connection >= 0, "drop connection must be >= 0")


@dataclass(frozen=True)
class CutSpec:
    """Mid-frame cut: forward ``cut_bytes`` of frame ``frame`` then abort.

    ``cut_bytes=None`` cuts at half the frame.  The peer observes a torn
    line followed by EOF — exactly what a crashed host looks like on the
    wire.
    """

    frame: int
    direction: str = "request"
    cut_bytes: Optional[int] = None
    connection: int = 0

    def __post_init__(self):
        _require(self.frame >= 0, "cut frame must be >= 0")
        _check_direction(self.direction)
        if self.cut_bytes is not None:
            _require(self.cut_bytes >= 0, "cut_bytes must be >= 0")
        _require(self.connection >= 0, "cut connection must be >= 0")


@dataclass(frozen=True)
class CorruptSpec:
    """Overwrite one byte of frame ``frame`` with ``0xFF`` (guaranteed
    undecodable, framing preserved)."""

    frame: int
    direction: str = "request"
    offset: int = 0
    connection: int = 0

    def __post_init__(self):
        _require(self.frame >= 0, "corrupt frame must be >= 0")
        _check_direction(self.direction)
        _require(self.offset >= 0, "corrupt offset must be >= 0")
        _require(self.connection >= 0, "corrupt connection must be >= 0")


@dataclass(frozen=True)
class StallSpec:
    """Hold frame ``frame`` for ``delay_s`` wall seconds before forwarding."""

    frame: int
    delay_s: float
    direction: str = "request"
    connection: int = 0

    def __post_init__(self):
        _require(self.frame >= 0, "stall frame must be >= 0")
        _require(self.delay_s >= 0, "stall delay_s must be >= 0")
        _check_direction(self.direction)
        _require(self.connection >= 0, "stall connection must be >= 0")


@dataclass(frozen=True)
class SplitSpec:
    """Relay every frame of one direction in ``chunk_bytes`` pieces."""

    chunk_bytes: int
    direction: str = "request"
    connection: int = 0

    def __post_init__(self):
        _require(self.chunk_bytes >= 1, "split chunk_bytes must be >= 1")
        _check_direction(self.direction)
        _require(self.connection >= 0, "split connection must be >= 0")


@dataclass(frozen=True)
class CoalesceSpec:
    """Buffer ``frames`` frames of one direction into single writes."""

    frames: int
    direction: str = "response"
    connection: int = 0

    def __post_init__(self):
        _require(self.frames >= 2, "coalesce frames must be >= 2")
        _check_direction(self.direction)
        _require(self.connection >= 0, "coalesce connection must be >= 0")


@dataclass(frozen=True)
class ReconnectStormSpec:
    """Drop each of the first ``connections`` connections after
    ``after_frames`` (+ seeded jitter up to ``jitter_frames``) request
    frames — a reconnect storm from the server's point of view."""

    connections: int
    after_frames: int = 0
    jitter_frames: int = 0

    def __post_init__(self):
        _require(self.connections >= 1, "storm connections must be >= 1")
        _require(self.after_frames >= 0, "storm after_frames must be >= 0")
        _require(self.jitter_frames >= 0, "storm jitter_frames must be >= 0")


@dataclass(frozen=True)
class NetworkFaultPlan:
    """A complete, seedable wire-fault schedule for one chaos run."""

    seed: int = 0
    drops: Tuple[DropSpec, ...] = ()
    cuts: Tuple[CutSpec, ...] = ()
    corruptions: Tuple[CorruptSpec, ...] = ()
    stalls: Tuple[StallSpec, ...] = ()
    splits: Tuple[SplitSpec, ...] = ()
    coalesces: Tuple[CoalesceSpec, ...] = ()
    reconnect_storms: Tuple[ReconnectStormSpec, ...] = ()

    @property
    def is_null(self) -> bool:
        """Whether this plan can never perturb the wire."""
        return not (
            self.drops
            or self.cuts
            or self.corruptions
            or self.stalls
            or self.splits
            or self.coalesces
            or self.reconnect_storms
        )


# ----------------------------------------------------------------------
# JSON round trip (strict, faults/plan.py style)
# ----------------------------------------------------------------------

_SPEC_FIELDS = (
    ("drops", DropSpec, ("after_frames", "connection")),
    ("cuts", CutSpec, ("frame", "direction", "cut_bytes", "connection")),
    ("corruptions", CorruptSpec, ("frame", "direction", "offset", "connection")),
    ("stalls", StallSpec, ("frame", "delay_s", "direction", "connection")),
    ("splits", SplitSpec, ("chunk_bytes", "direction", "connection")),
    ("coalesces", CoalesceSpec, ("frames", "direction", "connection")),
    (
        "reconnect_storms",
        ReconnectStormSpec,
        ("connections", "after_frames", "jitter_frames"),
    ),
)


def netplan_to_dict(plan: NetworkFaultPlan) -> Dict[str, Any]:
    """Serialise ``plan`` to plain JSON-compatible data (minimal form:
    empty spec lists and default fields are omitted)."""
    document: Dict[str, Any] = {"seed": plan.seed}
    for key, _, fields in _SPEC_FIELDS:
        specs = getattr(plan, key)
        if not specs:
            continue
        entries = []
        for spec in specs:
            entry = {}
            for name in fields:
                value = getattr(spec, name)
                default = type(spec).__dataclass_fields__[name].default
                if value != default:
                    entry[name] = value
            entries.append(entry)
        document[key] = entries
    return document


def _parse_specs(raw: Any, cls, allowed, context: str) -> Tuple:
    if not isinstance(raw, list):
        raise FaultPlanFormatError(f"{context}: expected a list")
    specs = []
    for index, entry in enumerate(raw):
        entry_context = f"{context}[{index}]"
        if not isinstance(entry, dict):
            raise FaultPlanFormatError(f"{entry_context}: expected an object")
        _check_keys(entry, allowed, entry_context)
        try:
            specs.append(cls(**entry))
        except (TypeError, ValueError) as error:
            raise FaultPlanFormatError(f"{entry_context}: {error}") from None
    return tuple(specs)


def netplan_from_dict(raw: Dict[str, Any]) -> NetworkFaultPlan:
    """Parse a :class:`NetworkFaultPlan` from plain data (strict)."""
    if not isinstance(raw, dict):
        raise FaultPlanFormatError("network fault plan must be a JSON object")
    _check_keys(
        raw, ("seed",) + tuple(key for key, _, _ in _SPEC_FIELDS),
        "network fault plan",
    )
    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        raise FaultPlanFormatError("network fault plan 'seed' must be an integer")
    kwargs: Dict[str, Any] = {"seed": seed}
    for key, cls, fields in _SPEC_FIELDS:
        kwargs[key] = _parse_specs(raw.get(key, []), cls, fields, key)
    return NetworkFaultPlan(**kwargs)


def netplan_to_json(plan: NetworkFaultPlan, indent: int = 2) -> str:
    return json.dumps(netplan_to_dict(plan), indent=indent)


def netplan_from_json(text: str) -> NetworkFaultPlan:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as error:
        raise FaultPlanFormatError(f"invalid JSON: {error}") from None
    if not isinstance(raw, dict):
        raise FaultPlanFormatError("network fault plan must be a JSON object")
    return netplan_from_dict(raw)


def save_netplan(plan: NetworkFaultPlan, path: Path) -> Path:
    path = Path(path)
    path.write_text(netplan_to_json(plan) + "\n", encoding="utf-8")
    return path


def load_netplan(path: Path) -> NetworkFaultPlan:
    return netplan_from_json(Path(path).read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# The chaos proxy
# ----------------------------------------------------------------------

class _LinkFaults:
    """The compiled fault schedule of one proxied connection."""

    __slots__ = ("drop_after", "cuts", "corruptions", "stalls", "split", "coalesce")

    def __init__(self, plan: NetworkFaultPlan, index: int, storm_drops):
        drop_candidates = [
            spec.after_frames for spec in plan.drops if spec.connection == index
        ]
        if index in storm_drops:
            drop_candidates.append(storm_drops[index])
        self.drop_after: Optional[int] = (
            min(drop_candidates) if drop_candidates else None
        )
        self.cuts: Dict[Tuple[str, int], CutSpec] = {
            (spec.direction, spec.frame): spec
            for spec in plan.cuts
            if spec.connection == index
        }
        self.corruptions: Dict[Tuple[str, int], CorruptSpec] = {
            (spec.direction, spec.frame): spec
            for spec in plan.corruptions
            if spec.connection == index
        }
        self.stalls: Dict[Tuple[str, int], StallSpec] = {
            (spec.direction, spec.frame): spec
            for spec in plan.stalls
            if spec.connection == index
        }
        self.split: Dict[str, int] = {
            spec.direction: spec.chunk_bytes
            for spec in plan.splits
            if spec.connection == index
        }
        self.coalesce: Dict[str, int] = {
            spec.direction: spec.frames
            for spec in plan.coalesces
            if spec.connection == index
        }


class _Link:
    """One proxied client↔upstream connection (two pump tasks)."""

    def __init__(self, proxy: "ChaosProxy", index: int, down, up):
        self.proxy = proxy
        self.index = index
        self.down_reader, self.down_writer = down
        self.up_reader, self.up_writer = up
        self.faults = _LinkFaults(proxy.plan, index, proxy._storm_drops)
        self.tasks: List[asyncio.Task] = []
        self.closed = False

    def start(self) -> None:
        loop = asyncio.get_running_loop()
        self.tasks = [
            loop.create_task(
                self._pump("request", self.down_reader, self.up_writer)
            ),
            loop.create_task(
                self._pump("response", self.up_reader, self.down_writer)
            ),
        ]

    def _close(self, abort: bool = False) -> None:
        """Tear down both sides; ``abort`` skips flushing (hard cut)."""
        if self.closed:
            return
        self.closed = True
        for writer in (self.down_writer, self.up_writer):
            try:
                if abort:
                    writer.transport.abort()
                else:
                    writer.close()
            except (ConnectionError, RuntimeError):
                pass
        self.proxy.connections_closed += 1

    async def _pump(self, direction: str, reader, writer) -> None:
        proxy = self.proxy
        faults = self.faults
        frame_index = 0
        pending: List[bytes] = []  # coalesce buffer
        coalesce = faults.coalesce.get(direction)
        split = faults.split.get(direction)

        async def write_out(data: bytes) -> None:
            proxy._hash_out[direction].update(data)
            proxy.bytes_forwarded[direction] += len(data)
            if split is not None:
                for start in range(0, len(data), split):
                    writer.write(data[start:start + split])
                    await writer.drain()
            else:
                writer.write(data)
                await writer.drain()

        async def flush_pending() -> None:
            if pending:
                await write_out(b"".join(pending))
                pending.clear()

        try:
            while not self.closed:
                try:
                    if pending:
                        # A coalesce buffer is waiting: flush it after a
                        # short silence so a held reply never deadlocks
                        # the peer.
                        frame = await asyncio.wait_for(
                            reader.readline(), timeout=_COALESCE_FLUSH_S
                        )
                    else:
                        frame = await reader.readline()
                except asyncio.TimeoutError:
                    await flush_pending()
                    continue
                except (ConnectionError, OSError):
                    break
                if not frame:
                    await flush_pending()
                    break
                proxy._hash_in[direction].update(frame)
                proxy.bytes_received[direction] += len(frame)
                if (
                    direction == "request"
                    and faults.drop_after is not None
                    and frame_index >= faults.drop_after
                ):
                    # Clean drop: the frame that crossed the threshold is
                    # never forwarded; both sides see FIN.
                    proxy.record_fault("drop")
                    await flush_pending()
                    self._close()
                    return
                stall = faults.stalls.get((direction, frame_index))
                if stall is not None:
                    proxy.record_fault("stall")
                    await asyncio.sleep(stall.delay_s)
                corrupt = faults.corruptions.get((direction, frame_index))
                if corrupt is not None and len(frame) > 1:
                    # Never touch the trailing newline: framing stays
                    # intact, the payload becomes invalid UTF-8.
                    offset = corrupt.offset % (len(frame) - 1)
                    frame = frame[:offset] + b"\xff" + frame[offset + 1:]
                    proxy.record_fault("corrupt")
                cut = faults.cuts.get((direction, frame_index))
                if cut is not None:
                    proxy.record_fault("cut")
                    await flush_pending()
                    cut_bytes = (
                        cut.cut_bytes
                        if cut.cut_bytes is not None
                        else max(1, (len(frame) - 1) // 2)
                    )
                    prefix = frame[:cut_bytes]
                    if prefix:
                        proxy._hash_out[direction].update(prefix)
                        proxy.bytes_forwarded[direction] += len(prefix)
                        try:
                            writer.write(prefix)
                            await writer.drain()
                        except (ConnectionError, OSError):
                            pass
                    self._close(abort=True)
                    return
                frame_index += 1
                proxy.frames_forwarded[direction] += 1
                if coalesce is not None:
                    pending.append(frame)
                    if len(pending) >= coalesce:
                        await flush_pending()
                else:
                    await write_out(frame)
        except (ConnectionError, OSError):
            pass
        finally:
            # EOF (or a fault) on one direction ends the whole link: the
            # proxied peers see a plain connection close.
            self._close()


class ChaosProxy:
    """An in-process TCP proxy that injects a :class:`NetworkFaultPlan`.

    Usage::

        proxy = ChaosProxy(server.host, server.port, plan)
        await proxy.start()          # proxy.port is now bound
        ... point the client at proxy.port ...
        await proxy.aclose()         # idempotent; aborts live links

    A null (or absent) plan is byte-transparent; :meth:`transparent`
    pins it via per-direction SHA-256 of received vs forwarded bytes.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        plan: Optional[NetworkFaultPlan] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.plan = plan if plan is not None else NetworkFaultPlan()
        self.host = host
        self.port = port
        self._rng = random.Random(self.plan.seed)
        self._server: Optional[asyncio.base_events.Server] = None
        self._links: List[_Link] = []
        self.connections_opened = 0
        self.connections_closed = 0
        #: Fault-class name → injection count.
        self.faults_injected: Dict[str, int] = {}
        self.frames_forwarded = {d: 0 for d in DIRECTIONS}
        self.bytes_received = {d: 0 for d in DIRECTIONS}
        self.bytes_forwarded = {d: 0 for d in DIRECTIONS}
        self._hash_in = {d: hashlib.sha256() for d in DIRECTIONS}
        self._hash_out = {d: hashlib.sha256() for d in DIRECTIONS}
        # The storm's per-connection drop points are drawn up front from
        # the plan seed, so the schedule is bit-reproducible regardless
        # of connection timing.
        self._storm_drops: Dict[int, int] = {}
        for spec in self.plan.reconnect_storms:
            for index in range(spec.connections):
                jitter = (
                    self._rng.randint(0, spec.jitter_frames)
                    if spec.jitter_frames
                    else 0
                )
                point = spec.after_frames + jitter
                if index not in self._storm_drops:
                    self._storm_drops[index] = point
                else:
                    self._storm_drops[index] = min(
                        self._storm_drops[index], point
                    )

    def record_fault(self, kind: str) -> None:
        self.faults_injected[kind] = self.faults_injected.get(kind, 0) + 1

    @property
    def total_faults(self) -> int:
        return sum(self.faults_injected.values())

    def transparent(self) -> bool:
        """True when every received byte was forwarded unmodified."""
        return all(
            self._hash_in[d].hexdigest() == self._hash_out[d].hexdigest()
            for d in DIRECTIONS
        )

    @property
    def live_links(self) -> int:
        return sum(1 for link in self._links if not link.closed)

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port, limit=_RELAY_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _handle(self, reader, writer) -> None:
        index = self.connections_opened
        self.connections_opened += 1
        try:
            up_reader, up_writer = await asyncio.open_connection(
                self.upstream_host, self.upstream_port, limit=_RELAY_LIMIT
            )
        except OSError:
            writer.transport.abort()
            self.connections_closed += 1
            return
        link = _Link(self, index, (reader, writer), (up_reader, up_writer))
        self._links.append(link)
        link.start()

    async def aclose(self) -> None:
        """Stop listening, abort live links, await every pump task."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for link in self._links:
            link._close(abort=True)
        for link in self._links:
            for task in link.tasks:
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        self._links = []

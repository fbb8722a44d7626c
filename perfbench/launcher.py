"""The service workload: start ``repro-sim serve``, replay a trace, check it.

Each round starts a fresh server process with the workload seed, connects
one :class:`~repro.service.client.ServiceClient`, replays the trace with
64 requests in flight (``replay``'s default window: a closed loop), flushes,
and stops the server with SIGTERM.  The server's CPU time and peak resident
memory are read from ``/proc`` for the server's own pid, so the load
generator's cost never lands in them.

A traced round runs ``traced_server.py`` instead, which is ``repro-sim
serve`` with the benchmark's layer wrappers installed in the server
process; it writes its layer table to a file when the server exits.
"""

from __future__ import annotations

import asyncio
import json
import os
import selectors
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import workloads as wl

#: Longest wait for a spawned server to print its port.
LISTEN_TIMEOUT_S = 60.0
#: Longest wait for a server to drain and exit after SIGTERM.
STOP_TIMEOUT_S = 30.0
#: Requests in flight on the replay connection (``replay``'s default).
WINDOW = 64
#: Replay deadline per packet; the slowest untraced round seen ran at
#: about 3,500 packets per second.
REPLAY_S_PER_PACKET = 0.002
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def serve_arguments(workload: wl.Workload, seed: int) -> List[str]:
    """``repro-sim serve`` arguments: the workload's tenant system, with
    metrics off (the workload measures the model, not the obs layer)."""
    return [
        "serve",
        "--config", workload.config,
        "--benchmark", "mediastream",
        "--tenants", str(workload.tenants),
        "--interleaving", workload.interleaving,
        "--packets", str(workload.packets),
        "--seed", str(seed),
        "--host", "127.0.0.1",
        "--port", "0",
        "--no-metrics",
    ]


def server_command(workload: wl.Workload, seed: int, layers_out: Optional[Path] = None):
    if layers_out is None:
        return [sys.executable, "-m", "repro.cli", *serve_arguments(workload, seed)]
    return [
        sys.executable, str(wl.HERE / "traced_server.py"),
        "--layers-out", str(layers_out), "--",
        *serve_arguments(workload, seed),
    ]


class ServerProcess:
    """One server child: spawn, wait for its port, read its usage, stop."""

    def __init__(self, command: List[str]):
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=wl.child_env(), cwd=str(wl.ROOT)
        )
        self.port: Optional[int] = None

    def wait_listening(self, timeout: float = LISTEN_TIMEOUT_S) -> int:
        """Block until the server prints ``listening on HOST:PORT``."""
        deadline = time.monotonic() + timeout
        buffer = b""
        fd = self.proc.stdout.fileno()
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while b"\n" not in buffer:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise RuntimeError("server did not report its port in time")
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(
                        f"server exited before listening (code {self.proc.poll()})"
                    )
                buffer += chunk
        line = buffer.split(b"\n", 1)[0].decode()
        if not line.startswith("listening on "):
            raise RuntimeError(f"unexpected server output: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        return self.port

    def cpu_s(self) -> float:
        """User plus system CPU seconds the server has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kill if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return self.proc.returncode


@dataclass
class Round:
    """What one replay round measured and checked."""

    setup_s: float
    replay_s: float
    server_cpu_s: float
    peak_rss_mb: float
    packets: int
    #: Requests answered by at least one ``result`` reply.
    results: int
    rtts_s: List[float]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    layers: Optional[dict] = None

    @property
    def pkts_per_s(self) -> float:
        return self.results / self.replay_s

    @property
    def cpu_us_per_pkt(self) -> float:
        return self.server_cpu_s * 1e6 / self.packets

    def rtt_ms(self, percentile: float) -> float:
        if not self.rtts_s:
            return 0.0
        ordered = sorted(self.rtts_s)
        index = min(len(ordered) - 1, int(percentile / 100.0 * len(ordered)))
        return ordered[index] * 1e3


def check_replies(result_replies: Counter, outcomes, total: int) -> List[str]:
    """One problem line per request without exactly one result reply."""
    from repro.service import protocol

    errors = {
        reply.get("seq"): f" ({reply.get('type')} {reply.get('code')})"
        for reply in outcomes
        if reply.get("type") != protocol.RESULT
    }
    problems = []
    for seq in range(total):
        count = result_replies.get(seq, 0)
        if count == 0:
            problems.append(f"seq {seq}: no result reply{errors.get(seq, '')}")
        elif count > 1:
            problems.append(f"seq {seq}: {count} result replies")
    return problems


def replay_deadline_s(packets: int) -> float:
    """Longest a replay (or its flush) may take before the requests still
    unanswered count as failed: about ten times the slowest round seen."""
    return 10.0 + REPLAY_S_PER_PACKET * packets


async def _client_round(server: ServerProcess, packets, offline_digest: str):
    from repro.runner.serialize import result_from_dict
    from repro.service import protocol
    from repro.service.client import ServiceClient, ServiceClientError

    client = ServiceClient("127.0.0.1", server.port)
    await client.connect()
    setup_s = time.perf_counter() - server.spawned_at
    # Count every result frame the wire delivers by wrapping the client's
    # private _recv, through which replay() and flush() read every frame:
    # replay() keeps only the first reply per seq (and so does its public
    # on_outcome callback), so a duplicate is invisible above _recv.
    result_replies: Counter = Counter()
    receive = client._recv

    async def counting_receive():
        reply = await receive()
        if reply.get("type") == protocol.RESULT:
            result_replies[reply.get("seq")] += 1
        return reply

    client._recv = counting_receive
    outcomes = []
    problems = []
    flushed = None
    deadline_s = replay_deadline_s(len(packets))
    cpu_before = server.cpu_s()
    first_rtt = len(client.rtts)
    started = time.perf_counter()
    try:
        try:
            await asyncio.wait_for(
                client.replay(packets, window=WINDOW,
                              on_outcome=lambda _seq, reply: outcomes.append(reply)),
                deadline_s,
            )
        finally:
            replay_s = time.perf_counter() - started
            server_cpu_s = server.cpu_s() - cpu_before
            rtts = client.rtts[first_rtt:]
        flushed = await asyncio.wait_for(client.flush(), deadline_s)
    except asyncio.TimeoutError:
        problems.append(f"replay or flush still open after {deadline_s:.0f} s")
    except (ValueError, ServiceClientError, ConnectionError, OSError) as error:
        # ValueError covers protocol.ProtocolError (an undecodable frame).
        problems.append(f"no flushed result: {type(error).__name__}: {error}")
    finally:
        await client.close()
    if flushed is not None:
        wire_digest = wl.result_digest(result_from_dict(flushed["result"]))
        if wire_digest != offline_digest:
            problems.append(
                f"flushed result {wire_digest[:12]} differs from offline {offline_digest[:12]}"
            )
    problems = check_replies(result_replies, outcomes, len(packets)) + problems
    return Round(
        setup_s=setup_s,
        replay_s=replay_s,
        server_cpu_s=server_cpu_s,
        peak_rss_mb=server.peak_rss_mb(),
        packets=len(packets),
        results=sum(1 for seq in range(len(packets)) if result_replies.get(seq)),
        rtts_s=rtts,
        # Every request, the flushed result, and the server's clean exit.
        attempted=len(packets) + 2,
        failed=len(problems),
        problems=problems,
    )


def service_round(
    workload: wl.Workload,
    seed: int,
    packets,
    offline_digest: str,
    layers_out: Optional[Path] = None,
) -> Round:
    """Start a server, replay ``packets`` through it, stop it."""
    server = ServerProcess(server_command(workload, seed, layers_out))
    try:
        server.wait_listening()
        measured = asyncio.run(_client_round(server, packets, offline_digest))
    finally:
        code = server.stop()
    if code != 0:
        measured.problems.append(f"server exited with code {code}")
        measured.failed += 1
    if layers_out is not None:
        with open(layers_out) as handle:
            measured.layers = json.load(handle)
    return measured

#!/usr/bin/env python
"""CI smoke for the translation service (`repro-sim serve`).

End to end, against real subprocesses over real TCP:

1. run the offline simulation of a pinned workload;
2. start a `repro-sim serve` subprocess with a warm-restart checkpoint;
3. replay the same trace through it with the async client;
4. SIGTERM the server mid-replay — it must drain, flush the checkpoint,
   and exit 0;
5. start a second server from the checkpoint **on the same port**; the
   still-running client must reconnect and finish the replay without
   losing or duplicating a packet;
6. flush and assert the service's final SimulationResult is
   byte-identical to the offline one through the exact serializer.

It runs two such rounds, each with a fresh server, port and checkpoint.
In the second, a *slow consumer* round, the client blocks for 3 ms on
every outcome from the SIGTERM point on, so complete replies are still
buffered, unread, when the old server closes the connection.  A client
that resent those requests without the session cache would have them
translated twice.

Exits nonzero with a diagnostic on any deviation.  Run from the repo
root: ``python scripts/service_smoke.py``.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.config import hypertrio_config  # noqa: E402
from repro.runner.serialize import result_from_dict, result_to_dict  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.sim.simulator import HyperSimulator  # noqa: E402
from repro.trace.constructor import construct_trace  # noqa: E402
from repro.trace.tenant import profile_by_name  # noqa: E402

BENCHMARK = "mediastream"
TENANTS = 6
PACKETS = 400
KILL_AFTER = 150  # outcomes received before the mid-replay SIGTERM
SLOW_CONSUMER_S = 0.003  # per-outcome block of the slow-consumer round


def make_trace():
    return construct_trace(
        profile_by_name(BENCHMARK),
        num_tenants=TENANTS,
        packets_per_tenant=200_000,
        max_packets=PACKETS,
    )


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def start_server(port: int, checkpoint: Path, resume: bool) -> subprocess.Popen:
    argv = [
        sys.executable, "-m", "repro.cli", "serve",
        "--host", "127.0.0.1", "--port", str(port),
    ]
    if resume:
        argv += ["--resume-from", str(checkpoint)]
    else:
        argv += [
            "--benchmark", BENCHMARK, "--tenants", str(TENANTS),
            "--packets", str(PACKETS), "--checkpoint", str(checkpoint),
        ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env, cwd=str(REPO),
    )
    banner = proc.stdout.readline().strip()
    expected = f"listening on 127.0.0.1:{port}"
    if banner != expected:
        proc.kill()
        _, err = proc.communicate(timeout=10)
        raise SystemExit(
            f"server banner mismatch: got {banner!r}, want {expected!r}\n{err}"
        )
    return proc


async def run_smoke(
    port: int, checkpoint: Path, offline, slow_consumer: bool
) -> None:
    proc = start_server(port, checkpoint, resume=False)
    trace = make_trace()
    client = ServiceClient("127.0.0.1", port, connect_timeout=60.0)
    await client.connect()

    received = asyncio.Event()
    count = 0

    def on_outcome(seq, reply):
        nonlocal count
        count += 1
        if count >= KILL_AFTER:
            received.set()
            if slow_consumer:
                # Blocks the event loop on purpose: replies pile up
                # unread in the client's stream buffer.
                time.sleep(SLOW_CONSUMER_S)

    replay = asyncio.ensure_future(
        client.replay(trace.packets, window=32, on_outcome=on_outcome)
    )

    async def restart_mid_replay():
        await received.wait()
        proc.send_signal(signal.SIGTERM)
        out, err = await asyncio.get_event_loop().run_in_executor(
            None, lambda: proc.communicate(timeout=60)
        )
        if proc.returncode != 0:
            raise SystemExit(
                f"server exited {proc.returncode} on SIGTERM\n{err}"
            )
        if f"checkpoint: {checkpoint}" not in out:
            raise SystemExit(f"no checkpoint line in server output:\n{out}")
        if not checkpoint.exists():
            raise SystemExit(f"checkpoint file missing: {checkpoint}")
        return start_server(port, checkpoint, resume=True)

    proc2 = await restart_mid_replay()
    try:
        outcomes = await replay
        if len(outcomes) != PACKETS:
            raise SystemExit(
                f"replay returned {len(outcomes)} outcomes, want {PACKETS}"
            )
        if client.reconnects < 1:
            raise SystemExit(
                "client never reconnected; SIGTERM path was not exercised"
            )
        flush = await client.flush()
        await client.close()
    finally:
        proc2.send_signal(signal.SIGTERM)
        proc2.communicate(timeout=60)
    if proc2.returncode != 0:
        raise SystemExit(f"restarted server exited {proc2.returncode}")

    if flush["packets"] != PACKETS:
        raise SystemExit(
            f"service processed {flush['packets']} packets, want {PACKETS}"
        )
    restored = result_from_dict(flush["result"])
    if restored != offline:
        raise SystemExit(
            "service result != offline result after warm restart"
        )
    if json.dumps(result_to_dict(offline)) != json.dumps(
        result_to_dict(restored)
    ):
        raise SystemExit("service result not byte-identical through serializer")
    label = "slow-consumer round" if slow_consumer else "service smoke"
    print(
        f"{label} OK: {PACKETS} packets, "
        f"{client.reconnects} reconnect(s), byte-identical result"
    )


def main() -> int:
    offline = HyperSimulator(hypertrio_config(), make_trace()).run(
        warmup_packets=0
    )
    with tempfile.TemporaryDirectory() as tmp:
        for slow_consumer in (False, True):
            checkpoint = Path(tmp) / f"service-{int(slow_consumer)}.ckpt"
            asyncio.run(
                run_smoke(free_port(), checkpoint, offline, slow_consumer)
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

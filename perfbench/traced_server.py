"""``repro-sim serve`` with the benchmark's layer wrappers in the server.

    python3 perfbench/traced_server.py --layers-out FILE -- serve ARGS...

Runs the repository's own CLI entry point (``repro.cli.main``) after
installing, in this process only:

* a hook on ``build_server`` that wraps the service and engine layers of
  the server it builds (``layers.instrument_service``);
* timing wrappers on ``protocol.decode`` and ``protocol.encode``;
* an event-loop policy whose selector's ``select`` is timed as
  ``service.idle`` (time the loop waited for the network).

Only the replay is traced: the window opens at the first frame the server
decodes and closes after it encodes the ``flush_ok`` reply.  Everything in
the window outside a wrapped call is the ``service.server`` root's self
time (asyncio callbacks, framing, sockets).  When the server exits, the
layer table and the sampled spans are written to ``--layers-out``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import selectors
import sys
import time

import workloads  # noqa: F401  (puts the program's sources on sys.path)
from layers import SAMPLE_EVERY, LayerTracer, instrument_classes, instrument_service


class _IdleTimingPolicy(asyncio.DefaultEventLoopPolicy):
    def __init__(self, tracer: LayerTracer):
        super().__init__()
        self._tracer = tracer

    def new_event_loop(self):
        selector = selectors.DefaultSelector()
        self._tracer.wrap(selector, "select", "service.idle")
        return asyncio.SelectorEventLoop(selector)


def _seq_of_decoded(_args, message):
    return message.get("seq") if message.get("type") == "translate" else None


def _seq_of_encoded(args, _data):
    message = args[0]
    return message.get("seq") if message.get("type") == "result" else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layers-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    from repro import cli
    from repro.service import protocol
    from repro.service import server as server_module

    tracer = LayerTracer()
    tracer.active = False
    instrument_classes(tracer)
    servers = []
    build_server = server_module.build_server

    def build_traced_server(*a, **kw):
        server = build_server(*a, **kw)
        instrument_service(tracer, server)
        servers.append(server)
        return server

    server_module.build_server = build_traced_server

    window = {}
    timed_decode = tracer.timed(
        "service.protocol.decode", protocol.decode, key_of=_seq_of_decoded
    )
    timed_encode = tracer.timed(
        "service.protocol.encode", protocol.encode, key_of=_seq_of_encoded
    )

    def decode(line):
        if not window:
            window["opened"] = time.perf_counter()
            tracer.active = True
            window["root"] = tracer.open("service.server")
        return timed_decode(line)

    def encode(message):
        data = timed_encode(message)
        if message.get("type") == protocol.FLUSH_OK and "root" in window:
            tracer.close(window.pop("root"))
            tracer.active = False
            window["closed"] = time.perf_counter()
        return data

    protocol.decode = decode
    protocol.encode = encode
    asyncio.set_event_loop_policy(_IdleTimingPolicy(tracer))
    code = cli.main(serve_args)

    sim = servers[0].engine.sim if servers else None
    report = {
        "wall_s": window.get("closed", 0.0) - window.get("opened", 0.0),
        "accounted_s": tracer.accounted_s(),
        "open_spans": tracer.depth,
        "layers": tracer.metrics(sim),
        "spans": tracer.span_records(),
        "sample_every": SAMPLE_EVERY,
    }
    with open(args.layers_out, "w") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""One engine-workload sample, run in a fresh process.

Modes:

* ``run``: build the trace and the simulator (set-up), then simulate;
  report timings, peak memory and the result's digest.
* ``traced``: the same run with every layer wrapped (see ``layers.py``);
  report the layer table and write the sampled spans to ``--spans-out``.

The simulator is driven exactly as ``repro.sim.simulate`` drives it at its
default engine (``HyperSimulator(config, trace).run(...)``); the benchmark
makes the two calls itself so that it can time construction as set-up and
wrap the instance in the traced run.

Prints one JSON object on standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads as wl
from layers import SAMPLE_EVERY, LayerTracer, instrument_classes, instrument_simulator


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_kwargs(workload: wl.Workload, work: Path) -> dict:
    kwargs = {"warmup_packets": workload.warmup_packets}
    if workload.checkpoints:
        kwargs["checkpoint_every"] = workload.checkpoint_every
        kwargs["checkpoint_path"] = work / f"{workload.name}.ckpt"
    return kwargs


def plain_sample(workload: wl.Workload, seed: int, work: Path) -> dict:
    from repro.sim.simulator import HyperSimulator

    config = wl.build_config(workload)
    started = time.perf_counter()
    trace = wl.build_trace(workload, seed)
    sim = HyperSimulator(config, trace)
    report = {"setup_s": time.perf_counter() - started}
    cpu_started = time.process_time()
    run_started = time.perf_counter()
    result = sim.run(**_run_kwargs(workload, work))
    report["run_s"] = time.perf_counter() - run_started
    report["cpu_s"] = time.process_time() - cpu_started
    report["packets"] = len(trace.packets)
    report["peak_rss_mb"] = _peak_rss_mb()
    report["digest"] = wl.result_digest(result)
    report["link_utilization"] = result.link_utilization
    return report


def traced_sample(workload: wl.Workload, seed: int, work: Path, spans_out: Path) -> dict:
    from repro.sim.simulator import HyperSimulator

    config = wl.build_config(workload)
    tracer = LayerTracer()
    instrument_classes(tracer)
    try:
        started = time.perf_counter()
        span = tracer.open("trace.build")
        trace = wl.build_trace(workload, seed)
        tracer.close(span)
        root = tracer.open("sim.loop")
        sim = HyperSimulator(config, trace)
        instrument_simulator(tracer, sim)
        result = sim.run(**_run_kwargs(workload, work))
        tracer.close(root)
        wall_s = time.perf_counter() - started
    finally:
        tracer.uninstall()
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_out, "w") as handle:
        json.dump(
            {"workload": workload.name, "seed": seed,
             "sample_every": SAMPLE_EVERY, "spans": tracer.span_records()},
            handle,
        )
    return {
        "wall_s": wall_s,
        "accounted_s": tracer.accounted_s(),
        "open_spans": tracer.depth,
        "layers": tracer.metrics(sim),
        "packets": len(trace.packets),
        "digest": wl.result_digest(result),
        "link_utilization": result.link_utilization,
        "spans_out": str(spans_out),
        "spans": len(tracer.spans),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--trace-seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "traced"), default="run")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path,
                        help="where a traced run writes its sampled spans")
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    if workload.service:
        parser.error(f"{workload.name} is a service workload")
    if args.mode == "traced":
        if args.spans_out is None:
            parser.error("--mode traced needs --spans-out")
        report = traced_sample(workload, args.trace_seed, args.work, args.spans_out)
    else:
        report = plain_sample(workload, args.trace_seed, args.work)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

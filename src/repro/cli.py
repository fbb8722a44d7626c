"""Command-line interface for the HyperTRIO/HyperSIO reproduction.

Subcommands::

    repro-sim simulate    --benchmark mediastream --tenants 64 --config hypertrio
                          [--trace-out run.trace.json --metrics-out run.metrics.json]
    repro-sim sweep       --benchmark websearch --interleaving RR4
                          [--metrics-out sweep.metrics.json]
    repro-sim characterize --benchmark mediastream --packets 95000
    repro-sim serve       --benchmark mediastream --tenants 64 --port 7411
                          [--rate 5000 --checkpoint svc.ckpt]
                          [--slo-rules slo.json --span-out spans.json]
    repro-sim top         --port 7411 [--interval 2 --format table]
    repro-sim top         --run-dir .repro-runs/figure10-default  # fleet view
    repro-sim bench       [--root .]   # pinned matrix -> BENCH_<n>.json
    repro-sim experiment  figure10 [--scale default]
    repro-sim run         --experiment figure10 --jobs 4 [--resume RUN_ID]
    repro-sim run         --experiment figure10 --queue sweep.db  # distributed
    repro-sim top         --run-dir .repro-runs/x --queue sweep.db --iterations 1
    repro-sim report-metrics run.metrics.json [--chart]
    repro-sim list        # available experiments / benchmarks / runs

Installed as the ``repro-sim`` console script (see pyproject.toml); also
runnable as ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.ascii_plot import chart_from_columns
from repro.analysis.experiments import ALL_EXPERIMENTS, run_driver
from repro.analysis.scale import SCALE_ENV_VAR, RunScale, current_scale
from repro.analysis.sweeps import run_point
from repro.core.config import (
    SID_MAP_SCHEMES,
    DeviceConfig,
    base_config,
    hypertrio_config,
)
from repro.sim.simulator import HyperSimulator
from repro.trace.characterize import characterize_single_tenant
from repro.trace.collector import collect_single_tenant
from repro.trace.constructor import construct_trace
from repro.trace.tenant import BENCHMARKS, profile_by_name

_CONFIGS = {"base": base_config, "hypertrio": hypertrio_config}


def _parse_device_config(devices: int, sid_map: str) -> DeviceConfig:
    """Parse ``--devices`` / ``--sid-map`` into a :class:`DeviceConfig`.

    ``--sid-map`` accepts a scheme name (``round_robin``, ``hash``) or an
    explicit pin list: ``explicit:0=1,5=0`` routes SID 0 to device 1 and
    SID 5 to device 0 (unmapped SIDs fall back to round-robin).
    """
    if sid_map.startswith("explicit:") or sid_map == "explicit":
        _, _, spec = sid_map.partition(":")
        pairs = []
        for item in filter(None, spec.split(",")):
            sid_text, eq, device_text = item.partition("=")
            if not eq:
                raise argparse.ArgumentTypeError(
                    f"explicit sid-map entries are SID=DEVICE, got {item!r}"
                )
            try:
                pairs.append((int(sid_text), int(device_text)))
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"explicit sid-map entries are SID=DEVICE with integer "
                    f"SID and DEVICE, got {item!r}"
                ) from None
        try:
            return DeviceConfig(
                count=devices, sid_map="explicit", explicit_map=tuple(pairs)
            )
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None
    if sid_map not in SID_MAP_SCHEMES:
        raise argparse.ArgumentTypeError(
            f"--sid-map must be one of {SID_MAP_SCHEMES} or "
            f"'explicit:SID=DEV,...', got {sid_map!r}"
        )
    try:
        return DeviceConfig(count=devices, sid_map=sid_map)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _add_common_workload_args(
    parser: argparse.ArgumentParser, packets_default: Optional[int] = 12_000
) -> None:
    parser.add_argument(
        "--benchmark", default="mediastream", choices=sorted(BENCHMARKS),
        help="workload profile (default: mediastream)",
    )
    parser.add_argument(
        "--interleaving", default="RR1",
        help="inter-tenant order: RR<n> or RAND<n> (default: RR1)",
    )
    packets_help = (
        f"trace length cap in packets (default: {packets_default})"
        if packets_default is not None
        else "trace length cap in packets (default: the scale preset's cap)"
    )
    parser.add_argument(
        "--packets", type=int, default=packets_default, help=packets_help,
    )
    parser.add_argument("--seed", type=int, default=0)


def _add_trace_file_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-file", default=None, metavar="PATH",
        help="replace the constructed packet stream with a JSON-lines "
             "trace file (see repro.trace.records); tenant systems are "
             "still built from --benchmark/--tenants, and the file is "
             "validated against them before simulation",
    )
    parser.add_argument(
        "--no-validate", action="store_true",
        help="skip trace validation for --trace-file (faster, but bad "
             "SIDs or unmapped gIOVAs will surface as simulation faults)",
    )


def _apply_trace_file(
    trace,
    trace_file: str,
    no_validate: bool,
    max_packets: Optional[int] = None,
):
    """Substitute packets from ``trace_file`` into a constructed trace.

    The constructed trace supplies the tenant systems (page tables, SID
    registry); the file supplies the packet stream.  Unless disabled, the
    combined trace is validated — unknown SIDs, gIOVAs that fault on the
    tenant's page tables, and implausible sizes are reported with packet
    indices.  Returns the patched :class:`HyperTrace`, or ``None`` after
    printing actionable errors to stderr.
    """
    from repro.trace.records import compute_trace_stats, load_trace

    try:
        packets = load_trace(Path(trace_file))
    except OSError as error:
        print(f"cannot read trace file {trace_file}: {error}", file=sys.stderr)
        return None
    except (ValueError, KeyError, TypeError) as error:
        print(
            f"malformed trace file {trace_file}: {error} "
            f"(expected one JSON packet record per line, e.g. "
            f'{{"sid": 0, "giovas": [a, b, c], "size": 1542}})',
            file=sys.stderr,
        )
        return None
    if not packets:
        print(f"trace file {trace_file} contains no packets", file=sys.stderr)
        return None
    if max_packets is not None:
        packets = packets[:max_packets]
    trace = dataclasses.replace(
        trace, packets=packets, stats=compute_trace_stats(packets)
    )
    if not no_validate:
        from repro.trace.validate import validate_trace

        report = validate_trace(trace)
        if not report.ok:
            print(
                f"trace file {trace_file} failed validation with "
                f"{len(report.errors)} error(s) "
                f"(--no-validate to run anyway):",
                file=sys.stderr,
            )
            for line in report.errors[:10]:
                print(f"  {line}", file=sys.stderr)
            if len(report.errors) > 10:
                print(
                    f"  ... (+{len(report.errors) - 10} more)",
                    file=sys.stderr,
                )
            return None
    return trace


def _print_fabric_summary(result) -> None:
    if not result.device_results:
        return
    fabric = result.fabric
    print(
        f"  fabric: {fabric.num_devices} devices ({fabric.sid_map}), "
        f"walker mean queue delay "
        f"{fabric.walker_mean_queue_delay_ns:.1f} ns "
        f"over {fabric.walker_jobs} walks"
    )
    for dev in result.device_results:
        print(
            f"  dev{dev.device_id}: "
            f"{dev.achieved_bandwidth_gbps:7.1f} Gb/s, "
            f"accepted {dev.packets.accepted}, "
            f"drops {dev.packets.dropped}, "
            f"devtlb hit {dev.cache_stats['devtlb'].hit_rate * 100:5.1f}%, "
            f"iotlb hit {dev.iotlb_hit_rate * 100:5.1f}%"
        )


def _simulate_checkpoint_plan(args: argparse.Namespace):
    """Resolve ``--checkpoint-dir``/``--checkpoint-every`` into
    ``(every, path)``; ``(0, None)`` when checkpointing is off."""
    every = args.checkpoint_every
    if args.checkpoint_dir and every == 0:
        every = 5000
    if every <= 0:
        return 0, None
    directory = Path(args.checkpoint_dir or ".")
    directory.mkdir(parents=True, exist_ok=True)
    name = (
        f"simulate-{args.benchmark}-{args.tenants}t-"
        f"{args.interleaving}-s{args.seed}.ckpt"
    )
    return every, directory / name


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.config_file:
        from repro.core.config_io import load_config

        config = load_config(args.config_file)
    else:
        config = _CONFIGS[args.config]()
    if args.devices != 1 or args.sid_map != "round_robin":
        try:
            config = config.with_overrides(
                devices=_parse_device_config(args.devices, args.sid_map)
            )
        except argparse.ArgumentTypeError as error:
            print(f"bad --sid-map: {error}", file=sys.stderr)
            return 2
    checkpoint_every, checkpoint_path = _simulate_checkpoint_plan(args)
    if args.resume_from:
        # The checkpoint carries the full engine state — faults and
        # observability included — and rebuilds its own trace, so flags
        # that would rebuild any of those cannot apply to a resumed run.
        for flag, name in (
            (args.trace_file, "--trace-file"),
            (args.trace_out, "--trace-out"),
            (args.metrics_out, "--metrics-out"),
            (args.fault_plan, "--fault-plan"),
        ):
            if flag:
                print(
                    f"{name} cannot be combined with --resume-from: the "
                    f"checkpoint already carries that state",
                    file=sys.stderr,
                )
                return 2
        from repro.sim.checkpoint import (
            CheckpointError,
            SimulationInterrupted,
            install_signal_handlers,
        )
        from repro.sim.simulator import simulate

        install_signal_handlers()
        try:
            result = simulate(
                config,
                None,
                resume_from=args.resume_from,
                checkpoint_every=checkpoint_every,
                checkpoint_path=checkpoint_path,
            )
        except CheckpointError as error:
            print(
                f"cannot resume from {args.resume_from}: {error}",
                file=sys.stderr,
            )
            return 2
        except SimulationInterrupted as stop:
            print(
                f"interrupted at {stop.packets_done} packets; resume with "
                f"--resume-from {stop.checkpoint_path}",
                file=sys.stderr,
            )
            return 130
        print(result.summary())
        _print_fabric_summary(result)
        return 0

    trace = construct_trace(
        profile_by_name(args.benchmark),
        num_tenants=args.tenants,
        packets_per_tenant=200_000,
        interleaving=args.interleaving,
        seed=args.seed,
        max_packets=args.packets,
    )
    if args.trace_file:
        trace = _apply_trace_file(
            trace, args.trace_file, args.no_validate, max_packets=args.packets
        )
        if trace is None:
            return 2
    fault_plan = None
    if args.fault_plan:
        from repro.faults import FaultPlanFormatError, load_plan

        try:
            fault_plan = load_plan(args.fault_plan)
        except FaultPlanFormatError as error:
            print(f"bad fault plan {args.fault_plan}: {error}", file=sys.stderr)
            return 2
    observability = None
    if args.trace_out or args.metrics_out:
        from repro.obs import Observability

        if args.trace_out:
            observability = Observability.recording(
                sample_rate=args.trace_sample, seed=args.seed
            )
        else:
            observability = Observability.metrics_only()
    simulator = HyperSimulator(
        config, trace, observability=observability, fault_plan=fault_plan
    )
    if checkpoint_path is not None:
        from repro.sim.checkpoint import (
            SimulationInterrupted,
            install_signal_handlers,
        )

        install_signal_handlers()
        try:
            result = simulator.run(
                warmup_packets=len(trace.packets) // 4,
                checkpoint_every=checkpoint_every,
                checkpoint_path=checkpoint_path,
            )
        except SimulationInterrupted as stop:
            print(
                f"interrupted at {stop.packets_done} packets; resume with "
                f"--resume-from {stop.checkpoint_path}",
                file=sys.stderr,
            )
            return 130
    else:
        result = simulator.run(warmup_packets=len(trace.packets) // 4)
    print(result.summary())
    if fault_plan is not None:
        causes = result.packets.drop_causes
        detail = ", ".join(
            f"{cause}={causes[cause]}" for cause in sorted(causes)
        ) or "none"
        print(f"  faults (seed {fault_plan.seed}): drops by cause: {detail}")
    _print_fabric_summary(result)
    if args.trace_out:
        from repro.obs.export import write_trace

        tracer = observability.tracer
        path = write_trace(tracer.events, args.trace_out)
        print(f"  trace: {path} ({len(tracer.events)} events, "
              f"{tracer.packets_sampled} packets sampled)")
    if args.metrics_out:
        from repro.obs.export import write_metrics

        path = write_metrics(args.metrics_out, observability, result)
        print(f"  metrics: {path}")
    if args.verbose:
        for name, stats in sorted(result.cache_stats.items()):
            print(f"  {name:16s} hit {stats.hit_rate * 100:5.1f}% "
                  f"({stats.hits}/{stats.accesses})")
        print(f"  mean request latency {result.latency.mean_ns:.0f} ns, "
              f"drops {result.packets.dropped}")
        if result.prefetch_requests:
            print(f"  prefetch supplied "
                  f"{result.prefetch_supplied_fraction * 100:.1f}%")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    scale = current_scale()
    if args.packets is not None:
        scale = dataclasses.replace(scale, max_packets=args.packets)
    counts = [int(c) for c in args.tenants.split(",")]
    device_counts = [int(c) for c in args.devices.split(",")]
    fault_rates: List[Optional[float]] = [None]
    if args.fault_axis:
        from repro.faults import FaultPlan, TranslationFaultSpec

        fault_rates = [float(rate) for rate in args.fault_axis.split(",")]
    columns = {}
    metric_points = []
    for count in counts:
        trace_override = None
        if args.trace_file:
            from repro.analysis.sweeps import cached_trace

            constructed = cached_trace(
                args.benchmark, count, args.interleaving, scale, seed=args.seed
            )
            trace_override = _apply_trace_file(
                constructed, args.trace_file, args.no_validate,
                max_packets=scale.packets_for(count),
            )
            if trace_override is None:
                return 2
        for name, factory in (("Base", base_config), ("HyperTRIO", hypertrio_config)):
            for num_devices in device_counts:
                for fault_rate in fault_rates:
                    config = factory()
                    label = name
                    if len(device_counts) > 1 or num_devices != 1:
                        label = f"{name} x{num_devices}dev"
                    if num_devices != 1:
                        try:
                            config = config.with_overrides(
                                devices=_parse_device_config(
                                    num_devices, args.sid_map
                                )
                            )
                        except argparse.ArgumentTypeError as error:
                            print(f"bad --sid-map: {error}", file=sys.stderr)
                            return 2
                    fault_plan = None
                    if fault_rate is not None:
                        label = f"{label} f={fault_rate:g}"
                        if fault_rate > 0.0:
                            fault_plan = FaultPlan(
                                seed=args.seed,
                                translation_faults=(
                                    TranslationFaultSpec(probability=fault_rate),
                                ),
                            )
                    trace_kwargs = (
                        {"trace": trace_override}
                        if trace_override is not None
                        else {}
                    )
                    point = run_point(
                        config, args.benchmark, count, args.interleaving,
                        scale, seed=args.seed, fault_plan=fault_plan,
                        **trace_kwargs,
                    )
                    columns.setdefault(label, []).append(point.utilization_percent)
                    print(
                        f"{label:16s} {count:5d} tenants: "
                        f"{point.utilization_percent:5.1f}%"
                    )
                    if args.metrics_out:
                        result = point.result
                        entry = {
                            "config": point.config_name,
                            "num_tenants": count,
                            "num_devices": num_devices,
                            "utilization_percent": point.utilization_percent,
                            "achieved_bandwidth_gbps": (
                                result.achieved_bandwidth_gbps
                            ),
                            "packets_dropped": result.packets.dropped,
                            "latency": {
                                "count": result.latency.count,
                                "mean_ns": result.latency.mean_ns,
                                "min_ns": result.latency.min_ns,
                                "max_ns": result.latency.max_ns,
                                **result.percentiles,
                            },
                        }
                        if fault_rate is not None:
                            entry["fault_rate"] = fault_rate
                            entry["drop_causes"] = dict(
                                result.packets.drop_causes
                            )
                        metric_points.append(entry)
    if args.metrics_out:
        import json

        document = {
            "schema": "repro-obs-sweep/1",
            "benchmark": args.benchmark,
            "interleaving": args.interleaving,
            "points": metric_points,
        }
        Path(args.metrics_out).write_text(
            json.dumps(document, indent=2) + "\n", encoding="utf-8"
        )
        print(f"  metrics: {args.metrics_out}")
    if args.chart and len(counts) > 1:
        chart = chart_from_columns(
            f"{args.benchmark} / {args.interleaving}: link utilisation %",
            counts,
            columns,
            log_x=True,
        )
        print()
        print(chart.render())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the translation service (see docs/SERVICE.md)."""
    import asyncio
    import signal

    from repro.service.admission import AdmissionConfig
    from repro.service.server import ConnectionPolicy, build_server
    from repro.sim.checkpoint import CheckpointError

    try:
        admission = AdmissionConfig(
            rate_per_s=args.rate,
            burst=args.burst,
            max_queue_depth=args.max_queue_depth,
            ptb_high_watermark=args.ptb_high_watermark,
            ptb_low_watermark=args.ptb_low_watermark,
            backpressure_mode=args.backpressure,
        )
    except ValueError as error:
        print(f"bad admission configuration: {error}", file=sys.stderr)
        return 2
    policy = ConnectionPolicy(
        max_frame_bytes=args.max_frame_bytes,
        idle_timeout_s=args.idle_timeout if args.idle_timeout > 0 else None,
        frame_deadline_s=(
            args.frame_deadline if args.frame_deadline > 0 else None
        ),
        max_inflight=args.max_inflight,
        max_write_buffer=args.max_write_buffer,
    )
    if args.config_file:
        from repro.core.config_io import load_config

        config = load_config(args.config_file)
    else:
        config = _CONFIGS[args.config]()

    slo_rules = None
    if args.slo_rules:
        from repro.obs.slo import SloFormatError, load_slo_rules

        try:
            slo_rules = load_slo_rules(args.slo_rules)
        except OSError as error:
            print(f"cannot read SLO rules {args.slo_rules}: {error}",
                  file=sys.stderr)
            return 2
        except SloFormatError as error:
            print(f"bad SLO rules {args.slo_rules}: {error}", file=sys.stderr)
            return 2
    if args.slo_backpressure and not slo_rules:
        print("--slo-backpressure needs --slo-rules", file=sys.stderr)
        return 2

    trace = None
    fault_plan = None
    observability = None
    if args.resume_from is None:
        trace = construct_trace(
            profile_by_name(args.benchmark),
            num_tenants=args.tenants,
            packets_per_tenant=200_000,
            interleaving=args.interleaving,
            seed=args.seed,
            max_packets=args.packets,
        )
        if args.fault_plan:
            from repro.faults import FaultPlanFormatError, load_plan

            try:
                fault_plan = load_plan(args.fault_plan)
            except FaultPlanFormatError as error:
                print(
                    f"bad fault plan {args.fault_plan}: {error}",
                    file=sys.stderr,
                )
                return 2
        if args.span_out:
            from repro.obs import Observability

            observability = Observability.profiling(
                metrics=not args.no_metrics
            )
        elif not args.no_metrics:
            from repro.obs import Observability

            observability = Observability.metrics_only()
    elif args.span_out:
        # The checkpointed engine carries its own observability bundle;
        # a fresh span recorder cannot be attached under it.
        print("--span-out cannot be combined with --resume-from",
              file=sys.stderr)
        return 2

    async def _serve() -> None:
        server = build_server(
            config,
            trace,
            admission=admission,
            host=args.host,
            port=args.port,
            observability=observability,
            fault_plan=fault_plan,
            checkpoint_path=args.checkpoint,
            resume_from=args.resume_from,
            slo_rules=slo_rules,
            slo_backpressure=args.slo_backpressure,
        )
        await server.start()
        # Parseable by wrappers (scripts/service_smoke.py, CI): keep the
        # "listening on HOST:PORT" shape stable.
        print(f"listening on {server.host}:{server.port}", flush=True)
        if args.resume_from:
            print(
                f"resumed from {args.resume_from} "
                f"({server.engine.processed} packets already processed)",
                flush=True,
            )
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await server.serve_until_shutdown()
        if server.checkpoint_path is not None:
            print(f"checkpoint: {server.checkpoint_path}", flush=True)
        if args.span_out and server.spans is not None:
            from repro.obs.export import write_spans

            path = write_spans(server.spans.spans, args.span_out)
            print(
                f"spans: {path} ({len(server.spans.spans)} spans)",
                flush=True,
            )

    try:
        asyncio.run(_serve())
    except CheckpointError as error:
        print(f"cannot resume from {args.resume_from}: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(
            f"cannot serve on {args.host}:{args.port}: {error}",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_chaos_proxy(args: argparse.Namespace) -> int:
    """Run a standalone ChaosProxy in front of a serving instance."""
    import asyncio
    import signal

    from repro.faults import FaultPlanFormatError
    from repro.faults.netchaos import NetworkFaultPlan, load_netplan

    host, _, port_text = args.upstream.rpartition(":")
    try:
        upstream_port = int(port_text)
    except ValueError:
        print(f"bad --upstream {args.upstream!r}: expected HOST:PORT",
              file=sys.stderr)
        return 2
    if not host:
        host = "127.0.0.1"

    if args.plan:
        try:
            plan = load_netplan(args.plan)
        except OSError as error:
            print(f"cannot read plan {args.plan}: {error}", file=sys.stderr)
            return 2
        except FaultPlanFormatError as error:
            print(f"bad plan {args.plan}: {error}", file=sys.stderr)
            return 2
    else:
        plan = NetworkFaultPlan(seed=0)

    async def _proxy() -> None:
        from repro.faults.netchaos import ChaosProxy

        proxy = ChaosProxy(
            host, upstream_port, plan, host=args.host, port=args.port
        )
        await proxy.start()
        print(
            f"proxying on {args.host}:{proxy.port} -> "
            f"{host}:{upstream_port}"
            + ("" if args.plan else " (transparent: no fault plan)"),
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        try:
            await stop.wait()
        finally:
            await proxy.aclose()
        faults = dict(proxy.faults_injected)
        print(f"faults injected: {faults or 'none'}", flush=True)

    try:
        asyncio.run(_proxy())
    except KeyboardInterrupt:
        pass
    except OSError as error:
        print(
            f"cannot proxy on {args.host}:{args.port}: {error}",
            file=sys.stderr,
        )
        return 2
    return 0


def _render_stats_table(reply) -> str:
    """Render a ``stats`` reply as the ``top`` terminal view."""
    lines = []
    packets = reply.get("packets") or {}
    lines.append(
        f"processed {reply.get('processed', 0)}  "
        f"queue {reply.get('queue_depth', 0)}  "
        f"requests {reply.get('requests_received', 0)}  "
        f"results {reply.get('results_sent', 0)}"
    )
    causes = packets.get("drop_causes") or {}
    cause_text = (
        ", ".join(f"{cause}={causes[cause]}" for cause in sorted(causes))
        or "none"
    )
    lines.append(
        f"packets: arrived {packets.get('arrived', 0)}, "
        f"accepted {packets.get('accepted', 0)}, "
        f"dropped {packets.get('dropped', 0)}, "
        f"drops by cause: {cause_text}"
    )
    admission = reply.get("admission") or {}
    if admission:
        totals = {"admitted": 0, "rate_limited": 0, "queue_full": 0,
                  "backpressure_shed": 0}
        for stats in admission.values():
            for key in totals:
                totals[key] += stats.get(key, 0)
        lines.append(
            f"admission: admitted {totals['admitted']}, "
            f"rate-limited {totals['rate_limited']}, "
            f"queue-full {totals['queue_full']}, "
            f"shed {totals['backpressure_shed']}"
        )
    conn = reply.get("conn") or {}
    if conn:
        lines.append(
            f"conn: open {conn.get('open', 0)}, "
            f"sessions {conn.get('sessions', 0)}, "
            f"opened {conn.get('opened', 0)}, "
            f"reconnects {conn.get('reconnects', 0)}, "
            f"evicted {conn.get('evicted_slow', 0)}, "
            f"timeouts idle/frame "
            f"{conn.get('idle_timeout', 0)}/{conn.get('frame_timeout', 0)}, "
            f"resends served {conn.get('resends_served', 0)}"
        )
    per_sid = reply.get("per_sid") or {}
    if per_sid:
        lines.append(
            f"{'sid':>5s} {'reqs':>8s} {'mean':>9s} {'p50':>9s} "
            f"{'p95':>9s} {'p99':>9s} {'devtlb':>7s}"
        )
        for sid in sorted(per_sid, key=int):
            row = per_sid[sid]
            hits = row.get("devtlb_hits", 0)
            misses = row.get("devtlb_misses", 0)
            accesses = hits + misses
            hit_text = (
                f"{hits / accesses * 100.0:6.1f}%" if accesses else "      -"
            )
            lines.append(
                f"{sid:>5s} {row.get('count', 0):8d} "
                f"{row.get('mean_ns', 0.0):9.0f} "
                f"{row.get('p50_ns', 0.0):9.0f} "
                f"{row.get('p95_ns', 0.0):9.0f} "
                f"{row.get('p99_ns', 0.0):9.0f} {hit_text}"
            )
        lines.append("(latencies in ns)")
    slo = reply.get("slo") or {}
    for rule in slo.get("rules", []):
        state = "BREACHED" if rule.get("breached") else "ok"
        lines.append(
            f"slo {rule.get('name')}: {rule.get('kind')} "
            f"threshold {rule.get('threshold')} -> {state}"
        )
    return "\n".join(lines)


def _render_fleet_table(snapshot) -> str:
    """Render a fleet registry snapshot (``top --run-dir``) as text."""
    lines = []
    workers = [
        row for row in snapshot.get("gauges", [])
        if row["name"] == "runner_workers"
    ]
    if workers:
        text = ", ".join(
            f"{row['labels'].get('status', '?')}={row['value']:.0f}"
            for row in workers
        )
        lines.append(f"workers: {text}")
    jobs = [
        row for row in snapshot.get("counters", [])
        if row["name"] == "runner_jobs"
    ]
    if jobs:
        text = ", ".join(
            f"{row['labels'].get('status', '?')}={row['value']}" for row in jobs
        )
        lines.append(f"jobs: {text}")
    exits = [
        row for row in snapshot.get("counters", [])
        if row["name"] == "runner_jobs_exit"
    ]
    if exits:
        text = ", ".join(
            f"{row['labels'].get('cause', '?')}={row['value']}" for row in exits
        )
        lines.append(f"exit causes: {text}")
    for row in snapshot.get("histograms", []):
        if row["name"] == "runner_job_duration_ns" and row.get("count"):
            lines.append(
                f"job duration: mean {row['mean_ns'] / 1e9:.2f}s, "
                f"p99 {row['p99_ns'] / 1e9:.2f}s over {row['count']} jobs"
            )
    gauges = snapshot.get("gauges", [])
    for row in gauges:
        if row["name"] == "runner_quarantined_lines" and row["value"]:
            lines.append(
                f"quarantined result lines: {row['value']:.0f} "
                f"(see quarantine.jsonl)"
            )
    queue_jobs = [row for row in gauges if row["name"] == "queue_jobs"]
    if queue_jobs:
        text = ", ".join(
            f"{row['labels'].get('status', '?')}={row['value']:.0f}"
            for row in queue_jobs
        )
        lines.append(f"queue: {text}")
    queue_workers = {}
    for row in gauges:
        if row["name"].startswith("queue_worker_"):
            worker = row["labels"].get("worker", "?")
            queue_workers.setdefault(worker, {})[
                row["name"][len("queue_worker_"):]
            ] = row["value"]
    for worker in sorted(queue_workers):
        counters = queue_workers[worker]
        lines.append(
            f"  {worker:24s} claims {counters.get('claims', 0):.0f}  "
            f"takeovers {counters.get('takeovers', 0):.0f}  "
            f"renewals {counters.get('renewals', 0):.0f}  "
            f"done {counters.get('done', 0):.0f}  "
            f"failed {counters.get('failed', 0):.0f}"
        )
    leases = [row for row in gauges if row["name"] == "queue_lease_remaining_s"]
    for row in leases:
        spec = str(row["labels"].get("spec", "?"))
        state = "EXPIRED" if row["value"] < 0 else f"{row['value']:.1f}s left"
        lines.append(
            f"  lease {spec[:12]:12s} {row['labels'].get('worker', '?'):24s} "
            f"{state}"
        )
    by_spec = {}
    for row in snapshot.get("gauges", []):
        spec = row["labels"].get("spec")
        if spec is not None and row["name"].startswith("runner_"):
            by_spec.setdefault(spec, {})[row["name"]] = (
                row["value"], row["labels"]
            )
    for spec in sorted(by_spec):
        series = by_spec[spec]
        age, labels = series.get("runner_heartbeat_age_s", (None, {}))
        packets, _ = series.get("runner_packets_done", (0.0, {}))
        rss, _ = series.get("runner_rss_kb", (0.0, {}))
        age_text = f"{age:.1f}s ago" if age is not None else "never"
        lines.append(
            f"  {spec[:12]:12s} {labels.get('status', '?'):10s} "
            f"{packets:10.0f} packets  rss {rss:8.0f} kB  "
            f"heartbeat {age_text}"
        )
    return "\n".join(lines) if lines else "no fleet records found"


def _cmd_top(args: argparse.Namespace) -> int:
    """Live service/fleet metrics view (polls ``stats`` over the wire)."""
    import asyncio
    import time

    if args.run_dir or args.queue:
        from repro.obs.fleet import fleet_registry, queue_registry
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.prom import registry_to_prom
        from repro.runner.queue import QueueError

        run_dir = Path(args.run_dir) if args.run_dir else None
        if run_dir is not None and not run_dir.is_dir():
            print(f"no such run directory: {run_dir}", file=sys.stderr)
            return 2
        if args.queue and not Path(args.queue).is_file():
            print(f"no such queue database: {args.queue}", file=sys.stderr)
            return 2
        shown = 0
        while True:
            registry = MetricsRegistry()
            if run_dir is not None:
                fleet_registry(run_dir, registry)
            if args.queue:
                try:
                    queue_registry(args.queue, registry)
                except QueueError as error:
                    print(f"error: {error}", file=sys.stderr)
                    return 2
            snapshot = registry.snapshot()
            if args.format == "prom":
                print(registry_to_prom(snapshot), end="", flush=True)
            else:
                print(_render_fleet_table(snapshot), flush=True)
            shown += 1
            if args.iterations and shown >= args.iterations:
                return 0
            time.sleep(args.interval)
            print(flush=True)

    from repro.service.client import ServiceClient, ServiceClientError

    async def _watch() -> int:
        client = ServiceClient(args.host, args.port, connect_timeout=2.0)
        try:
            await client.connect()
        except (OSError, ServiceClientError) as error:
            print(
                f"cannot connect to {args.host}:{args.port}: {error}",
                file=sys.stderr,
            )
            return 2
        try:
            shown = 0
            while True:
                reply = await client.stats(
                    "prom" if args.format == "prom" else None
                )
                if args.format == "prom":
                    print(reply.get("text", ""), end="", flush=True)
                else:
                    print(_render_stats_table(reply), flush=True)
                shown += 1
                if args.iterations and shown >= args.iterations:
                    return 0
                await asyncio.sleep(args.interval)
                print(flush=True)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            print("connection to the service lost", file=sys.stderr)
            return 1
        finally:
            await client.close()

    return asyncio.run(_watch())


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the pinned benchmark matrix -> BENCH_<n>.json."""
    from repro.analysis.bench import run_bench

    root = Path(args.root)
    if not root.is_dir():
        print(f"no such directory: {root}", file=sys.stderr)
        return 2
    _, _, lines = run_bench(
        root,
        analytic_packets=args.analytic_packets,
        service_packets=args.service_packets,
        output=Path(args.output) if args.output else None,
    )
    print("\n".join(lines))
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    profile = profile_by_name(args.benchmark)
    if args.regular:
        profile = dataclasses.replace(profile, jump_probability=0.0)
    log = collect_single_tenant(profile, packets=args.packets, seed=args.seed)
    analysis = characterize_single_tenant(log)
    print(f"benchmark {args.benchmark}: {analysis.total_requests} requests")
    for name in ("ring", "data", "init"):
        group = analysis.groups[name]
        print(
            f"  {name:5s}: {group.page_count:3d} pages, "
            f"{group.accesses_per_page:10.1f} accesses/page"
        )
    print(f"  periodic: {analysis.periodic}, "
          f"mean run length {analysis.mean_run_length:.0f}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.scale:
        os.environ[SCALE_ENV_VAR] = args.scale
    if args.name not in ALL_EXPERIMENTS:
        print(f"unknown experiment {args.name!r}; see 'repro-sim list'",
              file=sys.stderr)
        return 2
    table = run_driver(args.name, scale=current_scale())
    print(table.render())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.runner import (
        ExperimentRunner,
        ProgressReporter,
        ResultStore,
        RunFailedError,
        RunnerOptions,
        SupervisionOptions,
    )

    if args.scale:
        os.environ[SCALE_ENV_VAR] = args.scale
    scale = current_scale()
    if args.experiment not in ALL_EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; see 'repro-sim list'",
              file=sys.stderr)
        return 2
    runs_dir = Path(args.runs_dir)
    run_id = args.resume or args.run_id or f"{args.experiment}-{scale.name}"
    if args.resume and not (runs_dir / run_id).is_dir():
        print(f"no run directory to resume: {runs_dir / run_id}", file=sys.stderr)
        return 2
    store = ResultStore(runs_dir, run_id)
    if store.corrupt_records:
        print(
            f"[run {run_id}] warning: {len(store.corrupt_records)} corrupt "
            f"result record(s) quarantined to {store.quarantine_path}; "
            f"affected points will be re-executed",
            file=sys.stderr,
        )
    store.write_manifest(experiment=args.experiment, scale=scale.name)
    options = RunnerOptions(
        jobs=args.jobs,
        timeout_s=args.timeout,
        max_attempts=args.retries + 1,
    )
    supervision = SupervisionOptions(
        checkpoint_every=args.checkpoint_every,
        heartbeat_timeout_s=args.heartbeat_timeout,
        deadline_s=args.deadline,
        memory_budget_kb=(
            args.memory_budget_mb * 1024 if args.memory_budget_mb else None
        ),
    )
    reporter = ProgressReporter(stream=sys.stderr, enabled=not args.no_progress)
    runner = ExperimentRunner(
        store=store, options=options, reporter=reporter, supervision=supervision
    )
    if args.queue:
        return _run_queue_mode(args, store, runner, run_id, scale)
    try:
        table = run_driver(args.experiment, scale=scale, runner=runner)
    except KeyboardInterrupt:
        stats = runner.stats
        store.write_manifest(
            wall_clock_s=stats.wall_clock_s,
            status="interrupted",
            jobs=stats.as_dict(),
            supervision=store.supervision_summary(),
        )
        print(
            f"run {run_id} interrupted; 'repro-sim run --experiment "
            f"{args.experiment} --resume {run_id}' continues it "
            f"(mid-simulation, from the per-job checkpoints)",
            file=sys.stderr,
        )
        return 130
    except RunFailedError as error:
        stats = runner.stats
        store.write_manifest(
            wall_clock_s=stats.wall_clock_s, status="failed",
            jobs=stats.as_dict(), supervision=store.supervision_summary(),
        )
        print(f"run {run_id} failed: {error}", file=sys.stderr)
        return 1
    stats = runner.stats
    store.write_manifest(
        wall_clock_s=stats.wall_clock_s, status="ok", jobs=stats.as_dict(),
        metrics=store.metrics_summary(),
        supervision=store.supervision_summary(),
    )
    print(table.render())
    interrupted_text = (
        f"{stats.interrupted} interrupted, " if stats.interrupted else ""
    )
    print(
        f"[run {run_id}] {stats.total} jobs: {stats.executed} executed, "
        f"{stats.cached} cached, {stats.failed} failed, {interrupted_text}"
        f"in {stats.wall_clock_s:.1f}s -> {store.directory}"
    )
    return 0


def _run_queue_mode(args, store, runner, run_id, scale) -> int:
    """``repro-sim run --queue``: cooperate on a shared SQLite job queue.

    Multiple invocations — on one machine or several sharing the queue
    file and (ideally) the run directory — plan the same experiment,
    enqueue it idempotently, and drain it together.  Results land only
    in each worker's ``results.jsonl`` (the queue is coordination, not
    storage), so a deleted or corrupt queue database is rebuilt by
    simply re-running this command.
    """
    from repro.runner import QueueCorruptError, QueueError
    from repro.runner.queue import ExperimentQueue

    try:
        queue = ExperimentQueue(args.queue, lease_s=args.lease)
    except QueueCorruptError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except QueueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    def on_event(message: str) -> None:
        if not args.no_progress:
            print(f"[run {run_id}] {message}", file=sys.stderr)

    table = stats = None
    try:
        try:
            table, stats = run_driver(
                args.experiment, scale=scale, runner=runner,
                queue=queue, on_event=on_event,
            )
        except KeyboardInterrupt:
            store.write_manifest(
                wall_clock_s=runner.stats.wall_clock_s,
                status="interrupted",
                jobs=runner.stats.as_dict(),
                supervision=store.supervision_summary(),
                queue=queue.summary(),
            )
            print(
                f"run {run_id} interrupted; claims released — surviving "
                f"workers (or a rerun of this command) continue the sweep",
                file=sys.stderr,
            )
            return 130
        except QueueCorruptError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        summary = queue.summary()
        counts = summary["counts"]
        failed = counts.get("failed", 0) + counts.get("quarantined", 0)
        store.write_manifest(
            wall_clock_s=stats.wall_clock_s if stats else None,
            status="failed" if failed else "ok",
            jobs=runner.stats.as_dict(),
            metrics=store.metrics_summary(),
            supervision=store.supervision_summary(),
            queue=summary,
            queue_worker=stats.as_dict() if stats else None,
        )
        if table is not None:
            print(table.render())
        if stats is not None:
            takeover_text = (
                f"{stats.takeovers} takeovers, " if stats.takeovers else ""
            )
            print(
                f"[run {run_id}] queue {queue.path}: {stats.claims} claims, "
                f"{stats.executed} executed, {stats.memo_hits} answered from "
                f"store, {takeover_text}{stats.failed} failed, "
                f"in {stats.wall_clock_s:.1f}s -> {store.directory}"
            )
            counts_text = ", ".join(
                f"{status}={count}" for status, count in counts.items()
            )
            print(f"[run {run_id}] queue state: {counts_text}")
        if table is None and stats is not None:
            print(
                f"[run {run_id}] some results live in other workers' "
                f"stores; render the table from a shared run directory "
                f"or re-run single-host",
                file=sys.stderr,
            )
        return 1 if failed else 0
    finally:
        queue.close()


def _cmd_report_metrics(args: argparse.Namespace) -> int:
    """Render a metrics JSON file (from ``--metrics-out``) as tables."""
    import json

    from repro.analysis.report import ExperimentTable

    path = Path(args.metrics_file)
    if not path.is_file():
        print(f"no such metrics file: {path}", file=sys.stderr)
        return 2
    document = json.loads(path.read_text(encoding="utf-8"))
    schema = document.get("schema", "")
    if not schema.startswith("repro-obs-metrics/"):
        print(f"not a repro-obs metrics file (schema {schema!r})", file=sys.stderr)
        return 2

    run = document.get("run") or {}
    if run:
        print(
            f"run: {run.get('config')} / {run.get('benchmark')} / "
            f"{run.get('num_tenants')} tenants / {run.get('interleaving')}"
        )
        print(
            f"  bandwidth {run.get('achieved_bandwidth_gbps', 0.0):.1f} Gb/s "
            f"({run.get('link_utilization', 0.0) * 100:.1f}% of link), "
            f"drops {run.get('packets_dropped', 0)}"
        )
    overall = document.get("overall_latency") or {}
    if overall:
        print(
            f"  latency mean {overall.get('mean_ns', 0.0):.0f} ns, "
            f"p50/p95/p99 {overall.get('p50_ns', 0.0):.0f}/"
            f"{overall.get('p95_ns', 0.0):.0f}/"
            f"{overall.get('p99_ns', 0.0):.0f} ns"
        )
        print()

    per_sid = document.get("per_sid_latency") or {}
    if per_sid:
        table = ExperimentTable(
            experiment_id="per-tenant latency",
            title="translation latency percentiles by SID (ns)",
            columns=["sid", "requests", "mean", "p50", "p95", "p99", "max"],
        )
        for sid in sorted(per_sid, key=int):
            summary = per_sid[sid]
            table.add_row(
                sid,
                summary.get("count", 0),
                summary.get("mean_ns", 0.0),
                summary.get("p50_ns", 0.0),
                summary.get("p95_ns", 0.0),
                summary.get("p99_ns", 0.0),
                summary.get("max_ns", 0.0),
            )
        print(table.render())
        if args.chart and len(per_sid) > 1:
            from repro.analysis.ascii_plot import AsciiChart

            chart = AsciiChart(title="p99 translation latency by SID (ns)")
            chart.add_series(
                "p99",
                [
                    (int(sid), per_sid[sid].get("p99_ns", 0.0))
                    for sid in sorted(per_sid, key=int)
                ],
            )
            print()
            print(chart.render())

    evictions = document.get("cross_tenant_evictions") or {}
    shown = {
        name: block for name, block in sorted(evictions.items())
        if block.get("total_cross_tenant")
    }
    if shown:
        print()
        table = ExperimentTable(
            experiment_id="cross-tenant evictions",
            title="entries evicted by another tenant (evictor -> victim)",
            columns=["cache", "pair", "evictions"],
        )
        for name, block in shown.items():
            pairs = sorted(
                (block.get("pairs") or {}).items(),
                key=lambda item: -item[1],
            )
            for pair, count in pairs[: args.top]:
                table.add_row(name, pair, count)
            if len(pairs) > args.top:
                table.add_note(
                    f"{name}: top {args.top} of {len(pairs)} pairs shown "
                    f"({block['total_cross_tenant']} cross-tenant evictions total)"
                )
        print(table.render())
    elif evictions:
        print()
        print("cross-tenant evictions: none recorded")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    print("experiments:")
    for name in sorted(ALL_EXPERIMENTS):
        print(f"  {name}")
    print("benchmarks:")
    for name in sorted(BENCHMARKS):
        profile = BENCHMARKS[name]
        print(
            f"  {name:12s} active translation set "
            f"{profile.active_translation_set}"
        )
    print("configs: base, hypertrio")
    from repro.runner.store import DEFAULT_RUNS_DIR, list_runs

    runs = list_runs(Path(DEFAULT_RUNS_DIR))
    if runs:
        print(f"runs ({DEFAULT_RUNS_DIR}):")
        for run_id in runs:
            print(f"  {run_id}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="HyperTRIO / HyperSIO reproduction (ISCA 2020)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser("simulate", help="run one configuration")
    _add_common_workload_args(simulate)
    simulate.add_argument("--tenants", type=int, default=64)
    simulate.add_argument("--config", default="hypertrio", choices=sorted(_CONFIGS))
    simulate.add_argument(
        "--config-file", default=None,
        help="load an ArchConfig JSON file instead of a named preset "
             "(see repro.core.config_io)",
    )
    simulate.add_argument(
        "--devices", type=int, default=1, metavar="N",
        help="device paths sharing the chipset (default: 1, the paper's "
             "single device)",
    )
    simulate.add_argument(
        "--sid-map", default="round_robin", metavar="SPEC",
        help="SID->device routing: round_robin, hash, or "
             "explicit:SID=DEV,... (default: round_robin)",
    )
    simulate.add_argument("-v", "--verbose", action="store_true")
    simulate.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a per-request event trace (.json = Perfetto-loadable "
             "Chrome trace, .jsonl = one event per line)",
    )
    simulate.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write per-tenant metrics (latency percentiles, cross-tenant "
             "evictions) as JSON; view with 'repro-sim report-metrics'",
    )
    simulate.add_argument(
        "--trace-sample", type=float, default=1.0, metavar="RATE",
        help="fraction of packets to trace, 0..1 (default: 1.0); sampling "
             "is deterministic for a given --seed",
    )
    simulate.add_argument(
        "--fault-plan", default=None, metavar="PATH",
        help="inject faults from a FaultPlan JSON file (see repro.faults); "
             "runs are bit-reproducible for a given plan seed",
    )
    _add_trace_file_args(simulate)
    simulate.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="write crash-safe checkpoints into DIR (enables checkpointing "
             "every 5000 packets unless --checkpoint-every says otherwise); "
             "SIGINT/SIGTERM flush a final checkpoint before exiting",
    )
    simulate.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="packets between checkpoints (0 = off unless --checkpoint-dir "
             "is given); a resumed run is byte-identical to an "
             "uninterrupted one",
    )
    simulate.add_argument(
        "--resume-from", default=None, metavar="PATH",
        help="restore a checkpoint file and run it to completion "
             "(workload/trace flags are ignored: the checkpoint carries "
             "the full engine state)",
    )
    simulate.set_defaults(func=_cmd_simulate)

    sweep = subparsers.add_parser("sweep", help="Base vs HyperTRIO tenant sweep")
    _add_common_workload_args(sweep, packets_default=None)
    sweep.add_argument(
        "--tenants", default="4,16,64,256",
        help="comma-separated tenant counts (default: 4,16,64,256)",
    )
    sweep.add_argument(
        "--devices", default="1", metavar="COUNTS",
        help="comma-separated device counts to sweep alongside tenants "
             "(default: 1)",
    )
    sweep.add_argument(
        "--sid-map", default="round_robin", metavar="SPEC",
        help="SID->device routing for multi-device points "
             "(default: round_robin)",
    )
    sweep.add_argument("--chart", action="store_true", help="ASCII chart output")
    sweep.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write per-point latency percentiles and drop counts as JSON",
    )
    sweep.add_argument(
        "--fault-axis", default=None, metavar="RATES",
        help="comma-separated translation-fault probabilities to sweep "
             "(e.g. 0,0.01,0.05); each point runs under a seeded FaultPlan",
    )
    _add_trace_file_args(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    serve = subparsers.add_parser(
        "serve",
        help="translation-as-a-service TCP front end (docs/SERVICE.md)",
    )
    _add_common_workload_args(serve)
    serve.add_argument("--tenants", type=int, default=64)
    serve.add_argument(
        "--config", default="hypertrio", choices=sorted(_CONFIGS)
    )
    serve.add_argument(
        "--config-file", default=None,
        help="load an ArchConfig JSON file instead of a named preset",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default: 0 = ephemeral; the bound port is printed "
             "as 'listening on HOST:PORT')",
    )
    serve.add_argument(
        "--rate", type=float, default=None, metavar="REQ_PER_S",
        help="per-tenant token-bucket rate limit (default: unlimited); "
             "0 denies the tenant outright",
    )
    serve.add_argument(
        "--burst", type=int, default=64,
        help="token-bucket burst capacity (default: 64)",
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=None, metavar="N",
        help="per-tenant in-flight request cap (default: unlimited)",
    )
    serve.add_argument(
        "--ptb-high-watermark", type=int, default=None, metavar="N",
        help="modeled PTB occupancy that triggers backpressure "
             "(default: off)",
    )
    serve.add_argument(
        "--ptb-low-watermark", type=int, default=None, metavar="N",
        help="occupancy that releases backpressure (default: half the "
             "high watermark)",
    )
    serve.add_argument(
        "--backpressure", default="shed", choices=("shed", "pause"),
        help="over the high watermark: 'shed' rejects with a typed error, "
             "'pause' stalls the device's virtual clock to the drain time",
    )
    serve.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="flush a warm-restart snapshot here on graceful shutdown "
             "(SIGTERM/SIGINT); restart with --resume-from PATH",
    )
    serve.add_argument(
        "--resume-from", default=None, metavar="PATH",
        help="warm-restart from a service checkpoint (workload flags are "
             "ignored: the checkpoint carries the full engine state)",
    )
    serve.add_argument(
        "--no-metrics", action="store_true",
        help="disable the live per-SID metrics registry (slightly faster; "
             "'stats' replies omit per_sid)",
    )
    serve.add_argument(
        "--fault-plan", default=None, metavar="PATH",
        help="inject faults from a FaultPlan JSON file (see repro.faults)",
    )
    serve.add_argument(
        "--slo-rules", default=None, metavar="PATH",
        help="arm the SLO watch engine with a repro-slo/1 JSON rules file "
             "(p99 latency, drop rate, PTB dwell); breach state shows in "
             "'stats' replies and the prom export",
    )
    serve.add_argument(
        "--slo-backpressure", action="store_true",
        help="let an SLO breach latch admission backpressure until every "
             "rule recovers (requires --slo-rules)",
    )
    serve.add_argument(
        "--span-out", default=None, metavar="PATH",
        help="record wire-to-engine request spans and write them as a "
             "Perfetto-loadable Chrome trace on shutdown (enables phase "
             "profiling too; clients opt in per request via 'trace')",
    )
    serve.add_argument(
        "--max-frame-bytes", type=int, default=1 << 20, metavar="BYTES",
        help="reject request frames longer than this with a typed "
             "frame_too_large error (default: 1 MiB)",
    )
    serve.add_argument(
        "--idle-timeout", type=float, default=600.0, metavar="SECONDS",
        help="close connections with no traffic and no inflight work "
             "after this long (default: 600; 0 disables)",
    )
    serve.add_argument(
        "--frame-deadline", type=float, default=30.0, metavar="SECONDS",
        help="a started frame must finish (newline arrive) within this "
             "deadline or the peer is cut (default: 30; 0 disables)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=4096, metavar="N",
        help="per-connection inflight request cap; excess requests get a "
             "retryable typed error (default: 4096)",
    )
    serve.add_argument(
        "--max-write-buffer", type=int, default=8 << 20, metavar="BYTES",
        help="evict peers that let this many reply bytes pile up unread "
             "(default: 8 MiB)",
    )
    serve.set_defaults(func=_cmd_serve)

    chaos_proxy = subparsers.add_parser(
        "chaos-proxy",
        help="run a seeded wire-fault proxy in front of a serving "
             "instance (see docs/RESILIENCE.md)",
    )
    chaos_proxy.add_argument(
        "--upstream", required=True, metavar="HOST:PORT",
        help="the serving instance to proxy for",
    )
    chaos_proxy.add_argument(
        "--plan", default=None, metavar="PATH",
        help="NetworkFaultPlan JSON (see repro.faults.netchaos); omitted "
             "= byte-transparent relay",
    )
    chaos_proxy.add_argument("--host", default="127.0.0.1")
    chaos_proxy.add_argument(
        "--port", type=int, default=0,
        help="listen port (default: 0 = ephemeral, printed on start)",
    )
    chaos_proxy.set_defaults(func=_cmd_chaos_proxy)

    top = subparsers.add_parser(
        "top",
        help="live metrics view: poll a serving instance's 'stats', or "
             "aggregate a runner fleet's run directory",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument(
        "--port", type=int, default=7411,
        help="port of the serving instance (default: 7411)",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="seconds between polls (default: 2)",
    )
    top.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="stop after N renders (default: 0 = poll until interrupted)",
    )
    top.add_argument(
        "--format", default="table", choices=("table", "prom"),
        help="'table' is the per-SID terminal view; 'prom' prints the "
             "Prometheus exposition text verbatim",
    )
    top.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="offline fleet mode: aggregate DIR's heartbeat and result "
             "records instead of polling a server (see docs/RUNNER.md)",
    )
    top.add_argument(
        "--queue", default=None, metavar="PATH",
        help="also fold a distributed experiment queue database into the "
             "view: per-status job counts, per-worker claim/takeover "
             "counters, and live lease runway (combine with --run-dir)",
    )
    top.set_defaults(func=_cmd_top)

    bench = subparsers.add_parser(
        "bench",
        help="pinned benchmark matrix -> BENCH_<n>.json (throughput "
             "tracking)",
    )
    bench.add_argument(
        "--root", default=".",
        help="directory holding the BENCH_<n>.json series (default: .)",
    )
    bench.add_argument(
        "--output", default=None, metavar="PATH",
        help="explicit output path (default: next BENCH_<n>.json in --root)",
    )
    bench.add_argument(
        "--analytic-packets", type=int, default=6000,
        help="packet budget applied uniformly to every analytic-engine "
             "row — config comparison, profiled, runner, and "
             "checkpointed (default: 6000)",
    )
    bench.add_argument(
        "--service-packets", type=int, default=2500,
        help="packet budget for the service replay row (default: 2500)",
    )
    bench.set_defaults(func=_cmd_bench)

    characterize = subparsers.add_parser(
        "characterize", help="single-tenant Figure 8 analysis"
    )
    characterize.add_argument(
        "--benchmark", default="mediastream", choices=sorted(BENCHMARKS)
    )
    characterize.add_argument("--packets", type=int, default=95_000)
    characterize.add_argument("--seed", type=int, default=0)
    characterize.add_argument(
        "--regular", action="store_true",
        help="disable the profile's irregularity (pure periodic stream)",
    )
    characterize.set_defaults(func=_cmd_characterize)

    experiment = subparsers.add_parser(
        "experiment", help="regenerate one paper table/figure"
    )
    experiment.add_argument("name", help="e.g. figure10, table3")
    experiment.add_argument("--scale", choices=("smoke", "default", "full"))
    experiment.set_defaults(func=_cmd_experiment)

    run = subparsers.add_parser(
        "run",
        help="parallel, resumable experiment run with a persistent "
             "result cache",
    )
    run.add_argument(
        "--experiment", required=True, help="driver name, e.g. figure10"
    )
    run.add_argument(
        "--jobs", type=int, default=0,
        help="worker processes (0 = all cores; 1 = in-process)",
    )
    run.add_argument("--scale", choices=("smoke", "default", "full"))
    run.add_argument(
        "--run-id", default=None,
        help="name of the result-store directory "
             "(default: <experiment>-<scale>; reuse to resume/re-use cache)",
    )
    run.add_argument(
        "--resume", metavar="RUN_ID", default=None,
        help="resume an existing run: executes only its missing points",
    )
    run.add_argument(
        "--runs-dir", default=".repro-runs",
        help="root directory for result stores (default: .repro-runs)",
    )
    run.add_argument(
        "--timeout", type=float, default=None,
        help="per-job timeout in seconds (hung workers are killed)",
    )
    run.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts per job lost to infrastructure failures — "
             "crashed or timed-out workers (default: 1); deterministic job "
             "errors fail fast regardless",
    )
    run.add_argument(
        "--no-progress", action="store_true",
        help="suppress progress/telemetry lines on stderr",
    )
    run.add_argument(
        "--checkpoint-every", type=int, default=5000, metavar="N",
        help="packets between worker checkpoints (0 = off; default: 5000); "
             "interrupted or killed jobs resume mid-simulation from the "
             "last checkpoint on 'run --resume'",
    )
    run.add_argument(
        "--heartbeat-timeout", type=float, default=None, metavar="SECONDS",
        help="watchdog: kill and requeue a worker whose heartbeat is older "
             "than this (detects silently hung workers; default: off)",
    )
    run.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="watchdog: per-job wall-clock deadline; jobs over it are "
             "killed and requeued under the retry budget (default: off)",
    )
    run.add_argument(
        "--memory-budget-mb", type=int, default=None, metavar="MB",
        help="watchdog: soft per-worker RSS budget; jobs over it are "
             "killed and requeued under the retry budget (default: off)",
    )
    run.add_argument(
        "--queue", default=None, metavar="PATH",
        help="distributed mode: pull jobs from a shared SQLite experiment "
             "queue instead of running the local plan directly; multiple "
             "invocations (multiple hosts) sharing PATH cooperate on one "
             "sweep, with lease-based takeover of dead workers' claims "
             "(see docs/RUNNER.md)",
    )
    run.add_argument(
        "--lease", type=float, default=30.0, metavar="SECONDS",
        help="queue mode: lease duration for claimed jobs; a worker silent "
             "longer than this loses its claims to survivors (default: 30)",
    )
    run.set_defaults(func=_cmd_run)

    report = subparsers.add_parser(
        "report-metrics",
        help="render a --metrics-out file as per-tenant tables",
    )
    report.add_argument("metrics_file", help="metrics JSON written by simulate")
    report.add_argument(
        "--chart", action="store_true",
        help="ASCII chart of p99 latency by SID",
    )
    report.add_argument(
        "--top", type=int, default=10,
        help="cross-tenant eviction pairs to show per cache (default: 10)",
    )
    report.set_defaults(func=_cmd_report_metrics)

    lister = subparsers.add_parser("list", help="list experiments and benchmarks")
    lister.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

"""Tests for the benchmark's own code, on short traces.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import re
from collections import Counter

import pytest

import calibrate
import engine_sample
import launcher
import layers
import run
import workloads as wl

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def small(name: str, **changes) -> wl.Workload:
    """A short version of a benchmark workload."""
    return dataclasses.replace(wl.WORKLOADS[name], **changes)


SMALL_ENGINE = {
    "hypertrio-rr1": dict(tenants=32, packets=600, warmup_packets=150),
    "base-rand1-ckpt": dict(tenants=32, packets=400, warmup_packets=100),
}


def declared():
    with open(wl.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


@pytest.mark.parametrize("name", sorted(SMALL_ENGINE))
def test_wrappers_leave_run_byte_identical(name, tmp_path):
    workload = small(name, **SMALL_ENGINE[name])
    plain = engine_sample.plain_sample(workload, 3, tmp_path / "plain")
    traced = engine_sample.traced_sample(
        workload, 3, tmp_path / "traced", tmp_path / "spans.json"
    )
    assert traced["digest"] == plain["digest"]
    if workload.checkpoints:
        # The save wrapper takes the per-instance wrappers off, so the
        # snapshot is what an untraced run writes.
        snapshot = f"{workload.name}.ckpt"
        assert (tmp_path / "traced" / snapshot).read_bytes() == (
            tmp_path / "plain" / snapshot
        ).read_bytes()
        assert traced["layers"]["sim.checkpoint.save.calls"] == workload.checkpoints
        assert traced["layers"]["sim.checkpoint.bytes"] > 0


def test_engine_path_is_simulate_at_its_default_engine(tmp_path):
    from repro.sim.simulator import simulate

    workload = small("hypertrio-rr1", **SMALL_ENGINE["hypertrio-rr1"])
    sample = engine_sample.plain_sample(workload, 5, tmp_path)
    result = simulate(
        wl.build_config(workload), wl.build_trace(workload, 5),
        warmup_packets=workload.warmup_packets,
    )
    assert sample["digest"] == wl.result_digest(result)


def test_layer_table_sums_to_traced_wall(tmp_path):
    workload = small("hypertrio-rr1", **SMALL_ENGINE["hypertrio-rr1"])
    traced = engine_sample.traced_sample(workload, 1, tmp_path, tmp_path / "spans.json")
    assert traced["open_spans"] == 0
    assert traced["accounted_s"] == pytest.approx(
        traced["wall_s"], rel=run.GUARD_TOLERANCE
    )
    table = traced["layers"]
    assert table["sim.loop.calls"] == 1
    assert all(table[f"{layer}.self_s"] >= 0 for layer in layers.TIMED_LAYERS)
    assert table["iommu.translate.calls"] == (
        table["iommu.translate.demand_calls"] + table["iommu.translate.prefetch_calls"]
    )
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    ids = {span["id"] for span in spans}
    assert spans and all(
        span["parent"] in ids for span in spans if span["layer"] not in ("sim.loop", "trace.build")
    )


def test_uninstall_restores_the_classes(tmp_path):
    from repro.mem.walker import TwoDimensionalWalker
    from repro.sim.checkpoint import SimulationCheckpoint

    walk = TwoDimensionalWalker.walk
    save = SimulationCheckpoint.save
    tracer = layers.LayerTracer()
    layers.instrument_classes(tracer)
    assert TwoDimensionalWalker.walk is not walk
    tracer.uninstall()
    assert TwoDimensionalWalker.walk is walk
    assert SimulationCheckpoint.save is save


def test_metric_names_are_declared_and_well_formed():
    end_to_end, per_layer = declared()
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == layers.per_layer_units()
    for name in list(end_to_end) + list(per_layer):
        assert NAME.match(name), name


def test_host_speed_measures_on_every_worker_and_stops_them():
    with calibrate.HostSpeed() as host:
        host.measure(2)
    assert len(host.slowness) == 2 and all(s > 0 for s in host.slowness)
    assert [proc.returncode for proc in host.workers] == [0] * calibrate.WORKERS


def test_times_are_divided_by_the_median_host_slowness():
    report = run.Report(run.END_TO_END_UNITS)
    samples = [(1000.0, 50.0, 2.0, 10.0), (3000.0, 70.0, 4.0, 12.0)]
    run.set_end_to_end(report, samples, [0.5, 2.0, 0.8])
    assert report.values == pytest.approx({
        "pkts_per_s": 2000.0 * 0.8,
        "cpu_us_per_pkt": 60.0 / 0.8,
        "setup_s": 3.0 / 0.8,
        "peak_rss_mb": 11.0,
    })


def test_reply_check_counts_missing_and_duplicate_results():
    outcomes = [
        {"type": "result", "seq": 0},
        {"type": "error", "seq": 2, "code": "translation_error"},
    ]
    problems = launcher.check_replies(Counter({0: 1, 1: 2}), outcomes, 3)
    assert problems == [
        "seq 1: 2 result replies",
        "seq 2: no result reply (error translation_error)",
    ]


class StubServer:
    """Stands in for a server process: the port of an in-process server."""

    spawned_at = 0.0

    def __init__(self, port):
        self.port = port

    def cpu_s(self):
        return 0.0

    def peak_rss_mb(self):
        return 1.0


def stub_round(monkeypatch, answer):
    """One client round against a server that answers ``hello`` and then
    calls ``answer(writer)`` for every other message."""
    from repro.service import protocol

    monkeypatch.setattr(launcher, "replay_deadline_s", lambda packets: 0.5)
    packets = wl.build_trace(small("service-16t", tenants=4, packets=20), 0).packets

    async def handle(reader, writer):
        while line := await reader.readline():
            if protocol.decode(line)["type"] == protocol.HELLO:
                writer.write(protocol.encode({"type": protocol.HELLO_OK}))
            else:
                answer(writer)
            await writer.drain()
        writer.close()

    async def main():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        async with server:
            stub = StubServer(server.sockets[0].getsockname()[1])
            return await launcher._client_round(stub, packets, "0" * 64)

    return asyncio.run(main()), len(packets)


def test_silent_server_fails_every_request_without_hanging(monkeypatch):
    measured, total = stub_round(monkeypatch, lambda writer: None)
    # Every request, and the flush.
    assert measured.failed == total + 1
    assert measured.problems[0] == "seq 0: no result reply"
    assert "still open after" in measured.problems[-1]


def test_corrupt_reply_is_a_failed_operation(monkeypatch):
    measured, total = stub_round(monkeypatch, lambda writer: writer.write(b"}{\n"))
    assert measured.failed == total + 1
    assert "ProtocolError" in measured.problems[-1]


@pytest.fixture
def short_service(monkeypatch):
    workload = small("service-16t", tenants=4, packets=300)
    monkeypatch.setitem(wl.WORKLOADS, workload.name, workload)
    monkeypatch.setattr(run, "SERVICE_ROUNDS", 1)
    return workload


def test_round_times_each_request_once(short_service):
    trace, digest, _ = run.offline_reference(short_service, 0)
    measured = launcher.service_round(short_service, 0, trace.packets, digest)
    assert measured.problems == [] and measured.failed == 0
    assert measured.results == len(trace.packets)
    # One round trip per request; the flush's is not among them.
    assert len(measured.rtts_s) == len(trace.packets)


def last_json_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_mismatched_reference_is_a_failed_operation(short_service, monkeypatch, capsys):
    monkeypatch.setattr(wl, "reference_digest", lambda workload, seed: "0" * 64)
    code = run.main(["--workload", short_service.name, "--seconds", "0"])
    assert code == 0
    out = last_json_line(capsys)
    assert out["correct"] is False
    assert out["failed"] == 1
    assert out["attempted"] == 1 + short_service.packets + 2
    end_to_end, _ = declared()
    assert set(out["metrics"]) == set(end_to_end)
    assert all(metric["value"] > 0 for metric in out["metrics"].values())


def test_traced_service_run_is_identical_and_accounted(short_service, monkeypatch, capsys):
    _, digest, _ = run.offline_reference(short_service, 0)
    monkeypatch.setattr(wl, "reference_digest", lambda workload, seed: digest)
    assert run.main(["--workload", short_service.name, "--trace", "1"]) == 0
    out = last_json_line(capsys)
    assert out["correct"] is True and out["failed"] == 0
    _, per_layer = declared()
    assert set(out["metrics"]) == set(per_layer)
    metrics = {name: metric["value"] for name, metric in out["metrics"].items()}
    assert metrics["service.engine.calls"] > 0
    assert metrics["service.server.calls"] == 1
    # complete_packet plus three process_request calls per packet.
    assert metrics["sim.engine.calls"] == 4 * short_service.packets
    assert metrics["tracing.wall_s"] > 0

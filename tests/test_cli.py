"""Tests for the repro-sim command-line interface."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.benchmark == "mediastream"
        assert args.config == "hypertrio"
        assert args.tenants == 64

    def test_invalid_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--benchmark", "nginx"])

    def test_experiment_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "figure10", "--scale", "huge"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--experiment", "figure10"])
        assert args.jobs == 0  # all cores
        assert args.run_id is None and args.resume is None
        assert args.runs_dir == ".repro-runs"
        assert args.retries == 1 and args.timeout is None

    def test_run_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_sweep_packets_defaults_to_scale_cap(self):
        args = build_parser().parse_args(["sweep"])
        assert args.packets is None


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure10" in output
        assert "mediastream" in output

    def test_simulate_small_run(self, capsys):
        code = main([
            "simulate", "--benchmark", "iperf3", "--tenants", "2",
            "--config", "base", "--packets", "400",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "Base" in output
        assert "Gb/s" in output

    def test_simulate_runs_without_numpy(self):
        # The package has no runtime dependencies: with numpy made
        # unimportable, the CLI and the service still load and simulate.
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "import repro.cli, repro.service.server\n"
            "sys.exit(repro.cli.main(['simulate', '--benchmark', 'iperf3',"
            " '--tenants', '2', '--config', 'base', '--packets', '400']))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "Gb/s" in completed.stdout

    def test_simulate_malformed_sid_map_reports_entry(self, capsys):
        """A bad explicit --sid-map entry must not traceback: it names
        the offending entry on stderr and exits 2."""
        code = main([
            "simulate", "--tenants", "2", "--packets", "100",
            "--devices", "2", "--sid-map", "explicit:0=0,1=oops",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "1=oops" in err
        assert "bad --sid-map" in err

    def test_sweep_malformed_sid_map_reports_entry(self, capsys):
        code = main([
            "sweep", "--tenants", "2", "--packets", "100",
            "--devices", "2", "--sid-map", "explicit:x=0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "x=0" in err

    def test_simulate_sid_map_unknown_scheme_exits_cleanly(self, capsys):
        code = main([
            "simulate", "--tenants", "2", "--packets", "100",
            "--devices", "2", "--sid-map", "randomly",
        ])
        assert code == 2
        assert "randomly" in capsys.readouterr().err

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 0 and args.host == "127.0.0.1"
        assert args.backpressure == "shed"
        assert args.rate is None and args.max_queue_depth is None

    def test_bench_parser_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.root == "." and args.output is None

    def test_simulate_verbose_prints_caches(self, capsys):
        main([
            "simulate", "--benchmark", "iperf3", "--tenants", "2",
            "--config", "hypertrio", "--packets", "400", "-v",
        ])
        output = capsys.readouterr().out
        assert "devtlb" in output

    def test_characterize(self, capsys):
        code = main([
            "characterize", "--benchmark", "iperf3", "--packets", "500",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "ring" in output
        assert "periodic" in output

    def test_experiment_table2(self, capsys, monkeypatch):
        code = main(["experiment", "table2"])
        assert code == 0
        assert "Table II" in capsys.readouterr().out

    def test_experiment_unknown_name(self, capsys):
        code = main(["experiment", "figure99"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_simulate_with_config_file(self, capsys, tmp_path):
        from repro.core.config import hypertrio_config
        from repro.core.config_io import save_config

        path = tmp_path / "custom.json"
        config = hypertrio_config().with_overrides(name="Custom")
        save_config(config, path)
        code = main([
            "simulate", "--benchmark", "iperf3", "--tenants", "2",
            "--packets", "300", "--config-file", str(path),
        ])
        assert code == 0
        assert "Custom" in capsys.readouterr().out

    def test_sweep_with_chart(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
        code = main([
            "sweep", "--benchmark", "iperf3", "--tenants", "2,4", "--chart",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "Base" in output and "HyperTRIO" in output
        assert "utilisation" in output  # chart title rendered

    def test_sweep_forwards_seed_and_packets(self, capsys, monkeypatch):
        import types

        monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
        calls = []

        def fake_run_point(config, benchmark, count, interleaving, scale,
                           native=False, seed=0, fault_plan=None):
            calls.append({"seed": seed, "max_packets": scale.max_packets})
            return types.SimpleNamespace(utilization_percent=50.0)

        monkeypatch.setattr("repro.cli.run_point", fake_run_point)
        code = main([
            "sweep", "--tenants", "2", "--seed", "7", "--packets", "777",
        ])
        assert code == 0
        assert calls and all(c["seed"] == 7 for c in calls)
        assert all(c["max_packets"] == 777 for c in calls)

    def test_sweep_without_packets_uses_scale_cap(self, capsys, monkeypatch):
        import types

        monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
        calls = []

        def fake_run_point(config, benchmark, count, interleaving, scale,
                           native=False, seed=0, fault_plan=None):
            calls.append(scale.max_packets)
            return types.SimpleNamespace(utilization_percent=50.0)

        monkeypatch.setattr("repro.cli.run_point", fake_run_point)
        assert main(["sweep", "--tenants", "2"]) == 0
        from repro.analysis.scale import SMOKE
        assert calls and all(cap == SMOKE.max_packets for cap in calls)


class TestSimulateResume:
    @pytest.fixture(autouse=True)
    def _own_signal_handlers(self):
        # Checkpointing routes SIGTERM/SIGINT to its interrupt flag; give
        # the test process its own handlers back afterwards.
        saved = {signum: signal.getsignal(signum) for signum in (signal.SIGTERM, signal.SIGINT)}
        yield
        for signum, handler in saved.items():
            signal.signal(signum, handler)

    def test_resume_prints_the_uninterrupted_summary(self, capsys, tmp_path):
        """A run resumed from its last snapshot (packet 3000 of 4000)
        reports exactly what the checkpointing run itself reported."""
        directory = tmp_path / "ckpts"
        assert main([
            "simulate", "--config", "base", "--tenants", "64",
            "--packets", "4000", "--checkpoint-dir", str(directory),
            "--checkpoint-every", "1500",
        ]) == 0
        straight = capsys.readouterr().out
        (snapshot,) = directory.iterdir()
        assert main([
            "simulate", "--config", "base", "--resume-from", str(snapshot),
        ]) == 0
        resumed = capsys.readouterr().out
        assert "drops 3999," in straight
        assert resumed == straight

    def test_trace_file_resume_prints_the_uninterrupted_summary(self, capsys, tmp_path):
        """A --trace-file run's snapshot carries the swapped-in packets."""
        from repro.sim.checkpoint import SimulationCheckpoint
        from repro.trace.constructor import construct_trace
        from repro.trace.records import write_trace
        from repro.trace.tenant import profile_by_name

        trace = construct_trace(
            profile_by_name("mediastream"), num_tenants=8,
            packets_per_tenant=200_000, interleaving="RAND1", max_packets=2000,
        )
        trace_file = tmp_path / "reversed.jsonl"
        write_trace(trace_file, reversed(trace.packets))
        directory = tmp_path / "ckpts"
        assert main([
            "simulate", "--tenants", "8", "--packets", "2000",
            "--trace-file", str(trace_file), "--checkpoint-dir", str(directory),
            "--checkpoint-every", "500",
        ]) == 0
        straight = capsys.readouterr().out
        (snapshot,) = directory.iterdir()
        assert not SimulationCheckpoint.load(snapshot).trace.packets_from_recipe
        assert main(["simulate", "--resume-from", str(snapshot)]) == 0
        assert capsys.readouterr().out == straight


class TestObservabilityFlags:
    def test_simulate_trace_flags_default_off(self):
        args = build_parser().parse_args(["simulate"])
        assert args.trace_out is None
        assert args.metrics_out is None
        assert args.trace_sample == 1.0

    def test_simulate_parses_trace_and_metrics_out(self):
        args = build_parser().parse_args([
            "simulate", "--trace-out", "t.json",
            "--metrics-out", "m.json", "--trace-sample", "0.25",
        ])
        assert args.trace_out == "t.json"
        assert args.metrics_out == "m.json"
        assert args.trace_sample == 0.25

    def test_sweep_parses_metrics_out(self):
        args = build_parser().parse_args(["sweep", "--metrics-out", "s.json"])
        assert args.metrics_out == "s.json"

    def test_report_metrics_parses(self):
        args = build_parser().parse_args([
            "report-metrics", "m.json", "--chart", "--top", "5",
        ])
        assert args.metrics_file == "m.json" and args.chart and args.top == 5

    def test_report_metrics_requires_file(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report-metrics"])

    def test_simulate_exports_then_report_renders(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "run.trace.json"
        metrics_path = tmp_path / "run.metrics.json"
        code = main([
            "simulate", "--benchmark", "iperf3", "--tenants", "4",
            "--config", "base", "--packets", "600",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "trace:" in output and "metrics:" in output

        trace = json.loads(trace_path.read_text())
        assert trace["displayTimeUnit"] == "ns"
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

        document = json.loads(metrics_path.read_text())
        assert document["schema"].startswith("repro-obs-metrics/")
        assert document["per_sid_latency"]  # one entry per active tenant

        assert main(["report-metrics", str(metrics_path), "--chart"]) == 0
        report = capsys.readouterr().out
        assert "translation latency percentiles by SID" in report
        assert "p99" in report

    def test_report_metrics_rejects_non_metrics_file(self, capsys, tmp_path):
        bogus = tmp_path / "other.json"
        bogus.write_text('{"schema": "something-else/1"}')
        assert main(["report-metrics", str(bogus)]) == 2
        assert "not a repro-obs metrics file" in capsys.readouterr().err

    def test_report_metrics_missing_file(self, capsys, tmp_path):
        assert main(["report-metrics", str(tmp_path / "nope.json")]) == 2
        assert "no such metrics file" in capsys.readouterr().err

    def test_sweep_metrics_out_writes_per_point_latency(
        self, capsys, tmp_path, monkeypatch
    ):
        import json

        monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
        metrics_path = tmp_path / "sweep.metrics.json"
        code = main([
            "sweep", "--benchmark", "iperf3", "--tenants", "2",
            "--packets", "400", "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        document = json.loads(metrics_path.read_text())
        assert document["schema"].startswith("repro-obs-sweep/")
        assert document["points"]
        for point in document["points"]:
            latency = point["latency"]
            assert latency["count"] > 0
            assert latency["p50_ns"] <= latency["p95_ns"] <= latency["p99_ns"]


class TestRunCommand:
    def test_unknown_experiment(self, capsys, tmp_path):
        code = main([
            "run", "--experiment", "figure99", "--runs-dir", str(tmp_path),
        ])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_resume_missing_run(self, capsys, tmp_path):
        code = main([
            "run", "--experiment", "figure9", "--resume", "nope",
            "--runs-dir", str(tmp_path),
        ])
        assert code == 2
        assert "no run directory" in capsys.readouterr().err

    def test_parallel_run_then_fully_cached_rerun(self, capsys, tmp_path,
                                                  monkeypatch):
        argv = [
            "run", "--experiment", "figure9", "--jobs", "2",
            "--scale", "smoke", "--runs-dir", str(tmp_path),
            "--run-id", "ci", "--no-progress",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "Figure 9" in first
        assert "4 jobs: 4 executed, 0 cached" in first

        # Same run-id again: zero simulations re-executed.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "4 jobs: 0 executed, 4 cached" in second
        # The tables themselves are identical.
        assert first.split("[run")[0] == second.split("[run")[0]

        manifest = (tmp_path / "ci" / "manifest.json").read_text()
        assert '"experiment": "figure9"' in manifest
        assert '"cpu_count"' in manifest

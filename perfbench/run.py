"""Run one benchmark workload and print every metric with its unit.

    python3 perfbench/run.py --workload hypertrio-rr1 --seed 3 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics, each sample in a fresh
process, and reports their medians with the times in seconds of a
reference host: the run also times a fixed kernel between its samples
(``calibrate.py``) and divides its times by how much slower than the
reference the host ran.  ``--trace 1`` runs the workload once untraced
and once traced and reports the per-layer table (``layers.py``); the two
simulated results must be identical and the layer self times must add up
to the traced wall time.  Every simulated result is checked against the
digest recorded in ``references.json`` for its workload and trace seed; a
mismatch is a failed operation, not a crash.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--record-references`` recomputes ``references.json`` from the program
as it is.  Do that only for a change that is meant to alter simulated
results.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import calibrate
import launcher
import layers
import workloads as wl

HERE = wl.HERE
ROOT = wl.ROOT

#: Engine samples taken at once, each in its own process: one per vCPU of
#: the 2-vCPU host the benchmark was tuned on.  The two vCPUs slow down
#: and speed up independently, so a batch samples both.
ENGINE_PARALLEL = 2
#: Batches per engine run, at least: the host's speed wanders by 10-20%
#: from one 20 s batch to the next, and runs of one batch spread about
#: twice as wide over ten runs as runs of two.
ENGINE_BATCHES = 2
#: Server rounds per service run, at least.
SERVICE_ROUNDS = 3
#: Host-speed calibrations (``calibrate.py``, 0.25 s each) before the
#: first sample and after each batch or round.  A batch takes 12-31 s and
#: a round 2-3 s, so both kinds of run calibrate about 10 times.
ENGINE_CALIBRATIONS = 3
SERVICE_CALIBRATIONS = 1
#: Longest a single sample process may take.
CHILD_TIMEOUT_S = 150
#: Largest gap between the layer self-time sum and the traced wall time.
GUARD_TOLERANCE = 0.01

END_TO_END_UNITS = {
    "pkts_per_s": "pkt/s",
    "cpu_us_per_pkt": "us/pkt",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def say(text: str) -> None:
    print(text, flush=True)


class Report:
    """Operations checked and metrics measured by one run."""

    def __init__(self, units):
        self.units = units
        self.values = {}
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, count: int = 1) -> bool:
        self.attempted += count
        if not ok:
            self.failed += count
        return ok

    def set(self, name: str, value: float) -> None:
        if name not in self.units:
            raise KeyError(f"metric {name} is not declared")
        self.values[name] = value

    def result_line(self) -> str:
        metrics = {
            name: {"value": self.values.get(name, 0.0), "unit": unit}
            for name, unit in self.units.items()
        }
        return json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        })

    def print_metrics(self) -> None:
        say(f"operations: attempted {self.attempted}, "
            f"succeeded {self.attempted - self.failed}, failed {self.failed}")
        for name, unit in self.units.items():
            say(f"  {name} = {self.values.get(name, 0.0):.6g} {unit}")


def check_digest(report: Report, label: str, digest: str, reference, utilization) -> None:
    ok = report.check(reference is not None and digest == reference)
    if ok:
        verdict = "matches the reference"
    elif reference is None:
        verdict = "has no recorded reference"
    else:
        verdict = f"DIFFERS from the reference {reference[:16]}"
    say(f"{label}: link_utilization {utilization:.6f}, "
        f"result sha256 {digest[:16]} {verdict}")


def check_guard(report: Report, label: str, wall_s: float, accounted_s: float,
                open_spans: int) -> None:
    gap = abs(accounted_s - wall_s) / wall_s if wall_s > 0 else 1.0
    ok = report.check(open_spans == 0 and gap <= GUARD_TOLERANCE)
    say(f"{label}: layer self times sum to {accounted_s:.4f} s of "
        f"{wall_s:.4f} s traced wall ({gap:.2%} apart, {open_spans} spans open)"
        f"{'' if ok else ' -- GUARD FAILED'}")


def keep_sampling(taken: int, minimum: int, started: float, longest: float,
                  seconds: float) -> bool:
    """Take another sample: always up to ``minimum``, then only while one
    as long as the longest so far still ends within ``seconds``."""
    return taken < minimum or time.perf_counter() - started + longest <= seconds


def set_end_to_end(report: Report, samples, slowness) -> None:
    """Set the end-to-end metrics from ``(pkts_per_s, cpu_us_per_pkt,
    setup_s, peak_rss_mb)`` per sample: the median of each, the times
    divided by the median host slowness measured between the samples
    (``calibrate.py``)."""
    median = statistics.median
    rates, cpus, setups, rss = (median(column) for column in zip(*samples))
    host = median(slowness)
    say(f"as measured: {rates:.1f} pkt/s, {cpus:.2f} us/pkt, set-up {setups:.3f} s; "
        f"host slowness {host:.3f} (median of {len(slowness)}, "
        f"{min(slowness):.3f}-{max(slowness):.3f})")
    report.set("pkts_per_s", rates * host)
    report.set("cpu_us_per_pkt", cpus / host)
    report.set("setup_s", setups / host)
    report.set("peak_rss_mb", rss)


# ----------------------------------------------------------------------
# Engine workloads
# ----------------------------------------------------------------------
def engine_child(workload, seed: int, mode: str, work: Path, spans_out=None) -> dict:
    """One sample in a fresh process (``engine_sample.py``)."""
    command = [
        sys.executable, str(HERE / "engine_sample.py"),
        "--workload", workload.name, "--trace-seed", str(seed),
        "--mode", mode, "--work", str(work),
    ]
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    completed = subprocess.run(
        command, stdout=subprocess.PIPE, env=wl.child_env(), cwd=str(ROOT),
        timeout=CHILD_TIMEOUT_S, text=True,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{mode} sample of {workload.name} exited with code {completed.returncode}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def engine_batch(workload, seed: int, modes, work: Path, spans_out=None):
    """One sample per mode, all at once, each in a fresh process with its
    own work directory."""
    def child(index_mode):
        index, mode = index_mode
        return engine_child(workload, seed, mode, work / str(index),
                            spans_out if mode == "traced" else None)

    with ThreadPoolExecutor(len(modes)) as pool:
        return list(pool.map(child, enumerate(modes)))


def engine_untraced(workload, seed: int, seconds: float, work: Path, report: Report):
    reference = wl.reference_digest(workload, seed)
    samples = []
    batches = 0
    longest = 0.0
    started = time.perf_counter()
    with calibrate.HostSpeed() as host:
        host.measure(ENGINE_CALIBRATIONS)
        while keep_sampling(batches, ENGINE_BATCHES, started, longest, seconds):
            batch_started = time.perf_counter()
            batch = engine_batch(workload, seed, ["run"] * ENGINE_PARALLEL, work)
            host.measure(ENGINE_CALIBRATIONS)
            longest = max(longest, time.perf_counter() - batch_started)
            batches += 1
            for sample in batch:
                samples.append(sample)
                say(f"sample {len(samples)} (batch {batches}): set-up "
                    f"{sample['setup_s']:.3f} s, simulate {sample['run_s']:.3f} s, cpu "
                    f"{sample['cpu_s']:.3f} s, peak rss {sample['peak_rss_mb']:.1f} MB")
                check_digest(report, f"sample {len(samples)}", sample["digest"],
                             reference, sample["link_utilization"])
    set_end_to_end(report, [
        (s["packets"] / s["run_s"], s["cpu_s"] * 1e6 / s["packets"], s["setup_s"],
         s["peak_rss_mb"])
        for s in samples
    ], host.slowness)


def engine_traced(workload, seed: int, work: Path, report: Report):
    reference = wl.reference_digest(workload, seed)
    spans_out = wl.WORK_ROOT / "traces" / f"{workload.name}-seed{seed}.json"
    # Side by side, so the overhead ratio compares runs under the same load.
    plain, traced = engine_batch(workload, seed, ["run", "traced"], work, spans_out)
    check_digest(report, "untraced run", plain["digest"], reference,
                 plain["link_utilization"])
    check_digest(report, "traced run", traced["digest"], plain["digest"],
                 traced["link_utilization"])
    check_guard(report, "traced run", traced["wall_s"], traced["accounted_s"],
                traced["open_spans"])
    say(f"sampled spans: {traced['spans']} in {traced['spans_out']}")
    for name, value in traced["layers"].items():
        report.set(name, value)
    untraced_wall = plain["setup_s"] + plain["run_s"]
    report.set("tracing.wall_s", traced["wall_s"])
    report.set("tracing.overhead_ratio", traced["wall_s"] / untraced_wall)
    loop_share = traced["layers"]["sim.loop.self_s"] / traced["wall_s"]
    say(f"sim.loop holds {loop_share:.2%} of the traced wall")


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
def offline_reference(workload, seed: int):
    """The trace, and the digest of offline ``simulate`` over it."""
    from repro.sim.simulator import simulate

    trace = wl.build_trace(workload, seed)
    result = simulate(wl.build_config(workload), trace)
    return trace, wl.result_digest(result), result.link_utilization


def account_round(report: Report, label: str, measured) -> None:
    report.check(True, measured.attempted - measured.failed)
    report.check(False, measured.failed)
    for problem in measured.problems[:10]:
        say(f"  {label} problem: {problem}")
    say(f"{label}: set-up {measured.setup_s:.3f} s, replay {measured.replay_s:.3f} s "
        f"({measured.pkts_per_s:.0f} pkt/s), server cpu {measured.server_cpu_s:.2f} s, "
        f"server peak rss {measured.peak_rss_mb:.1f} MB, rtt p50 "
        f"{measured.rtt_ms(50):.3f} ms p99 {measured.rtt_ms(99):.3f} ms over "
        f"{len(measured.rtts_s)} requests, {measured.failed} failed of "
        f"{measured.attempted}")


def service_untraced(workload, seed: int, seconds: float, report: Report):
    trace, digest, utilization = offline_reference(workload, seed)
    check_digest(report, "offline simulate", digest, wl.reference_digest(workload, seed),
                 utilization)
    rounds = []
    longest = 0.0
    started = time.perf_counter()
    with calibrate.HostSpeed() as host:
        host.measure(SERVICE_CALIBRATIONS)
        while keep_sampling(len(rounds), SERVICE_ROUNDS, started, longest, seconds):
            round_started = time.perf_counter()
            measured = launcher.service_round(workload, seed, trace.packets, digest)
            host.measure(SERVICE_CALIBRATIONS)
            longest = max(longest, time.perf_counter() - round_started)
            rounds.append(measured)
            account_round(report, f"round {len(rounds)}", measured)
            if measured.failed:
                # A broken server answers no better the next time; a hung one
                # would push the run past its time limit.
                break
    set_end_to_end(report, [
        (r.pkts_per_s, r.cpu_us_per_pkt, r.setup_s, r.peak_rss_mb) for r in rounds
    ], host.slowness)
    median = statistics.median
    say(f"rtt p50 {median(r.rtt_ms(50) for r in rounds):.3f} ms, p99 "
        f"{median(r.rtt_ms(99) for r in rounds):.3f} ms (median over {len(rounds)} "
        f"rounds of {len(rounds[0].rtts_s)} requests each, not normalized)")


def service_traced(workload, seed: int, report: Report):
    trace, digest, utilization = offline_reference(workload, seed)
    check_digest(report, "offline simulate", digest, wl.reference_digest(workload, seed),
                 utilization)
    plain = launcher.service_round(workload, seed, trace.packets, digest)
    account_round(report, "untraced round", plain)
    layers_out = wl.WORK_ROOT / "traces" / f"{workload.name}-seed{seed}.json"
    layers_out.parent.mkdir(parents=True, exist_ok=True)
    traced = launcher.service_round(
        workload, seed, trace.packets, digest, layers_out=layers_out
    )
    account_round(report, "traced round", traced)
    table = traced.layers
    check_guard(report, "traced server", table["wall_s"], table["accounted_s"],
                table["open_spans"])
    say(f"sampled spans: {len(table['spans'])} in {layers_out}")
    for name, value in table["layers"].items():
        report.set(name, value)
    report.set("service.rtt_p50_ms", plain.rtt_ms(50))
    report.set("service.rtt_p99_ms", plain.rtt_ms(99))
    report.set("tracing.wall_s", table["wall_s"])
    report.set("tracing.overhead_ratio", traced.replay_s / plain.replay_s)


# ----------------------------------------------------------------------
# References
# ----------------------------------------------------------------------
def record_references(names, work: Path) -> None:
    references = wl.load_references() if wl.REFERENCES.exists() else {}
    for name in names:
        workload = wl.WORKLOADS[name]
        digests = {}
        for seed in range(wl.REFERENCE_SEEDS):
            if workload.service:
                digests[str(seed)] = offline_reference(workload, seed)[1]
            else:
                digests[str(seed)] = engine_child(workload, seed, "run", work)["digest"]
        references[name] = digests
        say(f"recorded {len(digests)} references for {name}")
    with open(wl.REFERENCES, "w") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="keep taking samples until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}; nothing to run",
              file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS and not (
        args.record_references and args.workload is None
    ):
        print(f"perfbench: --workload must be one of {', '.join(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl.WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=wl.WORK_ROOT))
    try:
        if args.record_references:
            names = [args.workload] if args.workload else list(wl.WORKLOADS)
            record_references(names, work)
            return 0
        workload = wl.WORKLOADS[args.workload]
        seed = wl.trace_seed(args.seed)
        say(f"seed {args.seed} (trace seed {seed}): {workload}")
        if args.trace:
            report = Report(layers.per_layer_units())
            if workload.service:
                service_traced(workload, seed, report)
            else:
                engine_traced(workload, seed, work, report)
        else:
            report = Report(END_TO_END_UNITS)
            if workload.service:
                service_untraced(workload, seed, args.seconds, report)
            else:
                engine_untraced(workload, seed, args.seconds, work, report)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {args.workload or 'run'} failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report.print_metrics()
    print(report.result_line(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

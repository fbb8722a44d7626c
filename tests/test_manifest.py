"""Tests for the experiment manifest and its claim checks."""

from repro.analysis.experiments import ALL_EXPERIMENTS
from repro.analysis.manifest import (
    MANIFEST,
    NOT_REPRODUCED,
    PINNED,
    manifest_by_key,
    render_verdict,
    worst,
)
from repro.analysis.report import ExperimentTable
from repro.analysis.scale import DEFAULT, SMOKE

#: Figure 10 at ``default``: (benchmark, interleaving, tenants) ->
#: (Base util %, HyperTRIO util %).
FIGURE10_DEFAULT = {
    ("iperf3", "RR1", 4): (100.0, 100.0),
    ("iperf3", "RR1", 64): (1.65, 100.0),
    ("iperf3", "RR1", 1024): (1.36, 94.0),
    ("iperf3", "RAND1", 4): (100.0, 100.0),
    ("iperf3", "RAND1", 64): (2.16, 93.3),
    ("iperf3", "RAND1", 1024): (1.43, 38.6),
    ("mediastream", "RR1", 4): (94.6, 100.0),
    ("mediastream", "RR1", 64): (1.71, 100.0),
    ("mediastream", "RR1", 1024): (1.37, 93.7),
    ("mediastream", "RAND1", 4): (94.6, 100.0),
    ("mediastream", "RAND1", 64): (2.24, 93.3),
    ("mediastream", "RAND1", 1024): (1.45, 38.6),
    ("websearch", "RR1", 4): (79.7, 100.0),
    ("websearch", "RR1", 64): (1.83, 100.0),
    ("websearch", "RR1", 1024): (1.37, 92.6),
    ("websearch", "RAND1", 4): (80.0, 100.0),
    ("websearch", "RAND1", 64): (2.44, 93.1),
    ("websearch", "RAND1", 1024): (1.45, 38.6),
}

#: Figure 12b at ``default``: tenants -> PTB=1, 8, 32 util %.
FIGURE12B_DEFAULT = {4: (94.6, 100.0, 100.0), 64: (2.22, 17.8, 71.0), 1024: (1.11, 8.88, 35.6)}


def figure10_table(points):
    table = ExperimentTable("Figure 10", "default copy", [
        "benchmark", "interleaving", "tenants", "Base Gb/s", "HyperTRIO Gb/s",
        "Base util %", "HyperTRIO util %"])
    for (benchmark, interleaving, tenants), (base, hyper) in points.items():
        table.add_row(benchmark, interleaving, tenants, 2 * base, 2 * hyper, base, hyper)
    return table


def figure12b_table(points):
    table = ExperimentTable("Figure 12b", "default copy", [
        "benchmark", "tenants", "PTB=1 util %", "PTB=8 util %", "PTB=32 util %"])
    for tenants, utils in points.items():
        table.add_row("mediastream", tenants, *utils)
    return table


def lines_about(verdict, text):
    return [line for line in verdict.splitlines() if text in line]


class TestManifestCompleteness:
    def test_covers_every_registered_experiment(self):
        assert {entry.key for entry in MANIFEST} == set(ALL_EXPERIMENTS)

    def test_drivers_match_registry(self):
        for entry in MANIFEST:
            assert entry.driver is ALL_EXPERIMENTS[entry.key]

    def test_every_entry_documents_claim_and_verdict(self):
        for entry in MANIFEST:
            assert len(entry.paper_claim) > 20, entry.key
            assert callable(entry.check), entry.key

    def test_by_key_lookup(self):
        table = manifest_by_key()
        assert table["figure10"].driver is ALL_EXPERIMENTS["figure10"]


class TestKwargsForScale:
    def test_table3_scales_tenants(self):
        entry = manifest_by_key()["table3"]
        assert entry.kwargs_for(SMOKE)["num_tenants"] == 16
        assert entry.kwargs_for(DEFAULT)["num_tenants"] == 256

    def test_figures_receive_scale(self):
        entry = manifest_by_key()["figure10"]
        assert entry.kwargs_for(SMOKE) == {"scale": SMOKE}

    def test_figure8_packet_budget(self):
        entry = manifest_by_key()["figure8"]
        assert entry.kwargs_for(SMOKE)["packets"] == 10_000
        assert entry.kwargs_for(DEFAULT)["packets"] == 95_000

    def test_static_tables_take_no_kwargs(self):
        for key in ("table1", "table2", "table4"):
            assert manifest_by_key()[key].kwargs_for(DEFAULT) == {}

    def test_smoke_manifest_drivers_run(self):
        """Static entries actually execute with their manifest kwargs."""
        for key in ("table1", "table2", "table4"):
            entry = manifest_by_key()[key]
            table = entry.driver(**entry.kwargs_for(SMOKE))
            assert table.rows


class TestChecks:
    def test_default_figure10_copy_deviates_only_by_its_pins(self):
        verdict = render_verdict(manifest_by_key()["figure10"].check(
            figure10_table(FIGURE10_DEFAULT)))
        assert verdict.startswith("deviates from the paper (pinned).")
        assert NOT_REPRODUCED not in verdict

    def test_failed_clause_renders_not_reproduced(self):
        points = dict(FIGURE10_DEFAULT)
        points["mediastream", "RR1", 1024] = (1.37, 40.0)
        verdict = render_verdict(manifest_by_key()["figure10"].check(figure10_table(points)))
        assert verdict.startswith("not reproduced.")
        [line] = lines_about(verdict, "HyperTRIO above 60%")
        assert line.startswith("- not reproduced: ")
        assert "mediastream RR1 1.37, 40.0" in line

    def test_missing_rows_are_not_reproduced(self):
        points = {key: value for key, value in FIGURE10_DEFAULT.items() if key[2] != 1024}
        clauses = manifest_by_key()["figure10"].check(figure10_table(points))
        assert worst(clauses) == NOT_REPRODUCED
        assert all(clause.mark == NOT_REPRODUCED for clause in clauses)
        assert "no row" in render_verdict(clauses)

    def test_no_clause_is_not_reproduced(self):
        assert worst([]) == NOT_REPRODUCED

    def test_pin_band_is_five_percent(self):
        check = manifest_by_key()["figure12b"].check
        for ptb32, mark in ((37.8, NOT_REPRODUCED), (37.1, PINNED)):
            points = dict(FIGURE12B_DEFAULT)
            points[1024] = (1.11, 8.88, ptb32)
            verdict = render_verdict(check(figure12b_table(points)))
            [line] = lines_about(verdict, "PTB=32 % at 1,024 tenants")
            assert line.startswith(f"- {mark}: "), line

    def test_static_tables_pass(self):
        for key in ("table1", "table2", "table4"):
            entry = manifest_by_key()[key]
            clauses = entry.check(entry.driver())
            assert clauses and worst(clauses) != NOT_REPRODUCED, render_verdict(clauses)

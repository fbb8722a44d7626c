"""Integration tests asserting the paper's qualitative results (small scale).

These are the repository's contract with the paper: each test checks one
comparative *shape* from the evaluation section at a size small enough for
the unit-test suite.  The same claims at 1024 tenants are the manifest's
checks (``repro.analysis.manifest``), run by
``benchmarks/bench_paper_claims.py``.
"""

import dataclasses

import pytest

from repro.analysis.experiments import partitioned_only_config
from repro.core.config import TlbConfig, base_config, hypertrio_config
from repro.sim.simulator import HyperSimulator
from repro.trace.constructor import construct_trace
from repro.trace.tenant import IPERF3, MEDIASTREAM


def run(config, benchmark=MEDIASTREAM, tenants=64, packets=3000,
        interleaving="RR1"):
    trace = construct_trace(
        benchmark,
        num_tenants=tenants,
        packets_per_tenant=200_000,
        interleaving=interleaving,
        max_packets=packets,
    )
    return HyperSimulator(config, trace).run(warmup_packets=packets // 4)


class TestSection2Motivation:
    def test_utilization_collapses_with_tenant_count(self):
        """Figures 5/9: the base design cannot scale past a handful of
        tenants."""
        few = run(base_config(), tenants=2, packets=1200)
        many = run(base_config(), tenants=64, packets=1200)
        assert few.link_utilization > 0.8
        assert many.link_utilization < 0.2

    def test_collapse_is_translation_contention(self):
        """The collapse coincides with the DevTLB hit rate falling."""
        few = run(base_config(), tenants=2, packets=1200)
        many = run(base_config(), tenants=64, packets=1200)
        assert few.hit_rate("devtlb") > 0.95
        assert many.hit_rate("devtlb") < 0.4


class TestFigure10Headline:
    def test_hypertrio_sustains_base_collapses(self):
        base = run(base_config(), tenants=64)
        hyper = run(hypertrio_config(), tenants=64)
        assert base.link_utilization < 0.15
        assert hyper.link_utilization > 0.85

    def test_rr4_beats_rr1_for_base_at_scale(self):
        """Section V-B: translations are reused inside a burst, so RR4
        yields higher Base bandwidth than RR1 at high tenant counts."""
        rr1 = run(base_config(), tenants=64, interleaving="RR1")
        rr4 = run(base_config(), tenants=64, interleaving="RR4")
        assert rr4.achieved_bandwidth_gbps > rr1.achieved_bandwidth_gbps

    def test_rand1_is_hardest_for_hypertrio(self):
        """Section V-B: RAND1 defeats the SID predictor, costing
        utilisation relative to RR orders."""
        rr1 = run(hypertrio_config(), tenants=64, interleaving="RR1")
        rand1 = run(hypertrio_config(), tenants=64, interleaving="RAND1")
        assert rand1.link_utilization < rr1.link_utilization


class TestFigure11Insufficiency:
    def test_bigger_devtlb_does_not_scale(self):
        """Figure 11a: 16x the entries, same collapse at scale."""
        big = base_config().with_overrides(
            devtlb=TlbConfig(num_entries=1024, ways=8, policy="lfu")
        )
        result = run(big, tenants=256, packets=3000)
        assert result.link_utilization < 0.3

    def test_lfu_at_least_matches_lru_midscale(self):
        """Figure 11b: LFU >= LRU where the frequency groups matter."""
        lfu = base_config().with_overrides(
            devtlb=TlbConfig(num_entries=64, ways=8, policy="lfu")
        )
        lru = base_config().with_overrides(
            devtlb=TlbConfig(num_entries=64, ways=8, policy="lru")
        )
        lfu_result = run(lfu, benchmark=IPERF3, tenants=16, packets=2000)
        lru_result = run(lru, benchmark=IPERF3, tenants=16, packets=2000)
        assert (
            lfu_result.achieved_bandwidth_gbps
            >= 0.9 * lru_result.achieved_bandwidth_gbps
        )

    def test_ideal_fully_associative_oracle_still_collapses(self):
        """Figure 11c: when tenants x active-set exceeds the entries,
        even Belady on a fully associative DevTLB misses constantly."""
        ideal = base_config().with_overrides(
            devtlb=TlbConfig(
                num_entries=64, ways=64, policy="oracle", fully_associative=True
            )
        )
        result = run(ideal, tenants=64, packets=2000)
        assert result.link_utilization < 0.35


class TestFigure12Mechanisms:
    def test_partitioning_alone_insufficient_at_scale(self):
        result = run(partitioned_only_config(), tenants=256, packets=3000)
        assert result.link_utilization < 0.6

    def test_ptb_buys_a_large_factor(self):
        """Figure 12b: PTB=32 vs PTB=1 on the partitioned design."""
        small = run(partitioned_only_config(), tenants=256, packets=3000)
        large = run(
            partitioned_only_config().with_overrides(ptb_entries=32),
            tenants=256,
            packets=3000,
        )
        assert large.achieved_bandwidth_gbps > 2 * small.achieved_bandwidth_gbps

    def test_prefetch_closes_the_gap(self):
        """Figure 12c: prefetching on top of PTB32 + partitioning."""
        without = run(
            partitioned_only_config().with_overrides(ptb_entries=32),
            tenants=256,
            packets=4000,
        )
        with_prefetch = run(hypertrio_config(), tenants=256, packets=4000)
        assert (
            with_prefetch.link_utilization
            > without.link_utilization + 0.1
        )
        assert with_prefetch.prefetch_supplied_fraction > 0.3


class TestPrefetchMechanics:
    def test_prefetcher_inactive_without_predictions(self):
        """RAND order at small scale: predictions are noise, and the
        prefetcher must not harm correctness (utilisation stays sane)."""
        result = run(hypertrio_config(), tenants=32, packets=2000,
                     interleaving="RAND1")
        assert 0.0 < result.link_utilization <= 1.0

    def test_history_overshoot_degrades(self):
        """Section V-D: the history length has an interior optimum."""
        tuned = hypertrio_config()
        overshoot = tuned.with_overrides(
            prefetch=dataclasses.replace(tuned.prefetch, history_length=200)
        )
        good = run(tuned, tenants=64, packets=3000)
        bad = run(overshoot, tenants=64, packets=3000)
        assert good.link_utilization >= bad.link_utilization

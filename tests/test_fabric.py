"""The multi-device I/O fabric: config, routing, assembly, round-trips."""

import json

import pytest

from repro.cli import _parse_device_config
from repro.core.config import DeviceConfig, base_config, hypertrio_config
from repro.core.config_io import (
    ConfigFormatError,
    config_from_json,
    config_to_dict,
    config_to_json,
)
from repro.core.fabric import Fabric
from repro.core.results import DeviceResult, FabricStats
from repro.obs import Observability
from repro.runner.serialize import result_from_dict, result_to_dict
from repro.sim.simulator import HyperSimulator, simulate
from repro.trace.constructor import construct_trace
from repro.trace.tenant import KEYVALUE, MEDIASTREAM


def _trace(tenants=8, packets=600, profile=MEDIASTREAM):
    return construct_trace(
        profile,
        num_tenants=tenants,
        packets_per_tenant=50_000,
        interleaving="RR1",
        max_packets=packets,
    )


def _multi_config(count=2, **device_kwargs):
    return hypertrio_config().with_overrides(
        devices=DeviceConfig(count=count, **device_kwargs)
    )


class TestDeviceConfig:
    def test_defaults_are_single_device(self):
        config = DeviceConfig()
        assert config.count == 1
        assert config.sid_map == "round_robin"
        assert config.explicit_map == ()

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            DeviceConfig(count=0)

    def test_unknown_sid_map_rejected(self):
        with pytest.raises(ValueError):
            DeviceConfig(count=2, sid_map="shortest_queue")

    def test_explicit_pair_shape_checked(self):
        with pytest.raises(ValueError):
            DeviceConfig(count=2, sid_map="explicit", explicit_map=((1,),))

    def test_explicit_device_must_exist(self):
        with pytest.raises(ValueError):
            DeviceConfig(count=2, sid_map="explicit", explicit_map=((0, 5),))

    def test_round_robin_stripes_evenly(self):
        config = DeviceConfig(count=3)
        assert [config.device_for(sid) for sid in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_single_device_routes_everything_to_zero(self):
        config = DeviceConfig()
        assert {config.device_for(sid) for sid in range(32)} == {0}

    def test_hash_is_stationary_and_in_range(self):
        config = DeviceConfig(count=4, sid_map="hash")
        first = [config.device_for(sid) for sid in range(64)]
        assert first == [config.device_for(sid) for sid in range(64)]
        assert all(0 <= device < 4 for device in first)
        # The hash must actually spread tenants, not collapse to one device.
        assert len(set(first)) > 1

    def test_explicit_pins_with_round_robin_fallback(self):
        config = DeviceConfig(
            count=2, sid_map="explicit", explicit_map=((0, 1), (3, 0))
        )
        assert config.device_for(0) == 1
        assert config.device_for(3) == 0
        # SIDs outside the map stripe round-robin.
        assert config.device_for(4) == 0
        assert config.device_for(5) == 1


class TestFabricAssembly:
    def test_one_device_per_count_one_chipset(self):
        fabric = Fabric(_multi_config(count=4), walker_for_sid=lambda sid: None)
        assert fabric.num_devices == 4
        assert len(fabric.devices) == 4
        assert len({id(device.devtlb) for device in fabric.devices}) == 4

    def test_single_device_cache_names_unprefixed(self):
        fabric = Fabric(hypertrio_config(), walker_for_sid=lambda sid: None)
        names = [name for name, _ in fabric.named_caches()]
        assert names == [
            "devtlb", "prefetch_buffer", "iotlb", "nested_tlb", "pte_cache",
        ]

    def test_multi_device_cache_names_prefixed(self):
        fabric = Fabric(_multi_config(count=2), walker_for_sid=lambda sid: None)
        names = [name for name, _ in fabric.named_caches()]
        assert names == [
            "dev0.devtlb", "dev0.prefetch_buffer",
            "dev1.devtlb", "dev1.prefetch_buffer",
            "iotlb", "nested_tlb", "pte_cache",
        ]


class TestConfigRoundTrip:
    def test_devices_block_omitted_at_default(self):
        assert "devices" not in config_to_dict(hypertrio_config())

    def test_devices_block_round_trips(self):
        config = base_config().with_overrides(
            devices=DeviceConfig(
                count=2, sid_map="explicit", explicit_map=((0, 1),)
            )
        )
        restored = config_from_json(config_to_json(config))
        assert restored.devices == config.devices
        assert restored == config

    def test_unknown_device_key_rejected(self):
        document = config_to_dict(_multi_config(count=2))
        document["devices"]["queues"] = 4
        with pytest.raises(ConfigFormatError):
            config_from_json(json.dumps(document))

    def test_invalid_device_count_rejected(self):
        document = config_to_dict(_multi_config(count=2))
        document["devices"]["count"] = 0
        with pytest.raises(ConfigFormatError):
            config_from_json(json.dumps(document))


class TestCliSidMapParsing:
    def test_round_robin_and_hash(self):
        assert _parse_device_config(2, "round_robin").sid_map == "round_robin"
        assert _parse_device_config(4, "hash").sid_map == "hash"

    def test_explicit_spec(self):
        config = _parse_device_config(2, "explicit:0=1,3=0")
        assert config.sid_map == "explicit"
        assert config.explicit_map == ((0, 1), (3, 0))

    def test_bad_specs_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_device_config(2, "explicit:0to1")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_device_config(2, "shortest_queue")


class TestMultiDeviceSimulation:
    def test_single_device_has_no_fabric_breakdown(self):
        result = simulate(hypertrio_config(), _trace())
        assert result.device_results == []
        assert result.fabric is None
        assert result.num_devices == 1

    def test_device_results_populated_when_multi(self):
        result = simulate(_multi_config(count=2), _trace())
        assert [dev.device_id for dev in result.device_results] == [0, 1]
        assert result.num_devices == 2
        assert isinstance(result.fabric, FabricStats)
        assert result.fabric.num_devices == 2

    def test_routing_conserves_packets_and_bytes(self):
        trace = _trace(tenants=8, packets=800)
        result = simulate(_multi_config(count=4), trace)
        assert sum(
            dev.packets.accepted for dev in result.device_results
        ) == result.packets.accepted
        assert sum(
            dev.packets.arrived for dev in result.device_results
        ) == result.packets.arrived
        assert sum(
            dev.packets.bytes_processed for dev in result.device_results
        ) == result.packets.bytes_processed
        assert sum(
            dev.latency.count for dev in result.device_results
        ) == result.latency.count

    def test_round_robin_split_matches_sid_striping(self):
        trace = _trace(tenants=8, packets=800)
        expected = [0, 0]
        for packet in trace.packets:
            expected[packet.sid % 2] += 1
        result = simulate(_multi_config(count=2), trace)
        assert [dev.packets.arrived for dev in result.device_results] == expected

    def test_explicit_map_pins_all_traffic_to_one_device(self):
        config = _multi_config(
            count=2,
            sid_map="explicit",
            explicit_map=tuple((sid, 1) for sid in range(4)),
        )
        result = simulate(config, _trace(tenants=4, packets=400))
        loads = [dev.packets.arrived for dev in result.device_results]
        assert loads[0] == 0
        assert loads[1] == result.packets.arrived

    def test_walker_contention_recorded_with_bounded_pool(self):
        config = _multi_config(count=4).with_overrides(iommu_walkers=1)
        result = simulate(config, _trace(tenants=8, packets=800, profile=KEYVALUE))
        assert result.fabric.walker_jobs > 0
        assert result.fabric.walker_total_queue_delay_ns > 0
        assert result.fabric.walker_mean_queue_delay_ns > 0
        assert sum(
            dev.walker_queue_delay_ns for dev in result.device_results
        ) == pytest.approx(result.fabric.walker_total_queue_delay_ns)

    def test_shared_iotlb_counters_sum_to_chipset(self):
        result = simulate(_multi_config(count=2), _trace())
        iotlb = result.cache_stats["iotlb"]
        demand_hits = sum(dev.iotlb_hits for dev in result.device_results)
        demand_misses = sum(dev.iotlb_misses for dev in result.device_results)
        # The chipset IOTLB also serves prefetch lookups, so per-device
        # demand counters can only account for a subset of its accesses.
        assert demand_hits <= iotlb.hits
        assert demand_misses <= iotlb.misses
        assert demand_hits + demand_misses > 0


class TestObservabilityDeviceLabel:
    def _events(self, config):
        obs = Observability.recording(sample_rate=1.0, seed=0)
        HyperSimulator(
            config, _trace(tenants=4, packets=300), observability=obs
        ).run()
        return obs.tracer.events

    def test_single_device_events_have_no_device_key(self):
        for event in self._events(hypertrio_config()):
            assert "device" not in (event.args or {})

    def test_multi_device_events_carry_device_label(self):
        events = self._events(_multi_config(count=2))
        assert events
        assert all("device" in (event.args or {}) for event in events)
        assert {event.args["device"] for event in events} == {0, 1}


class TestSerializeRoundTrip:
    def test_single_device_document_has_no_fabric_keys(self):
        document = result_to_dict(simulate(hypertrio_config(), _trace()))
        assert "device_results" not in document
        assert "fabric" not in document

    def test_multi_device_round_trip_is_exact(self):
        result = simulate(_multi_config(count=2), _trace())
        document = json.loads(json.dumps(result_to_dict(result)))
        restored = result_from_dict(document)
        assert restored == result
        assert isinstance(restored.device_results[0], DeviceResult)
        assert restored.fabric == result.fabric

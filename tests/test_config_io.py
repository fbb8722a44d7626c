"""Tests for configuration (de)serialisation."""

import pytest

from repro.core.config import TlbConfig, base_config, hypertrio_config
from repro.core.config_io import (
    ConfigFormatError,
    config_from_dict,
    config_from_json,
    config_to_dict,
    config_to_json,
    load_config,
    save_config,
)


class TestRoundTrip:
    @pytest.mark.parametrize("factory", [base_config, hypertrio_config])
    def test_json_round_trip_preserves_config(self, factory):
        config = factory()
        assert config_from_json(config_to_json(config)) == config

    def test_round_trip_with_chipset_iotlb(self):
        config = hypertrio_config().with_overrides(
            chipset_iotlb=TlbConfig(num_entries=128, ways=8)
        )
        assert config_from_json(config_to_json(config)) == config

    def test_round_trip_with_bounded_walkers(self):
        config = base_config().with_overrides(iommu_walkers=4)
        restored = config_from_json(config_to_json(config))
        assert restored.iommu_walkers == 4

    def test_file_round_trip(self, tmp_path):
        config = hypertrio_config()
        path = tmp_path / "hyper.json"
        save_config(config, path)
        assert load_config(path) == config


class TestStrictParsing:
    def test_unknown_top_level_key_rejected(self):
        raw = config_to_dict(base_config())
        raw["turbo"] = True
        with pytest.raises(ConfigFormatError):
            config_from_dict(raw)

    def test_unknown_tlb_key_rejected(self):
        raw = config_to_dict(base_config())
        raw["devtlb"]["banks"] = 4
        with pytest.raises(ConfigFormatError):
            config_from_dict(raw)

    def test_missing_required_key_rejected(self):
        raw = config_to_dict(base_config())
        del raw["devtlb"]
        with pytest.raises(ConfigFormatError):
            config_from_dict(raw)

    def test_invalid_geometry_rejected(self):
        raw = config_to_dict(base_config())
        raw["devtlb"]["num_entries"] = 10  # not divisible by 8 ways
        with pytest.raises(ConfigFormatError):
            config_from_dict(raw)

    def test_partitioned_fully_associative_tlb_rejected(self):
        raw = config_to_dict(base_config())
        raw["devtlb"]["num_partitions"] = 8
        raw["devtlb"]["fully_associative"] = True
        with pytest.raises(
            ConfigFormatError, match="devtlb: fully_associative.*num_partitions"
        ):
            config_from_dict(raw)

    def test_zero_partitions_rejected(self):
        raw = config_to_dict(base_config())
        raw["l2_tlb"]["num_partitions"] = 0
        with pytest.raises(ConfigFormatError, match="l2_tlb: num_partitions"):
            config_from_dict(raw)

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigFormatError):
            config_from_json("not json {")

    def test_non_object_rejected(self):
        with pytest.raises(ConfigFormatError):
            config_from_json("[1, 2, 3]")


class TestDocumentShape:
    def test_document_is_flat_jsonable(self):
        import json

        document = config_to_dict(hypertrio_config())
        json.dumps(document)  # must not raise
        assert document["ptb_entries"] == 32
        assert document["prefetch"]["enabled"] is True

    def test_base_has_no_chipset_key(self):
        assert "chipset_iotlb" not in config_to_dict(base_config())

"""HyperTRIO core: configuration presets, PTB, prefetching, assembly."""

from repro.core.config import (
    ArchConfig,
    DeviceConfig,
    PrefetchConfig,
    TimingParams,
    TlbConfig,
    base_config,
    case_study_timing,
    hypertrio_config,
)
from repro.core.fabric import ChipsetPath, DevicePath, Fabric
from repro.core.config_io import (
    ConfigFormatError,
    config_from_json,
    config_to_json,
    load_config,
    save_config,
)
from repro.core.prefetch import (
    IovaHistory,
    PrefetchStats,
    PrefetchUnit,
    SidPredictor,
)
from repro.core.ptb import PendingTranslationBuffer, PtbStats
from repro.core.results import SimulationResult

__all__ = [
    "ArchConfig",
    "TlbConfig",
    "TimingParams",
    "PrefetchConfig",
    "base_config",
    "hypertrio_config",
    "case_study_timing",
    "ConfigFormatError",
    "config_to_json",
    "config_from_json",
    "save_config",
    "load_config",
    "DeviceConfig",
    "DevicePath",
    "ChipsetPath",
    "Fabric",
    "PendingTranslationBuffer",
    "PtbStats",
    "PrefetchUnit",
    "SidPredictor",
    "IovaHistory",
    "PrefetchStats",
    "SimulationResult",
]

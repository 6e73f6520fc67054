"""Simulator and resource allocator for a self-powered, RF-harvesting RIS.

The surface charges itself from the signals it relays: a frame either gives
up time slots in which every unit cell absorbs (time splitting) or gives up
a subset of unit cells that absorb while the rest reflect (UC splitting).
This package models the link budget, the Rician RIS-to-receiver channel,
the RF-to-DC harvesting chain, the controller power draw, and the
rate-maximizing allocation of either resource under the constraint that
harvested power covers consumption.
"""

from .channel import (
    CascadedChannel,
    absorbed_power_per_uc,
    free_space_uc_gain,
    mean_ris_rx_gain,
    reflected_snr,
    sample_channel,
    sample_rician_gains,
    uc_aperture,
    uc_gain,
)
from .harvesting import (
    LINEAR_CLIPPED,
    RECTIFIER_KINDS,
    SIGMOIDAL,
    HarvestReport,
    RectifierModel,
    chain_rf_power,
    harvest,
    partition_chains,
    rectify,
)
from .optimizer import (
    FEASIBLE,
    INFEASIBLE,
    AllocationResult,
    TrialChannels,
    draw_trials,
    estimate_averages,
    optimize_time_splitting,
    optimize_uc_splitting,
)
from .power import (
    PROTOCOLS,
    TIME_SPLITTING,
    UC_SPLITTING,
    ConsumptionBreakdown,
    dynamic_power,
    reconfig_count,
    total_consumption,
)
from .protocols import (
    Allocation,
    FrameEnergyReport,
    run_frame_time_splitting,
    run_frame_uc_splitting,
    select_harvest_set,
)
from .scenario import (
    BOLTZMANN,
    SPEED_OF_LIGHT,
    ConfigError,
    ConfigParseError,
    ConfigValidationError,
    DerivedQuantities,
    ScenarioConfig,
    derived_quantities,
    dumps_config,
    load_config,
    loads_config,
    save_config,
)
from .sweep import SweepRow, SweepSpec, read_rows, run_sweep, summarize

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "AllocationResult",
    "BOLTZMANN",
    "CascadedChannel",
    "ConfigError",
    "ConfigParseError",
    "ConfigValidationError",
    "ConsumptionBreakdown",
    "DerivedQuantities",
    "FEASIBLE",
    "FrameEnergyReport",
    "HarvestReport",
    "INFEASIBLE",
    "LINEAR_CLIPPED",
    "PROTOCOLS",
    "RECTIFIER_KINDS",
    "RectifierModel",
    "SIGMOIDAL",
    "SPEED_OF_LIGHT",
    "ScenarioConfig",
    "SweepRow",
    "SweepSpec",
    "TIME_SPLITTING",
    "TrialChannels",
    "UC_SPLITTING",
    "absorbed_power_per_uc",
    "chain_rf_power",
    "derived_quantities",
    "draw_trials",
    "dumps_config",
    "dynamic_power",
    "estimate_averages",
    "free_space_uc_gain",
    "harvest",
    "load_config",
    "loads_config",
    "mean_ris_rx_gain",
    "optimize_time_splitting",
    "optimize_uc_splitting",
    "partition_chains",
    "read_rows",
    "reconfig_count",
    "rectify",
    "reflected_snr",
    "run_frame_time_splitting",
    "run_frame_uc_splitting",
    "run_sweep",
    "sample_channel",
    "sample_rician_gains",
    "save_config",
    "select_harvest_set",
    "summarize",
    "total_consumption",
    "uc_aperture",
    "uc_gain",
]

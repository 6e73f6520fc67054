"""Simulator and resource allocator for a self-powered, RF-harvesting RIS.

The surface charges itself from the signals it relays: a frame either gives
up time slots in which every unit cell absorbs (time splitting) or gives up
a subset of unit cells that absorb while the rest reflect (UC splitting).
This package models the link budget, the Rician RIS-to-receiver channel,
the RF-to-DC harvesting chain, the controller power draw, and the
rate-maximizing allocation of either resource under the constraint that
harvested power covers consumption.

``scenario`` holds the configuration and the link-budget quantities derived
from it; ``channel``, ``harvesting`` and ``power`` give the rate, harvest and
consumption formulas; ``optimizer.estimate_averages`` is the one place that
combines them for an allocation, and ``sweep`` runs it over a static-power
grid.
"""

from .channel import (
    free_space_uc_gain,
    mean_ris_rx_gain,
    sample_amplitudes,
    uc_absorbed_power,
)
from .harvesting import (
    LINEAR_CLIPPED,
    RECTIFIER_KINDS,
    SIGMOIDAL,
    RectifierModel,
    harvest,
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
from .scenario import (
    ConfigError,
    ConfigParseError,
    ConfigValidationError,
    ScenarioConfig,
    dumps_config,
    load_config,
    loads_config,
    save_config,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationResult",
    "ConfigError",
    "ConfigParseError",
    "ConfigValidationError",
    "ConsumptionBreakdown",
    "FEASIBLE",
    "INFEASIBLE",
    "LINEAR_CLIPPED",
    "PROTOCOLS",
    "RECTIFIER_KINDS",
    "RectifierModel",
    "SIGMOIDAL",
    "ScenarioConfig",
    "TIME_SPLITTING",
    "TrialChannels",
    "UC_SPLITTING",
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
    "reconfig_count",
    "rectify",
    "sample_amplitudes",
    "save_config",
    "total_consumption",
    "uc_absorbed_power",
]

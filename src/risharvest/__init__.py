"""Simulator and resource allocator for a self-powered, RF-harvesting RIS.

The surface charges itself from the signals it relays: a frame either gives
up time slots in which every unit cell absorbs (time splitting) or gives up
a subset of unit cells that absorb while the rest reflect (UC splitting).
This package models the link budget, the Rician RIS-to-receiver channel,
the RF-to-DC harvesting chain, the controller power draw, and the
rate-maximizing allocation of either resource under the constraint that
harvested power covers consumption.

``scenario`` is the one home of the configuration: every field, the
rectifier model included, and the whole link budget derived from them (|h|^2,
E|g|^2, the per-UC absorbed power and the noise power), validated together;
``channel``, ``harvesting`` and ``power`` give the rate, harvest and
consumption formulas, one each (``harvest(cfg)`` is the DC power of the first
k absorbing UCs, which both protocols' harvests read). ``channel`` also owns
the Monte-Carlo draw: ``draw_trials(cfg)`` reads its seed and trial count from
the configuration and keeps it in the ``TrialChannels`` it returns, so a draw
is never read under another one. ``optimizer`` does only the solve and the
estimate: ``optimize_*`` solve the allocation from the harvest and the
consumption alone, with no channel draw, and ``estimate_averages`` gives the
Monte-Carlo rate of one allocation over a draw. Both solves read one harvest
per configuration, computed and checked once, and one frame-averaged
formula: the DC power of the absorbing UCs times their harvest time, over
the frame. ``sweep`` solves a static-power grid, draws once, and estimates
each distinct allocation once.
"""

from .channel import TrialChannels, draw_trials, sample_amplitudes
from .harvesting import harvest, rectify
from .optimizer import (
    FEASIBLE,
    INFEASIBLE,
    AllocationResult,
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
    LINEAR_CLIPPED,
    RECTIFIER_KINDS,
    SIGMOIDAL,
    ConfigError,
    ConfigParseError,
    ConfigValidationError,
    RectifierModel,
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
    "harvest",
    "load_config",
    "loads_config",
    "optimize_time_splitting",
    "optimize_uc_splitting",
    "reconfig_count",
    "rectify",
    "sample_amplitudes",
    "save_config",
    "total_consumption",
]

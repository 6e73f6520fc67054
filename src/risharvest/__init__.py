"""Simulator and resource allocator for a self-powered, RF-harvesting RIS.

The surface charges itself from the signals it relays: a frame either gives
up time slots in which every unit cell absorbs (time splitting) or gives up
a subset of unit cells that absorb while the rest reflect (UC splitting).
For a given ASIC static power budget, the package finds the allocation of
either resource with the highest average rate while the harvest still
covers consumption.

The top level exports the vocabulary of that question: the configuration
(``ScenarioConfig``, whose field names are the scenario-file keys, and the
rectifier kinds), its file I/O (``load_config``, ``loads_config``,
``dumps_config``, ``save_config``), the errors a rejected configuration
raises, and the protocol and status names. ``sweep.answer(cfg, p_statics)``
answers a configuration at every budget, one row per budget and protocol,
and ``sweep.run_sweep`` writes that answer as the CLI's CSV.

The machinery lives in its modules. ``scenario`` is the one home of the
configuration and of the link budget derived from it. ``channel``,
``harvesting`` and ``power`` give the rate, harvest and consumption
formulas, one each; ``channel`` also owns the seeded Monte-Carlo draw
(``draw_trials``). ``optimizer`` solves each allocation from the harvest
and the consumption alone, with no channel draw
(``optimize_time_splitting``, ``optimize_uc_splitting``), and estimates
a protocol's rates over one draw, one statistic per reflecting-UC count
(``estimate_averages``).

numpy loads only where the package computes: ``import risharvest`` reads
``scenario`` and ``power`` alone, and neither imports it. ``sweep``'s
docstring says which commands load numpy and how the CLI's sweep freezes
the heap that import leaves.
"""

from .power import FEASIBLE, INFEASIBLE, PROTOCOLS, TIME_SPLITTING, UC_SPLITTING
from .scenario import (
    LINEAR_CLIPPED,
    RECTIFIER_KINDS,
    SIGMOIDAL,
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
    "ConfigError",
    "ConfigParseError",
    "ConfigValidationError",
    "FEASIBLE",
    "INFEASIBLE",
    "LINEAR_CLIPPED",
    "PROTOCOLS",
    "RECTIFIER_KINDS",
    "SIGMOIDAL",
    "ScenarioConfig",
    "TIME_SPLITTING",
    "UC_SPLITTING",
    "dumps_config",
    "load_config",
    "loads_config",
    "save_config",
]

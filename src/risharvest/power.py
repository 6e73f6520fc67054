"""ASIC power consumption: static draw plus reconfiguration-driven dynamic draw.

This module also names the protocols and the status of a solve. Like
``scenario``, the one module it imports, it loads no numpy, so the package's
top level exports these names without it.
"""

from typing import NamedTuple

from .scenario import PER_UC, STATIC_PER_ASIC, ScenarioConfig, is_finite_number

TIME_SPLITTING = "time_splitting"
UC_SPLITTING = "uc_splitting"
PROTOCOLS = (TIME_SPLITTING, UC_SPLITTING)

# The status of a solve: whether the harvest at its allocation covers consumption.
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


class ConsumptionBreakdown(NamedTuple):
    p_static: float   # W, after per-ASIC scaling
    p_dynamic: float  # W

    @property
    def total(self) -> float:
        return self.p_static + self.p_dynamic


def reconfig_count(protocol: str, cfg: ScenarioConfig) -> int:
    """Reconfiguration events per frame.

    per_uc counts UC impedance adjustments: estimation (one UC at a time,
    M_s events) plus one full-surface round per post-preamble phase, so
    3*M_s for time splitting and 2*M_s for UC splitting. per_asic keeps the
    M_s single-UC estimation events but prices the full-surface rounds per
    controller chip.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    m_s = cfg.m_s
    rounds = 2 if protocol == TIME_SPLITTING else 1
    if cfg.reconfig_counting_mode == PER_UC:
        return (rounds + 1) * m_s
    return m_s + rounds * cfg.n_asics


def dynamic_power(protocol: str, cfg: ScenarioConfig) -> float:
    """Average dynamic power over a frame: event count * e_rec / frame duration."""
    return reconfig_count(protocol, cfg) * cfg.e_rec / cfg.frame_duration


def total_consumption(
    p_static_input: float, protocol: str, cfg: ScenarioConfig
) -> ConsumptionBreakdown:
    """Static plus dynamic consumption for one frame.

    ``p_static_input`` is either the aggregate figure or a per-ASIC figure,
    according to ``static_power_interpretation``.
    """
    if not (is_finite_number(p_static_input) and p_static_input >= 0.0):
        raise ValueError(f"static power must be a finite number >= 0 W, got {p_static_input!r}")
    p_static = p_static_input
    if cfg.static_power_interpretation == STATIC_PER_ASIC:
        p_static = p_static_input * cfg.n_asics
    return ConsumptionBreakdown(p_static, dynamic_power(protocol, cfg))

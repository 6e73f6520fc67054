"""ASIC power consumption: static draw plus reconfiguration-driven dynamic draw."""

import math
from dataclasses import dataclass

from .harvesting import is_finite_number
from .scenario import PER_UC, STATIC_PER_ASIC, ScenarioConfig, derived_quantities

TIME_SPLITTING = "time_splitting"
UC_SPLITTING = "uc_splitting"
PROTOCOLS = (TIME_SPLITTING, UC_SPLITTING)


@dataclass(frozen=True)
class ConsumptionBreakdown:
    p_static: float                 # W
    p_dynamic: float                # W
    reconfig_events_per_frame: int
    e_rec: float                    # J per event
    frame_duration: float           # s

    @property
    def total(self) -> float:
        return self.p_static + self.p_dynamic


def _check_protocol(protocol: str) -> None:
    if protocol not in PROTOCOLS:
        raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")


def reconfig_count(protocol: str, cfg: ScenarioConfig) -> int:
    """Reconfiguration events per frame.

    per_uc counts UC impedance adjustments: estimation (one UC at a time,
    M_s events) plus one full-surface round per post-preamble phase, so
    3*M_s for time splitting and 2*M_s for UC splitting. per_asic keeps the
    M_s single-UC estimation events but prices the full-surface rounds per
    controller chip.
    """
    _check_protocol(protocol)
    m_s = cfg.m_s
    rounds = 2 if protocol == TIME_SPLITTING else 1
    if cfg.reconfig_counting_mode == PER_UC:
        return (rounds + 1) * m_s
    n_asics = math.ceil(m_s / cfg.asic_fanout)
    return m_s + rounds * n_asics


def dynamic_power(protocol: str, cfg: ScenarioConfig) -> float:
    """Average dynamic power over a frame: event count * e_rec / frame duration."""
    frame_duration = derived_quantities(cfg).frame_duration
    return reconfig_count(protocol, cfg) * cfg.e_rec / frame_duration


def total_consumption(
    p_static_input: float, protocol: str, cfg: ScenarioConfig
) -> ConsumptionBreakdown:
    """Static plus dynamic consumption for one frame.

    ``p_static_input`` is either the aggregate figure or a per-ASIC figure,
    according to ``static_power_interpretation``.
    """
    if not (is_finite_number(p_static_input) and p_static_input >= 0.0):
        raise ValueError(f"static power must be a finite number >= 0 W, got {p_static_input!r}")
    derived = derived_quantities(cfg)
    p_static = p_static_input
    if cfg.static_power_interpretation == STATIC_PER_ASIC:
        p_static = p_static_input * derived.n_asics
    return ConsumptionBreakdown(
        p_static=p_static,
        p_dynamic=dynamic_power(protocol, cfg),
        reconfig_events_per_frame=reconfig_count(protocol, cfg),
        e_rec=cfg.e_rec,
        frame_duration=derived.frame_duration,
    )

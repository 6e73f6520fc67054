"""Frame engines for the time-splitting and UC-splitting harvesting protocols.

Both protocols open the frame with a preamble used for synchronization and
one-UC-at-a-time channel estimation; no payload or harvest is credited there.
Time splitting then absorbs on the whole surface for a number of slots before
reflecting on the whole surface; UC splitting dedicates a fixed UC subset to
absorption while the rest reflect for the entire post-preamble interval.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .channel import CascadedChannel, absorbed_power_per_uc, reflected_snr
from .harvesting import harvest
from .power import TIME_SPLITTING, UC_SPLITTING, total_consumption
from .scenario import ScenarioConfig


@dataclass(frozen=True)
class Allocation:
    """Harvesting resource assignment for one protocol.

    Only the fields of the active protocol are meaningful: ``eh_slots`` for
    time splitting, ``k_harvest_ucs`` (and optionally an explicit
    ``harvest_set``) for UC splitting.
    """

    protocol: str
    eh_slots: Optional[int] = None
    k_harvest_ucs: Optional[int] = None
    harvest_set: Optional[tuple[int, ...]] = None

    @classmethod
    def time_split(cls, eh_slots: int) -> "Allocation":
        return cls(protocol=TIME_SPLITTING, eh_slots=int(eh_slots))

    @classmethod
    def uc_split(cls, k_harvest_ucs: int, harvest_set: Sequence[int] | None = None) -> "Allocation":
        hset = None if harvest_set is None else tuple(int(i) for i in harvest_set)
        return cls(protocol=UC_SPLITTING, k_harvest_ucs=int(k_harvest_ucs), harvest_set=hset)


@dataclass(frozen=True)
class FrameEnergyReport:
    """Rate/energy outcome of one frame under one channel draw."""

    rate: float              # bits/s
    harvested_energy: float  # J
    consumed_energy: float   # J
    feasible: bool           # harvested_energy >= consumed_energy
    snr: float               # linear SNR of the payload interval


def select_harvest_set(k: int, cfg: ScenarioConfig) -> tuple[int, ...]:
    """First k UC indices in row-major order.

    All UCs are statistically identical (equal |h|, i.i.d. g), so a
    statistics-based selection never needs the instantaneous draw.
    """
    if not 0 <= k <= cfg.m_s:
        raise ValueError(f"k must lie in [0, {cfg.m_s}], got {k}")
    return tuple(range(k))


def shannon_rate(payload_slots: int, snr, cfg: ScenarioConfig):
    """Frame-averaged rate (bits/s) when ``payload_slots`` slots carry data.

    ``snr`` may be a scalar or an array of per-draw SNRs.
    """
    return (payload_slots / cfg.frame_slots) * cfg.bandwidth * np.log2(1.0 + snr)


def run_frame_time_splitting(
    ch: CascadedChannel, alloc: Allocation, p_static: float, cfg: ScenarioConfig
) -> FrameEnergyReport:
    """Evaluate one time-splitting frame.

    All UCs absorb for ``eh_slots`` slots, then all reflect for the payload;
    the harvesting time is lost as a linear factor on the rate.
    """
    if alloc.protocol != TIME_SPLITTING:
        raise ValueError(f"allocation protocol is {alloc.protocol!r}, expected {TIME_SPLITTING!r}")
    max_eh = cfg.frame_slots - cfg.preamble_slots
    if alloc.eh_slots is None or not 0 <= alloc.eh_slots <= max_eh:
        raise ValueError(f"eh_slots must lie in [0, {max_eh}], got {alloc.eh_slots}")
    payload_slots = cfg.frame_slots - cfg.preamble_slots - alloc.eh_slots
    snr = reflected_snr(ch, range(cfg.m_s), cfg)
    rate = float(shannon_rate(payload_slots, snr, cfg))
    report = harvest(absorbed_power_per_uc(ch, cfg), alloc.eh_slots * cfg.slot_duration, cfg)
    breakdown = total_consumption(p_static, TIME_SPLITTING, cfg)
    consumed = breakdown.total * breakdown.frame_duration
    return FrameEnergyReport(
        rate=rate,
        harvested_energy=report.harvested_energy,
        consumed_energy=consumed,
        feasible=report.harvested_energy >= consumed,
        snr=snr,
    )


def run_frame_uc_splitting(
    ch: CascadedChannel, alloc: Allocation, p_static: float, cfg: ScenarioConfig
) -> FrameEnergyReport:
    """Evaluate one UC-splitting frame.

    The harvest set absorbs while its complement reflects for the whole
    post-preamble interval; dedicating UCs shrinks the coherent sum inside
    the log instead of the time factor in front of it.
    """
    if alloc.protocol != UC_SPLITTING:
        raise ValueError(f"allocation protocol is {alloc.protocol!r}, expected {UC_SPLITTING!r}")
    m_s = cfg.m_s
    k = alloc.k_harvest_ucs
    if k is None or not 0 <= k <= m_s:
        raise ValueError(f"k_harvest_ucs must lie in [0, {m_s}], got {k}")
    harvest_set = alloc.harvest_set
    if harvest_set is None:
        harvest_set = select_harvest_set(k, cfg)
    if len(harvest_set) != k:
        raise ValueError(f"harvest_set has {len(harvest_set)} indices, expected k = {k}")
    members = set(harvest_set)
    if len(members) != k or any(not 0 <= i < m_s for i in members):
        raise ValueError(f"harvest_set must hold distinct UC indices in [0, {m_s})")
    reflecting = [i for i in range(m_s) if i not in members]
    snr = reflected_snr(ch, reflecting, cfg)
    payload_slots = cfg.frame_slots - cfg.preamble_slots
    rate = float(shannon_rate(payload_slots, snr, cfg))
    absorbed = absorbed_power_per_uc(ch, cfg)[sorted(members)]
    report = harvest(absorbed, payload_slots * cfg.slot_duration, cfg)
    breakdown = total_consumption(p_static, UC_SPLITTING, cfg)
    consumed = breakdown.total * breakdown.frame_duration
    return FrameEnergyReport(
        rate=rate,
        harvested_energy=report.harvested_energy,
        consumed_energy=consumed,
        feasible=report.harvested_energy >= consumed,
        snr=snr,
    )

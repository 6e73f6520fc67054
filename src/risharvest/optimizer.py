"""Average-rate maximization under the harvested-vs-consumed power constraint.

The TX-side absorption is deterministic free space, so the frame-averaged
harvest depends on the allocation value alone, not on the channel draw. It
is computed once per protocol and configuration as a harvest curve over
every allocation value 0..vmax, and the curve is checked to be finite and
nondecreasing. The average rate is decreasing in the allocation, so the
optimum is the smallest value whose harvest covers consumption: one
``searchsorted`` of the consumed power against the curve. The rate is
averaged over one set of channel draws (common random numbers) that is
reused across every grid point and both protocols.
"""

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import coherent_snr, sample_channel, uc_absorbed_power
from .harvesting import chain_rf_power, harvest, rectify
from .power import TIME_SPLITTING, UC_SPLITTING, total_consumption
from .protocols import shannon_rate
from .scenario import ScenarioConfig, derived_quantities

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class AllocationResult:
    """Averages and feasibility of one allocation value; the optimizers return the best."""

    protocol: str
    optimal_allocation: int      # eh_slots (time splitting) or k (UC splitting)
    average_rate: float          # bits/s
    rate_ci_halfwidth: float     # bits/s, 95% normal-approximation half-width
    avg_harvested_power: float   # W
    avg_consumed_power: float    # W
    status: str                  # FEASIBLE or INFEASIBLE


@dataclass(frozen=True)
class TrialChannels:
    """Amplitude sums of a fixed set of channel draws, shared across candidates.

    ``amp_prefix[t, k]`` holds sum_{i<k} |h_i||g_i| for draw t in row-major UC
    order, so the coherent amplitude over the complement of the first k UCs is
    ``amp_prefix[:, m_s] - amp_prefix[:, k]``.
    """

    amp_prefix: np.ndarray  # (n_trials, m_s + 1)

    @property
    def n_trials(self) -> int:
        return self.amp_prefix.shape[0]

    @property
    def m_s(self) -> int:
        return self.amp_prefix.shape[1] - 1

    @property
    def amp_total(self) -> np.ndarray:
        return self.amp_prefix[:, -1]


def draw_trials(
    cfg: ScenarioConfig, rng: np.random.Generator, n_trials: Optional[int] = None
) -> TrialChannels:
    """Draw the Monte-Carlo channel set once (deterministic for a fixed seed)."""
    n = cfg.mc_trials if n_trials is None else int(n_trials)
    if n < 1:
        raise ValueError(f"trial count must be >= 1, got {n}")
    m_s = cfg.m_s
    prefix = np.zeros((n, m_s + 1))
    for t in range(n):
        ch = sample_channel(cfg, rng)
        amp = np.abs(ch.h) * np.abs(ch.g)
        np.cumsum(amp, out=prefix[t, 1:])
    return TrialChannels(amp_prefix=prefix)


def _allocation_bounds(protocol: str, cfg: ScenarioConfig) -> int:
    if protocol == TIME_SPLITTING:
        return cfg.frame_slots - cfg.preamble_slots
    if protocol == UC_SPLITTING:
        return cfg.m_s
    raise ValueError(f"unknown protocol {protocol!r}")


@functools.lru_cache(maxsize=8)
def harvest_curve(protocol: str, cfg: ScenarioConfig) -> np.ndarray:
    """Frame-averaged DC harvest (W) for every allocation value 0..vmax.

    Entry v is what ``harvest`` gives for allocation v, divided by the frame
    duration. The array is read-only and cached per (protocol, cfg). Raises
    ValueError when the curve is not finite and nondecreasing, because the
    optimizer's lookup relies on both.
    """
    vmax = _allocation_bounds(protocol, cfg)
    p_uc = uc_absorbed_power(cfg)
    # Built in place, in harvest()'s order of operations, so that entries
    # agree with harvest() to rounding and no full-length temporaries pile up.
    if protocol == TIME_SPLITTING:
        # Every UC absorbs for v slots: the harvest is linear in v.
        full_dc = harvest(np.full(cfg.m_s, p_uc), 0.0, cfg).total_dc_power
        curve = np.arange(vmax + 1, dtype=float)
        curve *= cfg.slot_duration
        curve *= full_dc
    else:
        # k harvesting UCs fill k // chain_size whole chains and one chain of
        # k % chain_size UCs. Whole chains are summed by a running sum, so the
        # curve stays nondecreasing under rounding. No chain exceeds m_s UCs.
        size = min(cfg.chain_size, vmax)
        chain = np.full(size, p_uc)
        fill_dc = np.array([
            rectify(chain_rf_power(chain, range(r), cfg.rf_combining_loss_db), cfg.rectifier)
            for r in range(size + 1)
        ])
        chains, rest = np.divmod(np.arange(vmax + 1), size)
        whole = np.concatenate(([0.0], np.cumsum(np.full(chains[-1], fill_dc[size]))))
        curve = whole[chains]
        curve += fill_dc[rest]
        curve *= cfg.dc_combining_efficiency
        curve *= (cfg.frame_slots - cfg.preamble_slots) * cfg.slot_duration
    curve /= derived_quantities(cfg).frame_duration
    bad = ~np.isfinite(curve)
    bad[1:] |= curve[1:] < curve[:-1]
    if bad.any():
        raise ValueError(
            f"{protocol} harvest curve is not finite and nondecreasing "
            f"at allocation {int(np.argmax(bad))}"
        )
    curve.setflags(write=False)
    return curve


def estimate_averages(
    protocol: str,
    value: int,
    p_static: float,
    cfg: ScenarioConfig,
    rng: Optional[np.random.Generator] = None,
    trials: Optional[TrialChannels] = None,
) -> AllocationResult:
    """Monte-Carlo averages and feasibility status for one allocation value.

    Pass ``trials`` to reuse an existing draw set (common random numbers);
    otherwise ``rng`` is consumed to draw ``cfg.mc_trials`` fresh channels.
    """
    vmax = _allocation_bounds(protocol, cfg)
    if not 0 <= value <= vmax:
        raise ValueError(f"allocation value must lie in [0, {vmax}], got {value}")
    if trials is None:
        if rng is None:
            raise ValueError("either rng or trials must be provided")
        trials = draw_trials(cfg, rng)
    if protocol == TIME_SPLITTING:
        payload_slots = cfg.frame_slots - cfg.preamble_slots - value
        amplitude = trials.amp_total
    else:
        payload_slots = cfg.frame_slots - cfg.preamble_slots
        amplitude = trials.amp_total - trials.amp_prefix[:, value]
    rates = shannon_rate(payload_slots, coherent_snr(amplitude, cfg), cfg)
    if trials.n_trials > 1:
        ci = 1.96 * float(rates.std(ddof=1)) / math.sqrt(trials.n_trials)
    else:
        ci = 0.0
    harvested = float(harvest_curve(protocol, cfg)[value])
    consumed = total_consumption(p_static, protocol, cfg).total
    return AllocationResult(
        protocol=protocol,
        optimal_allocation=value,
        average_rate=float(rates.mean()),
        rate_ci_halfwidth=ci,
        avg_harvested_power=harvested,
        avg_consumed_power=consumed,
        status=FEASIBLE if harvested >= consumed else INFEASIBLE,
    )


def _optimize(
    protocol: str,
    p_static: float,
    cfg: ScenarioConfig,
    rng: Optional[np.random.Generator],
    trials: Optional[TrialChannels],
) -> AllocationResult:
    curve = harvest_curve(protocol, cfg)
    consumed = total_consumption(p_static, protocol, cfg).total
    # First value whose harvest covers consumption, ties included; an index
    # past the end means even the full allocation falls short.
    value = min(int(np.searchsorted(curve, consumed, side="left")), curve.size - 1)
    return estimate_averages(protocol, value, p_static, cfg, rng=rng, trials=trials)


def optimize_time_splitting(
    p_static: float,
    cfg: ScenarioConfig,
    rng: Optional[np.random.Generator] = None,
    trials: Optional[TrialChannels] = None,
) -> AllocationResult:
    """Best number of harvesting slots: the smallest one meeting the constraint.

    The rate falls linearly in eh_slots while the harvest grows, so the
    smallest slot count whose harvest-curve entry covers consumption
    maximizes the average rate. Reports the full post-preamble interval with
    INFEASIBLE status when even that cannot cover consumption.
    """
    return _optimize(TIME_SPLITTING, p_static, cfg, rng, trials)


def optimize_uc_splitting(
    p_static: float,
    cfg: ScenarioConfig,
    rng: Optional[np.random.Generator] = None,
    trials: Optional[TrialChannels] = None,
) -> AllocationResult:
    """Best number of harvesting UCs: the smallest one meeting the constraint.

    Fewer harvesting UCs leave a larger coherent sum, so the smallest k whose
    harvest-curve entry covers consumption maximizes the average rate.
    Reports k = m_s with INFEASIBLE status when even the whole surface cannot
    cover consumption.
    """
    return _optimize(UC_SPLITTING, p_static, cfg, rng, trials)

"""Average-rate maximization under the harvested-vs-consumed power constraint.

Both protocols open each frame with a preamble used for synchronization and
one-UC-at-a-time channel estimation; no payload or harvest is credited
there. Time splitting then absorbs on the whole surface for ``eh_slots``
slots before reflecting on the whole surface, so the harvesting time is lost
as a linear factor on the rate. UC splitting dedicates the first k UCs in
row-major order to absorption while the rest reflect for the whole
post-preamble interval, so harvesting shrinks the coherent sum inside the
log instead of the time factor in front of it. All UCs are statistically
identical, so which k harvest does not change the averages.

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

from .channel import coherent_snr, sample_amplitudes, shannon_rate, uc_absorbed_power
from .harvesting import chain_dc_power, harvest
from .power import TIME_SPLITTING, UC_SPLITTING, total_consumption
from .scenario import ScenarioConfig

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

# Amplitudes drawn per chunk of trials in draw_trials (at least one trial).
# A chunk's temporaries stay a few hundred KB beside the prefix, which alone
# sets the draw's peak memory.
_DRAW_CHUNK_VALUES = 1 << 14


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
    ``amp_prefix[:, m_s] - amp_prefix[:, k]``. Row t is the running sum of
    row t of ``sample_amplitudes``; only amplitudes are drawn, because no
    computed quantity depends on the common LoS phase (see ``channel``).
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
    """Draw the Monte-Carlo channel set once (deterministic for a fixed seed).

    The amplitudes are drawn with ``sample_amplitudes`` in chunks of trials,
    each summed straight into its rows of the prefix, so no full-size
    amplitude array exists beside the prefix. The sampler's stream is
    trial-major, so the first t trials are the same for any trial count and
    any chunk size.
    """
    n = cfg.mc_trials if n_trials is None else int(n_trials)
    if n < 1:
        raise ValueError(f"trial count must be >= 1, got {n}")
    m_s = cfg.m_s
    prefix = np.zeros((n, m_s + 1))
    chunk = max(1, _DRAW_CHUNK_VALUES // m_s)
    for t0 in range(0, n, chunk):
        amp = sample_amplitudes(cfg, rng, min(chunk, n - t0))
        np.cumsum(amp, axis=1, out=prefix[t0 : t0 + amp.shape[0], 1:])
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
    # Built in place, so that no full-length temporaries pile up.
    if protocol == TIME_SPLITTING:
        # Every UC absorbs for v slots: the harvest is linear in v.
        full_dc = harvest(np.full(cfg.m_s, p_uc), cfg)
        curve = np.arange(vmax + 1, dtype=float)
        curve *= cfg.slot_duration
        curve *= full_dc
    else:
        # k harvesting UCs fill k // chain_size whole chains and one chain of
        # k % chain_size UCs. Every fill 0..chain_size is rectified at once.
        # Whole chains are summed by a running sum, so the curve stays
        # nondecreasing under rounding. No chain exceeds m_s UCs.
        size = min(cfg.chain_size, vmax)
        fill_dc = chain_dc_power(np.arange(size + 1) * p_uc, cfg)
        chains, rest = np.divmod(np.arange(vmax + 1), size)
        whole = np.concatenate(([0.0], np.cumsum(np.full(chains[-1], fill_dc[size]))))
        curve = whole[chains]
        curve += fill_dc[rest]
        curve *= cfg.dc_combining_efficiency
        curve *= (cfg.frame_slots - cfg.preamble_slots) * cfg.slot_duration
    curve /= cfg.frame_duration
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
    trials: TrialChannels,
) -> AllocationResult:
    """Monte-Carlo averages and feasibility status for one allocation value.

    The rate is averaged over ``trials``, one draw set that callers reuse
    across allocation values (common random numbers). Raises ValueError when
    ``trials`` was drawn for another surface size, or when the link budget
    makes the average rate or its CI overflow.
    """
    vmax = _allocation_bounds(protocol, cfg)
    if not 0 <= value <= vmax:
        raise ValueError(f"allocation value must lie in [0, {vmax}], got {value}")
    if trials.m_s != cfg.m_s:
        raise ValueError(f"trials were drawn for {trials.m_s} UCs, the configuration has {cfg.m_s}")
    if protocol == TIME_SPLITTING:
        payload_slots = cfg.frame_slots - cfg.preamble_slots - value
        amplitude = trials.amp_total
    else:
        payload_slots = cfg.frame_slots - cfg.preamble_slots
        amplitude = trials.amp_total - trials.amp_prefix[:, value]
    # Overflow is reported below as a non-finite result, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        rates = shannon_rate(payload_slots, coherent_snr(amplitude, cfg), cfg)
        average = float(rates.mean())
        n = trials.n_trials
        ci = 1.96 * float(rates.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    if not (math.isfinite(average) and math.isfinite(ci)):
        raise ValueError(
            f"{protocol} at p_static = {p_static!r} W: the average rate ({average}) "
            f"or its CI ({ci}) is not finite; the link budget overflows"
        )
    harvested = float(harvest_curve(protocol, cfg)[value])
    consumed = total_consumption(p_static, protocol, cfg).total
    return AllocationResult(
        protocol=protocol,
        optimal_allocation=value,
        average_rate=average,
        rate_ci_halfwidth=ci,
        avg_harvested_power=harvested,
        avg_consumed_power=consumed,
        status=FEASIBLE if harvested >= consumed else INFEASIBLE,
    )


def _optimize(
    protocol: str, p_static: float, cfg: ScenarioConfig, trials: TrialChannels
) -> AllocationResult:
    curve = harvest_curve(protocol, cfg)
    consumed = total_consumption(p_static, protocol, cfg).total
    # First value whose harvest covers consumption, ties included; an index
    # past the end means even the full allocation falls short.
    value = min(int(np.searchsorted(curve, consumed, side="left")), curve.size - 1)
    return estimate_averages(protocol, value, p_static, cfg, trials)


def optimize_time_splitting(
    p_static: float, cfg: ScenarioConfig, trials: TrialChannels
) -> AllocationResult:
    """Best number of harvesting slots: the smallest one meeting the constraint.

    The rate falls linearly in eh_slots while the harvest grows, so the
    smallest slot count whose harvest-curve entry covers consumption
    maximizes the average rate. Reports the full post-preamble interval with
    INFEASIBLE status when even that cannot cover consumption.
    """
    return _optimize(TIME_SPLITTING, p_static, cfg, trials)


def optimize_uc_splitting(
    p_static: float, cfg: ScenarioConfig, trials: TrialChannels
) -> AllocationResult:
    """Best number of harvesting UCs: the smallest one meeting the constraint.

    Fewer harvesting UCs leave a larger coherent sum, so the smallest k whose
    harvest-curve entry covers consumption maximizes the average rate.
    Reports k = m_s with INFEASIBLE status when even the whole surface cannot
    cover consumption.
    """
    return _optimize(UC_SPLITTING, p_static, cfg, trials)

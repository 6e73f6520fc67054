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
harvest depends on the allocation value alone, and only the rate is random.
Both protocols feed the same harvesting chain (``harvesting.harvest``, the
DC power when the first k UCs absorb), read once per configuration and
checked once to be finite, nonnegative and nondecreasing in k. They differ
only in what absorbs and for how long: every UC for v slots, or the first k
UCs for the whole post-preamble interval. ``harvest_of`` gives that one
formula, the DC power of the absorbing UCs times their harvest time over
the frame. The optimizer then does two things and nothing else. The solve
(``optimize_*``) needs no channel draw: the average rate is decreasing in
the allocation, so the optimum is the smallest value whose harvest covers
consumption, found by one bisection over the allocation values of either
protocol, which needs O(log vmax) evaluations and O(1) memory however long
the frame. It gives the left ``searchsorted`` of the consumed power in the
array of every value's harvest, bit for bit. The estimate
(``estimate_averages``) then averages the rate of each of a list of
allocation values over one set of channel draws (common random numbers),
which ``channel.draw_trials`` makes; it reads the full-surface sum for time
splitting and ``TrialChannels.reflecting_sum`` for UC splitting. It forms
the rates of a block of values at a time as one (values, trials) array and
reduces each row as a one-value estimate reduces its rates, so a value's
estimate does not depend on the list it is in. A sweep solves its whole
grid first, draws once keeping only the prefix columns those solves read,
and estimates the distinct allocations of each protocol in one call.
"""

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .channel import TrialChannels, coherent_snr, shannon_rate, spectral_efficiency
from .harvesting import harvest
from .power import TIME_SPLITTING, UC_SPLITTING, total_consumption
from .scenario import ScenarioConfig

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

# Rates per block of estimate_averages: a block is rows of whole trials,
# at least one, so its float64 temporaries take 32 KiB each unless one row
# is longer. Blocks of 2^14 rates (128 000 B at 1000 trials, just under
# glibc's 128 KiB mmap threshold) ran the 1000-trial edge sweep in the same
# CPU time. Their median peak RSS read 0.27 MiB above the one-value-at-a-time
# estimate's in one set of CLI runs (these blocks: +0.03 MiB) and 0.04 MiB
# below it in another (30 runs each; these: -0.03 MiB), so the smaller
# blocks are kept: they cost no time and bound the temporaries tighter.
_ESTIMATE_BLOCK_VALUES = 1 << 12


@dataclass(frozen=True)
class AllocationResult:
    """The solve at one static power: the best allocation value and its feasibility."""

    protocol: str
    optimal_allocation: int      # eh_slots (time splitting) or k (UC splitting)
    avg_harvested_power: float   # W
    avg_consumed_power: float    # W
    status: str                  # FEASIBLE or INFEASIBLE


def _allocation_bounds(protocol: str, cfg: ScenarioConfig) -> int:
    if protocol == TIME_SPLITTING:
        return cfg.frame_slots - cfg.preamble_slots
    if protocol == UC_SPLITTING:
        return cfg.m_s
    raise ValueError(f"unknown protocol {protocol!r}")


@functools.lru_cache(maxsize=8)
def _harvest(cfg: ScenarioConfig) -> np.ndarray:
    """``harvest(cfg)``, the DC power when the first k UCs absorb, for k = 0..m_s.

    Cached per configuration and shared by both protocols, so the array is
    read-only. Raises ValueError when it is not finite, nonnegative and
    nondecreasing, because the solve's bisection relies on all three.
    """
    dc = harvest(cfg)
    bad = ~np.isfinite(dc) | (dc < np.append(0.0, dc[:-1]))  # 0 W before k = 0
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"harvest is not finite, nonnegative and nondecreasing at {k} absorbing UCs")
    dc.setflags(write=False)
    return dc


def harvest_of(protocol: str, cfg: ScenarioConfig):
    """The frame-averaged DC harvest (W) as a function of the allocation value.

    The function takes an integer or an array of values 0..vmax: the DC
    power of the absorbing UCs times their harvest time, over the frame.
    Time splitting absorbs on the whole surface for ``value`` slots, UC
    splitting on the first ``value`` UCs for the whole post-preamble
    interval, so both protocols' full allocations harvest the same, bit for
    bit. Fetch it once and evaluate it many times: the lookup hashes the
    configuration.
    """
    dc = _harvest(cfg)
    # A memoryview reads an entry as a Python float, which halves the cost of
    # a bisection probe against a numpy scalar; an array takes numpy's indexing.
    entries = memoryview(dc)
    full, slot, frame = entries[-1], cfg.slot_duration, cfg.frame_duration
    post = cfg.frame_slots - cfg.preamble_slots
    time_splitting = protocol == TIME_SPLITTING

    def harvested(value):
        power = full if time_splitting else (entries if isinstance(value, int) else dc)[value]
        slots = value if time_splitting else post
        return power * (slots * slot) / frame

    return harvested


def estimate_averages(protocol: str, values, trials: TrialChannels) -> list[tuple[float, float]]:
    """Monte-Carlo average rate (bit/s) of each allocation value and its 95% CI half-width.

    Returns one (average, ci) per entry of ``values``, in their order, and
    [] for none. Each rate is averaged over ``trials``, one draw set that
    callers reuse across allocation values (common random numbers), under
    the configuration it was drawn for; the CI is the normal-approximation
    half-width. Time splitting reads the full-surface sum ``amp_total``, UC
    splitting ``trials.reflecting_sum``. The rates of
    ``_ESTIMATE_BLOCK_VALUES // n_trials`` values (at least one) are formed
    at a time, one C-contiguous row per value, and each row is reduced as a
    1-D array of its rates would be, so an estimate is the same bit for bit
    whatever list, and whatever place in it, the value comes in. Time
    splitting forms the full surface's log2(1 + SNR) once.

    Every value is checked before any rate is formed. Raises ValueError
    when one is not an integer in 0..vmax (a bool is not), or when
    ``trials`` lacks the prefix column of a UC-splitting value; and, naming
    the first such value, when the link budget makes an average rate or
    its CI overflow.
    """
    cfg = trials.cfg
    vmax = _allocation_bounds(protocol, cfg)
    values = list(values)
    for value in values:
        integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if not (integer and 0 <= value <= vmax):
            raise ValueError(f"allocation value must be an integer in [0, {vmax}], got {value!r}")
    time_splitting = protocol == TIME_SPLITTING
    if not time_splitting:
        drawn = set(trials.columns)
        for value in values:
            if value not in drawn:
                raise ValueError(f"prefix column k = {value} was not drawn")
    post, n = cfg.frame_slots - cfg.preamble_slots, trials.n_trials
    rows = max(1, _ESTIMATE_BLOCK_VALUES // n)
    estimates = []
    # Overflow is reported below as a non-finite result, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if time_splitting and values:
            snr = coherent_snr(trials.amp_total, cfg)
            log_term = spectral_efficiency(snr)
        for start in range(0, len(values), rows):
            block = values[start : start + rows]
            if time_splitting:
                # A column of payload slot counts against one row of SNRs.
                # The counts are exact as float64 below 2^53 slots, so the
                # slot ratio rounds as the ratio of the ints does.
                payload = np.array([post - value for value in block], float)[:, np.newaxis]
                rates = shannon_rate(payload, snr, cfg, log_term=log_term)
            else:
                rates = shannon_rate(post, coherent_snr(trials.reflecting_sum(block), cfg), cfg)
            averages = rates.mean(axis=1).tolist()
            spreads = rates.std(axis=1, ddof=1).tolist() if n > 1 else [0.0] * len(block)
            for value, average, spread in zip(block, averages, spreads):
                ci = 1.96 * spread / math.sqrt(n)
                if not (math.isfinite(average) and math.isfinite(ci)):
                    raise ValueError(
                        f"{protocol} at allocation {value!r}: the average rate ({average}) "
                        f"or its CI ({ci}) is not finite; the link budget overflows"
                    )
                estimates.append((average, ci))
    return estimates


def _solve(protocol: str, p_static: float, cfg: ScenarioConfig) -> AllocationResult:
    """The first allocation value whose harvest covers consumption.

    Ties count as covered; when none covers it, the full allocation is
    reported. The harvest is nondecreasing in the value, so a bisection over
    0..vmax gives the left searchsorted of the array of every value's
    harvest, capped at vmax, bit for bit.
    """
    consumed = total_consumption(p_static, protocol, cfg).total
    vmax = _allocation_bounds(protocol, cfg)
    harvested_by = harvest_of(protocol, cfg)
    value = bisect_left(range(vmax + 1), consumed, 0, vmax, key=harvested_by)
    harvested = harvested_by(value)
    return AllocationResult(
        protocol=protocol,
        optimal_allocation=value,
        avg_harvested_power=harvested,
        avg_consumed_power=consumed,
        status=FEASIBLE if harvested >= consumed else INFEASIBLE,
    )


def optimize_time_splitting(p_static: float, cfg: ScenarioConfig) -> AllocationResult:
    """Best number of harvesting slots: the smallest one meeting the constraint.

    The rate falls linearly in eh_slots while the harvest grows, so the
    smallest slot count whose harvest covers consumption maximizes the
    average rate. Reports the full post-preamble interval with
    INFEASIBLE status when even that cannot cover consumption.
    """
    return _solve(TIME_SPLITTING, p_static, cfg)


def optimize_uc_splitting(p_static: float, cfg: ScenarioConfig) -> AllocationResult:
    """Best number of harvesting UCs: the smallest one meeting the constraint.

    Fewer harvesting UCs leave a larger coherent sum, so the smallest k whose
    harvest covers consumption maximizes the average rate.
    Reports k = m_s with INFEASIBLE status when even the whole surface cannot
    cover consumption.
    """
    return _solve(UC_SPLITTING, p_static, cfg)

"""Average-rate maximization under the harvested-vs-consumed power constraint.

Both protocols open each frame with a preamble used for synchronization and
one-UC-at-a-time channel estimation; no payload or harvest is credited
there. Time splitting then absorbs on the whole surface for ``eh_slots``
slots before reflecting on the whole surface, so the harvesting time is lost
as a linear factor on the rate. UC splitting lets k UCs absorb while the
first n = m_s - k in row-major order reflect for the whole post-preamble
interval, so harvesting shrinks the coherent sum inside the log instead of
the time factor in front of it. All UCs are statistically identical, so
which k harvest does not change the averages. Every average rate is thus
(payload slots / frame) B E[log2(1 + P_t S_n^2 / N)], where S_n sums the n
reflecting UCs; ``reflecting_ucs`` gives n, the one layout fact.

The TX-side absorption is deterministic free space, so the frame-averaged
harvest depends on the allocation value alone, and only the rate is random.
Both protocols feed the same harvesting chain (``harvesting.harvest``, the
DC power when k UCs absorb), read once per configuration and checked once
to be finite, nonnegative and nondecreasing in k. ``harvest_of`` gives the
DC power of the absorbing UCs, all of them or k, times their harvest time,
v slots or the post-preamble interval, over the frame. The solve
(``optimize_*``) needs no channel draw: the average rate is decreasing in
the allocation, so the optimum is the smallest value whose harvest covers
consumption, found by one bisection over the allocation values of either
protocol, which needs O(log vmax) evaluations and O(1) memory however long
the frame. It gives the left ``searchsorted`` of the consumed power in the
array of every value's harvest, bit for bit. The estimate
(``estimate_averages``) averages the rate of each of a list of allocation
values over one set of channel draws (common random numbers), which
``channel.draw_trials`` makes: one rate statistic per drawn column n,
scaled by each value's payload share. A sweep solves its whole grid first,
draws once keeping only the columns n those solves read, and estimates the
distinct allocations of each protocol in one call.
"""

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .channel import TrialChannels, coherent_snr, shannon_rate
from .harvesting import harvest
from .power import FEASIBLE, INFEASIBLE, TIME_SPLITTING, UC_SPLITTING, total_consumption
from .scenario import ScenarioConfig

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
    """``harvest(cfg)``, the DC power when k UCs absorb, for k = 0..m_s.

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


def reflecting_ucs(protocol: str, value: int, cfg: ScenarioConfig) -> int:
    """The number n of reflecting UCs, UCs 1..n, under allocation ``value`` of ``protocol``."""
    return cfg.m_s if protocol == TIME_SPLITTING else cfg.m_s - value


def _check_value(value, vmax: int) -> None:
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and 0 <= value <= vmax):
        raise ValueError(f"allocation value must be an integer in [0, {vmax}], got {value!r}")


@functools.lru_cache(maxsize=16)  # both protocols of the 8 configurations _harvest keeps
def harvest_of(protocol: str, cfg: ScenarioConfig):
    """The frame-averaged DC harvest (W) as a function of the allocation value.

    The function takes an integer value 0..vmax: the DC power of the
    absorbing UCs times their harvest time, over the frame. Time splitting
    absorbs on the whole surface for ``value`` slots, UC splitting on
    ``value`` UCs for the whole post-preamble interval, so both protocols'
    full allocations harvest the same, bit for bit. Raises ValueError for an
    unknown protocol when fetched and for any other value when called.
    Cached per (protocol, configuration), so that a solve fetches it with
    one hash of the configuration and builds no closure.
    """
    vmax = _allocation_bounds(protocol, cfg)
    # A memoryview reads an entry as a Python float, which halves the cost of
    # a bisection probe against a numpy scalar.
    entries = memoryview(_harvest(cfg))
    full, slot, frame = entries[-1], cfg.slot_duration, cfg.frame_duration
    post = cfg.frame_slots - cfg.preamble_slots
    time_splitting = protocol == TIME_SPLITTING

    def harvested(value):
        if not (type(value) is int and 0 <= value <= vmax):  # the bisection's probes skip the call
            _check_value(value, vmax)
        power = full if time_splitting else entries[value]
        slots = value if time_splitting else post
        return power * (slots * slot) / frame

    return harvested


def estimate_averages(protocol: str, values, trials: TrialChannels) -> list[tuple[float, float]]:
    """Monte-Carlo average rate (bit/s) of each allocation value and its 95% CI half-width.

    Returns one (average, ci) per entry of ``values``, in their order, and
    [] for none. Each rate is averaged over ``trials``, one draw set that
    callers reuse across allocation values (common random numbers), under
    the configuration it was drawn for; the CI is the normal-approximation
    half-width. Each distinct column n that the values read
    (``reflecting_ucs``) gives one statistic: the mean and sample sd of the
    per-trial rate of S_n with every post-preamble slot carrying data,
    formed ``_ESTIMATE_BLOCK_VALUES // n_trials`` columns (at least one) at
    a time, one C-contiguous row per column, each reduced as a 1-D array of
    its rates would be. A value's (average, ci) is that statistic's times
    its payload share, (post - value) / post for time splitting and 1 for UC
    splitting, the same bit for bit whatever list the value comes in.

    Every value is checked before any rate is formed. Raises ValueError
    when one is not an integer in 0..vmax (a bool is not), or when its
    column n was not drawn; and, naming the first such value, when the link
    budget makes an average rate or its CI overflow.
    """
    cfg = trials.cfg
    vmax = _allocation_bounds(protocol, cfg)
    column_of = {ucs: j for j, ucs in enumerate(trials.columns)}
    values = list(values)
    for value in values:
        _check_value(value, vmax)
        ucs = reflecting_ucs(protocol, value, cfg)
        if ucs not in column_of:
            raise ValueError(f"column n = {ucs} of allocation {value!r} was not drawn")
    read = sorted({column_of[reflecting_ucs(protocol, value, cfg)] for value in values})
    post, n = cfg.frame_slots - cfg.preamble_slots, trials.n_trials
    stats = np.zeros((2, len(column_of)))  # per drawn column: the mean and sd of its rates
    rows = max(1, _ESTIMATE_BLOCK_VALUES // n)
    # Overflow is reported below as a non-finite result, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(read), rows):
            block = read[start : start + rows]
            rates = shannon_rate(post, coherent_snr(trials.amp_prefix.T[block], cfg), cfg)
            stats[0, block] = rates.mean(axis=1)
            stats[1, block] = rates.std(axis=1, ddof=1)
    means, spreads = stats.tolist()
    estimates = []
    for value in values:
        j = column_of[reflecting_ucs(protocol, value, cfg)]
        share = (post - value) / post if protocol == TIME_SPLITTING else 1.0
        average, ci = means[j] * share, 1.96 * spreads[j] / math.sqrt(n) * share
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

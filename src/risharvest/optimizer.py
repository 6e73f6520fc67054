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
to be finite, nonnegative and nondecreasing in k. One cache holds what
both protocols' solves read: ``_tables(cfg)``, one harvest table per
configuration, gives each protocol's (values, key), and vmax, the largest
allocation value, is ``len(values) - 1``. The solve indexes that table by
its protocol directly; ``harvest_of`` and ``estimate_averages``, which
take a protocol from their caller, get it through ``_table``, which
rejects an unknown one. ``harvest_of`` gives the DC power of the absorbing
UCs, all of them or k, times their harvest time, v slots or the
post-preamble interval, over the frame. The solve (``optimize_*``) needs
no channel draw: the average rate is decreasing in the allocation, so the
optimum is the smallest value whose harvest covers consumption, found by
one C-level ``bisect_left`` per solve. UC splitting looks the consumed
power up in a read-only curve of every k's harvest (m_s + 1 entries,
bounded by the surface as the DC harvest is), so no probe calls Python.
Time splitting bisects ``range(vmax + 1)`` with a key that does the same
arithmetic, which takes O(log vmax) key calls and O(1) memory however long
the frame. Either gives the left ``searchsorted`` of the consumed power in
the array of every value's harvest, bit for bit.
The estimate (``estimate_averages``) averages the rate of each of a list of
allocation values over one set of channel draws (common random numbers),
which ``channel.draw_trials`` makes: it maps each value to its drawn column
n once, forms one rate statistic per column read and scales it by each
value's payload share. A sweep solves its whole grid first,
draws once keeping only the columns n those solves read, and estimates
each protocol's allocations, in grid order, in one call.
"""

import functools
import math
from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from .channel import TrialChannels, coherent_snr, shannon_rate
from .harvesting import harvest
from .power import FEASIBLE, INFEASIBLE, PROTOCOLS, TIME_SPLITTING, UC_SPLITTING, total_consumption
from .scenario import ScenarioConfig

# Rates per block of estimate_averages: a block is rows of whole trials, at
# least one, so its float64 temporaries take 128 KiB each unless one row is
# longer. At 1000 trials a block is 16 rows, 128 000 B, just under glibc's
# 128 KiB mmap threshold; the 1000-trial edge sweep's estimate takes about
# a fifth less time than with blocks of 2^12 rates (3.4 -> 2.6 ms and
# 5.1 -> 4.0 ms, medians of 21 cold runs each in two sets, on a 2-vCPU
# AVX-512 host). At 10^4 trials a block stays one row.
_ESTIMATE_BLOCK_VALUES = 1 << 14


class AllocationResult(NamedTuple):
    """The solve at one static power: the best allocation value and its feasibility."""

    protocol: str
    optimal_allocation: int      # eh_slots (time splitting) or k (UC splitting)
    avg_harvested_power: float   # W
    avg_consumed_power: float    # W
    status: str                  # FEASIBLE or INFEASIBLE


def reflecting_ucs(protocol: str, value: int, cfg: ScenarioConfig) -> int:
    """The number n of reflecting UCs, UCs 1..n, under allocation ``value`` of ``protocol``."""
    return cfg.m_s if protocol == TIME_SPLITTING else cfg.m_s - value


def _check_value(value, vmax: int) -> None:
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and 0 <= value <= vmax):
        raise ValueError(f"allocation value must be an integer in [0, {vmax}], got {value!r}")


@functools.lru_cache(maxsize=8)
def _tables(cfg: ScenarioConfig) -> dict:
    """The harvest table of ``cfg``: each protocol's solve data, from one ``harvest(cfg)``.

    The module's one cache, keyed by the configuration. Each protocol's
    entry is (values, key), which the solve bisects for the frame-averaged
    harvest (W); vmax is ``len(values) - 1``. UC splitting's values are its
    curve, k's harvest ``values[k]``: a read-only memoryview of the float64
    harvest of every k, ``dc * (post * slot) / frame``, whose entries read
    as Python floats; its key is None. Time splitting's values are ``range(post + 1)`` and
    v's harvest is ``key(v)``, the harvest of v slots in the same operation
    order, so its memory does not grow with the frame. Raises ValueError
    when the DC harvest of k absorbing UCs is not finite, nonnegative and
    nondecreasing in k, because the solve's bisection relies on all three.
    ``_solve`` indexes the table by its own protocol; a protocol from
    outside goes through ``_table``, which checks it.
    """
    dc = harvest(cfg)
    bad = ~np.isfinite(dc) | (dc < np.append(0.0, dc[:-1]))  # 0 W before k = 0
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"harvest is not finite, nonnegative and nondecreasing at {k} absorbing UCs")
    post, slot, frame = cfg.frame_slots - cfg.preamble_slots, cfg.slot_duration, cfg.frame_duration
    full = float(dc[-1])
    curve = dc * (post * slot) / frame
    curve.setflags(write=False)
    return {TIME_SPLITTING: (range(post + 1), lambda value: full * (value * slot) / frame),
            UC_SPLITTING: (memoryview(curve), None)}


def _table(protocol: str, cfg: ScenarioConfig):
    """``protocol``'s (values, key) of ``_tables(cfg)``; ValueError for an unknown protocol."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    return _tables(cfg)[protocol]


def harvest_of(protocol: str, cfg: ScenarioConfig):
    """The frame-averaged DC harvest (W) as a function of the allocation value.

    The function takes an integer value 0..vmax: the DC power of the
    absorbing UCs times their harvest time, over the frame. Time splitting
    absorbs on the whole surface for ``value`` slots, UC splitting on
    ``value`` UCs for the whole post-preamble interval, so both protocols'
    full allocations harvest the same, bit for bit. It gives what the solve
    reads. Raises ValueError for an unknown protocol when fetched and for
    any other value when called.
    """
    values, key = _table(protocol, cfg)

    def harvested(value):
        _check_value(value, len(values) - 1)
        return values[value] if key is None else key(value)

    return harvested


def estimate_averages(protocol: str, values, trials: TrialChannels) -> list[tuple[float, float]]:
    """Monte-Carlo average rate (bit/s) of each allocation value and its 95% CI half-width.

    Returns one (average, ci) per entry of ``values``, in their order, and
    [] for none. Each rate is averaged over ``trials``, one draw set that
    callers reuse across allocation values (common random numbers), under
    the configuration it was drawn for; the CI is the normal-approximation
    half-width. Each value is mapped once to the drawn column n it reads
    (``reflecting_ucs``), and each distinct column gives one statistic: the
    mean and sample sd of the per-trial rate of S_n with every
    post-preamble slot carrying data, formed
    ``_ESTIMATE_BLOCK_VALUES // cfg.mc_trials`` columns (at least one) at a
    time, one C-contiguous row per column, each reduced as a 1-D array of
    its rates would be. A value's (average, ci) is that statistic's times
    its payload share, (post - value) / post for time splitting and 1 for UC
    splitting, the same bit for bit whatever list the value comes in.

    Every value is checked before any rate is formed. Raises ValueError
    for an unknown protocol, when a value is not an integer in 0..vmax (a
    bool is not), or when its
    column n was not drawn; and, naming the first such value, when the link
    budget makes an average rate or its CI overflow.
    """
    cfg = trials.cfg
    vmax = len(_table(protocol, cfg)[0]) - 1
    column_of = {ucs: j for j, ucs in enumerate(trials.columns)}
    drawn = []  # (value, its drawn column), in the order of the values
    for value in values:
        _check_value(value, vmax)
        ucs = reflecting_ucs(protocol, value, cfg)
        if ucs not in column_of:
            raise ValueError(f"column n = {ucs} of allocation {value!r} was not drawn")
        drawn.append((value, column_of[ucs]))
    read = sorted({j for _, j in drawn})
    post, n = cfg.frame_slots - cfg.preamble_slots, cfg.mc_trials
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
    for value, j in drawn:
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
    reported. The harvest is nondecreasing in the value, so one C-level
    ``bisect_left`` over 0..vmax gives the left searchsorted of the array
    of every value's harvest, capped at vmax, bit for bit: UC splitting's
    probes read its cached curve and call no Python, time splitting's call
    a key that computes the harvest of v slots, in O(1) memory.
    """
    consumed = total_consumption(p_static, protocol, cfg).total
    values, key = _tables(cfg)[protocol]
    value = bisect_left(values, consumed, 0, len(values) - 1, key=key)
    harvested = values[value] if key is None else key(value)
    status = FEASIBLE if harvested >= consumed else INFEASIBLE
    return AllocationResult(protocol, value, harvested, consumed, status)


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

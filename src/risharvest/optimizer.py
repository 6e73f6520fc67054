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
The optimizer is therefore two steps. The solve (``optimize_*``) reads the
harvest of each allocation value, checked once per configuration to be
finite and nondecreasing in it. The average rate is decreasing in the
allocation, so the optimum is the smallest value whose harvest covers
consumption, found with no channel draw. For UC splitting that is one
``searchsorted`` of the consumed power against the cached curve over k =
0..m_s. Time splitting's harvest is nondecreasing in its slot count, so
it is solved by a bisection over the slot counts, bit for bit as a lookup
in the array over every slot count would be, in O(log vmax) evaluations
and O(1) memory however long the frame. The estimate
(``estimate_averages``) then averages the rate of one allocation value
over one set of channel draws (common random numbers). A sweep solves its
whole grid first, draws once keeping only the prefix columns those solves
read, and estimates each distinct allocation once.

The draw (``draw_trials``) reads its seed and trial count from the
configuration and keeps that configuration, so an estimate always reads the
configuration its draw was made for. Every amplitude is a pure function of
the seed, its trial and its UC (see ``channel``), so a large draw shares
plain chunks of trials out among a few threads and uses every core while
its values depend on the seed alone, not on how many threads drew them or
in which chunks. A trial's running sum over its UCs stops at the last kept
column below m_s, and the full-surface column is the trial's plain sum, so
the running sum does no work past the last column a sweep reads. Each
drawing thread allocates one float64, one uint64 and one float32 buffer and
draws every one of its chunks into them, so a chunk makes no array that
grows with it.
"""

import functools
import math
import os
import threading
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .channel import coherent_snr, sample_amplitudes, shannon_rate
from .harvesting import harvest
from .power import TIME_SPLITTING, UC_SPLITTING, total_consumption
from .scenario import ScenarioConfig

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

# Amplitudes drawn per chunk of trials in draw_trials (at least one trial).
# Each drawing thread draws its chunks into one float64, one uint64 and one
# float32 buffer of this many values each, 20 bytes per amplitude or
# 1.25 MiB, so the draw's peak memory is the prefix plus one set of buffers
# per thread. Larger chunks hand the GIL over fewer times per amplitude: the
# two-thread 10^4-trial 60 x 60 draw took 388-517 ms at 2^15 values, as
# against 336-352 ms at 2^16 and 337-388 ms for the generator-based draw
# this one replaced (in-process, best of 7, four alternating rounds on a
# 2-vCPU AVX-512 machine). 2^17 was a few percent faster again but holds
# 1.25 MiB more per thread.
_DRAW_CHUNK_VALUES = 1 << 16
# Most threads one draw runs on, the calling thread included.
_DRAW_MAX_THREADS = 8
# Fewest amplitudes (trials x UCs) a draw shares out among threads; a smaller
# draw runs on the calling thread alone, which saves the threads' memory. The
# default 10^4 x 225 draw (2.25e6 amplitudes) is still faster on two threads.
_DRAW_THREAD_MIN_VALUES = 1 << 20


@dataclass(frozen=True)
class AllocationResult:
    """The solve at one static power: the best allocation value and its feasibility."""

    protocol: str
    optimal_allocation: int      # eh_slots (time splitting) or k (UC splitting)
    avg_harvested_power: float   # W
    avg_consumed_power: float    # W
    status: str                  # FEASIBLE or INFEASIBLE


@dataclass(frozen=True, eq=False)
class TrialChannels:
    """Amplitude sums of a fixed set of channel draws, shared across candidates.

    ``cfg`` is the configuration the draws were made for. Column j of
    ``amp_prefix`` holds sum_{i<k} |h_i||g_i| with k = ``columns[j]`` for
    each draw in row-major UC order, so the coherent amplitude over the
    complement of the first k UCs is ``amp_total`` minus that column.
    ``columns`` is sorted and always ends with ``cfg.m_s``, whose column is
    the full-surface sum. A full draw keeps every k in 0..m_s; a sweep solves
    its grid from the harvest curves first and keeps only the k those solves
    read. Only amplitudes are drawn, because no computed quantity depends on
    the common LoS phase (see ``channel``). Two draws compare equal only
    when they are the same object, as comparing the arrays elementwise has
    no truth value.
    """

    cfg: ScenarioConfig
    amp_prefix: np.ndarray  # (cfg.mc_trials, len(columns))
    columns: tuple[int, ...]

    @property
    def n_trials(self) -> int:
        return self.amp_prefix.shape[0]

    @property
    def amp_total(self) -> np.ndarray:
        return self.amp_prefix[:, -1]


def draw_trials(cfg: ScenarioConfig, *, columns=None) -> TrialChannels:
    """Draw ``cfg.mc_trials`` channels once, seeded by ``cfg.rng_seed``.

    ``columns`` lists the prefix columns k in 0..m_s to keep; m_s is always
    kept, and None keeps every column. A sweep passes the k its grid solves
    read, so the prefix holds (mc_trials, distinct k + 1) values, not
    (mc_trials, m_s + 1).

    The amplitudes are drawn with ``sample_amplitudes`` in chunks of
    ``_DRAW_CHUNK_VALUES // m_s`` trials (18 on a 60 x 60 surface, 291 on
    15 x 15), each into prefixes of the drawing thread's one (chunk, m_s)
    float64, uint64 and float32 buffers, 20 bytes per amplitude or about
    1.25 MiB together. The thread allocates them before its first chunk and
    reuses them for every chunk after; the amplitudes are computed in place
    in the float64 buffer, so the draw's memory is the prefix plus, per
    thread, one set of buffers, numpy's cast buffers (about 130 KB) and the
    stream's first run of counters (2 KB). Column m_s of a chunk row is the row's
    ``np.sum``; column 0 < k < m_s is entry k - 1 of the row's running sum,
    taken in place over the UCs 1..kmax only, where kmax is the largest kept
    column below m_s, and only the kept columns are copied into the chunk's
    rows. A stored value is therefore the same bit for bit whichever columns
    are kept. A draw of at least ``_DRAW_THREAD_MIN_VALUES`` amplitudes shares
    its chunks out among up to ``_DRAW_MAX_THREADS`` threads, the calling one
    included, capped by the CPUs this process may run on; numpy releases the
    GIL while it makes the words and transforms them. A row depends only on
    the seed and its trial index: not on the trial count, the chunk size,
    the thread count or which thread drew it.
    An exception in any chunk is raised here once every thread has stopped.
    """
    n, m_s = cfg.mc_trials, cfg.m_s
    if columns is None:
        kept = list(range(m_s + 1))
    else:
        for k in columns:
            if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k <= m_s:
                raise ValueError(f"prefix columns must be integers in [0, {m_s}], got {k!r}")
        # A Python set, not np.unique, which imports numpy.ma on first use.
        kept = sorted({int(k) for k in columns} | {m_s})
    # Column m_s is a chunk row's sum, column 0 < k <= kmax is entry k - 1 of
    # its running sum and column 0 stays 0.
    skip = 1 if kept[0] == 0 else 0
    kmax = kept[-2] if len(kept) > 1 else 0
    # Those entries are copied through a slice when the columns are one
    # contiguous range (every column, for one), which makes no temporary; a
    # fancy index copies them into a new array first.
    inner = kept[skip:-1]
    if inner and inner[-1] - inner[0] == len(inner) - 1:
        gather = slice(inner[0] - 1, kmax)
    else:
        gather = np.array(inner) - 1
    prefix = np.zeros((n, len(kept)))
    # A chunk never runs past the last trial, so a longer buffer would only
    # waste memory.
    chunk = max(1, min(_DRAW_CHUNK_VALUES // m_s, n))
    starts = range(0, n, chunk)

    def fill(t0: int, buffers: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        size = min(chunk, n - t0)
        amp = sample_amplitudes(cfg, t0, t0 + size, out=tuple(plane[:size] for plane in buffers))
        rows = prefix[t0 : t0 + size]
        np.sum(amp, axis=1, out=rows[:, -1])
        if kmax:
            running = amp[:, :kmax]
            np.cumsum(running, axis=1, out=running)
            rows[:, skip:-1] = running[:, gather]

    pending, lock, errors = iter(starts), threading.Lock(), []

    def work() -> None:
        try:
            dtypes = (np.float64, np.uint64, np.float32)
            buffers = tuple(np.empty((chunk, m_s), dtype) for dtype in dtypes)
            while not errors:
                with lock:
                    t0 = next(pending, None)
                if t0 is None:
                    return
                fill(t0, buffers)
        except BaseException as exc:  # raised by the caller once every thread is joined
            errors.append(exc)

    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    threads = min(cpus, len(starts), _DRAW_MAX_THREADS) if n * m_s >= _DRAW_THREAD_MIN_VALUES else 1
    workers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for worker in workers:
        worker.start()
    work()
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]
    return TrialChannels(cfg=cfg, amp_prefix=prefix, columns=tuple(kept))


def _allocation_bounds(protocol: str, cfg: ScenarioConfig) -> int:
    if protocol == TIME_SPLITTING:
        return cfg.frame_slots - cfg.preamble_slots
    if protocol == UC_SPLITTING:
        return cfg.m_s
    raise ValueError(f"unknown protocol {protocol!r}")


@functools.lru_cache(maxsize=8)
def _time_splitting_harvest(cfg: ScenarioConfig):
    """Time splitting's frame-averaged DC harvest (W) as a function of its slot count.

    The function takes an integer or an array of slot counts and scales the
    DC power of the whole surface absorbing by their share of the frame. It
    is linear in the slot count; its three operations always run in this
    order, so a slot count gives the same value bit for bit however it is
    evaluated. Cached per configuration.

    Raises ValueError when the harvest is not finite and nondecreasing over
    0..vmax. Each of its rounded operations is monotone in the slot count,
    so that holds exactly when its value at vmax is finite and >= 0; only
    the error message searches for the first bad slot count, in O(log vmax)
    evaluations.
    """
    full = float(harvest(cfg)[-1])
    slot, frame = cfg.slot_duration, cfg.frame_duration

    def harvested(slots):
        return ((slots * slot) * full) / frame

    def bad(slots: int) -> bool:
        return not 0.0 <= harvested(slots) < math.inf

    vmax = _allocation_bounds(TIME_SPLITTING, cfg)
    if bad(vmax):
        first = bisect_left(range(vmax + 1), True, key=bad)
        raise ValueError(
            f"{TIME_SPLITTING} harvest curve is not finite and nondecreasing at allocation {first}"
        )
    return harvested


@functools.lru_cache(maxsize=8)
def harvest_curve(cfg: ScenarioConfig) -> np.ndarray:
    """UC splitting's frame-averaged DC harvest (W) for every k = 0..m_s.

    Entry k scales ``harvest(cfg)[k]`` by the post-preamble interval, so the
    full allocation agrees bit for bit with time splitting's. The array is
    read-only and cached per configuration. Raises ValueError when the curve
    is not finite and nondecreasing, because the optimizer's lookup relies
    on both.
    """
    curve = harvest(cfg)
    # In place, so that no full-length temporaries pile up.
    curve *= (cfg.frame_slots - cfg.preamble_slots) * cfg.slot_duration
    curve /= cfg.frame_duration
    bad = ~np.isfinite(curve)
    bad[1:] |= curve[1:] < curve[:-1]
    if bad.any():
        raise ValueError(
            f"{UC_SPLITTING} harvest curve is not finite and nondecreasing "
            f"at allocation {int(np.argmax(bad))}"
        )
    curve.setflags(write=False)
    return curve


def estimate_averages(protocol: str, value: int, trials: TrialChannels) -> tuple[float, float]:
    """Monte-Carlo average rate (bit/s) of one allocation value and its 95% CI half-width.

    The rate is averaged over ``trials``, one draw set that callers reuse
    across allocation values (common random numbers), under the
    configuration it was drawn for; the CI is the normal-approximation
    half-width. Raises ValueError when ``value`` is not an integer in
    0..vmax (a bool is not), when ``trials`` lacks the prefix column of a
    UC-splitting value, or when the link budget makes the average rate or
    its CI overflow.
    """
    cfg = trials.cfg
    vmax = _allocation_bounds(protocol, cfg)
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and 0 <= value <= vmax):
        raise ValueError(f"allocation value must be an integer in [0, {vmax}], got {value!r}")
    if protocol == TIME_SPLITTING:
        payload_slots = cfg.frame_slots - cfg.preamble_slots - value
        amplitude = trials.amp_total
    else:
        payload_slots = cfg.frame_slots - cfg.preamble_slots
        column = bisect_left(trials.columns, value)
        if trials.columns[column] != value:
            raise ValueError(f"prefix column k = {value} was not drawn")
        amplitude = trials.amp_total - trials.amp_prefix[:, column]
    # Overflow is reported below as a non-finite result, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        rates = shannon_rate(payload_slots, coherent_snr(amplitude, cfg), cfg)
        average = float(rates.mean())
        n = trials.n_trials
        ci = 1.96 * float(rates.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    if not (math.isfinite(average) and math.isfinite(ci)):
        raise ValueError(
            f"{protocol} at allocation {value!r}: the average rate ({average}) "
            f"or its CI ({ci}) is not finite; the link budget overflows"
        )
    return average, ci


def _solve(protocol: str, p_static: float, cfg: ScenarioConfig) -> AllocationResult:
    consumed = total_consumption(p_static, protocol, cfg).total
    # First value whose harvest covers consumption, ties included; none
    # means even the full allocation falls short and reports it.
    if protocol == TIME_SPLITTING:
        # The harvest is nondecreasing in the slot count, so a bisection over
        # 0..vmax gives the left searchsorted of an array over every slot
        # count bit for bit, in O(log vmax) evaluations and without the array.
        harvested_by = _time_splitting_harvest(cfg)
        vmax = _allocation_bounds(TIME_SPLITTING, cfg)
        value = bisect_left(range(vmax + 1), consumed, 0, vmax, key=harvested_by)
        harvested = harvested_by(value)
    else:
        curve = harvest_curve(cfg)
        value = min(int(np.searchsorted(curve, consumed, side="left")), curve.size - 1)
        harvested = float(curve[value])
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
    harvest-curve entry covers consumption maximizes the average rate.
    Reports k = m_s with INFEASIBLE status when even the whole surface cannot
    cover consumption.
    """
    return _solve(UC_SPLITTING, p_static, cfg)

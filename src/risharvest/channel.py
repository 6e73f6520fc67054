"""Cascaded TX-RIS and RIS-RX channel amplitudes, SNR and rate.

The link budget these scale is derived and validated by ``ScenarioConfig``:
|h|^2 (``free_space_uc_gain``), E|g|^2 (``mean_ris_rx_gain``), the per-UC
absorbed power and the noise power. The TX side is deterministic free space
under far-field plane-wave incidence, so every UC sees the same |h|^2. The
RIS-RX side is Rician with i.i.d. diffuse components across UCs. Every
quantity the package computes from the link uses only the amplitudes
|h||g_i|, so only sums of them are drawn. A common
line-of-sight phase theta is not drawn either: CN(0,1) is circularly
symmetric, so |c e^{j theta} + sigma d_i| has the same joint law as
|c + sigma d_i e^{-j theta}|, which does not depend on theta.

The words are counter-based: trial t reads, for UC i (1-based), output
number t m_s + i of a SplitMix64 stream (Steele, Lea and Flood, OOPSLA
2014) whose state starts at the seed, that is the state
seed + (t m_s + i) gamma mod 2^64 passed through the finalizer of
Vigna's ``splitmix64.c``. Every word is thus a pure function of (seed,
trial, UC) and a block of words is a fixed handful of whole-array numpy
``uint64`` operations on its counters, with no generator state to carry
between blocks (see Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11, for counter-based streams). Streams of seeds that differ
by up to 2 10^6 start at least 3.98e12 words apart, far more than any draw
reads, so the seed itself is the state; seeds further apart can share
words (the stream of seed + gamma is the stream of seed one word on).

The Monte-Carlo draw (``draw_trials``) lives here too. It reads its seed
and trial count from the configuration and keeps that configuration in the
``TrialChannels`` it returns, so an estimate always reads the configuration
its draw was made for. Of each trial it keeps only the running sums over
the UCs at the prefix lengths n a caller asks for, and the full-surface
sum: column n is S_n, the coherent sum of the first n UCs, which a rate
reads when those n reflect. Between two kept columns lo < hi lies the sum
of the amplitudes of UCs lo + 1..hi, i.i.d. and independent of every other
such segment, so the draw forms no amplitude it does not keep: it draws
each segment as one value from the one word of its first UC, UC lo + 1.
The value is that of the law of a sum of hi - lo Rice amplitudes
(``_tail_table``, one law per length) that the word's top 53 bits pick by
its inverse CDF, found through a guide table (Chen and Asau, 1974).
Every law of one K is built from one amplitude's masses on narrow cells,
evaluated once per K (``_rice_cells``): the law of one UC is those cells,
and a longer segment's is a lattice law of the sum, built from them by
rFFT. A trial thus costs one word per kept column, whatever m_s,
and a kept column depends only on the seed, its trial and the kept
columns at or below it. The draw runs on the calling thread, a block of
trials at a time, so its temporaries do not grow with the trial count,
and it holds one law at a time.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .scenario import ScenarioConfig

_MASK64 = (1 << 64) - 1
# SplitMix64's increment, the golden ratio in 64-bit fixed point, and the
# shifts and multipliers of its finalizer (Vigna's splitmix64.c).
_GAMMA = 0x9E3779B97F4A7C15
_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, None))
# Words drawn per block of trials in draw_trials (at least one trial). A
# block's temporaries take at most 32 bytes a word, 512 KiB, whatever the
# trial count and m_s. Blocks of 2^16 words were no faster in CLI sweeps of
# the three benchmark workloads, and they raised the peak RSS of the
# 1000-trial edge sweep, which their temporaries set, by 0.8 MiB.
_DRAW_BLOCK_VALUES = 1 << 14

# The law of a sum of n unit-power Rice amplitudes (_tail_table), in units of
# sigma about the LoS amplitude c: one amplitude is cut to c +- 8 sigma on
# cells _TAIL_UNIT wide; the sum's table has 2^13 points spanning at least
# 24 sqrt(n), at least 24 of its standard deviations; a law's cells are at
# most 1/32 wide.
_TAIL_CUT = 8.0
_TAIL_CELLS = 1 << 13
_TAIL_WINDOW = 12.0
_TAIL_UNIT = 2.0 * _TAIL_WINDOW * math.sqrt(2.0) / _TAIL_CELLS
_TAIL_GROUP = math.floor(1.0 / 32.0 / _TAIL_UNIT)  # 7 cells to a law's cell at most
# The three-point Gauss-Legendre rule on a cell [-1/2, 1/2]: (node, weight) pairs.
_GAUSS_RULE = ((-math.sqrt(0.15), 5.0 / 18.0), (0.0, 8.0 / 18.0), (math.sqrt(0.15), 5.0 / 18.0))


def _splitmix64(seed: int, counters: np.ndarray) -> np.ndarray:
    """Turn the uint64 array ``counters`` into SplitMix64 outputs of ``seed``, in place, and return it.

    Counter c becomes output number c of the stream whose state starts at
    ``seed``: the state seed + c gamma mod 2^64 passed through the
    finalizer. Scalar keys are Python ints masked to 64 bits, and every
    ufunc gets ``np.uint64`` scalars, so no scalar overflow warns and no
    operand is promoted to float; the arrays wrap silently.
    """
    scratch = np.empty_like(counters)  # the finalizer's xor-shifts
    counters *= np.uint64(_GAMMA)
    counters += np.uint64(seed & _MASK64)
    for shift, multiplier in _MIX:
        np.right_shift(counters, np.uint64(shift), out=scratch)
        np.bitwise_xor(counters, scratch, out=counters)
        if multiplier is not None:
            counters *= np.uint64(multiplier)
    return counters


def _words(cfg: ScenarioConfig, start: int, stop: int, ucs: np.ndarray) -> np.ndarray:
    """The words of trials [start, stop) at the 1-based UCs ``ucs``, a uint64 array.

    Returns a new (stop - start, len(ucs)) uint64 array whose entry
    (t - start, j) is output number t m_s + ucs[j] of the stream of
    ``cfg.rng_seed``, the word of UC ucs[j] of trial t.
    """
    counters = np.add.outer(np.arange(start, stop, dtype=np.uint64) * np.uint64(cfg.m_s), ucs)
    return _splitmix64(cfg.rng_seed, counters)


def _rice_density(z: np.ndarray, beta: float) -> np.ndarray:
    """The density of z = (|g| - c) / sigma for a unit-power Rice amplitude |g|, at z >= -beta.

    beta = c / sigma = sqrt(2 K). With x = beta + z = |g| / sigma, the Rice
    density x exp(-(x^2 + beta^2) / 2) I0(beta x) is x exp(-z^2 / 2) I0e(y)
    with I0 scaled by e^{-y}, y = beta x, so nothing overflows at any finite
    K. Up to y = 700 numpy's I0 gives I0e; above it x I0e(y) is
    sqrt(x / (2 pi beta)) times the asymptotic series sum_k a_k,
    a_0 = 1, a_k = a_{k-1} (2k - 1)^2 / (8 k y), whose first seven terms
    leave a relative error below 1e-19 there.
    """
    x = beta + z
    with np.errstate(over="ignore"):  # y is inf only where beta^2 overflows, and 1 / y is then 0
        y = beta * x
    small = y <= 700.0
    scaled = np.empty_like(z)
    scaled[small] = x[small] * np.i0(y[small]) * np.exp(-y[small])
    large = y[~small]
    term, series = np.ones_like(large), np.ones_like(large)
    for k in range(1, 7):
        term *= (2 * k - 1) ** 2 / (8.0 * k) / large
        series += term
    scaled[~small] = np.sqrt(x[~small] / beta / (2.0 * math.pi)) * series
    return scaled * np.exp(-0.5 * z * z)


@functools.lru_cache(maxsize=8)
def _rice_cells(k: float) -> tuple[np.ndarray, float]:
    """Masses of one unit-power Rice amplitude at finite K on cells ``_TAIL_UNIT`` wide, and their lower end.

    z = (|g| - c) / sigma is cut to [low, 8], low = max(-8, -beta), dropping
    below e^{-32} = 1.3e-14 (|z| is at most a complex normal's modulus); cell
    i spans low + [i, i + 1] h, so no index grows with K. Each mass is a
    three-point Gauss-Legendre rule of ``_rice_density``, one node at a time;
    they sum to 1, cached per K, read-only.
    """
    beta = math.sqrt(2.0) * math.sqrt(k)
    low = max(-_TAIL_CUT, -beta)
    centres = low + _TAIL_UNIT * (np.arange(math.ceil((_TAIL_CUT - low) / _TAIL_UNIT)) + 0.5)
    mass = sum(w * _rice_density(centres + _TAIL_UNIT * z, beta) for z, w in _GAUSS_RULE)
    mass /= mass.sum()
    mass.setflags(write=False)
    return mass, low


def _tail_table(k: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The law of a sum of n i.i.d. unit-power Rice amplitudes at Rician factor k, as a table.

    Returns (cdf, values), both nondecreasing: a uniform u in [0, 1) draws
    ``values[searchsorted(cdf, u, side="right")]``, every value >= 0, and
    cdf[-1] is exactly 1. K = inf gives the point mass n c, c = 1, as one
    entry. At finite K the table is built from ``_rice_cells(k)``, cells h
    wide in units of sigma, so a law is a pure function of (K, n). One
    amplitude (n = 1) is those cells, each valued c + sigma times its
    centre, with no transform. For n >= 2 the table is a lattice of the
    sum's law in units of sigma about n c. With s0 = ceil(sqrt(n / 2)),
    r = ceil(s0 / 7) and q = ceil(s0 / r), it is a cyclic window of 2^13
    points q r h >= 24 sqrt(n) / 2^13 apart, from 12 sqrt(n) below n E[z]
    (or the sum's lower end, if higher). One amplitude is taken on cells of
    q summed, at most 1/32 wide, so the transform of their masses at the
    window's frequencies is r rFFTs of 2^13 points (1 up to n = 98).
    Dividing out the transform of a cell's box gives one amplitude's
    characteristic function, whose n-th power the inverse rFFT turns into
    the sum's density at the window's points; each point carries that
    density. (The n-th power of the cells' own transform would be a sum of
    n rounded amplitudes, n cells^2 / 12 too wide in variance.)

    Error bound. The window leaves out below 2 e^{-72} (z is 1-Lipschitz in
    the amplitude's two normals, so the sum is sub-Gaussian about its mean
    with variance proxy n), which lands on its other end; the cut drops
    1.3e-14; a drawn value is within half a spacing of the exact law's
    quantile at the same u. Against the Rice moments (scipy), K in
    {0, 0.5, 2, 10, 100, 1e3, 1e6}: at n = 1, the mean within 1.6e-13 of a
    standard deviation, and the variance within 6.4e-10 of the Rice
    variance plus (h sigma)^2 / 12, the Sheppard excess of cells h sigma
    wide (1.4e-6 to 3.3e-6 of the Rice variance); at every n from 2 to
    400 and 60 more up to 10^6, the variance within 5.2e-8 of n times the
    Rice variance, and the mean within 1.3e-10 of a standard deviation of
    n times the Rice mean up to K = 1e3, 1.3e-9 at K = 1e6 (float64
    rounding of the transforms, growing with n).
    """
    diffuse = 1.0 / (k + 1.0)
    los, sigma = math.sqrt(1.0 - diffuse), math.sqrt(diffuse / 2.0)
    if sigma == 0.0:
        return np.ones(1), np.array([n * los])
    fine, low = _rice_cells(k)
    if n == 1:
        cdf = np.cumsum(fine)
        cdf /= cdf[-1]
        return cdf, los + sigma * (low + _TAIL_UNIT * (np.arange(fine.size) + 0.5))
    least = math.isqrt((n + 1) // 2 - 1) + 1  # ceil(sqrt(n / 2))
    split = -(-least // _TAIL_GROUP)  # cells per window spacing, r
    group = -(-least // split)  # shared cells per cell, q
    cell, width = group * _TAIL_UNIT, group * split * _TAIL_UNIT
    mass = np.add.reduceat(fine, np.arange(0, fine.size, group))
    centres = low + cell * (np.arange(mass.size) + 0.5)
    from numpy import fft  # loaded here, so that importing the package does not load it

    freq = np.arange(_TAIL_CELLS // 2 + 1)
    spectrum = fft.rfft(mass[::split], _TAIL_CELLS)
    for b in range(1, min(split, mass.size)):
        phase = np.exp(-2j * math.pi * b / (split * _TAIL_CELLS) * freq)
        spectrum += fft.rfft(mass[b::split], _TAIL_CELLS) * phase
    with np.errstate(divide="ignore"):  # a zero bin stays 0
        power = n * (np.log(np.abs(spectrum)) - np.log(np.sinc(freq / (split * _TAIL_CELLS))))
    np.minimum(power, 0.0, out=power)  # a characteristic function is at most 1 in modulus
    window = fft.irfft(np.exp(power + 1j * n * np.angle(spectrum)), _TAIL_CELLS)
    # Point i of the window is n centres[0] + i width, modulo the window.
    origin = n * centres[0]
    lowest = max(n * low, n * float(mass @ centres) - _TAIL_WINDOW * math.sqrt(n))
    first = math.floor((lowest - origin) / width)
    mass = np.maximum(np.roll(window, -(first % _TAIL_CELLS)), 0.0)
    sums = origin + width * (first + np.arange(_TAIL_CELLS))
    cdf = np.cumsum(mass)
    cdf /= cdf[-1]
    return cdf, np.maximum(n * los + sigma * sums, 0.0)


def _guide(cdf: np.ndarray) -> np.ndarray:
    """The guide table of ``cdf`` (Chen and Asau, 1974): entry j is the first index whose cdf exceeds j 2^-13.

    That is the number of entries with ceil(cdf 2^13) <= j, as 2^13 scales exactly.
    """
    counts = np.bincount(np.ceil(cdf * _TAIL_CELLS).astype(np.intp), minlength=_TAIL_CELLS + 1)
    return np.cumsum(counts[:_TAIL_CELLS])


def _guided_search(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``searchsorted(cdf, u, side="right")`` for uniforms u in [0, 1), the same bit for bit, through ``guide``.

    ``cdf`` is nondecreasing with cdf[-1] = 1, so the index sought, the
    first whose cdf exceeds u, is below len(cdf). It is at least the guide
    entry of u's 2^-13-wide cell, which a uniform u picks in O(1), and is
    found there or one step on for all but about 1% of u (where the table's
    tail puts many entries in one cell); those few are searched in full.
    The cells are exact multiples of 2^-13, so no u is placed past its index.
    """
    index = guide[(u * _TAIL_CELLS).astype(np.intp)]
    index += cdf[index] <= u
    late = cdf[index] <= u
    index[late] = np.searchsorted(cdf, u[late], side="right")
    return index


def _draw_segments(cfg: ScenarioConfig, length: int, segments, prefix: np.ndarray) -> None:
    """Write into ``prefix`` the value of each of ``segments``, every one of ``length`` UCs, for every trial.

    ``segments`` lists (column, first UC) pairs: column j of trial t gets
    the sum of |h||g_i| over UCs f..f + length - 1 (1-based), drawn from one
    SplitMix64 word, output number t m_s + f. The word's top 53 bits are a
    uniform u in [0, 1) that picks a value of ``_tail_table(K, length)`` by
    its inverse CDF, scaled by sqrt(|h|^2 E|g|^2). The trials are drawn
    ``_DRAW_BLOCK_VALUES // len(segments)`` at a time, so the words, the
    uniforms and the lookup's indices of one block, at most 32 bytes a
    word, are the only temporaries beside the law.
    """
    columns = [j for j, _ in segments]
    ucs = np.array([f for _, f in segments], np.uint64)
    cdf, values = _tail_table(cfg.rician_k, length)
    values *= math.sqrt(cfg.free_space_uc_gain * cfg.mean_ris_rx_gain)
    guide = _guide(cdf)
    block = max(1, _DRAW_BLOCK_VALUES // len(columns))
    for start in range(0, cfg.mc_trials, block):
        stop = min(start + block, cfg.mc_trials)
        words = _words(cfg, start, stop, ucs)
        words >>= np.uint64(11)
        uniform = words.view(np.int64) * 2.0**-53  # below 2^53, so exact as int64 and float64
        del words  # before the lookup, so that a block holds at most 32 bytes a word
        prefix[start:stop, columns] = values[_guided_search(cdf, guide, uniform)]


class TrialChannels(NamedTuple):
    """Amplitude sums of a fixed set of channel draws, shared across candidates.

    ``cfg`` is the configuration the draws were made for, and its
    ``mc_trials`` is their number: ``amp_prefix`` has one row per draw.
    Column j of ``amp_prefix`` holds S_n = sum_{i<=n} |h_i||g_i| over the
    first n UCs in row-major order, n = ``columns[j]``, for each draw: the coherent
    amplitude when those n UCs reflect. ``columns`` is sorted and always
    ends with ``cfg.m_s``, the full surface. Each column is the one below it
    plus the sum of the UCs between the two, drawn as one value of that
    sum's law, a single UC's included (see ``draw_trials``). A sweep solves
    its grid from the harvest first and keeps only the n those solves read.
    Only amplitude sums are drawn, because no computed quantity depends on
    the common LoS phase (see the module docstring). Two draws compare equal only when
    they are the same object, as comparing the arrays elementwise has no
    truth value.
    """

    cfg: ScenarioConfig
    amp_prefix: np.ndarray  # (cfg.mc_trials, len(columns))
    columns: tuple[int, ...]

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def draw_trials(cfg: ScenarioConfig, *, columns) -> TrialChannels:
    """Draw ``cfg.mc_trials`` channels once, seeded by ``cfg.rng_seed``.

    ``columns`` lists the prefix columns n in 0..m_s to keep, column n
    holding the coherent sum S_n of UCs 1..n; m_s is always kept, and
    ``range(m_s + 1)`` keeps every column. A sweep passes the n of UCs its
    grid solves leave reflecting, so the prefix holds (mc_trials, distinct
    n + 1) values, not (mc_trials, m_s + 1).

    Each kept column n > 0 is the kept column lo below it (0 for the first)
    plus the segment of UCs lo + 1..n, which ``_draw_segments`` draws per
    trial as one value from the word of UC lo + 1: a value of the law of a
    sum of n - lo i.i.d. Rice amplitudes (``_tail_table``, whose docstring
    bounds its error), one amplitude's cells for n - lo = 1. Column 0
    stays 0. The segments are drawn a length at a time, each law built once
    and freed before the next, and the prefix is then their running sum.
    The draw's memory is thus the prefix, one block of temporaries
    (``_DRAW_BLOCK_VALUES``) and one law of a few hundred KiB, whatever m_s.

    A row depends only on the seed and its trial index, not on the trial
    count or the block size, and a kept column only on the kept columns at
    or below it: a column holds the running sum of its segments' values,
    which depend on where each segment starts. A draw that keeps every
    column holds the running sums of one cell value per UC and needs no
    transform. K = inf gives exactly L times the LoS gain for a segment of
    L UCs.
    """
    m_s = cfg.m_s
    # One pass over ``columns``, which may be a one-shot iterable, into a
    # Python set: not np.unique, which imports numpy.ma on first use.
    kept = {m_s}
    for n in columns:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 0 <= n <= m_s:
            raise ValueError(f"prefix columns must be integers in [0, {m_s}], got {n!r}")
        kept.add(int(n))
    kept = sorted(kept)
    segments = {}  # length -> (column, first UC) of each segment
    for column, (lo, n) in enumerate(zip([0, *kept], kept)):
        if n > lo:
            segments.setdefault(n - lo, []).append((column, lo + 1))
    prefix = np.zeros((cfg.mc_trials, len(kept)))
    for length, starts in segments.items():
        _draw_segments(cfg, length, starts, prefix)
    np.cumsum(prefix, axis=1, out=prefix)
    return TrialChannels(cfg=cfg, amp_prefix=prefix, columns=tuple(kept))


def coherent_snr(amplitude, cfg: ScenarioConfig):
    """SNR of a coherent amplitude sum A = sum_i |h_i||g_i|: P_t * A^2 / N.

    ``amplitude`` may be a scalar or an array of per-draw sums.
    """
    return cfg.tx_power * amplitude**2 / cfg.noise_power


def shannon_rate(payload_slots: int, snr, cfg: ScenarioConfig):
    """Frame-averaged rate (bits/s) when ``payload_slots`` slots carry data.

    ``snr`` may be a scalar or an array of per-draw SNRs.
    """
    return (payload_slots / cfg.frame_slots) * cfg.bandwidth * np.log2(1.0 + snr)

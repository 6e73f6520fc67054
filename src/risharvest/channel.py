"""Cascaded TX-RIS and RIS-RX channel amplitudes, SNR and rate.

The link budget these scale is derived and validated by ``ScenarioConfig``:
|h|^2 (``free_space_uc_gain``), E|g|^2 (``mean_ris_rx_gain``), the per-UC
absorbed power and the noise power. The TX side is deterministic free space
under far-field plane-wave incidence, so every UC sees the same |h|^2. The
RIS-RX side is Rician with i.i.d. diffuse components across UCs. Every
quantity the package computes from the link uses only the amplitudes
|h||g_i|, so only those are drawn. A common
line-of-sight phase theta is not drawn either: CN(0,1) is circularly
symmetric, so |c e^{j theta} + sigma d_i| has the same joint law as
|c + sigma d_i e^{-j theta}|, which does not depend on theta.

The diffuse part is never formed as two normals. By the Box-Muller
transform (Box and Muller, 1958), R = sqrt(-2 log(1 - u1)) and an angle
uniform on [0, 2 pi) give a pair of independent standard normals
(R cos, R sin), and |c + sigma (x + j y)|^2 = c^2 + 2 c sigma x + sigma^2 R^2
reads the angle only through the cosine in x. cos(2 pi u), cos(pi u) and
-cos(pi u) share one (arcsine) law, so one uniform u2 on [0, 1) serves,
and c^2 + sigma^2 R^2 - 2 c sigma R cos(pi u2) is written in its half-angle
form (c - sigma R)^2 + 4 c sigma R sin^2(pi u2 / 2), a sum of two
nonnegative terms that loses nothing to cancellation. Each amplitude thus
costs one random 64-bit word, a float64 log for its radius, a float32 sine
for its angle, and two square roots.

The words are counter-based: the amplitude of trial t at UC i reads output
number t m_s + i + 1 of a SplitMix64 stream (Steele, Lea and Flood, OOPSLA
2014) whose state starts at the seed, that is the state
seed + (t m_s + i + 1) gamma mod 2^64 passed through the finalizer of
Vigna's ``splitmix64.c``. Every word is thus a pure function of (seed,
trial, UC) and a chunk of trials is a fixed handful of whole-array numpy
``uint64`` operations, with no generator state to carry between chunks or
threads (see Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11, for counter-based streams). Streams of seeds that differ by up to
2 10^6 start at least 3.98e12 words apart, far more than any draw reads, so
the seed itself is the state; seeds further apart can share words (the
stream of seed + gamma is the stream of seed one word on).

The Monte-Carlo draw (``draw_trials``) lives here too. It reads its seed
and trial count from the configuration and keeps that configuration in the
``TrialChannels`` it returns, so an estimate always reads the configuration
its draw was made for. Of each trial it keeps only the running sums over
the UCs at the prefix lengths k a caller asks for, and the full-surface
sum. ``TrialChannels.reflecting_sum(k)`` turns them into the coherent sum of
the UCs still reflecting when the first k absorb, the one layout-dependent
quantity a rate estimate reads. The draw therefore draws amplitudes one by
one only for UCs 1..kmax, kmax the largest kept k below m_s: the other
m_s - kmax UCs feed the full-surface sum alone, so their sum is drawn as one
value from its law (``_tail_table``), from the one word of UC kmax + 1. A
kept column below m_s is thus the same bit for bit whichever columns are
kept, while the full-surface column depends on kmax. Because every value is
a pure function of (seed, trial, UC), a large draw shares plain chunks of
trials out among a few threads and uses every core, while its values depend
on the seed alone, not on how many threads drew them or in which chunks.
Each drawing thread allocates one float64, one uint64 and one float32 buffer
and hands every one of its chunks to the private kernel ``_sample_into``,
which computes the amplitudes in place in them, so a chunk makes no array
that grows with it; ``sample_amplitudes`` runs the same kernel on fresh
arrays.
"""

import math
import os
import threading
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .scenario import ScenarioConfig

_MASK64 = (1 << 64) - 1
# SplitMix64's increment, the golden ratio in 64-bit fixed point, and the
# shifts and multipliers of its finalizer (Vigna's splitmix64.c).
_GAMMA = 0x9E3779B97F4A7C15
_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, None))
# A word's top 24 bits are its angle integer, its low 40 bits its radius integer.
_RADIUS_BITS = 40
# pi/2 as numpy's float32 rounds it, scaled to the 2^-24 grid of the angle
# integer; exact in float32, so the angle integer times it rounds as the
# float32 uniform k 2^-24 times float32(pi/2) does.
_HALF_PI_STEP = float(np.float32(math.pi / 2.0)) * 2.0**-24
# Counters _splitmix64 makes before it doubles the run it has.
_HEAD_WORDS = 256

# Amplitudes drawn per chunk of trials in draw_trials (at least one trial).
# Each drawing thread draws its chunks into one set of buffers of this many
# values each, 1.25 MiB, so the draw's peak memory is the prefix plus one
# set of buffers per thread. Larger chunks hand the GIL over fewer times per
# amplitude: the two-thread 10^4-trial 60 x 60 draw took 388-517 ms at 2^15
# values, as against 336-352 ms at 2^16 and 337-388 ms for the
# generator-based draw this one replaced (in-process, best of 7, four
# alternating rounds on a 2-vCPU AVX-512 machine). 2^17 was a few percent
# faster again but holds 1.25 MiB more per thread.
_DRAW_CHUNK_VALUES = 1 << 16
# Most threads one draw runs on, the calling thread included.
_DRAW_MAX_THREADS = 8
# Fewest amplitudes the kernel draws (trials x kmax, the UCs up to the largest
# kept column below m_s) that a draw shares out among threads; a smaller draw
# runs on the calling thread alone, which saves the threads' memory. A 10^4 x
# 225 draw (2.25e6 amplitudes) was still faster on two threads.
_DRAW_THREAD_MIN_VALUES = 1 << 20

# The law of a sum of n unit-power Rice amplitudes (_tail_table), in units of
# sigma about the LoS amplitude c: one amplitude is cut to c +- 8 sigma; the
# sum's table has 2^13 cells spanning 24 sqrt(n), at least 24 of its standard
# deviations, as one amplitude's is at most sigma; and one amplitude's cells
# are at most 1/32 wide.
_TAIL_CUT = 8.0
_TAIL_CELLS = 1 << 13
_TAIL_WINDOW = 12.0
_TAIL_FINE_CELL = 1.0 / 32.0
# The three-point Gauss-Legendre rule on a cell [-1/2, 1/2]: (node, weight) pairs.
_GAUSS_RULE = ((-math.sqrt(0.15), 5.0 / 18.0), (0.0, 8.0 / 18.0), (math.sqrt(0.15), 5.0 / 18.0))


def _splitmix64(seed: int, first: int, words: np.ndarray, scratch: np.ndarray, stride=None) -> None:
    """Fill the C-contiguous (rows, width) uint64 array ``words`` with SplitMix64 outputs of ``seed``.

    Entry (r, i) gets output number first + r stride + i + 1 of the stream
    whose state starts at ``seed``; ``stride`` defaults to the width, so flat
    entry f gets output first + f + 1. ``scratch`` is a uint64 array of the
    same shape that the finalizer's xor-shifts overwrite. Scalar keys are
    Python ints masked to 64 bits, and every ufunc gets ``np.uint64``
    scalars, so no scalar overflow warns and no operand is promoted to
    float; the arrays wrap silently.
    """
    if not words.size:
        return
    width = words.shape[1]
    stride = width if stride is None else stride
    row = words[0]
    # The states seed + (first + r stride + i + 1) gamma: a short run of
    # counters, then the run so far shifted by its own length, doubling it
    # each time, along the first row and then down the rows. That makes no
    # counter array beyond the first run; a broadcast sum of a row and a
    # column of counters was slower.
    head = min(width, _HEAD_WORDS)
    np.multiply(np.arange(1, head + 1, dtype=np.uint64), np.uint64(_GAMMA), out=row[:head])
    row[:head] += np.uint64((seed + first * _GAMMA) & _MASK64)
    for run, offset, step in ((row, head, 1), (words, 1, stride)):
        done = offset
        while done < len(run):
            size = min(done, len(run) - done)
            np.add(run[:size], np.uint64(done * step * _GAMMA & _MASK64), out=run[done : done + size])
            done += size
    for shift, multiplier in _MIX:
        np.right_shift(words, np.uint64(shift), out=scratch)
        np.bitwise_xor(words, scratch, out=words)
        if multiplier is not None:
            np.multiply(words, np.uint64(multiplier), out=words)


def sample_amplitudes(cfg: ScenarioConfig, start: int, stop: int) -> np.ndarray:
    """Draw the channels of trials [start, stop): a new (stop - start, m_s) array of |h||g_i|.

    |g_i| = sqrt(E[|g|^2]) sqrt((c - sigma R)^2 + 4 c sigma R sin^2(pi v / 2))
    with c = sqrt(K/(K+1)), sigma^2 = 1/(2(K+1)) per diffuse component and
    R = sqrt(-2 log(1 - u)): the Box-Muller magnitude of
    |c + sigma (x + j y)| for standard normals x, y (see the module
    docstring). The uniforms of trial t at UC i come from one SplitMix64
    word of ``cfg.rng_seed``, output number t m_s + i + 1: its top 24 bits
    are the angle integer k, v = k 2^-24, and its low 40 bits the radius
    integer j, u = j 2^-40. A row is therefore a function of the seed and
    its trial index alone, and trials [a, b) then [b, c) equal trials
    [a, c). An infinite K gives sigma = 0, so the amplitude is c = 1 before
    the final scaling by sqrt(|h|^2 E|g|^2), the pure LoS gain exactly.

    u lies on a 2^-40 grid, so 1 - u >= 2^-40 and R <= sqrt(80 ln 2), about
    7.45: the draw truncates the Rayleigh tail beyond that, which holds
    2^-40 (about 9e-13) of the mass.

    The radius and the sum are float64; the angle is float32 throughout.
    k is exact in float32 and v lies on the 2^-24 grid of numpy's float32
    uniforms, and pi v / 2, its sine, the square and the factor 4c are
    float32 with numpy's SIMD float32 kernels. The product with sigma R runs
    in float64 and is rounded to float32 once. The sine enters only the
    nonnegative second term, so the float32 roundings stay relative: each
    amplitude is within about 2.1e-7 of the float64 transform of the same
    uniforms, relative to itself (at most 2.08e-7 over 2.9e7 amplitudes at
    K in {0.5, 1, 2, 10}, on numpy's AVX-512, AVX2 and baseline kernels
    alike; 0 at K = inf), far below the Monte-Carlo error of any average.
    The words are exact integers on every machine, but the last bits of an
    amplitude depend on which SIMD kernels numpy dispatches for the sine,
    the log and the square roots.

    Raises ValueError when ``start`` or ``stop`` is not an integer (a bool
    is not), when ``start`` is negative or when ``stop`` is below it.
    """
    for name, bound, least in (("start", start, 0), ("stop", stop, start)):
        if isinstance(bound, bool) or not isinstance(bound, (int, np.integer)) or bound < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {bound!r}")
    # Python ints on, so that no numpy integer scalar reaches the stream's key arithmetic.
    start, stop = int(start), int(stop)
    return _sample_into(cfg, start, _buffers(stop - start, cfg.m_s))


def _buffers(n: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """New (n, width) float64, uint64 and float32 buffers for ``_sample_into``, 20 B per value."""
    return np.empty((n, width)), np.empty((n, width), np.uint64), np.empty((n, width), np.float32)


def _sample_into(cfg: ScenarioConfig, start: int, buffers) -> np.ndarray:
    """The first ``width`` UCs of ``sample_amplitudes`` of trials [start, start + n), in ``buffers``.

    ``buffers`` is three C-contiguous (n, width) arrays as ``_buffers`` makes
    them, width <= m_s: UC i of trial t still reads word t m_s + i + 1, so
    the UCs drawn agree bit for bit with a full-width call. The words are
    made in the uint64 array with the float64 one as the
    finalizer's scratch, all three are overwritten, and the amplitudes are
    returned in the float64 one. A thread of ``draw_trials`` thus draws
    every chunk into one set of buffers: a call makes only a first run of
    256 counters (2 KB), and the float64 loop over the float32 plane casts
    through numpy's ufunc buffers, about 130 KB at numpy's default buffer
    size whatever the chunk.
    """
    diffuse = 1.0 / (cfg.rician_k + 1.0)  # diffuse share of E[|g|^2]; 0 at K = inf
    los, sigma = math.sqrt(1.0 - diffuse), math.sqrt(diffuse / 2.0)
    radius, words, sines = buffers
    _splitmix64(cfg.rng_seed, start * cfg.m_s, words, radius.view(np.uint64), cfg.m_s)
    # Both integers are below 2^63, so they are cast from int64 views, which
    # numpy converts about twice as fast as uint64; neither cast is in place.
    np.right_shift(words, np.uint64(_RADIUS_BITS), out=radius.view(np.uint64))  # k
    np.copyto(sines, radius.view(np.int64), casting="unsafe")  # exact: k < 2^24
    # With its top 24 bits set a word reads as the int64 j - 2^40, so its
    # product with -2^-40 is 1 - u = 1 - j 2^-40, exactly; log(1 - u) is
    # thus log1p(-u) to within rounding, and numpy's float64 log is faster
    # than its log1p, about twice as fast on machines without AVX-512.
    np.bitwise_or(words, np.uint64(_MASK64 ^ ((1 << _RADIUS_BITS) - 1)), out=words)
    np.copyto(radius, words.view(np.int64), casting="unsafe")
    radius *= -(2.0**-_RADIUS_BITS)  # 1 - u
    np.log(radius, out=radius)
    radius *= -2.0 * sigma * sigma
    np.sqrt(radius, out=radius)  # sigma R
    sines *= _HALF_PI_STEP  # pi v / 2, rounded as v float32(pi / 2)
    np.sin(sines, out=sines)
    sines *= sines
    sines *= 4.0 * los
    # A float64 loop, so sigma R is not rounded to float32 before the product.
    np.multiply(sines, radius, out=sines, casting="same_kind")  # 4 c sigma R sin^2
    radius -= los
    radius *= radius
    radius += sines
    amp = np.sqrt(radius, out=radius)
    amp *= math.sqrt(cfg.free_space_uc_gain * cfg.mean_ris_rx_gain)
    return amp


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


def _tail_table(k: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The law of a sum of n i.i.d. unit-power Rice amplitudes at Rician factor k, as a table.

    Returns (cdf, values), both nondecreasing: a uniform u in [0, 1) draws
    ``values[searchsorted(cdf, u, side="right")]``, every value >= 0, and
    cdf[-1] is exactly 1. K = inf gives the point mass n c, c = 1, as one
    entry. Otherwise the table is a lattice of the sum's law in units of
    sigma about n c:

    - One amplitude's law is cut to z = (|g| - c) / sigma in
      [max(-8, -beta), 8], which drops a mass below e^{-32} = 1.3e-14
      (|z| is at most the modulus of a complex normal), and split into cells
      of width at most 1/32, each mass a three-point Gauss-Legendre rule of
      ``_rice_density``. Cells are indexed from that lower end, never from 0,
      so no index grows with K.
    - At n = 1 those cells, 2^13 / 24 to the unit, are the table, each at
      its midpoint.
    - Otherwise the table is a cyclic window of 2^13 points 24 sqrt(n) / 2^13
      apart, from 12 sqrt(n) below n E[z] (or from the sum's lower end, if
      that is higher). One amplitude's cells are a whole fraction of that
      spacing, so the transform of their masses at the window's frequencies
      is one rFFT of 2^13 points per offset within a spacing. Dividing out
      the transform of a cell's box gives one amplitude's characteristic
      function, whose n-th power the inverse rFFT turns into the exact sum's
      density at the window's points; each point carries that density.
      Raising the cells' own transform to the n-th power instead would give
      a sum of n rounded amplitudes, whose variance is n cells^2 / 12 too
      large. Only the number of offsets grows with n, not the table.

    Error bound. The mass the window leaves out, below 2 e^{-72} (z is
    1-Lipschitz in the two normals of the amplitude, so the sum's deviation
    from its mean is sub-Gaussian with variance proxy n), lands on its other
    end; the cut above drops 1.3e-14; a drawn value is a lattice point,
    within about half a spacing, 12 sqrt(n) / 2^13 sigma, of the exact law's
    quantile at the same u. Against the Rice moments (scipy) for K in
    {0, 0.5, 2, 10, 100, 1e3, 1e6} and n from 2 to 10^6, the table's mean
    was within 2e-10 of a standard deviation of n times the Rice mean, and
    its variance within 3e-8 of n times the Rice variance. At n = 1 the
    midpoints add a cell^2 / 12 to the variance, 7.2e-7 sigma^2 or at most
    1.7e-6 of it.
    """
    diffuse = 1.0 / (k + 1.0)
    los, sigma = math.sqrt(1.0 - diffuse), math.sqrt(diffuse / 2.0)
    if sigma == 0.0:
        return np.ones(1), np.array([n * los])
    beta = math.sqrt(2.0) * math.sqrt(k)
    low = max(-_TAIL_CUT, -beta)
    width = 2.0 * _TAIL_WINDOW * math.sqrt(n) / _TAIL_CELLS
    split = 1 if n == 1 else math.ceil(width / _TAIL_FINE_CELL)  # small cells per window cell
    cell = width / split
    centres = low + cell * (np.arange(math.ceil((_TAIL_CUT - low) / cell)) + 0.5)
    mass = sum(w * _rice_density(centres + cell * z, beta) for z, w in _GAUSS_RULE)
    mass /= mass.sum()
    sums = centres
    if n > 1:
        from numpy import fft  # loaded here, so that importing the package does not load it

        freq = np.arange(_TAIL_CELLS // 2 + 1)
        spectrum = np.zeros(freq.size, complex)
        for b in range(min(split, mass.size)):
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


def _draw_tail(cfg: ScenarioConfig, kmax: int, out: np.ndarray) -> None:
    """Add to ``out`` each trial's sum of |h||g_i| over the UCs i > kmax, drawn from its law.

    The sum of trial t reads one SplitMix64 word, output number
    t m_s + kmax + 1 (the word of UC kmax + 1, which the kernel does not
    read): its top 53 bits are a uniform u in [0, 1) that picks a value of
    ``_tail_table(K, m_s - kmax)`` by its inverse CDF, scaled by
    sqrt(|h|^2 E|g|^2).
    """
    cdf, values = _tail_table(cfg.rician_k, cfg.m_s - kmax)
    values *= math.sqrt(cfg.free_space_uc_gain * cfg.mean_ris_rx_gain)
    words = np.empty((cfg.mc_trials, 1), np.uint64)
    _splitmix64(cfg.rng_seed, kmax, words, np.empty_like(words), cfg.m_s)
    words >>= np.uint64(11)
    # Below 2^53, so exact as int64 and as float64.
    uniform = words.view(np.int64).ravel() * 2.0**-53
    out += values[np.searchsorted(cdf, uniform, side="right")]


@dataclass(frozen=True, eq=False)
class TrialChannels:
    """Amplitude sums of a fixed set of channel draws, shared across candidates.

    ``cfg`` is the configuration the draws were made for. Column j of
    ``amp_prefix`` holds sum_{i<k} |h_i||g_i| with k = ``columns[j]`` for
    each draw in row-major UC order; ``columns`` is sorted and always ends
    with ``cfg.m_s``, whose column is the full-surface sum ``amp_total``:
    the last kept prefix plus the sum of the other UCs drawn from its law
    (see ``draw_trials``). A sweep solves its grid from the harvest first and
    keeps only the k those solves read. Readers
    need not know that layout: ``reflecting_sum(k)`` gives the coherent
    amplitude over the UCs that still reflect when the first k absorb. Only
    amplitudes are drawn, because no computed quantity depends on the common
    LoS phase (see the module docstring). Two draws compare equal only when
    they are the same object, as comparing the arrays elementwise has no
    truth value.
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

    def reflecting_sum(self, k: int) -> np.ndarray:
        """Per draw, the coherent amplitude of the UCs still reflecting when the first k absorb.

        That is ``amp_total`` minus prefix column k, a new array. Raises
        ValueError when column k was not drawn.
        """
        column = bisect_left(self.columns, k)
        if column == len(self.columns) or self.columns[column] != k:
            raise ValueError(f"prefix column k = {k} was not drawn")
        return self.amp_total - self.amp_prefix[:, column]


def draw_trials(cfg: ScenarioConfig, *, columns) -> TrialChannels:
    """Draw ``cfg.mc_trials`` channels once, seeded by ``cfg.rng_seed``.

    ``columns`` lists the prefix columns k in 0..m_s to keep; m_s is always
    kept, and ``range(m_s + 1)`` keeps every column. A sweep passes the k
    its grid solves read, so the prefix holds (mc_trials, distinct k + 1)
    values, not (mc_trials, m_s + 1).

    Let kmax be the largest kept column below m_s (0 if there is none). The
    amplitudes of UCs 1..kmax are drawn by ``_sample_into``, the kernel of
    ``sample_amplitudes``, in chunks of ``_DRAW_CHUNK_VALUES // kmax`` trials
    (144 at kmax = 453), each into prefixes of the drawing thread's one set
    of (chunk, kmax) float64, uint64 and float32 buffers, 20 bytes per
    amplitude or about 1.25 MiB together. The thread allocates them before
    its first chunk and reuses them for every chunk after; the amplitudes
    are computed in place in the float64 buffer, so the kernel's memory is
    the prefix plus, per thread, one set of buffers, numpy's cast buffers
    (about 130 KB) and the stream's first run of counters (2 KB). Column
    0 < k <= kmax is entry k - 1 of a chunk row's running sum, taken in
    place, and only the kept columns are gathered into the chunk's rows; UC
    i of trial t reads word t m_s + i + 1 as in ``sample_amplitudes``, so a
    kept column below m_s is the same bit for bit whichever columns are
    kept. The sum of the remaining n = m_s - kmax UCs, which no kept column
    below m_s reads, is drawn per trial as one value of the law of a sum of
    n i.i.d. Rice amplitudes (``_tail_table``, whose docstring bounds its
    error) from the word of UC kmax + 1, and column m_s is that sum plus
    column kmax. So column m_s depends on kmax: it is not the row sum of
    ``sample_amplitudes``, and a draw keeping other columns below m_s gives
    another full-surface column. K = inf gives exactly n times the LoS
    gain. The sum is drawn after the kernel has freed its buffers, and its
    table takes a few hundred KiB whatever m_s.

    A draw of at least ``_DRAW_THREAD_MIN_VALUES`` kernel amplitudes
    (trials x kmax) shares its chunks out among up to ``_DRAW_MAX_THREADS``
    threads, the calling one included, capped by the CPUs this process may
    run on; numpy releases the GIL while it makes the words and transforms
    them. A row depends only on the seed, its trial index and kmax: not on
    the trial count, the chunk size, the thread count or which thread drew
    it. An exception in any chunk is raised here once every thread has
    stopped.
    """
    n, m_s = cfg.mc_trials, cfg.m_s
    # One pass over ``columns``, which may be a one-shot iterable, into a
    # Python set: not np.unique, which imports numpy.ma on first use.
    kept = {m_s}
    for k in columns:
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k <= m_s:
            raise ValueError(f"prefix columns must be integers in [0, {m_s}], got {k!r}")
        kept.add(int(k))
    kept = sorted(kept)
    # Column 0 < k <= kmax is entry k - 1 of a chunk row's running sum, column
    # m_s is the last entry plus the tail, and column 0 stays 0.
    skip = 1 if kept[0] == 0 else 0
    kmax = kept[-2] if len(kept) > 1 else 0
    gather = np.array(kept[skip:-1], dtype=np.intp) - 1
    prefix = np.zeros((n, len(kept)))
    if not kmax:
        _draw_tail(cfg, kmax, prefix[:, -1])
        return TrialChannels(cfg=cfg, amp_prefix=prefix, columns=tuple(kept))
    # A chunk never runs past the last trial, so a longer buffer would only
    # waste memory.
    chunk = max(1, min(_DRAW_CHUNK_VALUES // kmax, n))
    starts = range(0, n, chunk)

    def fill(t0: int, buffers: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        size = min(chunk, n - t0)
        running = _sample_into(cfg, t0, tuple(plane[:size] for plane in buffers))
        np.cumsum(running, axis=1, out=running)
        rows = prefix[t0 : t0 + size]
        rows[:, skip:-1] = running[:, gather]
        rows[:, -1] = running[:, -1]

    pending, lock, errors = iter(starts), threading.Lock(), []

    def work() -> None:
        try:
            buffers = _buffers(chunk, kmax)
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
    threads = min(cpus, len(starts), _DRAW_MAX_THREADS) if n * kmax >= _DRAW_THREAD_MIN_VALUES else 1
    workers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for worker in workers:
        worker.start()
    work()
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]
    # After the kernel, whose buffers are freed by now, so that the law's
    # arrays and numpy.fft fit in the memory they held.
    _draw_tail(cfg, kmax, prefix[:, -1])
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


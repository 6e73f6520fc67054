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
the UCs at the prefix lengths k a caller asks for, and the full-surface
sum. ``TrialChannels.reflecting_sum(k)`` turns them into the coherent sum of
the UCs still reflecting when the first k absorb, the one layout-dependent
quantity a rate estimate reads. Between two kept columns lo < k lies the
sum of the amplitudes of UCs lo + 1..k, i.i.d. and independent of every
other such segment, so the draw forms no amplitude it does not keep: it
draws each segment as one value from the one word of its first UC,
UC lo + 1. A one-UC segment is that UC's amplitude, by the transform
above; a longer one is the value of the law of a sum of k - lo Rice
amplitudes (``_tail_table``) that the word picks by its inverse CDF, found
through a guide table (Chen and Asau, 1974). A trial thus costs one word
per kept column, whatever m_s, and a kept column depends only on the
seed, its trial and the kept columns at or below it: keeping every column
gives the running sums of ``sample_amplitudes`` bit for bit. The draw runs
on the calling thread, a block of trials at a time, so its temporaries do
not grow with the trial count, and it holds one law at a time.
"""

import math
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
# Words drawn per block of trials in draw_trials (at least one trial). A
# block's temporaries take at most 32 bytes a word, 512 KiB, whatever the
# trial count and m_s. Blocks of 2^16 words were no faster in CLI sweeps of
# the three benchmark workloads, and they raised the peak RSS of the
# 1000-trial edge sweep, which their temporaries set, by 0.8 MiB.
_DRAW_BLOCK_VALUES = 1 << 14

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


def sample_amplitudes(cfg: ScenarioConfig, start: int, stop: int) -> np.ndarray:
    """Draw the channels of trials [start, stop): a new (stop - start, m_s) array of |h||g_i|.

    The amplitude of trial t at UC i is ``_amplitudes`` of one SplitMix64
    word of ``cfg.rng_seed``, output number t m_s + i + 1. A row is
    therefore a function of the seed and its trial index alone, and trials
    [a, b) then [b, c) equal trials [a, c). ``draw_trials`` reads the same
    word for a UC it keeps on its own.

    Raises ValueError when ``start`` or ``stop`` is not an integer (a bool
    is not), when ``start`` is negative or when ``stop`` is below it.
    """
    for name, bound, least in (("start", start, 0), ("stop", stop, start)):
        if isinstance(bound, bool) or not isinstance(bound, (int, np.integer)) or bound < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {bound!r}")
    # Python ints on, so that no numpy integer scalar reaches the stream's key arithmetic.
    ucs = np.arange(1, cfg.m_s + 1, dtype=np.uint64)
    return _amplitudes(cfg, _words(cfg, int(start), int(stop), ucs))


def _amplitudes(cfg: ScenarioConfig, words: np.ndarray) -> np.ndarray:
    """The amplitudes |h||g| that the uint64 array ``words`` draws, a new float64 array; ``words`` is overwritten.

    |g| = sqrt(E[|g|^2]) sqrt((c - sigma R)^2 + 4 c sigma R sin^2(pi v / 2))
    with c = sqrt(K/(K+1)), sigma^2 = 1/(2(K+1)) per diffuse component and
    R = sqrt(-2 log(1 - u)): the Box-Muller magnitude of
    |c + sigma (x + j y)| for standard normals x, y (see the module
    docstring). A word's top 24 bits are the angle integer k, v = k 2^-24,
    and its low 40 bits the radius integer j, u = j 2^-40. An infinite K
    gives sigma = 0, so the amplitude is c = 1 before the final scaling by
    sqrt(|h|^2 E|g|^2), the pure LoS gain exactly.

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
    the log and the square roots. Each amplitude depends on its word alone,
    not on the shape of ``words``. Besides ``words`` the transform holds
    12 bytes a word, and the float64 loop over the float32 plane casts
    through numpy's ufunc buffers.
    """
    diffuse = 1.0 / (cfg.rician_k + 1.0)  # diffuse share of E[|g|^2]; 0 at K = inf
    los, sigma = math.sqrt(1.0 - diffuse), math.sqrt(diffuse / 2.0)
    radius = np.empty(words.shape)
    # Both integers are below 2^63, so they are cast from int64 views, which
    # numpy converts about twice as fast as uint64.
    np.right_shift(words, np.uint64(_RADIUS_BITS), out=radius.view(np.uint64))  # k
    sines = radius.view(np.int64).astype(np.float32)  # exact: k < 2^24
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
    - The table is a cyclic window of 2^13 points 24 sqrt(n) / 2^13
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
    its variance within 3e-8 of n times the Rice variance. ``draw_trials``
    reads the table only for n >= 2; one amplitude it draws exactly.
    """
    diffuse = 1.0 / (k + 1.0)
    los, sigma = math.sqrt(1.0 - diffuse), math.sqrt(diffuse / 2.0)
    if sigma == 0.0:
        return np.ones(1), np.array([n * los])
    beta = math.sqrt(2.0) * math.sqrt(k)
    low = max(-_TAIL_CUT, -beta)
    width = 2.0 * _TAIL_WINDOW * math.sqrt(n) / _TAIL_CELLS
    split = math.ceil(width / _TAIL_FINE_CELL)  # small cells per window cell
    cell = width / split
    centres = low + cell * (np.arange(math.ceil((_TAIL_CUT - low) / cell)) + 0.5)
    mass = sum(w * _rice_density(centres + cell * z, beta) for z, w in _GAUSS_RULE)
    mass /= mass.sum()
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


def _guide(cdf: np.ndarray) -> np.ndarray:
    """The guide table of ``cdf`` (Chen and Asau, 1974): entry j is the first index whose cdf exceeds j 2^-13."""
    return np.searchsorted(cdf, np.arange(_TAIL_CELLS) / _TAIL_CELLS, side="right")


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
    SplitMix64 word, output number t m_s + f, the word ``sample_amplitudes``
    reads for UC f. One UC is that amplitude (``_amplitudes``). Otherwise
    the word's top 53 bits are a uniform u in [0, 1) that picks a value of
    ``_tail_table(K, length)`` by its inverse CDF, scaled by
    sqrt(|h|^2 E|g|^2). The trials are drawn ``_DRAW_BLOCK_VALUES // len(segments)``
    at a time, so the words, the amplitudes and the lookup's indices of one
    block, at most 32 bytes a word, are the only temporaries beside the law.
    """
    columns = [j for j, _ in segments]
    ucs = np.array([f for _, f in segments], np.uint64)
    if length > 1:
        cdf, values = _tail_table(cfg.rician_k, length)
        values *= math.sqrt(cfg.free_space_uc_gain * cfg.mean_ris_rx_gain)
        guide = _guide(cdf)
    block = max(1, _DRAW_BLOCK_VALUES // len(columns))
    for start in range(0, cfg.mc_trials, block):
        stop = min(start + block, cfg.mc_trials)
        words = _words(cfg, start, stop, ucs)
        if length == 1:
            prefix[start:stop, columns] = _amplitudes(cfg, words)
        else:
            words >>= np.uint64(11)
            uniform = words.view(np.int64) * 2.0**-53  # below 2^53, so exact as int64 and float64
            del words  # before the lookup, so that a block holds at most 32 bytes a word
            prefix[start:stop, columns] = values[_guided_search(cdf, guide, uniform)]


@dataclass(frozen=True, eq=False)
class TrialChannels:
    """Amplitude sums of a fixed set of channel draws, shared across candidates.

    ``cfg`` is the configuration the draws were made for. Column j of
    ``amp_prefix`` holds sum_{i<k} |h_i||g_i| with k = ``columns[j]`` for
    each draw in row-major UC order; ``columns`` is sorted and always ends
    with ``cfg.m_s``, whose column is the full-surface sum ``amp_total``.
    Each column is the one below it plus the sum of the UCs between the two,
    drawn as one value (see ``draw_trials``). A sweep solves its grid from
    the harvest first and keeps only the k those solves read. Readers need
    not know that layout: ``reflecting_sum(k)`` gives the coherent
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

    Each kept column k > 0 is the kept column lo below it (0 for the first)
    plus the segment of UCs lo + 1..k, which ``_draw_segments`` draws per
    trial as one value from the word of UC lo + 1: the amplitude itself for
    one UC, else a value of the law of a sum of k - lo i.i.d. Rice
    amplitudes (``_tail_table``, whose docstring bounds its error). Column 0
    stays 0. The segments are drawn a length at a time, each law built once
    and freed before the next, and the prefix is then their running sum.
    The draw's memory is thus the prefix, one block of temporaries
    (``_DRAW_BLOCK_VALUES``) and one law of a few hundred KiB, whatever m_s.

    A row depends only on the seed and its trial index, not on the trial
    count or the block size, and a kept column only on the kept columns at
    or below it: a draw that keeps every column gives the running sums of
    ``sample_amplitudes`` bit for bit, while a column above a segment of two
    or more UCs holds a value of that segment's law, which depends on where
    the segment starts. K = inf gives exactly n times the LoS gain for a
    segment of n UCs.
    """
    m_s = cfg.m_s
    # One pass over ``columns``, which may be a one-shot iterable, into a
    # Python set: not np.unique, which imports numpy.ma on first use.
    kept = {m_s}
    for k in columns:
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 0 <= k <= m_s:
            raise ValueError(f"prefix columns must be integers in [0, {m_s}], got {k!r}")
        kept.add(int(k))
    kept = sorted(kept)
    segments = {}  # length -> (column, first UC) of each segment
    for column, (lo, k) in enumerate(zip([0, *kept], kept)):
        if k > lo:
            segments.setdefault(k - lo, []).append((column, lo + 1))
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


import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special, stats

import risharvest.channel
from risharvest import ScenarioConfig
from risharvest.channel import (
    _TAIL_UNIT,
    _guide,
    _guided_search,
    _splitmix64,
    _tail_table,
    _words,
    coherent_snr,
    draw_trials,
)
from risharvest.scenario import _RICIAN_PEAK_GAIN

from conftest import (
    draw,
    drawn_rows,
    oracle_free_space_gain,
    oracle_full_surface_snr,
    oracle_mean_rx_gain,
    rebuilt_prefix,
    segment,
    splitmix64,
)


def rician_mean_amplitude(mean_power, k):
    """Analytic E[|g|] of the Rician law of the RIS-RX amplitude.

    nu^2 = K/(K+1), per-component variance sigma^2 = 1/(2(K+1)); the mean is
    sigma*sqrt(pi/2)*L_{1/2}(-nu^2/(2 sigma^2)) scaled by sqrt(mean_power).
    """
    s = k / 2.0  # nu^2 / (4 sigma^2)
    sigma = math.sqrt(1.0 / (2.0 * (k + 1.0)))
    laguerre = (1.0 + 2.0 * s) * special.ive(0, s) + 2.0 * s * special.ive(1, s)
    return math.sqrt(mean_power) * sigma * math.sqrt(math.pi / 2.0) * laguerre


def test_free_space_gain_matches_hand_formula(cfg):
    value = cfg.free_space_uc_gain
    assert value == pytest.approx(oracle_free_space_gain(cfg), rel=1e-12)
    assert value == pytest.approx(3.17e-5, rel=5e-3)


def test_free_space_gain_inverse_square(cfg):
    doubled = cfg._replace(d_tx_ris=2 * cfg.d_tx_ris)
    assert cfg.free_space_uc_gain / doubled.free_space_uc_gain == pytest.approx(4.0)


def test_free_space_gain_unit_gain_case(cfg):
    unit = cfg._replace(tx_gain_dbi=0.0, antenna_efficiency=1.0)
    wavelength = 2.99792458e8 / cfg.carrier_frequency
    aperture = (wavelength / 2.0) ** 2
    expected = aperture / (4 * math.pi * cfg.d_tx_ris**2)
    assert unit.free_space_uc_gain == pytest.approx(expected, rel=1e-12)


def test_uc_gain_is_pi_for_half_wave_cell(cfg):
    assert cfg.uc_gain == pytest.approx(math.pi, rel=1e-12)


def test_mean_rx_gain_matches_hand_formula(cfg):
    value = cfg.mean_ris_rx_gain
    assert value == pytest.approx(oracle_mean_rx_gain(cfg), rel=1e-12)
    assert value == pytest.approx(3.6e-7, rel=2e-2)


def test_mean_rx_gain_friis_factor(cfg):
    base = cfg._replace(rx_gain_dbi=0.0, antenna_efficiency=1.0)
    wavelength = 2.99792458e8 / cfg.carrier_frequency
    friis = (wavelength / (4 * math.pi * cfg.d_ris_rx)) ** 2
    # only the UC re-radiation gain remains in front of the Friis factor
    assert base.mean_ris_rx_gain == pytest.approx(math.pi * friis, rel=1e-12)


def test_mean_rx_gain_inverse_square(cfg):
    doubled = cfg._replace(d_ris_rx=2 * cfg.d_ris_rx)
    assert cfg.mean_ris_rx_gain / doubled.mean_ris_rx_gain == pytest.approx(4.0)


def seeded(cfg, seed):
    return cfg._replace(rng_seed=seed)


def g_amplitudes(cfg, n):
    """|g_i| of n draws: the cascaded amplitudes of a draw that keeps every
    prefix column, over the constant |h|."""
    return drawn_rows(cfg, cfg.rng_seed, n) / math.sqrt(cfg.free_space_uc_gain)


@pytest.mark.parametrize("seed", [0, 1, 20230816, 2**64 - 1])
@pytest.mark.parametrize("first", [0, 1, 225, 2**40 + 3, 2**64 - 5])
def test_words_are_splitmix64(seed, first):
    # the whole-array words equal splitmix64.c transcribed in Python ints,
    # also at counters that wrap the 64-bit range
    for shape in ((1, 1), (3, 7), (40, 25)):
        counters = np.arange(1, math.prod(shape) + 1, dtype=np.uint64).reshape(shape)
        words = _splitmix64(seed, counters + np.uint64(first))
        assert words.ravel().tolist() == splitmix64(seed, first, words.size)


def test_words_are_the_published_splitmix64_outputs():
    # the first outputs of splitmix64.c seeded with 1234567
    words = _splitmix64(1234567, np.arange(1, 4, dtype=np.uint64))
    expected = [6457827717110365317, 3203168211198807973, 9817491932198370423]
    assert words.tolist() == splitmix64(1234567, 0, 3) == expected


def test_uniforms_of_a_word_are_uniform_and_uncorrelated():
    # over 10^6 words, the top-53-bit uniform u that a segment reads passes a
    # uniformity KS test, as does v, that of the next word (the next segment
    # of the same trial), and their correlation is within 5 / sqrt(N)
    words = _splitmix64(20230816, np.arange(1, 10**6 + 2, dtype=np.uint64))
    uniforms = (words >> np.uint64(11)) * 2.0**-53
    u, v = uniforms[:-1], uniforms[1:]
    assert stats.kstest(u, "uniform").pvalue > 0.001
    assert stats.kstest(v, "uniform").pvalue > 0.001
    assert abs(np.corrcoef(u, v)[0, 1]) < 5.0 / math.sqrt(words.size)


def test_draw_trials_reads_a_one_shot_columns_iterable():
    # a generator of columns is read once, so every column it yields is kept
    cfg = ScenarioConfig(ris_cols=3, ris_rows=3, mc_trials=50)
    trials = draw_trials(cfg, columns=(k for k in (2, 5)))
    assert trials.columns == (2, 5, 9)
    listed = draw_trials(cfg, columns=[2, 5])
    assert np.array_equal(trials.amp_prefix, listed.amp_prefix)


def los_and_sigma(k):
    diffuse = 1.0 / (k + 1.0)
    return math.sqrt(1.0 - diffuse), math.sqrt(diffuse / 2.0)


def normal_based_amplitudes(k, m_s, rng, n):
    """(n, m_s) unit-power amplitudes |c + sigma (x + j y)| from two numpy
    standard normals per UC: a reference independent of the draw's laws."""
    los, sigma = los_and_sigma(k)
    z = rng.standard_normal((n, 2, m_s)) * sigma
    return np.sqrt((z[:, 0] + los) ** 2 + z[:, 1] ** 2)


@pytest.mark.parametrize("k", [0.0, 10.0])
def test_full_surface_sums_match_the_normal_based_sampler(cfg, k):
    # a draw that keeps every column sums m_s one-UC segments, each a value
    # of one amplitude's cells; its full-surface sums and those of the
    # normal-based reference are one law by a two-sample Kolmogorov-Smirnov test
    kcfg = cfg._replace(rician_k=k)
    gain = math.sqrt(kcfg.free_space_uc_gain * kcfg.mean_ris_rx_gain)
    cells = draw(kcfg, 41, 4000).amp_prefix[:, -1] / gain
    normals = normal_based_amplitudes(k, cfg.m_s, np.random.default_rng(42), 4000).sum(axis=1)
    assert stats.ks_2samp(cells, normals).pvalue > 0.001


@pytest.mark.parametrize("k", [0.5, 10.0, 1e3])
def test_amplitudes_follow_rician_law(cfg, k):
    # |g| is Rician with nu^2 = E|g|^2 K/(K+1) and sigma^2 = E|g|^2/(2(K+1))
    # per component; the UCs of a draw are i.i.d. because no common phase is drawn
    kcfg = cfg._replace(rician_k=k, rng_seed=2024)
    gains = g_amplitudes(kcfg, 20).ravel()
    law = stats.rice(b=math.sqrt(2.0 * k), scale=math.sqrt(kcfg.mean_ris_rx_gain / (2.0 * (k + 1.0))))
    assert stats.kstest(gains, law.cdf).pvalue > 0.01


def test_infinite_k_collapses_to_los(los_cfg):
    gains = g_amplitudes(los_cfg, 2)
    assert np.allclose(gains**2, los_cfg.mean_ris_rx_gain, rtol=1e-12)


def test_huge_k_is_nearly_deterministic(cfg):
    # at K = 1e12 the LoS-diffuse cross term still perturbs |g|^2 at the
    # 2/sqrt(K) = 2e-6 level, so the tolerance sits above that scale
    near_los = cfg._replace(rician_k=1e12)
    gains = g_amplitudes(near_los, 2)[0]
    assert np.allclose(gains**2, cfg.mean_ris_rx_gain, rtol=2e-5)
    tighter = cfg._replace(rician_k=1e14)
    gains = g_amplitudes(tighter, 2)[0]
    assert np.allclose(gains**2, cfg.mean_ris_rx_gain, rtol=1e-6)


def test_sample_mean_gain_power_converges(cfg):
    gains = g_amplitudes(seeded(cfg, 777), math.ceil(100_000 / cfg.m_s))
    assert gains.size >= 100_000
    sample_mean = np.mean(gains**2)
    assert sample_mean == pytest.approx(cfg.mean_ris_rx_gain, rel=0.02)


def test_reflected_snr_empty_set(cfg):
    amp = drawn_rows(cfg, cfg.rng_seed, 2)[0]
    assert coherent_snr(amp[[]].sum(), cfg) == 0.0


def test_coherent_snr_full_surface_closed_form(los_cfg):
    amp = drawn_rows(los_cfg, los_cfg.rng_seed, 2)[0]
    snr = coherent_snr(amp.sum(), los_cfg)
    expected = oracle_full_surface_snr(los_cfg)
    assert snr == pytest.approx(expected, rel=1e-9)
    assert 48.0 <= 10 * math.log10(snr) <= 49.0


def test_coherent_snr_subset_monotone(cfg):
    rng = np.random.default_rng(42)
    amp = drawn_rows(cfg, 42, 2)[0]
    for _ in range(200):
        size = rng.integers(0, cfg.m_s)
        subset = np.sort(rng.choice(cfg.m_s, size=size, replace=False))
        extra = rng.integers(0, cfg.m_s)
        grown = np.union1d(subset, [extra])
        assert coherent_snr(amp[subset].sum(), cfg) <= coherent_snr(amp[grown].sum(), cfg)


def test_coherent_sum_second_moment_matches_analytic(cfg):
    sums = draw(cfg, 31337, 10_000).amp_prefix[:, -1]  # m_s one-UC segments
    m_s = cfg.m_s
    h2 = cfg.free_space_uc_gain
    eg = cfg.mean_ris_rx_gain
    mu = rician_mean_amplitude(eg, cfg.rician_k)
    analytic = m_s * h2 * eg * (1.0 + (m_s - 1) * mu**2 / eg)
    assert np.mean(sums**2) == pytest.approx(analytic, rel=0.05)


def test_absorbed_power_per_uc(cfg):
    absorbed = cfg.uc_absorbed_power
    assert absorbed == pytest.approx(cfg.tx_power * cfg.free_space_uc_gain, rel=1e-12)
    assert cfg.m_s * absorbed == pytest.approx(7.1e-3, rel=1e-2)
    # halving TX power halves it
    half = cfg._replace(tx_power=cfg.tx_power / 2)
    assert half.uc_absorbed_power == pytest.approx(absorbed / 2, rel=1e-12)


def unit_power_moments(k):
    """Mean and variance of a unit-power Rice amplitude: scipy's, or where
    its moments overflow to NaN (K = 1e6), the mean in the Laguerre form and
    the variance 1 - mean^2."""
    law = stats.rice(b=math.sqrt(2.0 * k), scale=math.sqrt(1.0 / (2.0 * (k + 1.0))))
    with np.errstate(over="ignore", invalid="ignore"):
        mean, var = float(law.mean()), float(law.var())
    if not (math.isfinite(mean) and math.isfinite(var)):
        mean = rician_mean_amplitude(1.0, k)
        var = 1.0 - mean * mean
    return mean, var


@pytest.mark.parametrize("k", [0.0, 10.0])
@pytest.mark.parametrize("n", [1, 7, 225])
def test_tail_law_matches_sums_of_sampled_amplitudes(k, n):
    # a draw that keeps no column below m_s draws the whole surface as one
    # segment from the law of n UCs, the cells for n = 1; against 4000 sums
    # of n amplitudes of the normal-based reference, a two-sample
    # Kolmogorov-Smirnov test finds one law
    cfg = ScenarioConfig(ris_cols=n, ris_rows=1, rician_k=k, mc_trials=4000, rng_seed=71)
    gain = math.sqrt(cfg.free_space_uc_gain * cfg.mean_ris_rx_gain)
    tails = draw_trials(cfg, columns=[]).amp_prefix[:, -1] / gain
    sums = normal_based_amplitudes(k, n, np.random.default_rng(72), 4000).sum(axis=1)
    assert stats.ks_2samp(tails, sums).pvalue > 0.001


# The segment lengths whose laws the moment and peak tests read: one UC's
# cells, and both sides of seams of a longer law's cells (see the moment test).
LAW_LENGTHS = (1, 2, 3, 7, 98, 99, 113, 114, 128, 129, 225, 392, 393, 3600, 10**6)


@pytest.mark.parametrize("k", [0.0, 0.5, 10.0, 100.0, 1e6])
def test_tail_law_moments_are_n_times_the_rice_moments(k):
    # the table's mean is n times the Rice mean within 1e-9 of its standard
    # deviation, and its variance n times the Rice variance within 1e-7; one
    # UC's table is its cells h sigma wide, whose variance is the Rice
    # variance plus (h sigma)^2 / 12 (Sheppard) within 1e-8. The lengths
    # include both sides of seams of the law's cells: a cell of 1 then 2
    # shared cells (n = 2, 3), one offset of 7 then two of 4 (98, 99), two
    # of 4 then of 5 (128, 129), two of 7 then three of 5 (392, 393), and
    # 113 and 114, where the number of offsets went from 1 to 2 when each
    # law had its own cells
    mean, var = unit_power_moments(k)
    sheppard = (_TAIL_UNIT * los_and_sigma(k)[1]) ** 2 / 12.0
    for n in LAW_LENGTHS:
        cdf, values = _tail_table(k, n)
        assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0.0) and np.all(values >= 0.0)
        mass = np.diff(cdf, prepend=0.0)
        law_mean = mass @ values
        law_var = mass @ (values - law_mean) ** 2
        assert abs(law_mean - n * mean) <= 1e-9 * math.sqrt(n * var), n
        if n == 1:
            assert law_var == pytest.approx(var + sheppard, rel=1e-8)
        else:
            assert law_var == pytest.approx(n * var, rel=1e-7), n


@pytest.mark.parametrize("k", [0.0, 0.5, 2.0, 10.0, 100.0, 1e6, 1e12])
def test_every_law_value_is_within_the_peak_gain_of_the_link_check(k):
    # the configuration's link-budget check bounds each UC's amplitude by
    # sqrt(_RICIAN_PEAK_GAIN) times sqrt(|h|^2 E|g|^2), so a segment of n UCs,
    # one value of its law, must lie within n times that: one UC's cells end
    # near c + 8 sigma, and a longer law's lattice values stay below 17 n
    for n in LAW_LENGTHS:
        assert _tail_table(k, n)[1].max() <= n * math.sqrt(_RICIAN_PEAK_GAIN), n


def test_tail_law_is_exact_at_infinite_k():
    # K = inf is the point mass n c = n: every drawn segment of n UCs is n
    # times the LoS gain, rounded once, whichever columns are kept
    for n in (1, 2, 3600):
        cdf, values = _tail_table(math.inf, n)
        assert cdf.tolist() == [1.0] and values.tolist() == [float(n)]
    cfg = ScenarioConfig(ris_cols=9, ris_rows=5, rician_k=math.inf, mc_trials=50)
    gain = math.sqrt(cfg.free_space_uc_gain * cfg.mean_ris_rx_gain)
    for lo in (0, 1, 30, 44):
        assert np.array_equal(segment(cfg, lo, 45), np.full(50, (45 - lo) * gain))
    assert np.array_equal(draw_trials(cfg, columns=[]).amp_prefix[:, -1], np.full(50, 45 * gain))


@pytest.mark.parametrize("k", [1e12, 1e36, 1e300])
def test_tail_law_holds_at_any_finite_k(k):
    # beta^2 = 2 K overflows near K = 1e308 and a cell of sigma / 32 is far
    # below an ulp of c = 1 from K = 1e30, yet the table stays finite, >= 0
    # and centred on n c, as cells are indexed from c - 8 sigma
    for n in (1, 2, 3600):
        cdf, values = _tail_table(k, n)
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
        assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0.0)
        assert np.diff(cdf, prepend=0.0) @ values == pytest.approx(n, rel=1e-5)


@pytest.mark.parametrize("k, n", [(10.0, 2), (10.0, 99), (0.0, 7), (0.0, 3600)])
def test_a_law_is_a_pure_function_of_k_and_n(k, n):
    # every law of one K reads that K's cached cell masses, yet a table is
    # the same bit for bit built cold, after laws of other lengths, and
    # after another K's masses were made first
    risharvest.channel._rice_cells.cache_clear()
    cold = _tail_table(k, n)
    for other in (3, 113, 10**5):
        _tail_table(k, other)
    after_lengths = _tail_table(k, n)
    risharvest.channel._rice_cells.cache_clear()
    _tail_table(2.0, n)
    after_k = _tail_table(k, n)
    for table in (after_lengths, after_k):
        assert all(np.array_equal(a, b) for a, b in zip(cold, table))


def test_a_shorter_segment_above_leaves_every_lower_column_unchanged():
    # kept column 102 above column 100 makes a segment of 2 UCs, shorter
    # than any below it, and column 103 one of 3; the columns at or below
    # 100 stay the same bit for bit, drawn with the laws' masses cached or cold
    cfg = ScenarioConfig(mc_trials=2000, rng_seed=606)
    below = draw_trials(cfg, columns=[7, 40, 100]).amp_prefix[:, :3]
    for above in ([102], [103, 150]):
        risharvest.channel._rice_cells.cache_clear()
        trials = draw_trials(cfg, columns=[7, 40, 100, *above])
        assert trials.columns[:3] == (7, 40, 100)
        assert np.array_equal(trials.amp_prefix[:, :3], below), above


def test_tail_draw_memory_does_not_grow_with_the_surface():
    # a 300 x 300 draw keeping no column below m_s draws no amplitude: it
    # holds the prefix, a few arrays of one value per trial and the law's
    # table, as a 15 x 15 draw does
    peaks = []
    for side in (15, 300):
        cfg = ScenarioConfig(ris_cols=side, ris_rows=side)
        draw_trials(cfg, columns=[0])
        tracemalloc.start()
        try:
            trials = draw_trials(cfg, columns=[0])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert trials.amp_prefix.shape == (cfg.mc_trials, 2)
        assert peaks[-1] <= trials.amp_prefix.nbytes + 32 * cfg.mc_trials + (512 << 10)
    assert abs(peaks[1] - peaks[0]) <= 16 << 10


def test_numpy_fft_loads_only_when_a_tail_law_needs_it():
    # importing channel loads numpy but not numpy.fft (importing the package
    # and loading a configuration, which every sweep's set-up does, load no
    # numpy at all); a draw whose segments are all one UC, whose law is the
    # cells, leaves numpy.fft unloaded too; a segment of two UCs loads it
    code = (
        "import sys\n"
        "import risharvest, risharvest.sweep\n"
        "from risharvest.channel import draw_trials\n"
        "cfg = risharvest.loads_config('ris_cols = 4')\n"
        "print('numpy.fft' in sys.modules)\n"
        "draw_trials(cfg, columns=range(cfg.m_s + 1))\n"
        "print('numpy.fft' in sys.modules)\n"
        "draw_trials(cfg, columns=[1, 3])\n"
        "print('numpy.fft' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(risharvest.channel.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == ["False", "False", "True"]


def test_a_draw_of_one_uc_segments_is_the_same_on_every_simd_kernel():
    # a one-UC value is a float64 affine function of a cell index, picked
    # from integer words, so a draw that keeps every column has the same
    # bytes on numpy's AVX-512, AVX2-only and baseline kernels; a target the
    # machine lacks only prints an ImportWarning, so stdout alone is compared
    code = (
        "import hashlib\n"
        "from risharvest import ScenarioConfig\n"
        "from risharvest.channel import draw_trials\n"
        "for k in (0.0, 10.0):\n"
        "    cfg = ScenarioConfig(rician_k=k, mc_trials=500)\n"
        "    prefix = draw_trials(cfg, columns=range(cfg.m_s + 1)).amp_prefix\n"
        "    print(hashlib.sha256(prefix.tobytes()).hexdigest())\n"
    )
    outputs = []
    for disabled in (None, "X86_V4 AVX512_ICL AVX512_SPR", "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"):
        env = dict(os.environ, PYTHONPATH=str(Path(risharvest.channel.__file__).parents[1]))
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled is not None:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].split()) == 2
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize("shape, first, stride", [((5, 1), 138, 225), ((3, 7), 2**64 - 9, 10)])
def test_strided_words_are_splitmix64(shape, first, stride):
    # entry (t, j) of the words of trials [0, rows) at UCs ucs is output
    # t m_s + ucs[j], with m_s the stride: the one word of each segment of a
    # draw; also where the counters wrap
    link = SimpleNamespace(m_s=stride, rng_seed=20230816)
    ucs = np.arange(1, shape[1] + 1, dtype=np.uint64) + np.uint64(first)
    words = _words(link, 0, shape[0], ucs)
    assert words.shape == shape
    for r, row in enumerate(words.tolist()):
        assert row == splitmix64(20230816, first + r * stride, shape[1])


@pytest.mark.parametrize("kmax", [0, 3, 24])
def test_tail_is_drawn_from_the_word_of_uc_kmax_plus_one(kmax):
    # each segment (lo, k] of a draw reads word t m_s + lo + 1 of trial t
    # (the pure-Python SplitMix64): the table value of the segment's law
    # that its top 53 bits pick by the inverse CDF, one UC's cells included,
    # times the link gain; here the segments below and above column kmax,
    # (0, kmax] and (kmax, m_s], and those of a draw of several columns
    cfg = ScenarioConfig(ris_cols=5, ris_rows=5, mc_trials=20, rng_seed=4242)
    for columns in ([kmax], sorted({1, 2, kmax, 12})):
        trials = draw_trials(cfg, columns=columns)
        assert np.array_equal(trials.amp_prefix, rebuilt_prefix(cfg, trials.columns)), columns


def test_guided_search_is_searchsorted_bit_for_bit():
    # the guide's index equals searchsorted(cdf, u, "right") at u = 0, just
    # below 1, at and beside every cdf entry and cell edge of the guide, and
    # over the zero-mass cells at both ends of a table, where many entries
    # share one value; a hand table has runs of equal entries inside one cell
    hand = np.array([0.0, 0.0, 0.0, 2.0**-14, 2.0**-14, 0.25, 0.25, 0.5, 0.5 + 2.0**-40, 1.0, 1.0])
    tables = [hand, _tail_table(10.0, 1)[0], _tail_table(10.0, 7)[0], _tail_table(0.0, 3600)[0],
              _tail_table(math.inf, 5)[0]]
    for cdf in tables:
        assert cdf.size == 1 or np.any(np.diff(cdf) == 0.0)  # zero-mass cells
        edges = np.arange(1 << 13) * 2.0**-13
        points = np.concatenate([cdf[cdf < 1.0], edges])
        u = np.concatenate([
            [0.0, 1.0 - 2.0**-53],
            points,
            np.nextafter(points, 0.0),
            np.minimum(np.nextafter(points, 1.0), 1.0 - 2.0**-53),
            np.random.default_rng(5).random(10**5),
        ])
        expected = np.searchsorted(cdf, u, side="right")
        assert np.array_equal(_guide(cdf), np.searchsorted(cdf, edges, side="right"))
        assert np.array_equal(_guided_search(cdf, _guide(cdf), u), expected)
        # a 2-D block of uniforms gives the same indices in its shape
        block = u[: 2 * (u.size // 2)].reshape(2, -1)
        assert np.array_equal(_guided_search(cdf, _guide(cdf), block), expected[: block.size].reshape(2, -1))


@pytest.mark.parametrize("k", [0.0, 10.0])
def test_drawn_amplitudes_follow_rician_law(cfg, k):
    # adjacent columns of a full draw differ by one UC's |h||g|, Rician with
    # nu^2 = K/(K+1) and sigma^2 = 1/(2(K+1)) per component, times the mean
    # link gain; every segment of a full draw is one UC, the last included
    kcfg = cfg._replace(rician_k=k, mc_trials=600)
    amplitudes = np.diff(draw(kcfg, 563).amp_prefix, axis=1).ravel()
    gain = math.sqrt(kcfg.free_space_uc_gain * kcfg.mean_ris_rx_gain)
    law = stats.rice(b=math.sqrt(2.0 * k), scale=gain / math.sqrt(2.0 * (k + 1.0)))
    assert stats.kstest(amplitudes, law.cdf).pvalue > 0.01


@pytest.mark.parametrize("k", [0.0, 10.0])
def test_full_surface_mean_matches_the_rician_mean(cfg, k):
    # the full-surface column sums m_s i.i.d. |h||g|, so its mean over 10^4
    # trials lies within 4 standard errors of m_s times the link gain times
    # the mean of a unit-power Rician amplitude
    kcfg = cfg._replace(rician_k=k)
    sums = draw(kcfg, 564, 10_000, columns=[kcfg.m_s]).amp_prefix[:, -1]
    gain = math.sqrt(kcfg.free_space_uc_gain * kcfg.mean_ris_rx_gain)
    unit_power = stats.rice(b=math.sqrt(2.0 * k), scale=1.0 / math.sqrt(2.0 * (k + 1.0)))
    mean = kcfg.m_s * gain * unit_power.mean()
    assert abs(sums.mean() - mean) <= 4.0 * sums.std(ddof=1) / math.sqrt(sums.size)


@pytest.mark.parametrize("bad", [-1, 226, True, 3.0, "3", None])
def test_bad_prefix_columns_are_rejected(cfg, bad):
    with pytest.raises(ValueError, match=r"^prefix columns must be integers in \[0, 225\], got "):
        draw(cfg, 1, 2, columns=[3, bad])


# What one law may hold while it is built and read: the table, its guide
# and the transforms that make it, about 600 KiB at any n and K.
LAW_BYTES = 640 << 10


@pytest.mark.parametrize("block", [None, 1 << 12], ids=["default_blocks", "small_blocks"])
def test_draw_memory_is_the_prefix_one_block_and_one_law(monkeypatch, block):
    # on a 15 x 15 and a 300 x 300 surface, keeping segments of one UC and
    # of two or more: besides the prefix, a block's temporaries take at most
    # 32 bytes a word and one law is held at a time, whatever m_s
    if block is not None:
        monkeypatch.setattr(risharvest.channel, "_DRAW_BLOCK_VALUES", block)
    peaks = []
    for side in (15, 300):
        cfg = ScenarioConfig(ris_cols=side, ris_rows=side, mc_trials=20_000)
        columns = [0, 1, 2, 5, cfg.m_s // 3, cfg.m_s - 2]
        draw_trials(cfg, columns=columns)
        tracemalloc.start()
        try:
            trials = draw_trials(cfg, columns=columns)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert trials.amp_prefix.shape == (20_000, 7)
        bound = trials.amp_prefix.nbytes + 32 * risharvest.channel._DRAW_BLOCK_VALUES + LAW_BYTES
        assert peaks[-1] <= bound, (side, peaks[-1], bound)
    assert abs(peaks[1] - peaks[0]) <= 16 << 10

import dataclasses
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
    _guide,
    _guided_search,
    _splitmix64,
    _tail_table,
    _words,
    coherent_snr,
    draw_trials,
    sample_amplitudes,
)

from conftest import (
    draw,
    oracle_free_space_gain,
    oracle_full_surface_snr,
    oracle_mean_rx_gain,
    rebuilt_prefix,
    segment,
    splitmix64,
)


def sampler_uniforms(seed, start, stop, m_s):
    """The (u, v) float64 uniforms of trials [start, stop) that
    ``sample_amplitudes`` draws, each (stop - start, m_s): from the low 40 and
    the top 24 bits of the pure-Python SplitMix64 words."""
    words = np.array(splitmix64(seed, start * m_s, (stop - start) * m_s), np.uint64)
    u = (words & np.uint64((1 << 40) - 1)).astype(np.float64) * 2.0**-40
    v = (words >> np.uint64(40)).astype(np.float64) * 2.0**-24
    return u.reshape(-1, m_s), v.reshape(-1, m_s)


def rician_mean_amplitude(mean_power, k):
    """Analytic E[|g|] of the Rician law used by the sampler.

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
    doubled = dataclasses.replace(cfg, d_tx_ris=2 * cfg.d_tx_ris)
    assert cfg.free_space_uc_gain / doubled.free_space_uc_gain == pytest.approx(4.0)


def test_free_space_gain_unit_gain_case(cfg):
    unit = dataclasses.replace(cfg, tx_gain_dbi=0.0, antenna_efficiency=1.0)
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
    base = dataclasses.replace(cfg, rx_gain_dbi=0.0, antenna_efficiency=1.0)
    wavelength = 2.99792458e8 / cfg.carrier_frequency
    friis = (wavelength / (4 * math.pi * cfg.d_ris_rx)) ** 2
    # only the UC re-radiation gain remains in front of the Friis factor
    assert base.mean_ris_rx_gain == pytest.approx(math.pi * friis, rel=1e-12)


def test_mean_rx_gain_inverse_square(cfg):
    doubled = dataclasses.replace(cfg, d_ris_rx=2 * cfg.d_ris_rx)
    assert cfg.mean_ris_rx_gain / doubled.mean_ris_rx_gain == pytest.approx(4.0)


def seeded(cfg, seed):
    return dataclasses.replace(cfg, rng_seed=seed)


def g_amplitudes(cfg, n):
    """|g_i| of n draws: the sampled cascaded amplitudes over the constant |h|."""
    return sample_amplitudes(cfg, 0, n) / math.sqrt(cfg.free_space_uc_gain)


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
    # over 10^6 words, the low-40-bit u and the top-24-bit v each pass a
    # uniformity KS test, and their correlation is within 5 / sqrt(N)
    words = _splitmix64(20230816, np.arange(1, 10**6 + 1, dtype=np.uint64))
    u = (words & np.uint64((1 << 40) - 1)) * 2.0**-40
    v = (words >> np.uint64(40)) * 2.0**-24
    assert stats.kstest(u, "uniform").pvalue > 0.001
    assert stats.kstest(v, "uniform").pvalue > 0.001
    assert abs(np.corrcoef(u, v)[0, 1]) < 5.0 / math.sqrt(words.size)


def test_sample_amplitudes_shape_and_sign(cfg):
    amp = sample_amplitudes(cfg, 0, 3)
    assert amp.shape == (3, 225) and amp.dtype == np.float64
    assert np.all(amp > 0.0)
    assert sample_amplitudes(cfg, 5, 5).shape == (0, 225)


@pytest.mark.parametrize(
    "start, stop, name",
    [
        (-1, 2, "start"),  # would wrap the counter into another seed's words
        (True, 2, "start"),
        (2.5, 4, "start"),
        ("0", 2, "start"),
        (3, 1, "stop"),
        (0, False, "stop"),
        (0, 2.0, "stop"),
        (np.int64(4), np.int64(3), "stop"),
    ],
    ids=["negative_start", "bool_start", "float_start", "str_start",
         "stop_below_start", "bool_stop", "float_stop", "numpy_stop_below_start"],
)
def test_sample_amplitudes_rejects_bad_trial_bounds(cfg, start, stop, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
        sample_amplitudes(cfg, start, stop)


@pytest.mark.parametrize("integer", [np.int32, np.int64, np.uint64])
def test_sample_amplitudes_takes_numpy_integer_bounds(cfg, integer):
    # the check admits numpy integers, so they must draw the rows of the
    # equal Python ints, with no overflow in the stream's key arithmetic
    scfg = seeded(cfg, 7)
    drawn = sample_amplitudes(scfg, integer(2), integer(5))
    assert np.array_equal(drawn, sample_amplitudes(scfg, 2, 5))


def test_draw_trials_reads_a_one_shot_columns_iterable():
    # a generator of columns is read once, so every column it yields is kept
    cfg = ScenarioConfig(ris_cols=3, ris_rows=3, mc_trials=50)
    trials = draw_trials(cfg, columns=(k for k in (2, 5)))
    assert trials.columns == (2, 5, 9)
    listed = draw_trials(cfg, columns=[2, 5])
    assert np.array_equal(trials.reflecting_sum(2), listed.reflecting_sum(2))
    assert np.array_equal(trials.amp_prefix, listed.amp_prefix)


def test_sample_amplitudes_deterministic(cfg):
    a = sample_amplitudes(seeded(cfg, 5), 0, 4)
    b = sample_amplitudes(seeded(cfg, 5), 0, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_amplitudes(seeded(cfg, 6), 0, 4))


def test_sample_amplitudes_continue_one_stream(cfg):
    # trials [a, b) then [b, c) give the rows of trials [a, c), also where a
    # call covers an odd count of words
    scfg = seeded(cfg, 6)
    whole = sample_amplitudes(scfg, 2, 11)
    parts = [sample_amplitudes(scfg, a, b) for a, b in ((2, 3), (3, 8), (8, 11))]
    assert np.array_equal(np.concatenate(parts), whole)


def unit_link(k, m_s, seed):
    """A link budget of 1 at Rician factor ``k``: the sampler's final scaling
    is exact, so its output is the magnitude |c + sigma (x + j y)| itself."""
    return SimpleNamespace(
        rician_k=k, m_s=m_s, free_space_uc_gain=1.0, mean_ris_rx_gain=1.0, rng_seed=seed
    )


def los_and_sigma(k):
    diffuse = 1.0 / (k + 1.0)
    return math.sqrt(1.0 - diffuse), math.sqrt(diffuse / 2.0)


@pytest.mark.parametrize("k", [0.5, 10.0, 1e3, math.inf])
def test_magnitude_is_box_muller_of_the_same_uniforms(cfg, k):
    # the reference is the float64 Box-Muller transform of the same words'
    # uniforms u and v, from a pure-Python SplitMix64, in its textbook form,
    # c^2 + sigma^2 R^2 - 2 c sigma R cos(pi v) with R = sqrt(-2 log1p(-u));
    # the sampler's float32 angle arithmetic is what separates the two, as its
    # log(1 - u) equals log1p(-u) to within rounding
    amp = sample_amplitudes(unit_link(k, cfg.m_s, 8), 3, 403)
    los, sigma = los_and_sigma(k)
    u, v = sampler_uniforms(8, 3, 403, cfg.m_s)
    radius = sigma * np.sqrt(-2.0 * np.log1p(-u))
    expected = np.sqrt(los**2 + radius**2 - 2.0 * los * radius * np.cos(np.pi * v))
    if k == math.inf:
        assert np.array_equal(amp, np.ones_like(amp))  # the LoS gain, bit for bit
    np.testing.assert_allclose(amp, expected, rtol=0.0, atol=1e-6 * expected.mean())
    # the half-angle form keeps even the smallest amplitudes relatively exact
    np.testing.assert_allclose(amp, expected, rtol=2e-7, atol=0.0)


def normal_based_amplitudes(k, m_s, rng, n):
    """|c + sigma (x + j y)| from two standard normals per UC: the sampler's
    formula before it drew uniforms."""
    los, sigma = los_and_sigma(k)
    z = rng.standard_normal((n, 2, m_s)) * sigma
    return np.sqrt((z[:, 0] + los) ** 2 + z[:, 1] ** 2)


@pytest.mark.parametrize("k", [0.0, 10.0])
def test_full_surface_sums_match_the_normal_based_sampler(cfg, k):
    # two independent samples of the full-surface sum, one per formula, are
    # one law by a two-sample Kolmogorov-Smirnov test
    link = unit_link(k, cfg.m_s, 41)
    uniforms = sample_amplitudes(link, 0, 4000).sum(axis=1)
    normals = normal_based_amplitudes(k, cfg.m_s, np.random.default_rng(42), 4000).sum(axis=1)
    assert stats.ks_2samp(uniforms, normals).pvalue > 0.001


@pytest.mark.parametrize("k", [0.5, 10.0, 1e3])
def test_amplitudes_follow_rician_law(cfg, k):
    # |g| is Rician with nu^2 = E|g|^2 K/(K+1) and sigma^2 = E|g|^2/(2(K+1))
    # per component; the UCs of a draw are i.i.d. because no common phase is drawn
    kcfg = dataclasses.replace(cfg, rician_k=k, rng_seed=2024)
    gains = g_amplitudes(kcfg, 20).ravel()
    law = stats.rice(b=math.sqrt(2.0 * k), scale=math.sqrt(kcfg.mean_ris_rx_gain / (2.0 * (k + 1.0))))
    assert stats.kstest(gains, law.cdf).pvalue > 0.01


def test_infinite_k_collapses_to_los(los_cfg):
    gains = g_amplitudes(los_cfg, 2)
    assert np.allclose(gains**2, los_cfg.mean_ris_rx_gain, rtol=1e-12)


def test_huge_k_is_nearly_deterministic(cfg):
    # at K = 1e12 the LoS-diffuse cross term still perturbs |g|^2 at the
    # 2/sqrt(K) = 2e-6 level, so the tolerance sits above that scale
    near_los = dataclasses.replace(cfg, rician_k=1e12)
    gains = g_amplitudes(near_los, 1)
    assert np.allclose(gains**2, cfg.mean_ris_rx_gain, rtol=2e-5)
    tighter = dataclasses.replace(cfg, rician_k=1e14)
    gains = g_amplitudes(tighter, 1)
    assert np.allclose(gains**2, cfg.mean_ris_rx_gain, rtol=1e-6)


def test_sample_mean_gain_power_converges(cfg):
    gains = g_amplitudes(seeded(cfg, 777), math.ceil(100_000 / cfg.m_s))
    assert gains.size >= 100_000
    sample_mean = np.mean(gains**2)
    assert sample_mean == pytest.approx(cfg.mean_ris_rx_gain, rel=0.02)


def test_reflected_snr_empty_set(cfg):
    amp = sample_amplitudes(cfg, 0, 1)[0]
    assert coherent_snr(amp[[]].sum(), cfg) == 0.0


def test_coherent_snr_full_surface_closed_form(los_cfg):
    amp = sample_amplitudes(los_cfg, 0, 1)[0]
    snr = coherent_snr(amp.sum(), los_cfg)
    expected = oracle_full_surface_snr(los_cfg)
    assert snr == pytest.approx(expected, rel=1e-9)
    assert 48.0 <= 10 * math.log10(snr) <= 49.0


def test_coherent_snr_subset_monotone(cfg):
    rng = np.random.default_rng(42)
    amp = sample_amplitudes(seeded(cfg, 42), 0, 1)[0]
    for _ in range(200):
        size = rng.integers(0, cfg.m_s)
        subset = np.sort(rng.choice(cfg.m_s, size=size, replace=False))
        extra = rng.integers(0, cfg.m_s)
        grown = np.union1d(subset, [extra])
        assert coherent_snr(amp[subset].sum(), cfg) <= coherent_snr(amp[grown].sum(), cfg)


def test_coherent_sum_second_moment_matches_analytic(cfg):
    sums = sample_amplitudes(seeded(cfg, 31337), 0, 10_000).sum(axis=1)
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
    half = dataclasses.replace(cfg, tx_power=cfg.tx_power / 2)
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
    # segment, from the law for n >= 2; against 4000 sums of n amplitudes of
    # the sampler under another seed, a two-sample Kolmogorov-Smirnov test
    # finds one law
    cfg = ScenarioConfig(ris_cols=n, ris_rows=1, rician_k=k, mc_trials=4000, rng_seed=71)
    tails = draw_trials(cfg, columns=[]).amp_total
    sums = sample_amplitudes(dataclasses.replace(cfg, rng_seed=72), 0, 4000).sum(axis=1)
    assert stats.ks_2samp(tails, sums).pvalue > 0.001


@pytest.mark.parametrize("k", [0.0, 0.5, 10.0, 100.0, 1e6])
def test_tail_law_moments_are_n_times_the_rice_moments(k):
    # the table's mean is n times the Rice mean within 1e-9 of its standard
    # deviation, and its variance n times the Rice variance within 1e-7; the
    # draw reads no table for one UC
    mean, var = unit_power_moments(k)
    for n in (2, 7, 225, 3600, 10**6):
        cdf, values = _tail_table(k, n)
        assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0.0) and np.all(values >= 0.0)
        mass = np.diff(cdf, prepend=0.0)
        law_mean = mass @ values
        law_var = mass @ (values - law_mean) ** 2
        assert abs(law_mean - n * mean) <= 1e-9 * math.sqrt(n * var), n
        assert law_var == pytest.approx(n * var, rel=1e-7), n


def test_tail_law_is_exact_at_infinite_k():
    # K = inf is the point mass n c = n: every drawn segment of n UCs is n
    # times the LoS gain, rounded once, whichever columns are kept
    for n in (2, 3600):
        cdf, values = _tail_table(math.inf, n)
        assert cdf.tolist() == [1.0] and values.tolist() == [float(n)]
    cfg = ScenarioConfig(ris_cols=9, ris_rows=5, rician_k=math.inf, mc_trials=50)
    gain = math.sqrt(cfg.free_space_uc_gain * cfg.mean_ris_rx_gain)
    for lo in (0, 1, 30, 44):
        assert np.array_equal(segment(cfg, lo, 45), np.full(50, (45 - lo) * gain))
    assert np.array_equal(draw_trials(cfg, columns=[]).amp_total, np.full(50, 45 * gain))


@pytest.mark.parametrize("k", [1e12, 1e36, 1e300])
def test_tail_law_holds_at_any_finite_k(k):
    # beta^2 = 2 K overflows near K = 1e308 and a cell of sigma / 32 is far
    # below an ulp of c = 1 from K = 1e30, yet the table stays finite, >= 0
    # and centred on n c, as cells are indexed from c - 8 sigma
    for n in (2, 3600):
        cdf, values = _tail_table(k, n)
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
        assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0.0)
        assert np.diff(cdf, prepend=0.0) @ values == pytest.approx(n, rel=1e-5)


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
    # importing the package and loading a configuration, which every sweep's
    # set-up does, leave numpy.fft unloaded; so does a draw whose segments
    # are all one UC, which reads no law; a segment of two UCs loads it
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


@pytest.mark.parametrize("shape, first, stride", [((5, 1), 138, 225), ((3, 7), 2**64 - 9, 10)])
def test_strided_words_are_splitmix64(shape, first, stride):
    # entry (t, j) of the words of trials [0, rows) at UCs ucs is output
    # t m_s + ucs[j], with m_s the stride: a trial's row of the sampler, or
    # the one word of each segment of a draw; also where the counters wrap
    link = SimpleNamespace(m_s=stride, rng_seed=20230816)
    ucs = np.arange(1, shape[1] + 1, dtype=np.uint64) + np.uint64(first)
    words = _words(link, 0, shape[0], ucs)
    assert words.shape == shape
    for r, row in enumerate(words.tolist()):
        assert row == splitmix64(20230816, first + r * stride, shape[1])


@pytest.mark.parametrize("kmax", [0, 3, 24])
def test_tail_is_drawn_from_the_word_of_uc_kmax_plus_one(kmax):
    # each segment (lo, k] of a draw reads word t m_s + lo + 1 of trial t
    # (the pure-Python SplitMix64): the sampler's amplitude of that word for
    # one UC, else the table value its top 53 bits pick by the inverse CDF,
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
    tables = [hand, _tail_table(10.0, 7)[0], _tail_table(0.0, 3600)[0], _tail_table(math.inf, 5)[0]]
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
        assert np.array_equal(_guided_search(cdf, _guide(cdf), u), expected)
        # a 2-D block of uniforms gives the same indices in its shape
        block = u[: 2 * (u.size // 2)].reshape(2, -1)
        assert np.array_equal(_guided_search(cdf, _guide(cdf), block), expected[: block.size].reshape(2, -1))


@pytest.mark.parametrize("k", [0.0, 10.0])
def test_drawn_amplitudes_follow_rician_law(cfg, k):
    # adjacent columns of a full draw differ by one UC's |h||g|, Rician with
    # nu^2 = K/(K+1) and sigma^2 = 1/(2(K+1)) per component, times the mean
    # link gain; every segment of a full draw is one UC, the last included
    kcfg = dataclasses.replace(cfg, rician_k=k, mc_trials=600)
    amplitudes = np.diff(draw(kcfg, 563).amp_prefix, axis=1).ravel()
    gain = math.sqrt(kcfg.free_space_uc_gain * kcfg.mean_ris_rx_gain)
    law = stats.rice(b=math.sqrt(2.0 * k), scale=gain / math.sqrt(2.0 * (k + 1.0)))
    assert stats.kstest(amplitudes, law.cdf).pvalue > 0.01


@pytest.mark.parametrize("k", [0.0, 10.0])
def test_full_surface_mean_matches_the_rician_mean(cfg, k):
    # the full-surface column sums m_s i.i.d. |h||g|, so its mean over 10^4
    # trials lies within 4 standard errors of m_s times the link gain times
    # the mean of a unit-power Rician amplitude
    kcfg = dataclasses.replace(cfg, rician_k=k)
    sums = draw(kcfg, 564, 10_000, columns=[kcfg.m_s]).amp_total
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

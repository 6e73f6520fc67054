import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special, stats

import risharvest.channel
from risharvest import ScenarioConfig
from risharvest.channel import (
    _buffers,
    _sample_into,
    _splitmix64,
    coherent_snr,
    draw_trials,
    sample_amplitudes,
)

from conftest import oracle_free_space_gain, oracle_full_surface_snr, oracle_mean_rx_gain


def splitmix64(seed, first, count):
    """Outputs first + 1 .. first + count of SplitMix64 seeded with ``seed``,
    transcribed from Vigna's splitmix64.c in Python ints."""
    mask, words = (1 << 64) - 1, []
    state = (seed + first * 0x9E3779B97F4A7C15) & mask
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        words.append(z ^ (z >> 31))
    return words


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
    # the whole-array words equal splitmix64.c transcribed in Python ints, at
    # offsets that wrap the counter, also on arrays longer than the first run
    # of counters, which the rest doubles
    for shape in ((1, 1), (3, 7), (40, 25)):
        words = np.empty(shape, np.uint64)
        _splitmix64(seed, first, words, np.empty_like(words))
        assert words.ravel().tolist() == splitmix64(seed, first, words.size)


def test_words_are_the_published_splitmix64_outputs():
    # the first outputs of splitmix64.c seeded with 1234567
    words = np.empty((1, 3), np.uint64)
    _splitmix64(1234567, 0, words, np.empty_like(words))
    expected = [6457827717110365317, 3203168211198807973, 9817491932198370423]
    assert words.ravel().tolist() == splitmix64(1234567, 0, 3) == expected


def test_uniforms_of_a_word_are_uniform_and_uncorrelated():
    # over 10^6 words, the low-40-bit u and the top-24-bit v each pass a
    # uniformity KS test, and their correlation is within 5 / sqrt(N)
    words = np.empty((1000, 1000), np.uint64)
    _splitmix64(20230816, 0, words, np.empty_like(words))
    u = (words & np.uint64((1 << 40) - 1)).ravel() * 2.0**-40
    v = (words >> np.uint64(40)).ravel() * 2.0**-24
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


@pytest.mark.parametrize("k", [10.0, math.inf])
def test_sampling_into_a_reused_buffer_matches_fresh_calls(cfg, k):
    # chunks of 4, 4 and a shorter 3 trials drawn by the draw's kernel into
    # prefix views of one set of (4, m_s) buffers give the rows of fresh calls
    kcfg = dataclasses.replace(cfg, rician_k=k, rng_seed=10)
    buffers = _buffers(4, kcfg.m_s)
    rows = []
    for a, b in ((0, 4), (4, 8), (8, 11)):
        fresh = sample_amplitudes(kcfg, a, b)
        reused = _sample_into(kcfg, a, tuple(plane[: b - a] for plane in buffers))
        assert np.shares_memory(reused, buffers[0])
        assert fresh.flags.c_contiguous and fresh.base is None
        assert np.array_equal(reused, fresh)
        rows.append(reused.copy())
    whole = sample_amplitudes(kcfg, 0, 11)
    assert np.array_equal(np.concatenate(rows), whole)


def test_sampling_into_a_reused_buffer_allocates_only_cast_buffers():
    # one chunk of draw_trials into its reused buffers, on a 15 x 15 and a
    # 60 x 60 surface: the float64 loop over the float32 plane casts through
    # numpy's ufunc buffers, one per float32 operand (131 KB at numpy's
    # default buffer size); the casts from the int64 views make no buffer,
    # the first run of counters 2 KB, and nothing grows with the chunk
    for side in (15, 60):
        cfg = ScenarioConfig(ris_cols=side, ris_rows=side)
        n = risharvest.channel._DRAW_CHUNK_VALUES // cfg.m_s
        buffers = _buffers(n, cfg.m_s)
        _sample_into(cfg, 0, buffers)
        tracemalloc.start()
        try:
            _sample_into(cfg, n, buffers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * np.getbufsize() * 8 + (4 << 10), (side, peak)


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

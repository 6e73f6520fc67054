import dataclasses
import math

import numpy as np
import pytest
from scipy import special, stats

from risharvest import (
    free_space_uc_gain,
    mean_ris_rx_gain,
    sample_amplitudes,
    uc_absorbed_power,
)
from risharvest.channel import coherent_snr, uc_gain

from conftest import (
    oracle_free_space_gain,
    oracle_full_surface_snr,
    oracle_mean_rx_gain,
)


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
    value = free_space_uc_gain(cfg)
    assert value == pytest.approx(oracle_free_space_gain(cfg), rel=1e-12)
    assert value == pytest.approx(3.17e-5, rel=5e-3)


def test_free_space_gain_inverse_square(cfg):
    doubled = dataclasses.replace(cfg, d_tx_ris=2 * cfg.d_tx_ris)
    assert free_space_uc_gain(cfg) / free_space_uc_gain(doubled) == pytest.approx(4.0)


def test_free_space_gain_unit_gain_case(cfg):
    unit = dataclasses.replace(cfg, tx_gain_dbi=0.0, antenna_efficiency=1.0)
    wavelength = 2.99792458e8 / cfg.carrier_frequency
    aperture = (wavelength / 2.0) ** 2
    expected = aperture / (4 * math.pi * cfg.d_tx_ris**2)
    assert free_space_uc_gain(unit) == pytest.approx(expected, rel=1e-12)


def test_uc_gain_is_pi_for_half_wave_cell(cfg):
    assert uc_gain(cfg) == pytest.approx(math.pi, rel=1e-12)


def test_mean_rx_gain_matches_hand_formula(cfg):
    value = mean_ris_rx_gain(cfg)
    assert value == pytest.approx(oracle_mean_rx_gain(cfg), rel=1e-12)
    assert value == pytest.approx(3.6e-7, rel=2e-2)


def test_mean_rx_gain_friis_factor(cfg):
    base = dataclasses.replace(cfg, rx_gain_dbi=0.0, antenna_efficiency=1.0)
    wavelength = 2.99792458e8 / cfg.carrier_frequency
    friis = (wavelength / (4 * math.pi * cfg.d_ris_rx)) ** 2
    # only the UC re-radiation gain remains in front of the Friis factor
    assert mean_ris_rx_gain(base) == pytest.approx(math.pi * friis, rel=1e-12)


def test_mean_rx_gain_inverse_square(cfg):
    doubled = dataclasses.replace(cfg, d_ris_rx=2 * cfg.d_ris_rx)
    assert mean_ris_rx_gain(cfg) / mean_ris_rx_gain(doubled) == pytest.approx(4.0)


def g_amplitudes(cfg, rng, n):
    """|g_i| of n draws: the sampled cascaded amplitudes over the constant |h|."""
    return sample_amplitudes(cfg, rng, n) / math.sqrt(free_space_uc_gain(cfg))


def test_sample_amplitudes_shape_and_sign(cfg, rng):
    amp = sample_amplitudes(cfg, rng, 3)
    assert amp.shape == (3, 225) and amp.dtype == np.float64
    assert np.all(amp > 0.0)
    assert sample_amplitudes(cfg, rng, 0).shape == (0, 225)


def test_sample_amplitudes_deterministic(cfg):
    a = sample_amplitudes(cfg, np.random.default_rng(5), 4)
    b = sample_amplitudes(cfg, np.random.default_rng(5), 4)
    assert np.array_equal(a, b)


def test_sample_amplitudes_continue_one_stream(cfg):
    # trial-major draws: split calls give the same rows as one call
    whole = sample_amplitudes(cfg, np.random.default_rng(6), 9)
    rng = np.random.default_rng(6)
    parts = [sample_amplitudes(cfg, rng, n) for n in (1, 5, 3)]
    assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("k", [0.5, 10.0, 1e3])
def test_amplitudes_follow_rician_law(cfg, k):
    # |g| is Rician with nu^2 = E|g|^2 K/(K+1) and sigma^2 = E|g|^2/(2(K+1))
    # per component; the UCs of a draw are i.i.d. because no common phase is drawn
    kcfg = dataclasses.replace(cfg, rician_k=k)
    gains = g_amplitudes(kcfg, np.random.default_rng(2024), 20).ravel()
    law = stats.rice(b=math.sqrt(2.0 * k), scale=math.sqrt(mean_ris_rx_gain(kcfg) / (2.0 * (k + 1.0))))
    assert stats.kstest(gains, law.cdf).pvalue > 0.01


def test_infinite_k_collapses_to_los(los_cfg, rng):
    gains = g_amplitudes(los_cfg, rng, 2)
    assert np.allclose(gains**2, mean_ris_rx_gain(los_cfg), rtol=1e-12)


def test_huge_k_is_nearly_deterministic(cfg, rng):
    # at K = 1e12 the LoS-diffuse cross term still perturbs |g|^2 at the
    # 2/sqrt(K) = 2e-6 level, so the tolerance sits above that scale
    near_los = dataclasses.replace(cfg, rician_k=1e12)
    gains = g_amplitudes(near_los, rng, 1)
    assert np.allclose(gains**2, mean_ris_rx_gain(cfg), rtol=2e-5)
    tighter = dataclasses.replace(cfg, rician_k=1e14)
    gains = g_amplitudes(tighter, rng, 1)
    assert np.allclose(gains**2, mean_ris_rx_gain(cfg), rtol=1e-6)


def test_sample_mean_gain_power_converges(cfg):
    rng = np.random.default_rng(777)
    gains = g_amplitudes(cfg, rng, math.ceil(100_000 / cfg.m_s))
    assert gains.size >= 100_000
    sample_mean = np.mean(gains**2)
    assert sample_mean == pytest.approx(mean_ris_rx_gain(cfg), rel=0.02)


def test_reflected_snr_empty_set(cfg, rng):
    amp = sample_amplitudes(cfg, rng, 1)[0]
    assert coherent_snr(amp[[]].sum(), cfg) == 0.0


def test_coherent_snr_full_surface_closed_form(los_cfg, rng):
    amp = sample_amplitudes(los_cfg, rng, 1)[0]
    snr = coherent_snr(amp.sum(), los_cfg)
    expected = oracle_full_surface_snr(los_cfg)
    assert snr == pytest.approx(expected, rel=1e-9)
    assert 48.0 <= 10 * math.log10(snr) <= 49.0


def test_coherent_snr_subset_monotone(cfg):
    rng = np.random.default_rng(42)
    amp = sample_amplitudes(cfg, rng, 1)[0]
    for _ in range(200):
        size = rng.integers(0, cfg.m_s)
        subset = np.sort(rng.choice(cfg.m_s, size=size, replace=False))
        extra = rng.integers(0, cfg.m_s)
        grown = np.union1d(subset, [extra])
        assert coherent_snr(amp[subset].sum(), cfg) <= coherent_snr(amp[grown].sum(), cfg)


def test_coherent_sum_second_moment_matches_analytic(cfg):
    rng = np.random.default_rng(31337)
    sums = sample_amplitudes(cfg, rng, 10_000).sum(axis=1)
    m_s = cfg.m_s
    h2 = free_space_uc_gain(cfg)
    eg = mean_ris_rx_gain(cfg)
    mu = rician_mean_amplitude(eg, cfg.rician_k)
    analytic = m_s * h2 * eg * (1.0 + (m_s - 1) * mu**2 / eg)
    assert np.mean(sums**2) == pytest.approx(analytic, rel=0.05)


def test_absorbed_power_per_uc(cfg):
    absorbed = uc_absorbed_power(cfg)
    assert absorbed == pytest.approx(cfg.tx_power * free_space_uc_gain(cfg), rel=1e-12)
    assert cfg.m_s * absorbed == pytest.approx(7.1e-3, rel=1e-2)
    # halving TX power halves it
    half = dataclasses.replace(cfg, tx_power=cfg.tx_power / 2)
    assert uc_absorbed_power(half) == pytest.approx(absorbed / 2, rel=1e-12)

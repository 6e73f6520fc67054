import dataclasses
import math

import numpy as np
import pytest

from risharvest import TIME_SPLITTING, ScenarioConfig, harvest

# Independent constants for oracle arithmetic (kept separate from the package).
C_LIGHT = 2.99792458e8
K_BOLTZMANN = 1.380649e-23


@pytest.fixture
def cfg():
    return ScenarioConfig()


@pytest.fixture
def los_cfg():
    """Default scenario with a pure line-of-sight RIS-RX link (K infinite)."""
    return dataclasses.replace(ScenarioConfig(), rician_k=float("inf"))


@pytest.fixture
def small_cfg():
    """Reduced instance where exhaustive scans stay cheap."""
    return ScenarioConfig(
        ris_cols=5,
        ris_rows=5,
        frame_slots=100,
        preamble_slots=10,
        e_rec=8e-11,
        mc_trials=1000,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240614)


def oracle_free_space_gain(cfg):
    """Hand evaluation of the TX-to-UC absorption fraction."""
    wavelength = C_LIGHT / cfg.carrier_frequency
    aperture = (wavelength / 2.0) ** 2
    return (
        10.0 ** (cfg.tx_gain_dbi / 10.0)
        * cfg.antenna_efficiency
        * aperture
        / (4.0 * np.pi * cfg.d_tx_ris**2)
    )


def oracle_mean_rx_gain(cfg):
    """Hand evaluation of the UC-to-RX mean power gain."""
    wavelength = C_LIGHT / cfg.carrier_frequency
    return (
        np.pi
        * 10.0 ** (cfg.rx_gain_dbi / 10.0)
        * cfg.antenna_efficiency
        * (wavelength / (4.0 * np.pi * cfg.d_ris_rx)) ** 2
    )


def oracle_noise_power(cfg):
    return (
        K_BOLTZMANN
        * cfg.noise_temperature
        * cfg.bandwidth
        * 10.0 ** (cfg.noise_figure_db / 10.0)
    )


def oracle_full_surface_snr(cfg):
    """Closed-form SNR with every UC reflecting and a pure LoS RX link."""
    m_s = cfg.ris_cols * cfg.ris_rows
    return (
        cfg.tx_power
        * m_s**2
        * oracle_free_space_gain(cfg)
        * oracle_mean_rx_gain(cfg)
        / oracle_noise_power(cfg)
    )


def frame_oracle(protocol, value, amplitudes, p_static, cfg):
    """One frame under one channel draw, written out from the protocol description.

    ``amplitudes`` is one (m_s,) row of |h||g_i|. The preamble carries no
    payload and harvests nothing. Time splitting absorbs on every UC for
    ``value`` slots and reflects on the whole surface for the rest; UC
    splitting absorbs on the first ``value`` UCs for the whole post-preamble
    interval while the others reflect. Returns (rate in bit/s, harvested J,
    consumed J).
    """
    post = cfg.frame_slots - cfg.preamble_slots
    if protocol == TIME_SPLITTING:
        payload, reflecting, rounds = post - value, amplitudes, 2
        harvesting, harvest_slots = cfg.m_s, value
    else:
        payload, reflecting, rounds = post, amplitudes[value:], 1
        harvesting, harvest_slots = value, post
    snr = cfg.tx_power * math.fsum(reflecting) ** 2 / oracle_noise_power(cfg)
    rate = payload / cfg.frame_slots * cfg.bandwidth * math.log2(1.0 + snr)
    absorbed = np.full(harvesting, cfg.tx_power * oracle_free_space_gain(cfg))
    harvested = harvest(absorbed, cfg) * harvest_slots * cfg.slot_duration
    # Estimation reconfigures one UC at a time; each later phase reconfigures
    # the whole surface, counted per UC or per controller chip.
    n_asics = -(-cfg.m_s // cfg.asic_fanout)
    per_round = cfg.m_s if cfg.reconfig_counting_mode == "per_uc" else n_asics
    static = p_static * (n_asics if cfg.static_power_interpretation == "per_asic" else 1)
    frame = cfg.frame_slots * cfg.slot_duration
    consumed = static * frame + (cfg.m_s + rounds * per_round) * cfg.e_rec
    return rate, harvested, consumed

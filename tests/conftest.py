import dataclasses
import math

import numpy as np
import pytest

import risharvest.optimizer
from risharvest import TIME_SPLITTING, ScenarioConfig
from risharvest.channel import _draw_tail, draw_trials, sample_amplitudes
from risharvest.harvesting import rectify

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


def draw(cfg, seed, n=None, columns=None):
    """``draw_trials`` of ``cfg`` with ``rng_seed = seed`` and ``n`` trials (cfg's if None).

    Every prefix column is kept when ``columns`` is None.
    """
    trials = cfg.mc_trials if n is None else n
    if columns is None:
        columns = range(cfg.m_s + 1)
    return draw_trials(dataclasses.replace(cfg, rng_seed=seed, mc_trials=trials), columns=columns)


def tail(cfg, kmax):
    """Per trial of ``cfg``, the sum of UCs kmax + 1..m_s that ``draw_trials``
    adds to the full-surface column when kmax is its largest kept column
    below m_s."""
    out = np.zeros(cfg.mc_trials)
    _draw_tail(cfg, kmax, out)
    return out


def drawn_rows(cfg, seed, n):
    """The (n, m_s) rows a draw of every prefix column of ``cfg`` reads at
    ``rng_seed = seed``: the kernel's amplitudes of UCs 1..m_s - 1, and the
    tail drawn for UC m_s as one lumped last entry."""
    scfg = dataclasses.replace(cfg, rng_seed=seed, mc_trials=n)
    rows = sample_amplitudes(scfg, 0, n)
    rows[:, -1] = tail(scfg, cfg.m_s - 1)
    return rows


def allocation_harvest(protocol, value, cfg):
    """The frame-averaged harvest (W) the solve reads for an allocation value or array of them."""
    return risharvest.optimizer.harvest_of(protocol, cfg)(value)


def curve_of(protocol, cfg):
    """The frame-averaged harvest of every allocation value 0..vmax, as one array."""
    vmax = cfg.frame_slots - cfg.preamble_slots if protocol == TIME_SPLITTING else cfg.m_s
    return allocation_harvest(protocol, np.arange(vmax + 1), cfg)


def clear_harvest_caches():
    """Empty the cached harvest, which a patched harvest chain must rebuild."""
    risharvest.optimizer._harvest.cache_clear()


def absorbing_config(p_uc, m_s, **fields):
    """A 1 x ``m_s`` surface whose UCs each absorb ``p_uc`` W, up to rounding.

    The TX power is scaled to give the per-UC absorbed power; ``fields`` set
    the others, except the surface size and TX power.
    """
    gain = ScenarioConfig(**fields).free_space_uc_gain
    return ScenarioConfig(ris_cols=m_s, ris_rows=1, tx_power=p_uc / gain, **fields)


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


def per_chain_oracle(powers, cfg):
    """The harvest chain written out chain by chain, with scalar rectify calls."""
    size, loss = cfg.chain_size, 10.0 ** (-cfg.rf_combining_loss_db / 10.0)
    dc = [
        rectify(float(np.sum(powers[i : i + size])) * loss, cfg.rectifier)
        for i in range(0, len(powers), size)
    ]
    return cfg.dc_combining_efficiency * sum(dc)


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
    harvested = per_chain_oracle(absorbed, cfg) * harvest_slots * cfg.slot_duration
    # Estimation reconfigures one UC at a time; each later phase reconfigures
    # the whole surface, counted per UC or per controller chip.
    n_asics = -(-cfg.m_s // cfg.asic_fanout)
    per_round = cfg.m_s if cfg.reconfig_counting_mode == "per_uc" else n_asics
    static = p_static * (n_asics if cfg.static_power_interpretation == "per_asic" else 1)
    frame = cfg.frame_slots * cfg.slot_duration
    consumed = static * frame + (cfg.m_s + rounds * per_round) * cfg.e_rec
    return rate, harvested, consumed

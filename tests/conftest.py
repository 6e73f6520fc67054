import dataclasses
import math

import numpy as np
import pytest

import risharvest.optimizer
from risharvest import TIME_SPLITTING, ScenarioConfig
from risharvest.channel import _tail_table, draw_trials
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


def estimate(protocol, value, trials):
    """``estimate_averages`` of the one allocation ``value``: its (average, ci)."""
    (result,) = risharvest.optimizer.estimate_averages(protocol, [value], trials)
    return result


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


def segment(cfg, lo, k):
    """Per trial of ``cfg``, the sum of UCs lo + 1..k that ``draw_trials``
    adds to the kept column lo below it to make column k, rebuilt from the
    pure-Python SplitMix64 word of UC lo + 1 (output t m_s + lo + 1): the
    value of the segment's law that the word's top 53 bits pick by
    ``searchsorted``, times the link gain."""
    words = [splitmix64(cfg.rng_seed, t * cfg.m_s + lo, 1)[0] for t in range(cfg.mc_trials)]
    cdf, values = _tail_table(cfg.rician_k, k - lo)
    values *= math.sqrt(cfg.free_space_uc_gain * cfg.mean_ris_rx_gain)
    u = np.array([word >> 11 for word in words]) * 2.0**-53
    return values[np.searchsorted(cdf, u, side="right")]


def rebuilt_prefix(cfg, kept):
    """The prefix ``draw_trials`` keeps for the sorted columns ``kept`` (m_s
    last), rebuilt from ``segment``: each column is the one below it plus
    the segment between them, and column 0 is 0."""
    sums = [segment(cfg, lo, k) if k > lo else np.zeros(cfg.mc_trials) for lo, k in zip([0, *kept], kept)]
    return np.cumsum(np.column_stack(sums), axis=1)


def drawn_rows(cfg, seed, n):
    """The (n, m_s) amplitudes |h||g_i| of a draw of ``n`` trials of ``cfg``
    at ``rng_seed = seed`` that keeps every prefix column: every segment is
    one UC, so adjacent columns differ by one UC's amplitude."""
    return np.diff(draw(cfg, seed, n).amp_prefix, axis=1)


def allocation_harvest(protocol, value, cfg):
    """The frame-averaged harvest (W) the solve reads for an allocation value."""
    return risharvest.optimizer.harvest_of(protocol, cfg)(value)


def curve_of(protocol, cfg):
    """The frame-averaged harvest of every allocation value 0..vmax, as one array."""
    vmax = cfg.frame_slots - cfg.preamble_slots if protocol == TIME_SPLITTING else cfg.m_s
    harvested = risharvest.optimizer.harvest_of(protocol, cfg)
    return np.array([harvested(value) for value in range(vmax + 1)])


def clear_harvest_caches():
    """Empty the cached harvest tables, which a patched harvest chain must rebuild."""
    risharvest.optimizer._tables.cache_clear()


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
        rectify(float(np.sum(powers[i : i + size])) * loss, cfg)
        for i in range(0, len(powers), size)
    ]
    return cfg.dc_combining_efficiency * sum(dc)


def frame_oracle(protocol, value, amplitudes, p_static, cfg):
    """One frame under one channel draw, written out from the protocol description.

    ``amplitudes`` is one (m_s,) row of |h||g_i|. The preamble carries no
    payload and harvests nothing. Time splitting absorbs on every UC for
    ``value`` slots and reflects on the whole surface for the rest; UC
    splitting lets the first m_s - ``value`` UCs reflect for the whole
    post-preamble interval while the other ``value`` absorb. Returns (rate
    in bit/s, harvested J, consumed J).
    """
    post = cfg.frame_slots - cfg.preamble_slots
    if protocol == TIME_SPLITTING:
        payload, reflecting, rounds = post - value, amplitudes, 2
        harvesting, harvest_slots = cfg.m_s, value
    else:
        payload, reflecting, rounds = post, amplitudes[: cfg.m_s - value], 1
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

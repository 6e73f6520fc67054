"""Cascaded TX-RIS and RIS-RX channel amplitudes, absorbed power, and SNR.

The TX side is deterministic free space under far-field plane-wave incidence,
so every UC sees the same |h|^2. The RIS-RX side is Rician with i.i.d.
diffuse components across UCs. Every quantity the package computes from the
link uses only the amplitudes |h||g_i|, so only those are drawn. A common
line-of-sight phase theta is not drawn either: CN(0,1) is circularly
symmetric, so |c e^{j theta} + sigma d_i| has the same joint law as
|c + sigma d_i e^{-j theta}|, which does not depend on theta.
"""

import math

import numpy as np

from .scenario import SPEED_OF_LIGHT, ScenarioConfig, derived_quantities


def uc_aperture(cfg: ScenarioConfig) -> float:
    """Effective aperture of one UC: a half-wavelength square cell."""
    wavelength = SPEED_OF_LIGHT / cfg.carrier_frequency
    return (wavelength / 2.0) ** 2


def uc_gain(cfg: ScenarioConfig) -> float:
    """Re-radiation gain of one UC toward the RX, 4*pi*A_uc/lambda^2.

    Equals pi for the half-wavelength cell.
    """
    wavelength = SPEED_OF_LIGHT / cfg.carrier_frequency
    return 4.0 * math.pi * uc_aperture(cfg) / wavelength**2


def free_space_uc_gain(cfg: ScenarioConfig) -> float:
    """|h|^2: fraction of TX power absorbed by one perfectly absorbing UC.

    Boresight incidence: TX EIRP spread over the sphere of radius d_tx_ris,
    intercepted by the UC aperture.
    """
    g_t = 10.0 ** (cfg.tx_gain_dbi / 10.0)
    return (
        g_t
        * cfg.antenna_efficiency
        * uc_aperture(cfg)
        / (4.0 * math.pi * cfg.d_tx_ris**2)
    )


def mean_ris_rx_gain(cfg: ScenarioConfig) -> float:
    """E[|g|^2]: mean power gain of the UC-to-RX link (Friis with UC gain)."""
    wavelength = SPEED_OF_LIGHT / cfg.carrier_frequency
    g_r = 10.0 ** (cfg.rx_gain_dbi / 10.0)
    return (
        uc_gain(cfg)
        * g_r
        * cfg.antenna_efficiency
        * (wavelength / (4.0 * math.pi * cfg.d_ris_rx)) ** 2
    )


def sample_amplitudes(cfg: ScenarioConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` channel realizations: an (n, m_s) array of |h||g_i|.

    |g_i| = sqrt(E[|g|^2]) |sqrt(K/(K+1)) + sigma (x_i + j y_i)| with x, y
    standard normal and sigma^2 = 1/(2(K+1)) per component. The normals are
    drawn as one trial-major (n, 2, m_s) block, so consecutive calls continue
    one stream: n draws equal the first n of any longer draw from the same
    state. An infinite K gives sigma = 0, the pure LoS gain exactly.
    """
    diffuse = 1.0 / (cfg.rician_k + 1.0)  # diffuse share of E[|g|^2]; 0 at K = inf
    los, sigma = math.sqrt(1.0 - diffuse), math.sqrt(diffuse / 2.0)
    z = rng.standard_normal((n, 2, cfg.m_s))
    z *= sigma
    amp = np.hypot(z[:, 0] + los, z[:, 1])
    amp *= math.sqrt(free_space_uc_gain(cfg) * mean_ris_rx_gain(cfg))
    return amp


def coherent_snr(amplitude, cfg: ScenarioConfig):
    """SNR of a coherent amplitude sum A = sum_i |h_i||g_i|: P_t * A^2 / N.

    ``amplitude`` may be a scalar or an array of per-draw sums.
    """
    return cfg.tx_power * amplitude**2 / derived_quantities(cfg).noise_power


def uc_absorbed_power(cfg: ScenarioConfig) -> float:
    """Power absorbed by one UC acting as a perfect absorber: P_t |h|^2.

    The TX side is deterministic free space, so every UC absorbs this much.
    """
    return cfg.tx_power * free_space_uc_gain(cfg)


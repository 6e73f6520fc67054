"""Cascaded TX-RIS and RIS-RX channel gains, absorbed power, and reflected SNR.

The TX side is deterministic free space under far-field plane-wave incidence,
so every UC sees the same |h|^2. The RIS-RX side is Rician with a common
line-of-sight phase per draw and i.i.d. diffuse components across UCs.
"""

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .scenario import SPEED_OF_LIGHT, ScenarioConfig, derived_quantities


@dataclass(frozen=True)
class CascadedChannel:
    """One draw of the per-UC gain pair (h_i: TX->UC, g_i: UC->RX)."""

    h: np.ndarray        # (m_s,) complex amplitude gains, TX to UC
    g: np.ndarray        # (m_s,) complex amplitude gains, UC to RX
    mean_g_power: float  # configured E[|g|^2]


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


def sample_rician_gains(
    mean_power: float, k_factor: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw `size` Rician gains with a common LoS phase for the draw.

    g = sqrt(mean_power) * (sqrt(K/(K+1)) e^{j theta} + sqrt(1/(K+1)) CN(0,1))
    with theta uniform on [0, 2*pi). An infinite K collapses to the pure LoS
    gain exactly.
    """
    theta = rng.uniform(0.0, 2.0 * math.pi)
    los = math.sqrt(mean_power) * complex(math.cos(theta), math.sin(theta))
    if math.isinf(k_factor):
        return np.full(size, los, dtype=complex)
    diffuse = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2.0)
    los_scale = math.sqrt(k_factor / (k_factor + 1.0))
    diffuse_scale = math.sqrt(1.0 / (k_factor + 1.0))
    return los * los_scale + math.sqrt(mean_power) * diffuse_scale * diffuse


def sample_channel(cfg: ScenarioConfig, rng: np.random.Generator) -> CascadedChannel:
    """Draw one cascaded channel realization (deterministic for a fixed seed)."""
    m_s = cfg.m_s
    h = np.full(m_s, math.sqrt(free_space_uc_gain(cfg)), dtype=complex)
    mean_g = mean_ris_rx_gain(cfg)
    g = sample_rician_gains(mean_g, cfg.rician_k, m_s, rng)
    return CascadedChannel(h=h, g=g, mean_g_power=mean_g)


def reflected_snr(
    ch: CascadedChannel, reflecting_set: Iterable[int], cfg: ScenarioConfig
) -> float:
    """Receive SNR when the given UCs reflect with perfect phase alignment.

    Coherent amplitude sum: SNR = P_t * (sum_i |h_i| |g_i|)^2 / N.
    """
    idx = np.sort(np.asarray(list(reflecting_set), dtype=np.intp))
    if idx.size == 0:
        return 0.0
    return coherent_snr(float(np.sum(np.abs(ch.h[idx]) * np.abs(ch.g[idx]))), cfg)


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


def absorbed_power_per_uc(ch: CascadedChannel, cfg: ScenarioConfig) -> np.ndarray:
    """Per-UC absorbed power for a channel draw: uc_absorbed_power for every UC."""
    return np.full(ch.h.size, uc_absorbed_power(cfg))

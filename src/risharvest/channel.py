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
"""

import math

import numpy as np

from .scenario import ScenarioConfig


def sample_amplitudes(
    cfg: ScenarioConfig, rng: np.random.Generator, n: int, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Draw ``n`` channel realizations: an (n, m_s) array of |h||g_i|.

    |g_i| = sqrt(E[|g|^2]) |sqrt(K/(K+1)) + sigma (x_i + j y_i)| with x, y
    standard normal and sigma^2 = 1/(2(K+1)) per component. The normals are
    drawn as one trial-major (n, 2, m_s) array, so consecutive calls continue
    one stream: n draws equal the first n of any longer draw from the same
    state. ``draw_trials`` relies on this inside each trial block, whose
    chunks are consecutive calls on the block's own generator. An infinite K
    gives sigma = 0, the pure LoS gain exactly.

    ``out``, when given, is a C-contiguous float64 (n, 2, m_s) array that
    the normals are drawn into; it is overwritten, and the amplitudes are
    returned as its view ``out[:, 0]``, so a caller that draws in chunks can
    reuse one buffer. Without it the normals are drawn into a new array and
    the amplitudes returned as a new contiguous (n, m_s) array. Either way
    the amplitudes are the same bit for bit.
    """
    diffuse = 1.0 / (cfg.rician_k + 1.0)  # diffuse share of E[|g|^2]; 0 at K = inf
    los, sigma = math.sqrt(1.0 - diffuse), math.sqrt(diffuse / 2.0)
    if out is None:
        z = rng.standard_normal((n, 2, cfg.m_s))
    elif out.shape != (n, 2, cfg.m_s):
        raise ValueError(f"out must have shape {(n, 2, cfg.m_s)}, got {out.shape}")
    else:
        z = rng.standard_normal(out=out)
    z *= sigma
    z[:, 0] += los
    z *= z
    # sqrt of the sum of squares, not np.hypot: the terms are O(1), so nothing
    # overflows, and it is several times faster (within 1 ulp of hypot).
    amp = np.add(z[:, 0], z[:, 1], out=None if out is None else z[:, 0])
    np.sqrt(amp, out=amp)
    amp *= math.sqrt(cfg.free_space_uc_gain * cfg.mean_ris_rx_gain)
    return amp


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


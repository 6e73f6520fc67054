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

The diffuse part is never formed as two normals. By the Box-Muller
transform (Box and Muller, 1958), R = sqrt(-2 log(1 - u1)) and an angle
uniform on [0, 2 pi) give a pair of independent standard normals
(R cos, R sin), and |c + sigma (x + j y)|^2 = c^2 + 2 c sigma x + sigma^2 R^2
reads the angle only through the cosine in x. cos(2 pi u), cos(pi u) and
-cos(pi u) share one (arcsine) law, so one uniform u2 on [0, 1) serves,
and c^2 + sigma^2 R^2 - 2 c sigma R cos(pi u2) is written in its half-angle
form (c - sigma R)^2 + 4 c sigma R sin^2(pi u2 / 2), a sum of two
nonnegative terms that loses nothing to cancellation. Each amplitude thus
costs two uniforms, a log, a float32 sine and two square roots.
"""

import math

import numpy as np

from .scenario import ScenarioConfig


def sample_amplitudes(
    cfg: ScenarioConfig, rng: np.random.Generator, n: int, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Draw ``n`` channel realizations: an (n, m_s) array of |h||g_i|.

    |g_i| = sqrt(E[|g|^2]) sqrt((c - sigma R)^2 + 4 c sigma R sin^2(pi v / 2))
    with c = sqrt(K/(K+1)), sigma^2 = 1/(2(K+1)) per diffuse component and
    R = sqrt(-2 log(1 - u)): the Box-Muller magnitude of
    |c + sigma (x + j y)| for standard normals x, y (see the module
    docstring). The uniforms are drawn with ``rng.random`` as one
    trial-major (n, 2, m_s) array, u in [:, 0] and v in [:, 1], so
    consecutive calls continue one stream: n draws equal the first n of
    any longer draw from the same state. ``draw_trials`` relies on this
    inside each trial block, whose chunks are consecutive calls on the
    block's own generator. An infinite K gives sigma = 0, so the amplitude
    is c = 1 before the final scaling by sqrt(|h|^2 E|g|^2), the pure LoS
    gain exactly.

    R and every other step are float64; only the sine is float32: the
    angle pi v / 2 is rounded to float32 and numpy's SIMD float32 ``sin``
    takes it. The sine enters only the nonnegative second term, so the
    float32 rounding stays relative: each amplitude is within 2e-7 of the
    float64 transform of the same uniforms, relative to itself (at most
    1.2e-7 over 2.25e6 amplitudes, on numpy's AVX-512, AVX2 and baseline
    kernels alike), far below the Monte-Carlo error of any average. The
    last bits of an amplitude depend on which SIMD kernels numpy
    dispatches on the machine.

    ``out``, when given, is a C-contiguous float64 (n, 2, m_s) array that
    the uniforms are drawn into; it is overwritten, and the amplitudes are
    returned as its view ``out[:, 0]``, so a caller that draws in chunks can
    reuse one buffer. The float32 sines of each trial live in the second
    half of its own [:, 1] row, so a call makes no array beyond ``out``.
    Without it the uniforms are drawn into a new array and the amplitudes
    returned as a new contiguous (n, m_s) array. Either way the amplitudes
    are the same bit for bit.
    """
    m_s = cfg.m_s
    diffuse = 1.0 / (cfg.rician_k + 1.0)  # diffuse share of E[|g|^2]; 0 at K = inf
    los, sigma = math.sqrt(1.0 - diffuse), math.sqrt(diffuse / 2.0)
    if out is None:
        z = np.empty((n, 2, m_s))
    elif out.shape != (n, 2, m_s):
        raise ValueError(f"out must have shape {(n, 2, m_s)}, got {out.shape}")
    else:
        z = out
    rng.random(out=z)
    radius, half_angle = z[:, 0], z[:, 1]
    # 1 - u is exact for numpy's 53-bit uniforms, so log(1 - u) is log1p(-u)
    # to within rounding; numpy's float64 log is faster than its log1p, about
    # twice as fast on machines without AVX-512.
    np.subtract(1.0, radius, out=radius)
    np.log(radius, out=radius)
    radius *= -2.0 * sigma * sigma
    np.sqrt(radius, out=radius)  # sigma R
    half_angle *= math.pi / 2.0
    # Round each row's angles to float32 into the upper half of the row's own
    # bytes and back. A 1-D assignment between overlapping arrays runs in the
    # order that reads each value before it is overwritten, so neither copy
    # needs a temporary; a 2-D one would copy the whole chunk first.
    sines = half_angle.view(np.float32)[:, m_s:]
    rows = list(zip(sines, half_angle))
    for sine, angle in rows:
        sine[...] = angle
    np.sin(sines, out=sines)
    for sine, angle in rows:
        angle[...] = sine
    half_angle *= half_angle
    half_angle *= radius
    half_angle *= 4.0 * los  # 4 c sigma R sin^2
    radius -= los
    radius *= radius
    radius += half_angle
    amp = np.sqrt(radius, out=None if out is None else radius)
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


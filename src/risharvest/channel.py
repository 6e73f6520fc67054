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
costs a float64 uniform and a log for its radius, a float32 uniform and a
float32 sine for its angle, and two square roots. The radii and the angles
come from two generators, each read in trial-major order, so a chunk of
trials is a fixed handful of whole-array numpy calls.
"""

import math

import numpy as np

from .scenario import ScenarioConfig


def sample_amplitudes(
    cfg: ScenarioConfig,
    rngs: tuple[np.random.Generator, np.random.Generator],
    n: int,
    *,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Draw ``n`` channel realizations: an (n, m_s) array of |h||g_i|.

    |g_i| = sqrt(E[|g|^2]) sqrt((c - sigma R)^2 + 4 c sigma R sin^2(pi v / 2))
    with c = sqrt(K/(K+1)), sigma^2 = 1/(2(K+1)) per diffuse component and
    R = sqrt(-2 log(1 - u)): the Box-Muller magnitude of
    |c + sigma (x + j y)| for standard normals x, y (see the module
    docstring). ``rngs`` is a (radius, angle) pair of generators: the
    float64 uniforms u are drawn from the first as one trial-major (n, m_s)
    array, the float32 uniforms v from the second as another. Each
    generator is read in order, so consecutive calls continue both
    streams: n draws equal the first n of any longer draw from the same
    states. ``draw_trials`` relies on this inside each trial block, whose
    chunks are consecutive calls on the block's own pair. An infinite K
    gives sigma = 0, so the amplitude is c = 1 before the final scaling by
    sqrt(|h|^2 E|g|^2), the pure LoS gain exactly.

    The radius and the sum are float64; the angle is float32 throughout.
    numpy's float32 uniforms have 24 bits, so v lies on a 2^-24 grid, and
    pi v / 2, its sine, the square and the factor 4c are float32 with
    numpy's SIMD float32 kernels. The product with sigma R runs in float64
    and is rounded to float32 once. The sine enters only the nonnegative
    second term, so the float32 roundings stay relative: each amplitude is
    within about 2.1e-7 of the float64 transform of the same uniforms,
    relative to itself (at most 2.08e-7 over 2.9e7 amplitudes at K in
    {0.5, 1, 2, 10}, on numpy's AVX-512, AVX2 and baseline kernels alike;
    0 at K = inf), far below the Monte-Carlo error of any average. The last
    bits of an amplitude depend on which SIMD kernels numpy dispatches on
    the machine.

    ``out``, when given, is a pair of C-contiguous (n, m_s) arrays, float64
    and float32, that u and v are drawn into; both are overwritten, and the
    amplitudes are returned in the first, so a caller that draws in chunks
    can reuse one pair of buffers, 12 bytes per amplitude. A call into
    ``out`` makes no array of its own, but the two float64 loops over the
    float32 plane cast through numpy's ufunc buffers, about 130 KB at
    numpy's default buffer size whatever the chunk. Without ``out`` both
    arrays are new and the amplitudes are returned as a new contiguous
    (n, m_s) array. Either way the amplitudes are the same bit for bit.
    """
    m_s = cfg.m_s
    diffuse = 1.0 / (cfg.rician_k + 1.0)  # diffuse share of E[|g|^2]; 0 at K = inf
    los, sigma = math.sqrt(1.0 - diffuse), math.sqrt(diffuse / 2.0)
    if out is None:
        radius, sines = np.empty((n, m_s)), np.empty((n, m_s), np.float32)
    else:
        radius, sines = out
        if radius.shape != (n, m_s) or sines.shape != (n, m_s):
            raise ValueError(
                f"out must be two arrays of shape {(n, m_s)}, got {radius.shape} and {sines.shape}"
            )
    radius_rng, angle_rng = rngs
    radius_rng.random(out=radius)
    angle_rng.random(dtype=np.float32, out=sines)
    # 1 - u is exact for numpy's 53-bit uniforms, so log(1 - u) is log1p(-u)
    # to within rounding; numpy's float64 log is faster than its log1p, about
    # twice as fast on machines without AVX-512.
    np.subtract(1.0, radius, out=radius)
    np.log(radius, out=radius)
    radius *= -2.0 * sigma * sigma
    np.sqrt(radius, out=radius)  # sigma R
    sines *= math.pi / 2.0
    np.sin(sines, out=sines)
    sines *= sines
    sines *= 4.0 * los
    # A float64 loop, so sigma R is not rounded to float32 before the product.
    np.multiply(sines, radius, out=sines, casting="same_kind")  # 4 c sigma R sin^2
    radius -= los
    radius *= radius
    radius += sines
    amp = np.sqrt(radius, out=radius)
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


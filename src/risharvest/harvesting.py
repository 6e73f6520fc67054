"""RF combining, rectification, and DC combining of the absorbed UC powers.

Far-field absorption gives every UC the same power, so only the number k
of harvesting UCs matters. They form consecutive chains of ``chain_size``
(the last one shorter when k does not divide); each chain RF-combines into
one rectifier, and the rectifier outputs are DC-combined. ``harvest`` gives that
power for every k at once, and ``rectify`` works elementwise on arrays. Both
read a ``ScenarioConfig``: its ``rectifier_*`` fields give the rectifier's
curve, and its link budget the per-UC absorbed power.
"""

import numpy as np

from .scenario import LINEAR_CLIPPED, ScenarioConfig, db_to_linear


def _logistic(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) without overflow: e^-|x| never exceeds 1.
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def rectify(p_rf, cfg: ScenarioConfig):
    """DC output power of the ``rectifier_*`` curve of ``cfg`` for RF input powers, elementwise.

    ``p_rf`` may be a scalar, which gives a ``float``, or an array, which
    gives an array of the same shape. Raises ValueError if any input is
    negative.
    """
    p = np.asarray(p_rf, dtype=float)
    negative = p[p < 0.0]
    if negative.size:
        raise ValueError(f"RF input power must be >= 0 W, got {negative[0]}")
    if cfg.rectifier_kind == LINEAR_CLIPPED:
        out = np.where(p <= cfg.rectifier_sensitivity, 0.0,
                       cfg.rectifier_efficiency * np.minimum(p, cfg.rectifier_saturation))
    else:
        # Sigmoidal: logistic response with the zero-input output subtracted
        # and the remainder rescaled so the asymptote stays at p_max. A logistic
        # argument that overflows to +-inf saturates it at exactly 1 or 0.
        a, b = cfg.rectifier_steepness, cfg.rectifier_centering
        with np.errstate(over="ignore"):
            zero_level = _logistic(-a * b)
            out = cfg.rectifier_p_max * (_logistic(a * (p - b)) - zero_level) / (1.0 - zero_level)
    return float(out) if out.ndim == 0 else out


def harvest(cfg: ScenarioConfig) -> np.ndarray:
    """DC-combined power (W) when k of the m_s UCs absorb.

    Returns the (m_s + 1,) array over k = 0..m_s, each UC absorbing
    ``cfg.uc_absorbed_power``. The k UCs fill k // chain_size whole chains
    and one chain of k % chain_size UCs; every fill is derated by the RF
    combining loss and rectified in one call. Whole chains add up as a
    running sum, so the array stays nondecreasing when they saturate.
    Combining assumes phase-aligned inputs. Multiply by a duration for energy.
    """
    m_s = cfg.m_s
    size = min(cfg.chain_size, m_s)
    rf = np.arange(size + 1) * cfg.uc_absorbed_power * db_to_linear(-cfg.rf_combining_loss_db)
    fill = rectify(rf, cfg)
    chains, rest = np.divmod(np.arange(m_s + 1), size)
    dc = np.concatenate(([0.0], np.cumsum(np.full(chains[-1], fill[size]))))[chains]
    dc += fill[rest]
    dc *= cfg.dc_combining_efficiency
    return dc

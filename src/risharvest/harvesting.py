"""RF combining, rectification, and DC combining of the absorbed UC powers.

The harvesting UCs are grouped into consecutive chains of ``chain_size`` in
row-major order; the last chain is shorter when the count does not divide.
Each chain RF-combines its UCs' absorbed powers into one rectifier, and the
rectifier outputs are DC-combined. ``harvest`` evaluates that rule as one
reshape-sum, and ``rectify`` works elementwise on arrays. The rectifier's
parameters are ``scenario.RectifierModel``, validated with the rest of the
configuration, and the per-UC absorbed power comes from the link budget that
``ScenarioConfig`` derives.
"""

import numpy as np

from .scenario import LINEAR_CLIPPED, RectifierModel, ScenarioConfig, db_to_linear


def _logistic(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) without overflow: e^-|x| never exceeds 1.
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def rectify(p_rf, model: RectifierModel):
    """DC output power of rectifiers for RF input powers, elementwise.

    ``p_rf`` may be a scalar, which gives a ``float``, or an array, which
    gives an array of the same shape. Raises ValueError if any input is
    negative.
    """
    p = np.asarray(p_rf, dtype=float)
    negative = p[p < 0.0]
    if negative.size:
        raise ValueError(f"RF input power must be >= 0 W, got {negative[0]}")
    if model.kind == LINEAR_CLIPPED:
        out = np.where(
            p <= model.sensitivity, 0.0, model.efficiency * np.minimum(p, model.saturation)
        )
    else:
        # Sigmoidal: logistic response with the zero-input output subtracted
        # and the remainder rescaled so the asymptote stays at p_max. A logistic
        # argument that overflows to +-inf saturates it at exactly 1 or 0.
        a, b = model.steepness, model.centering
        with np.errstate(over="ignore"):
            zero_level = _logistic(-a * b)
            out = model.p_max * (_logistic(a * (p - b)) - zero_level) / (1.0 - zero_level)
    return float(out) if out.ndim == 0 else out


def chain_dc_power(chain_rf, cfg: ScenarioConfig):
    """DC output of each rectifier, given the summed RF power of its chain's UCs.

    The sum is derated by the RF combining loss before rectification.
    Combining assumes phase-aligned inputs; misalignment is captured only
    through ``rf_combining_loss_db``.
    """
    return rectify(
        np.asarray(chain_rf, dtype=float) * db_to_linear(-cfg.rf_combining_loss_db),
        cfg.rectifier,
    )


def harvest(absorbed, cfg: ScenarioConfig) -> float:
    """DC-combined power (W) harvested from per-UC absorbed powers.

    ``absorbed`` holds the absorbed powers of the UCs dedicated to
    harvesting, in row-major order. Consecutive runs of ``chain_size`` UCs
    feed one rectifier each, and the last chain is shorter when the count is
    not a multiple of ``chain_size``: the powers are zero-padded to a whole
    number of chains, summed per chain, rectified, summed, and scaled by the
    DC combining efficiency. Multiply by a duration to get energy.
    """
    powers = np.asarray(absorbed, dtype=float)
    size = cfg.chain_size
    padded = np.pad(powers, (0, -powers.size % size))
    chain_rf = padded.reshape(-1, size).sum(axis=1)
    return cfg.dc_combining_efficiency * float(chain_dc_power(chain_rf, cfg).sum())

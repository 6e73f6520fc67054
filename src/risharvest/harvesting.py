"""RF combining, rectification, and DC combining of the absorbed UC powers.

The harvesting UCs are grouped into consecutive chains of ``chain_size`` in
row-major order; the last chain is shorter when the count does not divide.
Each chain RF-combines its UCs' absorbed powers into one rectifier, and the
rectifier outputs are DC-combined. ``harvest`` evaluates that rule as one
reshape-sum, and ``rectify`` works elementwise on arrays.
"""

import math
import numbers
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .scenario import ScenarioConfig

LINEAR_CLIPPED = "linear_clipped"
SIGMOIDAL = "sigmoidal"
RECTIFIER_KINDS = (LINEAR_CLIPPED, SIGMOIDAL)


def is_finite_number(value) -> bool:
    """True for a finite real number; bools and NaN/inf are not accepted."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def db_to_linear(db: float) -> float:
    """Linear power ratio 10^(db/10) of a dB figure; inf when it overflows."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class RectifierModel:
    """Parametric RF-to-DC conversion curve.

    ``linear_clipped`` uses ``efficiency``, ``sensitivity`` and ``saturation``:
    zero output at or below the sensitivity input, a linear slope between
    sensitivity and saturation, constant output above saturation.
    ``sigmoidal`` uses ``p_max``, ``steepness`` and ``centering``: a logistic
    curve shifted and rescaled so zero input gives exactly zero output and
    the output asymptote is ``p_max``.

    The defaults are generic Schottky-rectenna figures rather than
    measurements of a specific circuit; override them in the scenario file
    when a concrete device is targeted.
    """

    kind: str = LINEAR_CLIPPED
    efficiency: float = 0.3      # DC/RF slope in the linear region
    sensitivity: float = 1e-5    # W (-20 dBm), turn-on input power
    saturation: float = 1e-2     # W (+10 dBm), input power where output clips
    p_max: float = 24e-3         # W, sigmoidal output asymptote
    steepness: float = 1500.0    # 1/W, sigmoidal slope parameter
    centering: float = 2.2e-3    # W, sigmoidal inflection input

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not is_finite_number(value):
                raise ValueError(f"rectifier {f.name} must be a finite number, got {value!r}")
        if self.kind not in RECTIFIER_KINDS:
            raise ValueError(
                f"rectifier kind must be one of {RECTIFIER_KINDS}, got {self.kind!r}"
            )
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"rectifier efficiency must lie in (0, 1], got {self.efficiency}")
        if self.sensitivity < 0.0:
            raise ValueError(f"rectifier sensitivity must be >= 0 W, got {self.sensitivity}")
        if self.saturation <= self.sensitivity:
            raise ValueError(
                f"rectifier saturation ({self.saturation} W) must exceed "
                f"the sensitivity ({self.sensitivity} W)"
            )
        if self.p_max <= 0.0:
            raise ValueError(f"rectifier p_max must be > 0 W, got {self.p_max}")
        if self.steepness <= 0.0:
            raise ValueError(f"rectifier steepness must be > 0 1/W, got {self.steepness}")
        if self.centering < 0.0:
            raise ValueError(f"rectifier centering must be >= 0 W, got {self.centering}")


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
        # and the remainder rescaled so the asymptote stays at p_max.
        a, b = model.steepness, model.centering
        zero_level = _logistic(-a * b)
        out = model.p_max * (_logistic(a * (p - b)) - zero_level) / (1.0 - zero_level)
    return float(out) if out.ndim == 0 else out


def chain_dc_power(chain_rf, cfg: "ScenarioConfig"):
    """DC output of each rectifier, given the summed RF power of its chain's UCs.

    The sum is derated by the RF combining loss before rectification.
    Combining assumes phase-aligned inputs; misalignment is captured only
    through ``rf_combining_loss_db``.
    """
    return rectify(
        np.asarray(chain_rf, dtype=float) * db_to_linear(-cfg.rf_combining_loss_db),
        cfg.rectifier,
    )


def harvest(absorbed, cfg: "ScenarioConfig") -> float:
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

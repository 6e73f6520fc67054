"""RF combining, rectification, and DC combining of the absorbed UC powers."""

import math
import numbers
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable, Sequence

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


@dataclass(frozen=True)
class HarvestReport:
    """Per-chain RF/DC powers and the DC-combined harvest over a duration."""

    per_chain_rf: np.ndarray   # W, RF power entering each rectifier
    per_chain_dc: np.ndarray   # W, DC power leaving each rectifier
    total_dc_power: float      # W, after DC combining
    harvested_energy: float    # J, total_dc_power integrated over the duration


def partition_chains(uc_indices: Iterable[int], chain_size: int) -> list[tuple[int, ...]]:
    """Group UC indices into consecutive rectifier chains in row-major order.

    The final group may be smaller than ``chain_size``; an empty index set
    yields an empty partition.
    """
    if chain_size < 1:
        raise ValueError(f"chain_size must be >= 1, got {chain_size}")
    order = sorted(int(i) for i in uc_indices)
    return [tuple(order[i : i + chain_size]) for i in range(0, len(order), chain_size)]


def chain_rf_power(absorbed: Sequence[float], chain: Iterable[int], loss_db: float) -> float:
    """RF power delivered to one rectifier: member powers summed, then derated.

    Combining assumes phase-aligned inputs; misalignment is captured only
    through ``loss_db``.
    """
    idx = sorted(int(i) for i in chain)
    if not idx:
        return 0.0
    powers = np.asarray(absorbed, dtype=float)
    return float(powers[idx].sum() * 10.0 ** (-loss_db / 10.0))


def _sigmoid(x: float) -> float:
    # Overflow-safe logistic 1 / (1 + e^-x).
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def rectify(p_rf: float, model: RectifierModel) -> float:
    """DC output power of a single rectifier for an RF input power."""
    if p_rf < 0.0:
        raise ValueError(f"RF input power must be >= 0 W, got {p_rf}")
    if model.kind == LINEAR_CLIPPED:
        if p_rf <= model.sensitivity:
            return 0.0
        return model.efficiency * min(p_rf, model.saturation)
    # Sigmoidal: logistic response with the zero-input output subtracted and
    # the remainder rescaled so the asymptote stays at p_max.
    a, b = model.steepness, model.centering
    raw = _sigmoid(a * (p_rf - b))
    zero_level = _sigmoid(-a * b)
    return model.p_max * (raw - zero_level) / (1.0 - zero_level)


def harvest(absorbed: Sequence[float], duration: float, cfg: "ScenarioConfig") -> HarvestReport:
    """Run the full chain: partition, RF-combine, rectify, DC-combine.

    ``absorbed`` holds the per-UC absorbed powers of the UCs dedicated to
    harvesting; the harvested energy is the combined DC power times
    ``duration``.
    """
    if duration < 0.0:
        raise ValueError(f"duration must be >= 0 s, got {duration}")
    powers = np.asarray(absorbed, dtype=float)
    groups = partition_chains(range(powers.size), cfg.chain_size)
    per_chain_rf = np.array(
        [chain_rf_power(powers, grp, cfg.rf_combining_loss_db) for grp in groups]
    )
    per_chain_dc = np.array([rectify(p, cfg.rectifier) for p in per_chain_rf])
    total_dc = cfg.dc_combining_efficiency * float(per_chain_dc.sum())
    return HarvestReport(
        per_chain_rf=per_chain_rf,
        per_chain_dc=per_chain_dc,
        total_dc_power=total_dc,
        harvested_energy=total_dc * duration,
    )

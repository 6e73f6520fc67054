"""Scenario configuration: parameter set, unit handling, validation, file I/O.

All quantities are SI (Hz, W, m, s, J, K); gains and losses are dB where the
field name says so. The configuration is immutable after validation, so a
single instance can be shared freely across concurrent workers.
"""

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .harvesting import RectifierModel, is_finite_number

SPEED_OF_LIGHT = 299792458.0   # m/s
BOLTZMANN = 1.380649e-23       # J/K

PER_UC = "per_uc"
PER_ASIC = "per_asic"
RECONFIG_COUNTING_MODES = (PER_UC, PER_ASIC)

STATIC_TOTAL = "total"
STATIC_PER_ASIC = "per_asic"
STATIC_POWER_INTERPRETATIONS = (STATIC_TOTAL, STATIC_PER_ASIC)


class ConfigError(ValueError):
    """Base class for scenario-file problems."""


class ConfigParseError(ConfigError):
    """Malformed line or value in a scenario file."""


class ConfigValidationError(ConfigError):
    """Well-formed configuration that violates a constraint."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Full simulation parameter set.

    Defaults describe a 28 GHz link relayed by a 15 x 15 surface: 1 W
    transmit power through a 37 dBi antenna 18 m from the surface, a 24 dBi
    receiver 38 m away behind a Rician channel with linear K-factor 10, and
    a 10^4-slot frame (2 us slots) opened by a 10^3-slot preamble. Each ASIC
    drives 4 UCs at 8 nJ per reconfiguration; rectifier chains combine 9 UCs.
    """

    carrier_frequency: float = 28e9      # Hz
    bandwidth: float = 200e6             # Hz
    tx_power: float = 1.0                # W
    tx_gain_dbi: float = 37.0            # dBi
    rx_gain_dbi: float = 24.0            # dBi
    antenna_efficiency: float = 0.9      # applied at both TX and RX
    d_tx_ris: float = 18.0               # m
    d_ris_rx: float = 38.0               # m
    noise_figure_db: float = 10.0        # dB
    noise_temperature: float = 290.0     # K
    ris_cols: int = 15
    ris_rows: int = 15
    rician_k: float = 10.0               # linear ratio (not dB); may be inf
    slot_duration: float = 2e-6          # s
    preamble_slots: int = 1000
    frame_slots: int = 10000
    e_rec: float = 8e-9                  # J per reconfiguration event
    asic_fanout: int = 4                 # UCs driven per ASIC
    reconfig_counting_mode: str = PER_UC
    static_power_interpretation: str = STATIC_TOTAL
    chain_size: int = 9                  # UCs per rectifier chain
    rf_combining_loss_db: float = 0.0    # dB per chain
    dc_combining_efficiency: float = 1.0
    rectifier: RectifierModel = field(default_factory=RectifierModel)
    mc_trials: int = 10000
    rng_seed: int = 1234

    @property
    def m_s(self) -> int:
        """Total number of unit cells."""
        return self.ris_cols * self.ris_rows

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            _check_type(f.name, f.type, value)
            # every integer field but the seed is a count
            if f.type is int and f.name != "rng_seed" and value < 1:
                raise ConfigValidationError(f"{f.name} must be a positive integer, got {value!r}")
        positive = [
            ("carrier_frequency", self.carrier_frequency),
            ("bandwidth", self.bandwidth),
            ("tx_power", self.tx_power),
            ("d_tx_ris", self.d_tx_ris),
            ("d_ris_rx", self.d_ris_rx),
            ("noise_temperature", self.noise_temperature),
            ("slot_duration", self.slot_duration),
        ]
        for name, value in positive:
            if not value > 0.0:
                raise ConfigValidationError(f"{name} must be a positive finite value, got {value}")
        nonnegative = [
            ("noise_figure_db", self.noise_figure_db),
            ("rf_combining_loss_db", self.rf_combining_loss_db),
            ("e_rec", self.e_rec),
            ("rician_k", self.rician_k),
        ]
        for name, value in nonnegative:
            if not value >= 0.0:
                raise ConfigValidationError(f"{name} must be >= 0, got {value}")
        for name, value in [
            ("antenna_efficiency", self.antenna_efficiency),
            ("dc_combining_efficiency", self.dc_combining_efficiency),
        ]:
            if not 0.0 < value <= 1.0:
                raise ConfigValidationError(f"{name} must lie in (0, 1], got {value}")
        if self.preamble_slots >= self.frame_slots:
            raise ConfigValidationError(
                f"preamble_slots ({self.preamble_slots}) must be smaller than "
                f"frame_slots ({self.frame_slots})"
            )
        if self.reconfig_counting_mode not in RECONFIG_COUNTING_MODES:
            raise ConfigValidationError(
                f"reconfig_counting_mode must be one of {RECONFIG_COUNTING_MODES}, "
                f"got {self.reconfig_counting_mode!r}"
            )
        if self.static_power_interpretation not in STATIC_POWER_INTERPRETATIONS:
            raise ConfigValidationError(
                f"static_power_interpretation must be one of "
                f"{STATIC_POWER_INTERPRETATIONS}, got {self.static_power_interpretation!r}"
            )
        if not 0 <= self.rng_seed < 2**64:
            raise ConfigValidationError(
                f"rng_seed must be an integer in [0, 2^64), got {self.rng_seed!r}"
            )


# The one field that may be infinite: K = inf is a pure line-of-sight link.
_MAY_BE_INFINITE = {"rician_k"}


def _check_type(name: str, kind: type, value) -> None:
    """One type and finiteness rule per field, keyed by the field's type."""
    if kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
        expected = "an integer"
    elif kind is float:
        ok = is_finite_number(value) or (name in _MAY_BE_INFINITE and value == math.inf)
        expected = "a finite number"
    else:
        ok = isinstance(value, kind)
        expected = f"a {kind.__name__}"
    if not ok:
        raise ConfigValidationError(f"{name} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class DerivedQuantities:
    wavelength: float      # m
    m_s: int               # unit-cell count
    n_asics: int           # ceil(m_s / asic_fanout)
    noise_power: float     # W, k_B * T * B * noise factor
    frame_duration: float  # s


def derived_quantities(cfg: ScenarioConfig) -> DerivedQuantities:
    """Deterministic quantities implied by a configuration."""
    return DerivedQuantities(
        wavelength=SPEED_OF_LIGHT / cfg.carrier_frequency,
        m_s=cfg.m_s,
        n_asics=math.ceil(cfg.m_s / cfg.asic_fanout),
        noise_power=BOLTZMANN
        * cfg.noise_temperature
        * cfg.bandwidth
        * 10.0 ** (cfg.noise_figure_db / 10.0),
        frame_duration=cfg.frame_slots * cfg.slot_duration,
    )


# Scenario-file keys: the ScenarioConfig fields, with the rectifier's fields
# flattened in as rectifier_<field>.
_RECT_PREFIX = "rectifier_"
_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig) if f.name != "rectifier"}
_RECT_FIELD_TYPES = {f.name: f.type for f in fields(RectifierModel)}


def _parse_float(key: str, text: str, lineno: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigParseError(
            f"line {lineno}: value for {key!r} is not a number: {text!r}"
        ) from None


def _parse_int(key: str, text: str, lineno: int) -> int:
    # Exact first: a float round trip would change integers beyond 2^53.
    try:
        return int(text)
    except ValueError:
        pass
    value = _parse_float(key, text, lineno)  # forms such as 1e4
    if not float(value).is_integer():
        raise ConfigParseError(
            f"line {lineno}: value for {key!r} must be an integer, got {text!r}"
        )
    return int(value)


_PARSERS = {int: _parse_int, float: _parse_float, str: lambda key, text, lineno: text}


def loads_config(text: str) -> ScenarioConfig:
    """Parse ``key = value`` lines into a validated configuration.

    Blank lines are skipped and ``#`` starts a comment. Keys match the
    ScenarioConfig field names; rectifier fields use the ``rectifier_``
    prefix. Unset keys keep their defaults.
    """
    kwargs: dict = {}
    rect_kwargs: dict = {}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigParseError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key in seen:
            raise ConfigParseError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        rect_field = key[len(_RECT_PREFIX) :] if key.startswith(_RECT_PREFIX) else None
        if key in _FIELD_TYPES:
            kwargs[key] = _PARSERS[_FIELD_TYPES[key]](key, value, lineno)
        elif rect_field in _RECT_FIELD_TYPES:
            rect_kwargs[rect_field] = _PARSERS[_RECT_FIELD_TYPES[rect_field]](key, value, lineno)
        else:
            raise ConfigValidationError(f"unknown configuration key {key!r} (line {lineno})")
    if rect_kwargs:
        try:
            kwargs["rectifier"] = RectifierModel(**rect_kwargs)
        except ValueError as exc:
            raise ConfigValidationError(str(exc)) from None
    return ScenarioConfig(**kwargs)


def load_config(path) -> ScenarioConfig:
    """Read and validate a scenario file; unset keys take the defaults."""
    return loads_config(Path(path).read_text())


def _format_value(value) -> str:
    if isinstance(value, bool):  # guard: bool is an int subclass
        raise TypeError("unexpected bool in configuration")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dumps_config(cfg: ScenarioConfig) -> str:
    """Serialize a configuration so that loads_config recovers it exactly."""
    lines = ["# scenario configuration (SI units)"]
    for name in _FIELD_TYPES:
        lines.append(f"{name} = {_format_value(getattr(cfg, name))}")
    for name in _RECT_FIELD_TYPES:
        lines.append(f"{_RECT_PREFIX}{name} = {_format_value(getattr(cfg.rectifier, name))}")
    return "\n".join(lines) + "\n"


def save_config(cfg: ScenarioConfig, path) -> None:
    Path(path).write_text(dumps_config(cfg))

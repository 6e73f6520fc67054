"""Scenario configuration: parameters, derived link budget, validation, file I/O.

All quantities are SI (Hz, W, m, s, J, K); gains and losses are dB where the
field name says so. This module imports no sibling module. ``ScenarioConfig``
holds every setting as one field named by its scenario-file key, the
rectifier's among them, and derives the whole link budget as properties:
wavelength, UC aperture and gain, |h|^2, E|g|^2, the per-UC absorbed power
and the noise power. One rule checks every field, and then the derived
values themselves are checked, so a configuration that validates gives a
finite link budget. A validated configuration is immutable, so one instance
can be shared across workers.
"""

import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path

SPEED_OF_LIGHT = 299792458.0   # m/s
BOLTZMANN = 1.380649e-23       # J/K

PER_UC = "per_uc"
PER_ASIC = "per_asic"
RECONFIG_COUNTING_MODES = (PER_UC, PER_ASIC)

STATIC_TOTAL = "total"
STATIC_PER_ASIC = "per_asic"
STATIC_POWER_INTERPRETATIONS = (STATIC_TOTAL, STATIC_PER_ASIC)

LINEAR_CLIPPED = "linear_clipped"
SIGMOIDAL = "sigmoidal"
RECTIFIER_KINDS = (LINEAR_CLIPPED, SIGMOIDAL)

# A drawn segment of n UCs is one value of its law (channel._tail_table)
# times sqrt(|h|^2 E|g|^2). In those units, with the LoS amplitude c <= 1,
# sigma <= 1/sqrt(2) per diffuse component and cells h sigma wide,
# h = 24 sqrt(2) / 2^13, one UC's cells end at c + sigma (8 + h / 2) < 5.8,
# and a longer law's window starts at or below n E|g| <= n and spans 2^13
# points q r h sigma apart, q r <= 2 n / 3, so its values stay below
# n + 24 q r <= 17 n (16.0 n at K = 0, n = 3). Taking every UC at
# sqrt(1e3) > 31 times sqrt(|h|^2 E|g|^2) thus bounds every drawn sum.
_RICIAN_PEAK_GAIN = 1e3
# The harvest chain sums equal terms and scales them in another order than
# the bounds below; that rounds up by a few ulps at most, far below 2x.
_ROUNDING_HEADROOM = 2.0


class ConfigError(ValueError):
    """Base class for scenario-file problems."""


class ConfigParseError(ConfigError):
    """Malformed line or value in a scenario file."""


class ConfigValidationError(ConfigError):
    """Well-formed configuration that violates a constraint."""


def is_finite_number(value) -> bool:
    """True for a finite real number; bools and NaN/inf are not accepted."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def db_to_linear(db: float) -> float:
    """Linear power ratio 10^(db/10) of a dB figure; inf when it overflows."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


# The one field that may be infinite: K = inf is a pure line-of-sight link.
_MAY_BE_INFINITE = {"rician_k"}

# The allowed values of each field; every other field takes any value of its
# type.
_FIELD_RULES = {
    **dict.fromkeys(("carrier_frequency", "bandwidth", "tx_power", "d_tx_ris", "d_ris_rx",
                     "noise_temperature", "slot_duration", "ris_cols", "ris_rows",
                     "preamble_slots", "frame_slots", "asic_fanout", "chain_size",
                     "rectifier_p_max", "rectifier_steepness"), ("> 0", lambda v: v > 0)),
    **dict.fromkeys(("noise_figure_db", "rf_combining_loss_db", "e_rec", "rician_k",
                     "rectifier_sensitivity", "rectifier_centering"), (">= 0", lambda v: v >= 0)),
    **dict.fromkeys(("antenna_efficiency", "dc_combining_efficiency", "rectifier_efficiency"),
                    ("in (0, 1]", lambda v: 0 < v <= 1)),
    **{key: (f"one of {choices}", choices.__contains__) for key, choices in (
        ("reconfig_counting_mode", RECONFIG_COUNTING_MODES),
        ("static_power_interpretation", STATIC_POWER_INTERPRETATIONS),
        ("rectifier_kind", RECTIFIER_KINDS))},
    # one trial has no sample sd, so its CI would read 0
    "mc_trials": (">= 2", lambda v: v >= 2),
    "rng_seed": ("in [0, 2^64)", lambda v: 0 <= v < 2**64),
}


def _check_fields(obj) -> None:
    """The one field rule: the field's type, finiteness and allowed values."""
    for f in fields(obj):
        name, kind, value = f.name, f.type, getattr(obj, f.name)
        if kind is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
            expected = "an integer"
        elif kind is float:
            ok = is_finite_number(value) or (name in _MAY_BE_INFINITE and value == math.inf)
            expected = "a finite number"
        else:
            ok = isinstance(value, kind)
            expected = f"a {kind.__name__}"
        if ok and name in _FIELD_RULES:
            expected, allowed = _FIELD_RULES[name]
            ok = allowed(value)
        if not ok:
            raise ConfigValidationError(f"{name} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full simulation parameter set.

    Defaults describe a 28 GHz link relayed by a 15 x 15 surface: 1 W
    transmit power through a 37 dBi antenna 18 m from the surface, a 24 dBi
    receiver 38 m away behind a Rician channel with linear K-factor 10, and
    a 10^4-slot frame (2 us slots) opened by a 10^3-slot preamble. Each ASIC
    drives 4 UCs at 8 nJ per reconfiguration; rectifier chains combine 9 UCs.

    Each field is named by its scenario-file key. The ``rectifier_*`` fields
    give every chain's RF-to-DC curve. ``linear_clipped`` uses the
    efficiency, sensitivity and saturation: zero output at or below the
    sensitivity input, a linear slope up to the saturation input, and
    constant output above it. ``sigmoidal`` uses p_max, steepness and
    centering: a logistic curve shifted and rescaled so that zero input
    gives exactly zero output and the output asymptote is p_max. The
    rectifier defaults are generic Schottky-rectenna figures rather than
    measurements of a specific circuit; override them in the scenario file
    when a concrete device is targeted.
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
    mc_trials: int = 10000
    rng_seed: int = 1234
    rectifier_kind: str = LINEAR_CLIPPED
    rectifier_efficiency: float = 0.3    # DC/RF slope in the linear region
    rectifier_sensitivity: float = 1e-5  # W (-20 dBm), turn-on input power
    rectifier_saturation: float = 1e-2   # W (+10 dBm), input power where output clips
    rectifier_p_max: float = 24e-3       # W, sigmoidal output asymptote
    rectifier_steepness: float = 1500.0  # 1/W, sigmoidal slope parameter
    rectifier_centering: float = 2.2e-3  # W, sigmoidal inflection input

    @property
    def m_s(self) -> int:
        """Total number of unit cells."""
        return self.ris_cols * self.ris_rows

    @property
    def wavelength(self) -> float:
        """Carrier wavelength (m)."""
        return SPEED_OF_LIGHT / self.carrier_frequency

    @property
    def n_asics(self) -> int:
        """Controller chips: ceil(m_s / asic_fanout)."""
        return math.ceil(self.m_s / self.asic_fanout)

    @property
    def noise_power(self) -> float:
        """Receiver noise power (W): k_B * T * B * noise factor."""
        noise_factor = db_to_linear(self.noise_figure_db)
        return BOLTZMANN * self.noise_temperature * self.bandwidth * noise_factor

    @property
    def frame_duration(self) -> float:
        """Frame length (s)."""
        return self.frame_slots * self.slot_duration

    @property
    def uc_aperture(self) -> float:
        """Effective aperture of one UC (m^2): a half-wavelength square cell."""
        return (self.wavelength / 2.0) ** 2

    @property
    def uc_gain(self) -> float:
        """Re-radiation gain of one UC toward the RX, 4*pi*A_uc/lambda^2.

        Equals pi for the half-wavelength cell.
        """
        return 4.0 * math.pi * self.uc_aperture / self.wavelength**2

    @property
    def free_space_uc_gain(self) -> float:
        """|h|^2: fraction of TX power absorbed by one perfectly absorbing UC.

        Boresight incidence: TX EIRP spread over the sphere of radius
        d_tx_ris, intercepted by the UC aperture. The TX side is
        deterministic free space, so every UC sees the same |h|^2.
        """
        return (
            db_to_linear(self.tx_gain_dbi)
            * self.antenna_efficiency
            * self.uc_aperture
            / (4.0 * math.pi * self.d_tx_ris**2)
        )

    @property
    def mean_ris_rx_gain(self) -> float:
        """E[|g|^2]: mean power gain of the UC-to-RX link (Friis with UC gain)."""
        return (
            self.uc_gain
            * db_to_linear(self.rx_gain_dbi)
            * self.antenna_efficiency
            * (self.wavelength / (4.0 * math.pi * self.d_ris_rx)) ** 2
        )

    @property
    def uc_absorbed_power(self) -> float:
        """Power (W) absorbed by one UC acting as a perfect absorber: P_t |h|^2."""
        return self.tx_power * self.free_space_uc_gain

    def __post_init__(self):
        _check_fields(self)
        if self.preamble_slots >= self.frame_slots:
            raise ConfigValidationError(
                f"preamble_slots ({self.preamble_slots}) must be smaller than "
                f"frame_slots ({self.frame_slots})"
            )
        if self.rectifier_saturation <= self.rectifier_sensitivity:
            raise ConfigValidationError(
                f"rectifier_saturation ({self.rectifier_saturation} W) must exceed "
                f"rectifier_sensitivity ({self.rectifier_sensitivity} W)"
            )
        self._check_link_budget()

    def _check_link_budget(self) -> None:
        """Require the derived link budget to be finite, naming its fields if not.

        |h|^2, E|g|^2, the per-UC absorbed power and the noise power must also
        be > 0. The bounds take every UC at the Rician peak gain, every rate at
        that SNR (the sums behind the rate's mean and CI), a full rectifier
        chain, and every rectifier at its peak output for a whole frame.
        """
        h2 = ("tx_gain_dbi", "antenna_efficiency", "carrier_frequency", "d_tx_ris")
        g2 = ("rx_gain_dbi", "antenna_efficiency", "carrier_frequency", "d_ris_rx")
        noise = ("noise_temperature", "bandwidth", "noise_figure_db")
        snr = ("tx_power", *h2, *g2, "ris_cols", "ris_rows", *noise)
        chains = -(-self.m_s // self.chain_size)
        if self.rectifier_kind == SIGMOIDAL:
            peak_dc, peak = self.rectifier_p_max, ("rectifier_p_max",)
        else:
            peak_dc = self.rectifier_efficiency * self.rectifier_saturation
            peak = ("rectifier_efficiency", "rectifier_saturation")

        def snr_bound():
            peak_sum = self.m_s * math.sqrt(
                self.free_space_uc_gain * self.mean_ris_rx_gain * _RICIAN_PEAK_GAIN)
            return self.tx_power * peak_sum**2 / self.noise_power

        checks = (  # quantity, its fields, how to derive it, whether it must be > 0
            ("|h|^2", h2, lambda: self.free_space_uc_gain, True),
            ("E|g|^2", g2, lambda: self.mean_ris_rx_gain, True),
            ("per-UC absorbed power", ("tx_power", *h2), lambda: self.uc_absorbed_power, True),
            ("noise power", noise, lambda: self.noise_power, True),
            ("full-surface SNR bound", snr, snr_bound, False),
            ("rate bound", ("mc_trials", *snr),
             lambda: self.mc_trials * (self.bandwidth * math.log2(1.0 + snr_bound())) ** 2, False),
            ("chain RF power bound", ("tx_power", *h2, "chain_size", "ris_cols", "ris_rows"),
             lambda: _ROUNDING_HEADROOM * min(self.chain_size, self.m_s) * self.uc_absorbed_power,
             False),
            ("frame harvest energy bound",
             (*peak, "dc_combining_efficiency", "chain_size", "ris_cols", "ris_rows",
              "frame_slots", "slot_duration"),
             lambda: (_ROUNDING_HEADROOM * self.dc_combining_efficiency * chains * peak_dc
                      * self.frame_duration), False),
        )
        for quantity, sources, derive, positive in checks:
            names = ", ".join(dict.fromkeys(sources))
            try:
                value = derive()
            except ArithmeticError:  # ** overflows; / by a square that underflowed
                raise ConfigValidationError(
                    f"{quantity} from {names} leaves the float range") from None
            if not (math.isfinite(value) and (value > 0.0 or not positive)):
                raise ConfigValidationError(
                    f"{quantity} from {names} is {value}; it must be finite"
                    + (" and > 0" if positive else ""))


# Scenario-file keys: the ScenarioConfig field names.
_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


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
    # Forms such as 1e4, only below 2^53 in magnitude: above it a float
    # holds only some integers, so the text may round to another one. Below
    # it a text such as 1000.00000000000001 still rounds to an integer, so
    # the text's exact decimal value must be that integer too.
    value = _parse_float(key, text, lineno)
    if value.is_integer() and abs(value) < 2.0**53:
        import decimal  # only here, so that loading plain integers does not import it

        if decimal.Decimal(text) == int(value):
            return int(value)
    raise ConfigParseError(
        f"line {lineno}: value for {key!r} must be an integer, in float form "
        f"below 2^53 in magnitude, got {text!r}"
    )


_PARSERS = {int: _parse_int, float: _parse_float, str: lambda key, text, lineno: text}


def loads_config(text: str) -> ScenarioConfig:
    """Parse ``key = value`` lines into a validated configuration.

    Blank lines are skipped and ``#`` starts a comment. The keys are the
    ScenarioConfig field names. Unset keys keep their defaults.
    """
    kwargs: dict = {}
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
        if key in kwargs:
            raise ConfigParseError(f"line {lineno}: duplicate key {key!r}")
        if key not in _FIELD_TYPES:
            raise ConfigValidationError(f"unknown configuration key {key!r} (line {lineno})")
        kwargs[key] = _PARSERS[_FIELD_TYPES[key]](key, value, lineno)
    return ScenarioConfig(**kwargs)


def load_config(path) -> ScenarioConfig:
    """Read and validate a scenario file; unset keys take the defaults."""
    return loads_config(Path(path).read_text())


def dumps_config(cfg: ScenarioConfig) -> str:
    """Serialize a configuration so that loads_config recovers it exactly."""
    lines = ["# scenario configuration (SI units)"]
    # str of a float is its shortest round-trip repr, and no field holds a bool
    for name in _FIELD_TYPES:
        lines.append(f"{name} = {getattr(cfg, name)}")
    return "\n".join(lines) + "\n"


def save_config(cfg: ScenarioConfig, path) -> None:
    Path(path).write_text(dumps_config(cfg))

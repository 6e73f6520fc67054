import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from risharvest import (
    ConfigParseError,
    ConfigValidationError,
    RectifierModel,
    ScenarioConfig,
    dumps_config,
    load_config,
    loads_config,
    save_config,
)

from conftest import oracle_noise_power


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = load_config(path)
    assert cfg == ScenarioConfig()
    assert cfg.m_s == 225


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        """
        # deployment A
        tx_power = 2.0   # watts
        ris_cols = 10

        rician_k = 5
        """
    )
    cfg = load_config(path)
    assert cfg.tx_power == 2.0
    assert cfg.ris_cols == 10
    assert cfg.rician_k == 5.0


def test_zero_tx_power_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("tx_power = 0\n")
    with pytest.raises(ConfigValidationError, match="tx_power"):
        load_config(path)


def test_small_surface_product(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text("ris_cols = 2\nris_rows = 2\n")
    assert load_config(path).m_s == 4


def test_unknown_key_named_in_error():
    with pytest.raises(ConfigValidationError, match="tx_powerr"):
        loads_config("tx_powerr = 1.0\n")


def test_malformed_line_is_parse_error():
    with pytest.raises(ConfigParseError):
        loads_config("tx_power 1.0\n")
    with pytest.raises(ConfigParseError):
        loads_config("frame_slots = ten\n")
    with pytest.raises(ConfigParseError):
        loads_config("frame_slots = 10.5\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigParseError, match="duplicate"):
        loads_config("tx_power = 1\ntx_power = 2\n")


def test_rectifier_keys_parse():
    cfg = loads_config(
        "rectifier_kind = sigmoidal\n"
        "rectifier_p_max = 0.005\n"
        "rectifier_steepness = 900\n"
        "rectifier_centering = 0.001\n"
    )
    assert cfg.rectifier.kind == "sigmoidal"
    assert cfg.rectifier.p_max == 0.005


@pytest.mark.parametrize(
    "line, field",
    [
        ("antenna_efficiency = 1.5", "antenna_efficiency"),
        ("preamble_slots = 20000", "preamble_slots"),
        ("d_tx_ris = -3", "d_tx_ris"),
        ("reconfig_counting_mode = per_tile", "reconfig_counting_mode"),
        ("rectifier_efficiency = 0", "efficiency"),
        ("tx_gain_dbi = nan", "tx_gain_dbi"),
        ("e_rec = inf", "e_rec"),
        ("rician_k = nan", "rician_k"),
        ("rectifier_p_max = nan", "p_max"),
        ("rectifier_steepness = inf", "steepness"),
        ("chain_size = 0", "chain_size"),
    ],
)
def test_validation_errors_name_field(line, field):
    with pytest.raises(ConfigValidationError, match=field):
        loads_config(line + "\n")


NAN, INF = float("nan"), float("inf")
NON_FINITE_OR_BOOL = [
    (ScenarioConfig, "tx_gain_dbi", NAN, ConfigValidationError),
    (ScenarioConfig, "rx_gain_dbi", NAN, ConfigValidationError),
    (ScenarioConfig, "e_rec", INF, ConfigValidationError),
    (ScenarioConfig, "noise_figure_db", INF, ConfigValidationError),
    (ScenarioConfig, "rf_combining_loss_db", INF, ConfigValidationError),
    (ScenarioConfig, "rician_k", NAN, ConfigValidationError),
    (ScenarioConfig, "ris_cols", True, ConfigValidationError),
    (ScenarioConfig, "tx_power", True, ConfigValidationError),
    (RectifierModel, "sensitivity", NAN, ValueError),
    (RectifierModel, "p_max", NAN, ValueError),
    (RectifierModel, "saturation", INF, ValueError),
    (RectifierModel, "steepness", INF, ValueError),
]


@pytest.mark.parametrize(
    "cls, field, value, error",
    NON_FINITE_OR_BOOL,
    ids=[f"{cls.__name__}.{field}={value}" for cls, field, value, _ in NON_FINITE_OR_BOOL],
)
def test_non_finite_or_bool_field_rejected(cls, field, value, error):
    with pytest.raises(error, match=field):
        cls(**{field: value})


def test_round_trip_stability(tmp_path):
    cfg = ScenarioConfig(
        tx_power=0.75,
        rician_k=3.3,
        ris_cols=7,
        ris_rows=9,
        chain_size=5,
        rf_combining_loss_db=1.25,
        rectifier=RectifierModel(kind="sigmoidal", p_max=1e-3, steepness=2100.0, centering=5e-4),
        rng_seed=987654321,
    )
    path = tmp_path / "cfg.txt"
    save_config(cfg, path)
    assert load_config(path) == cfg
    # a second round trip through text stays fixed
    assert loads_config(dumps_config(load_config(path))) == cfg


@pytest.mark.parametrize("seed", [2**53 + 1, 2**64 - 1])
def test_round_trip_preserves_large_integer_seed(seed):
    # integers above 2^53 do not survive a trip through float
    cfg = ScenarioConfig(rng_seed=seed)
    assert loads_config(dumps_config(cfg)) == cfg
    assert loads_config(f"rng_seed = {seed}\n").rng_seed == seed


def test_integer_keys_accept_exponent_form():
    assert loads_config("mc_trials = 1e4\n").mc_trials == 10_000


def test_round_trip_preserves_inf_k():
    cfg = dataclasses.replace(ScenarioConfig(), rician_k=float("inf"))
    assert loads_config(dumps_config(cfg)) == cfg
    assert loads_config("rician_k = inf\n") == cfg


def test_derived_quantities_defaults(cfg):
    assert cfg.wavelength == pytest.approx(0.010707, rel=1e-4)
    assert cfg.m_s == 225
    assert cfg.n_asics == 57
    assert cfg.frame_duration == pytest.approx(0.02, rel=1e-12)
    assert cfg.noise_power == pytest.approx(oracle_noise_power(cfg), rel=1e-12)
    # about -81 dBm
    assert 10 * math.log10(cfg.noise_power / 1e-3) == pytest.approx(-81.0, abs=0.1)


@given(
    bandwidth=st.floats(min_value=1e3, max_value=1e10),
    nf_db=st.floats(min_value=0.0, max_value=20.0),
)
def test_noise_power_matches_dbm_rule(bandwidth, nf_db):
    cfg = ScenarioConfig(bandwidth=bandwidth, noise_figure_db=nf_db)
    noise = cfg.noise_power
    noise_dbm = 10 * math.log10(noise / 1e-3)
    rule_dbm = -174.0 + 10 * math.log10(bandwidth) + nf_db
    assert abs(noise_dbm - rule_dbm) < 0.1


def test_config_is_frozen(cfg):
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.tx_power = 2.0

import ast
import dataclasses
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import risharvest
from risharvest import (
    RECTIFIER_KINDS,
    ConfigParseError,
    ConfigValidationError,
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
    assert cfg.rectifier_kind == "sigmoidal"
    assert cfg.rectifier_p_max == 0.005


@pytest.mark.parametrize("kind", RECTIFIER_KINDS)
def test_every_written_key_is_a_config_field(kind):
    # one name per setting: a scenario-file key is the field's own name
    cfg = ScenarioConfig(rectifier_kind=kind, rectifier_saturation=2e-2, rectifier_p_max=5e-3)
    text = dumps_config(cfg)
    keys = [line.partition(" = ")[0] for line in text.splitlines()[1:]]
    assert keys == [f.name for f in dataclasses.fields(ScenarioConfig)]
    assert loads_config(text) == cfg


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
    ("tx_gain_dbi", NAN),
    ("rx_gain_dbi", NAN),
    ("e_rec", INF),
    ("noise_figure_db", INF),
    ("rf_combining_loss_db", INF),
    ("rician_k", NAN),
    ("ris_cols", True),
    ("tx_power", True),
    ("rectifier_sensitivity", NAN),
    ("rectifier_p_max", NAN),
    ("rectifier_saturation", INF),
    ("rectifier_steepness", INF),
]


@pytest.mark.parametrize(
    "field, value",
    NON_FINITE_OR_BOOL,
    ids=[f"ScenarioConfig.{field}={value}" for field, value in NON_FINITE_OR_BOOL],
)
def test_non_finite_or_bool_field_rejected(field, value):
    with pytest.raises(ConfigValidationError, match=field):
        ScenarioConfig(**{field: value})


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(tx_power=1e308), "full-surface SNR bound from tx_power"),
        (dict(tx_power=1e143, bandwidth=1e152), "rate bound from mc_trials"),
        (dict(tx_power=1e300, tx_gain_dbi=155.0, d_ris_rx=1e150),
         "chain RF power bound from tx_power"),
        (dict(slot_duration=1e300, rectifier_saturation=1e300),
         "frame harvest energy bound from rectifier_efficiency, rectifier_saturation"),
        (dict(slot_duration=1e300, rectifier_kind="sigmoidal", rectifier_p_max=1e300),
         "frame harvest energy bound from rectifier_p_max, dc_combining_efficiency"),
    ],
    ids=["snr", "rate", "chain_rf", "energy_linear", "energy_sigmoidal"],
)
def test_derived_bounds_name_their_fields(overrides, message):
    # every field is in range on its own; the derived value overflows
    with pytest.raises(ConfigValidationError, match=f"^{re.escape(message)}"):
        ScenarioConfig(**overrides)


def test_round_trip_stability(tmp_path):
    cfg = ScenarioConfig(
        tx_power=0.75,
        rician_k=3.3,
        ris_cols=7,
        ris_rows=9,
        chain_size=5,
        rf_combining_loss_db=1.25,
        rectifier_kind="sigmoidal",
        rectifier_p_max=1e-3,
        rectifier_steepness=2100.0,
        rectifier_centering=5e-4,
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


@pytest.mark.parametrize(
    "field, value",
    [("rng_seed", True), ("rng_seed", 3.0), ("rng_seed", -1), ("rng_seed", 2**64),
     ("rng_seed", np.random.default_rng(1)), ("mc_trials", 2.5), ("mc_trials", np.float64(4.9)),
     ("mc_trials", True), ("mc_trials", "3"), ("mc_trials", 0), ("mc_trials", -1),
     ("mc_trials", 1)],
    ids=["seed_bool", "seed_float", "seed_negative", "seed_2^64", "seed_generator",
         "trials_fraction", "trials_np_float", "trials_bool", "trials_str", "trials_zero",
         "trials_negative", "trials_one"],
)
def test_bad_seed_or_trial_count_rejected(field, value):
    # the channel draw reads both from the configuration alone, and one
    # trial has no sample sd to give its rate a CI
    with pytest.raises(ConfigValidationError, match=f"^{field} must be "):
        ScenarioConfig(**{field: value})
    cfg = ScenarioConfig(rng_seed=2**64 - 1, mc_trials=2)
    assert (cfg.rng_seed, cfg.mc_trials) == (2**64 - 1, 2)


def test_integer_keys_accept_exponent_form():
    assert loads_config("mc_trials = 1e4\n").mc_trials == 10_000


@pytest.mark.parametrize("text", ["9007199254740991.0", "9.007199254740991e15"],
                         ids=["2^53-1", "2^53-1_exponent"])
def test_integer_keys_load_float_forms_below_2_53_exactly(text):
    # every integer below 2^53 is a float, so its float form loads exactly
    assert loads_config(f"rng_seed = {text}\n").rng_seed == 2**53 - 1


@pytest.mark.parametrize(
    "text",
    ["9007199254740993.0", "9.007199254740993e15", "9007199254740992.0", "-9007199254740992.0",
     "18446744073709551615.0", "1e300", "2.5", "1000.00000000000001", "4503599627370496.5",
     "9007199254740990.7", "1e-400"],
    ids=["2^53+1", "2^53+1_exponent", "2^53", "-2^53", "2^64-1", "1e300", "fraction",
         "1000_plus_1e-14", "2^52+0.5", "2^53-1.3", "1e-400"],
)
def test_integer_keys_reject_float_forms_a_float_may_round(text):
    # above 2^53 the float of the text may be another integer, and below it
    # a text that is no integer may round to one, either of which would seed
    # another random stream; the error quotes the text as written
    message = (f"line 2: value for 'rng_seed' must be an integer, in float form below 2^53 "
               f"in magnitude, got {text!r}")
    with pytest.raises(ConfigParseError, match=f"^{re.escape(message)}$"):
        loads_config(f"mc_trials = 100\nrng_seed = {text}\n")


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


SUBMODULES = sorted(module.name for module in pkgutil.iter_modules(risharvest.__path__))


@pytest.mark.parametrize("module", SUBMODULES)
def test_each_submodule_imports_in_a_fresh_interpreter(module):
    env = dict(os.environ, PYTHONPATH=str(Path(risharvest.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import risharvest.{module}"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_scenario_imports_no_sibling_module():
    # the configuration is the root of the import graph
    tree = ast.parse(Path(risharvest.__file__).with_name("scenario.py").read_text())
    imported = [
        (node.level, node.module) if isinstance(node, ast.ImportFrom) else (0, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert all(level == 0 and not module.startswith("risharvest") for level, module in imported)

"""Behaviour of the two harvesting protocols, checked through the optimizer's
evaluation path: ``estimate_averages`` and the harvest curve."""

import dataclasses
import math

import numpy as np
import pytest

from risharvest import (
    FEASIBLE,
    TIME_SPLITTING,
    UC_SPLITTING,
    draw_trials,
    dynamic_power,
    estimate_averages,
    free_space_uc_gain,
    sample_amplitudes,
)
from risharvest.channel import coherent_snr
from risharvest.optimizer import harvest_curve

from conftest import oracle_full_surface_snr


def few_trials(cfg, seed=20240614, n=8):
    return draw_trials(cfg, np.random.default_rng(seed), n_trials=n)


def test_time_splitting_bounds_checked(cfg):
    trials = few_trials(cfg)
    for value in (9001, -1):
        with pytest.raises(ValueError, match="allocation value"):
            estimate_averages(TIME_SPLITTING, value, 0.0, cfg, trials)
    with pytest.raises(ValueError, match="unknown protocol"):
        estimate_averages("frequency_splitting", 0, 0.0, cfg, trials)
    # the draw must cover exactly this surface
    for cols in (14, 16):
        other = few_trials(dataclasses.replace(cfg, ris_cols=cols))
        with pytest.raises(ValueError, match="drawn for"):
            estimate_averages(TIME_SPLITTING, 0, 0.0, cfg, other)


def test_uc_splitting_bounds_checked(cfg):
    trials = few_trials(cfg)
    for value in (226, -1):
        with pytest.raises(ValueError, match="allocation value"):
            estimate_averages(UC_SPLITTING, value, 0.0, cfg, trials)
    for cols in (14, 16):
        other = few_trials(dataclasses.replace(cfg, ris_cols=cols))
        with pytest.raises(ValueError, match="drawn for"):
            estimate_averages(UC_SPLITTING, 0, 0.0, cfg, other)


def test_time_splitting_full_harvest_kills_rate(cfg):
    est = estimate_averages(TIME_SPLITTING, 9000, 1e-6, cfg, few_trials(cfg))
    assert est.average_rate == 0.0
    assert est.avg_harvested_power > 0.0


def test_time_splitting_no_harvest(cfg):
    n, seed = 8, 3
    est = estimate_averages(TIME_SPLITTING, 0, 1e-6, cfg, few_trials(cfg, seed, n))
    assert est.avg_harvested_power == 0.0
    rows = sample_amplitudes(cfg, np.random.default_rng(seed), n)
    snrs = [coherent_snr(float(row.sum()), cfg) for row in rows]
    expected = np.mean([0.9 * cfg.bandwidth * math.log2(1.0 + snr) for snr in snrs])
    assert est.average_rate == pytest.approx(expected, rel=1e-12)


def test_time_splitting_los_rate_closed_form(los_cfg):
    est = estimate_averages(TIME_SPLITTING, 0, 0.0, los_cfg, few_trials(los_cfg))
    expected = 0.9 * los_cfg.bandwidth * math.log2(1.0 + oracle_full_surface_snr(los_cfg))
    assert est.average_rate == pytest.approx(expected, rel=1e-9)
    assert est.average_rate == pytest.approx(2.9e9, rel=1e-2)


def test_null_allocations_coincide_up_to_dynamic_power(cfg):
    trials = few_trials(cfg)
    p_static = 2e-6
    ts = estimate_averages(TIME_SPLITTING, 0, p_static, cfg, trials)
    uc = estimate_averages(UC_SPLITTING, 0, p_static, cfg, trials)
    assert ts.average_rate == pytest.approx(uc.average_rate, rel=1e-12)
    assert ts.rate_ci_halfwidth == pytest.approx(uc.rate_ci_halfwidth, rel=1e-12)
    assert ts.avg_harvested_power == uc.avg_harvested_power == 0.0
    delta = dynamic_power(TIME_SPLITTING, cfg) - dynamic_power(UC_SPLITTING, cfg)
    assert ts.avg_consumed_power - uc.avg_consumed_power == pytest.approx(delta, rel=1e-9)


def test_uc_splitting_all_ucs_absorb(cfg):
    est = estimate_averages(UC_SPLITTING, cfg.m_s, 1e-6, cfg, few_trials(cfg))
    assert est.average_rate == 0.0
    assert est.rate_ci_halfwidth == 0.0
    assert est.avg_harvested_power > 0.0


def test_uc_splitting_half_surface_snr_scaling(los_cfg):
    k = 112
    est = estimate_averages(UC_SPLITTING, k, 0.0, los_cfg, few_trials(los_cfg))
    m_s = los_cfg.m_s
    expected_snr = ((m_s - k) / m_s) ** 2 * oracle_full_surface_snr(los_cfg)
    expected_rate = 0.9 * los_cfg.bandwidth * math.log2(1.0 + expected_snr)
    assert est.average_rate == pytest.approx(expected_rate, rel=1e-9)


def test_uc_splitting_harvest_duration_is_post_preamble(cfg):
    # one full 9-UC chain in the linear region for the 9000-slot payload
    per_uc = cfg.tx_power * free_space_uc_gain(cfg)
    expected = 0.3 * 9 * per_uc * 9000 * cfg.slot_duration / (10000 * cfg.slot_duration)
    assert harvest_curve(UC_SPLITTING, cfg)[9] == pytest.approx(expected, rel=1e-9)
    est = estimate_averages(UC_SPLITTING, 9, 0.0, cfg, few_trials(cfg))
    assert est.avg_harvested_power == pytest.approx(expected, rel=1e-9)


def test_time_splitting_rate_strictly_decreasing_in_eh_slots(cfg):
    rng = np.random.default_rng(11)
    trials = few_trials(cfg, seed=11, n=4)
    for _ in range(100):
        lo = int(rng.integers(0, 9000))
        hi = int(rng.integers(lo + 1, 9001))
        r_lo = estimate_averages(TIME_SPLITTING, lo, 1e-6, cfg, trials)
        r_hi = estimate_averages(TIME_SPLITTING, hi, 1e-6, cfg, trials)
        assert r_hi.average_rate < r_lo.average_rate
        assert r_hi.avg_harvested_power >= r_lo.avg_harvested_power


def test_uc_splitting_rate_nonincreasing_in_k(cfg):
    rng = np.random.default_rng(12)
    trials = few_trials(cfg, seed=12, n=4)
    for _ in range(100):
        lo = int(rng.integers(0, cfg.m_s))
        hi = int(rng.integers(lo + 1, cfg.m_s + 1))
        r_lo = estimate_averages(UC_SPLITTING, lo, 1e-6, cfg, trials)
        r_hi = estimate_averages(UC_SPLITTING, hi, 1e-6, cfg, trials)
        assert r_hi.average_rate <= r_lo.average_rate
        assert r_hi.avg_harvested_power >= r_lo.avg_harvested_power


def test_feasible_flag_matches_recomputed_inequality(cfg):
    rng = np.random.default_rng(13)
    trials = few_trials(cfg, seed=13, n=4)
    for _ in range(20):
        p_static = float(rng.uniform(0.0, 2e-3))
        for protocol, vmax in ((TIME_SPLITTING, 9000), (UC_SPLITTING, cfg.m_s)):
            value = int(rng.integers(0, vmax + 1))
            est = estimate_averages(protocol, value, p_static, cfg, trials)
            assert (est.status == FEASIBLE) == (est.avg_harvested_power >= est.avg_consumed_power)

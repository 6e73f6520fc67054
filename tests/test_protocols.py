"""Behaviour of the two harvesting protocols, checked through the optimizer's
two steps: the harvest curve and the solve, and ``estimate_averages``."""

import dataclasses
import math

import numpy as np
import pytest

from risharvest import FEASIBLE, TIME_SPLITTING, UC_SPLITTING
from risharvest.channel import coherent_snr
from risharvest.optimizer import optimize_time_splitting, optimize_uc_splitting
from risharvest.power import dynamic_power, total_consumption

from conftest import (
    allocation_harvest,
    curve_of,
    draw,
    drawn_rows,
    estimate,
    oracle_full_surface_snr,
)


def few_trials(cfg, seed=20240614, n=8):
    return draw(cfg, seed, n)


def test_time_splitting_bounds_checked(cfg):
    trials = few_trials(cfg)
    for value in (9001, -1):
        with pytest.raises(ValueError, match="allocation value"):
            estimate(TIME_SPLITTING, value, trials)
    with pytest.raises(ValueError, match="unknown protocol"):
        estimate("frequency_splitting", 0, trials)


def test_uc_splitting_bounds_checked(cfg):
    trials = few_trials(cfg)
    for value in (226, -1):
        with pytest.raises(ValueError, match="allocation value"):
            estimate(UC_SPLITTING, value, trials)


def test_time_splitting_full_harvest_kills_rate(cfg):
    rate, _ = estimate(TIME_SPLITTING, 9000, few_trials(cfg))
    assert rate == 0.0
    assert allocation_harvest(TIME_SPLITTING, 9000, cfg) > 0.0


def test_time_splitting_no_harvest(cfg):
    n, seed = 8, 3
    rate, _ = estimate(TIME_SPLITTING, 0, few_trials(cfg, seed, n))
    assert allocation_harvest(TIME_SPLITTING, 0, cfg) == 0.0
    # the draw's own amplitudes: keeping every column makes every segment one UC
    rows = drawn_rows(cfg, seed, n)
    snrs = [coherent_snr(float(row.sum()), cfg) for row in rows]
    expected = np.mean([0.9 * cfg.bandwidth * math.log2(1.0 + snr) for snr in snrs])
    assert rate == pytest.approx(expected, rel=1e-12)


def test_time_splitting_los_rate_closed_form(los_cfg):
    rate, _ = estimate(TIME_SPLITTING, 0, few_trials(los_cfg))
    expected = 0.9 * los_cfg.bandwidth * math.log2(1.0 + oracle_full_surface_snr(los_cfg))
    assert rate == pytest.approx(expected, rel=1e-9)
    assert rate == pytest.approx(2.9e9, rel=1e-2)


def test_null_allocations_coincide_up_to_dynamic_power(cfg):
    trials = few_trials(cfg)
    ts_rate, ts_ci = estimate(TIME_SPLITTING, 0, trials)
    uc_rate, uc_ci = estimate(UC_SPLITTING, 0, trials)
    # both read the full-surface column at their whole payload share
    assert (ts_rate, ts_ci) == (uc_rate, uc_ci)
    assert allocation_harvest(TIME_SPLITTING, 0, cfg) == 0.0
    assert allocation_harvest(UC_SPLITTING, 0, cfg) == 0.0
    # the solves at one static power differ in consumption by the dynamic power alone
    ts, uc = optimize_time_splitting(2e-6, cfg), optimize_uc_splitting(2e-6, cfg)
    delta = dynamic_power(TIME_SPLITTING, cfg) - dynamic_power(UC_SPLITTING, cfg)
    assert ts.avg_consumed_power - uc.avg_consumed_power == pytest.approx(delta, rel=1e-9)


def test_uc_splitting_all_ucs_absorb(cfg):
    assert estimate(UC_SPLITTING, cfg.m_s, few_trials(cfg)) == (0.0, 0.0)
    assert allocation_harvest(UC_SPLITTING, cfg.m_s, cfg) > 0.0


def test_uc_splitting_half_surface_snr_scaling(los_cfg):
    k = 112
    rate, _ = estimate(UC_SPLITTING, k, few_trials(los_cfg))
    m_s = los_cfg.m_s
    expected_snr = ((m_s - k) / m_s) ** 2 * oracle_full_surface_snr(los_cfg)
    expected_rate = 0.9 * los_cfg.bandwidth * math.log2(1.0 + expected_snr)
    assert rate == pytest.approx(expected_rate, rel=1e-9)


def test_uc_splitting_harvest_duration_is_post_preamble(cfg):
    # one full 9-UC chain in the linear region for the 9000-slot payload
    per_uc = cfg.tx_power * cfg.free_space_uc_gain
    expected = 0.3 * 9 * per_uc * 9000 * cfg.slot_duration / (10000 * cfg.slot_duration)
    assert allocation_harvest(UC_SPLITTING, 9, cfg) == pytest.approx(expected, rel=1e-9)


def test_time_splitting_rate_strictly_decreasing_in_eh_slots(cfg):
    rng = np.random.default_rng(11)
    trials = few_trials(cfg, seed=11, n=4)
    curve = curve_of(TIME_SPLITTING, cfg)
    for _ in range(100):
        lo = int(rng.integers(0, 9000))
        hi = int(rng.integers(lo + 1, 9001))
        r_lo, _ = estimate(TIME_SPLITTING, lo, trials)
        r_hi, _ = estimate(TIME_SPLITTING, hi, trials)
        assert r_hi < r_lo
        assert curve[hi] >= curve[lo]


def test_uc_splitting_rate_nonincreasing_in_k(cfg):
    rng = np.random.default_rng(12)
    trials = few_trials(cfg, seed=12, n=4)
    curve = curve_of(UC_SPLITTING, cfg)
    for _ in range(100):
        lo = int(rng.integers(0, cfg.m_s))
        hi = int(rng.integers(lo + 1, cfg.m_s + 1))
        r_lo, _ = estimate(UC_SPLITTING, lo, trials)
        r_hi, _ = estimate(UC_SPLITTING, hi, trials)
        assert r_hi <= r_lo
        assert curve[hi] >= curve[lo]


def test_feasible_flag_matches_recomputed_inequality(cfg):
    rng = np.random.default_rng(13)
    for _ in range(20):
        p_static = float(rng.uniform(0.0, 2e-3))
        for protocol, optimize in (
            (TIME_SPLITTING, optimize_time_splitting),
            (UC_SPLITTING, optimize_uc_splitting),
        ):
            result = optimize(p_static, cfg)
            harvested = allocation_harvest(protocol, result.optimal_allocation, cfg)
            consumed = total_consumption(p_static, protocol, cfg).total
            assert (result.avg_harvested_power, result.avg_consumed_power) == (harvested, consumed)
            assert (result.status == FEASIBLE) == (harvested >= consumed)

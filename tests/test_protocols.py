import dataclasses
import math

import numpy as np
import pytest

from risharvest import (
    Allocation,
    free_space_uc_gain,
    TIME_SPLITTING,
    UC_SPLITTING,
    dynamic_power,
    run_frame_time_splitting,
    run_frame_uc_splitting,
    sample_amplitudes,
    select_harvest_set,
)

from conftest import oracle_full_surface_snr


def test_select_harvest_set_bounds(cfg):
    assert select_harvest_set(0, cfg) == ()
    assert select_harvest_set(cfg.m_s, cfg) == tuple(range(225))
    assert select_harvest_set(5, cfg) == (0, 1, 2, 3, 4)
    with pytest.raises(ValueError):
        select_harvest_set(cfg.m_s + 1, cfg)
    with pytest.raises(ValueError):
        select_harvest_set(-1, cfg)


def test_select_harvest_set_ignores_instantaneous_draw(cfg):
    # statistics-only rule: the same k picks the same indices for any draw
    assert select_harvest_set(7, cfg) == select_harvest_set(7, cfg)


def test_time_splitting_bounds_checked(cfg, rng):
    amp = sample_amplitudes(cfg, rng, 1)[0]
    with pytest.raises(ValueError):
        run_frame_time_splitting(amp, Allocation.time_split(9001), 0.0, cfg)
    with pytest.raises(ValueError):
        run_frame_time_splitting(amp, Allocation.time_split(-1), 0.0, cfg)
    with pytest.raises(ValueError):
        run_frame_time_splitting(amp, Allocation.uc_split(3), 0.0, cfg)
    # one (m_s,) amplitude row per frame, nothing else
    for bad in (amp[None, :], amp[:-1], np.append(amp, 1e-6)):
        with pytest.raises(ValueError, match="amplitudes must have shape"):
            run_frame_time_splitting(bad, Allocation.time_split(0), 0.0, cfg)


def test_uc_splitting_bounds_checked(cfg, rng):
    amp = sample_amplitudes(cfg, rng, 1)[0]
    with pytest.raises(ValueError):
        run_frame_uc_splitting(amp, Allocation.uc_split(226), 0.0, cfg)
    with pytest.raises(ValueError):
        run_frame_uc_splitting(amp, Allocation.uc_split(2, harvest_set=(0, 1, 2)), 0.0, cfg)
    with pytest.raises(ValueError):
        run_frame_uc_splitting(amp, Allocation.uc_split(2, harvest_set=(0, 225)), 0.0, cfg)
    for bad in (amp[None, :], amp[:-1], np.append(amp, 1e-6)):
        with pytest.raises(ValueError, match="amplitudes must have shape"):
            run_frame_uc_splitting(bad, Allocation.uc_split(0), 0.0, cfg)


def test_time_splitting_full_harvest_kills_rate(cfg, rng):
    amp = sample_amplitudes(cfg, rng, 1)[0]
    report = run_frame_time_splitting(amp, Allocation.time_split(9000), 1e-6, cfg)
    assert report.rate == 0.0
    assert report.harvested_energy > 0.0


def test_time_splitting_no_harvest(cfg, rng):
    amp = sample_amplitudes(cfg, rng, 1)[0]
    report = run_frame_time_splitting(amp, Allocation.time_split(0), 1e-6, cfg)
    assert report.harvested_energy == 0.0
    expected_rate = 0.9 * cfg.bandwidth * math.log2(1.0 + report.snr)
    assert report.rate == pytest.approx(expected_rate, rel=1e-12)


def test_time_splitting_los_rate_closed_form(los_cfg, rng):
    amp = sample_amplitudes(los_cfg, rng, 1)[0]
    report = run_frame_time_splitting(amp, Allocation.time_split(0), 0.0, los_cfg)
    expected = 0.9 * los_cfg.bandwidth * math.log2(1.0 + oracle_full_surface_snr(los_cfg))
    assert report.rate == pytest.approx(expected, rel=1e-9)
    assert report.rate == pytest.approx(2.9e9, rel=1e-2)


def test_null_allocations_coincide_up_to_dynamic_power(cfg, rng):
    amp = sample_amplitudes(cfg, rng, 1)[0]
    p_static = 2e-6
    ts = run_frame_time_splitting(amp, Allocation.time_split(0), p_static, cfg)
    uc = run_frame_uc_splitting(amp, Allocation.uc_split(0), p_static, cfg)
    assert ts.rate == pytest.approx(uc.rate, rel=1e-12)
    assert ts.snr == pytest.approx(uc.snr, rel=1e-12)
    assert ts.harvested_energy == uc.harvested_energy == 0.0
    frame_duration = cfg.frame_slots * cfg.slot_duration
    delta = (
        dynamic_power(TIME_SPLITTING, cfg) - dynamic_power(UC_SPLITTING, cfg)
    ) * frame_duration
    assert ts.consumed_energy - uc.consumed_energy == pytest.approx(delta, rel=1e-9)


def test_uc_splitting_all_ucs_absorb(cfg, rng):
    amp = sample_amplitudes(cfg, rng, 1)[0]
    report = run_frame_uc_splitting(amp, Allocation.uc_split(cfg.m_s), 1e-6, cfg)
    assert report.rate == 0.0
    assert report.snr == 0.0
    assert report.harvested_energy > 0.0


def test_uc_splitting_half_surface_snr_scaling(los_cfg, rng):
    amp = sample_amplitudes(los_cfg, rng, 1)[0]
    k = 112
    report = run_frame_uc_splitting(amp, Allocation.uc_split(k), 0.0, los_cfg)
    m_s = los_cfg.m_s
    scale = ((m_s - k) / m_s) ** 2
    expected_snr = scale * oracle_full_surface_snr(los_cfg)
    assert report.snr == pytest.approx(expected_snr, rel=1e-9)
    expected_rate = 0.9 * los_cfg.bandwidth * math.log2(1.0 + expected_snr)
    assert report.rate == pytest.approx(expected_rate, rel=1e-9)


def test_uc_splitting_harvest_duration_is_post_preamble(cfg, rng):
    amp = sample_amplitudes(cfg, rng, 1)[0]
    report = run_frame_uc_splitting(amp, Allocation.uc_split(9), 0.0, cfg)
    # one full 9-UC chain in the linear region for the 9000-slot payload
    per_uc = cfg.tx_power * free_space_uc_gain(cfg)
    expected = 0.3 * 9 * per_uc * 9000 * cfg.slot_duration
    assert report.harvested_energy == pytest.approx(expected, rel=1e-9)


def test_time_splitting_rate_strictly_decreasing_in_eh_slots(cfg):
    rng = np.random.default_rng(11)
    amp = sample_amplitudes(cfg, rng, 1)[0]
    for _ in range(100):
        lo = int(rng.integers(0, 9000))
        hi = int(rng.integers(lo + 1, 9001))
        r_lo = run_frame_time_splitting(amp, Allocation.time_split(lo), 1e-6, cfg)
        r_hi = run_frame_time_splitting(amp, Allocation.time_split(hi), 1e-6, cfg)
        assert r_hi.rate < r_lo.rate
        assert r_hi.harvested_energy >= r_lo.harvested_energy


def test_uc_splitting_rate_nonincreasing_in_k(cfg):
    rng = np.random.default_rng(12)
    amp = sample_amplitudes(cfg, rng, 1)[0]
    for _ in range(100):
        lo = int(rng.integers(0, cfg.m_s))
        hi = int(rng.integers(lo + 1, cfg.m_s + 1))
        r_lo = run_frame_uc_splitting(amp, Allocation.uc_split(lo), 1e-6, cfg)
        r_hi = run_frame_uc_splitting(amp, Allocation.uc_split(hi), 1e-6, cfg)
        assert r_hi.rate <= r_lo.rate
        assert r_hi.harvested_energy >= r_lo.harvested_energy


def test_feasible_flag_matches_recomputed_inequality(cfg):
    rng = np.random.default_rng(13)
    for _ in range(20):
        amp = sample_amplitudes(cfg, rng, 1)[0]
        eh = int(rng.integers(0, 9001))
        p_static = float(rng.uniform(0.0, 2e-3))
        report = run_frame_time_splitting(amp, Allocation.time_split(eh), p_static, cfg)
        assert report.feasible == (report.harvested_energy >= report.consumed_energy)
        k = int(rng.integers(0, cfg.m_s + 1))
        report = run_frame_uc_splitting(amp, Allocation.uc_split(k), p_static, cfg)
        assert report.feasible == (report.harvested_energy >= report.consumed_energy)


def test_explicit_harvest_set_matches_default_selection(cfg, rng):
    amp = sample_amplitudes(cfg, rng, 1)[0]
    implicit = run_frame_uc_splitting(amp, Allocation.uc_split(13), 1e-6, cfg)
    explicit = run_frame_uc_splitting(
        amp, Allocation.uc_split(13, harvest_set=select_harvest_set(13, cfg)), 1e-6, cfg
    )
    assert implicit == explicit

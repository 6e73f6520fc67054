import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from risharvest import (
    TIME_SPLITTING,
    UC_SPLITTING,
    ScenarioConfig,
    dynamic_power,
    reconfig_count,
    total_consumption,
)


def test_reconfig_counts_per_uc(cfg):
    assert reconfig_count(TIME_SPLITTING, cfg) == 675
    assert reconfig_count(UC_SPLITTING, cfg) == 450


def test_reconfig_counts_per_asic(cfg):
    per_asic = dataclasses.replace(cfg, reconfig_counting_mode="per_asic")
    assert reconfig_count(TIME_SPLITTING, per_asic) == 225 + 2 * 57
    assert reconfig_count(UC_SPLITTING, per_asic) == 225 + 57


def test_reconfig_count_rejects_unknown_protocol(cfg):
    with pytest.raises(ValueError):
        reconfig_count("frequency_splitting", cfg)


def test_dynamic_power_defaults(cfg):
    # 675 and 450 events at 8 nJ over a 20 ms frame
    assert dynamic_power(TIME_SPLITTING, cfg) == 675 * 8e-9 / (10000 * 2e-6)
    assert dynamic_power(UC_SPLITTING, cfg) == 450 * 8e-9 / (10000 * 2e-6)
    assert dynamic_power(TIME_SPLITTING, cfg) == pytest.approx(2.7e-4, rel=1e-12)
    assert dynamic_power(UC_SPLITTING, cfg) == pytest.approx(1.8e-4, rel=1e-12)


def test_dynamic_power_zero_event_cost(cfg):
    free = dataclasses.replace(cfg, e_rec=0.0)
    assert dynamic_power(TIME_SPLITTING, free) == 0.0
    assert dynamic_power(UC_SPLITTING, free) == 0.0


@given(
    cols=st.integers(min_value=1, max_value=40),
    rows=st.integers(min_value=1, max_value=40),
    e_rec=st.floats(min_value=1e-12, max_value=1e-6),
    slot=st.floats(min_value=1e-7, max_value=1e-3),
)
def test_dynamic_power_ratio_two_thirds(cols, rows, e_rec, slot):
    cfg = ScenarioConfig(ris_cols=cols, ris_rows=rows, e_rec=e_rec, slot_duration=slot)
    n_uc = reconfig_count(UC_SPLITTING, cfg)
    n_time = reconfig_count(TIME_SPLITTING, cfg)
    assert Fraction(n_uc, n_time) == Fraction(2, 3)
    p_uc = dynamic_power(UC_SPLITTING, cfg)
    p_time = dynamic_power(TIME_SPLITTING, cfg)
    assert p_uc / p_time == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_dynamic_power_scales_with_e_rec_and_frame(cfg):
    doubled_cost = dataclasses.replace(cfg, e_rec=2 * cfg.e_rec)
    assert dynamic_power(TIME_SPLITTING, doubled_cost) == pytest.approx(
        2 * dynamic_power(TIME_SPLITTING, cfg), rel=1e-12
    )
    doubled_frame = dataclasses.replace(cfg, frame_slots=2 * cfg.frame_slots)
    assert dynamic_power(TIME_SPLITTING, doubled_frame) == pytest.approx(
        dynamic_power(TIME_SPLITTING, cfg) / 2, rel=1e-12
    )


def test_total_consumption_sum(cfg):
    breakdown = total_consumption(1e-5, UC_SPLITTING, cfg)
    assert breakdown.p_static == 1e-5
    assert breakdown.total == pytest.approx(1.9e-4, rel=1e-12)
    assert reconfig_count(UC_SPLITTING, cfg) == 450
    assert cfg.frame_duration == pytest.approx(0.02, rel=1e-12)


def test_total_consumption_zero(cfg):
    free = dataclasses.replace(cfg, e_rec=0.0)
    assert total_consumption(0.0, TIME_SPLITTING, free).total == 0.0


def test_total_consumption_per_asic_interpretation(cfg):
    per_asic = dataclasses.replace(cfg, static_power_interpretation="per_asic")
    breakdown = total_consumption(1e-6, TIME_SPLITTING, per_asic)
    assert breakdown.p_static == pytest.approx(5.7e-5, rel=1e-12)


def test_total_consumption_rejects_negative_static(cfg):
    with pytest.raises(ValueError):
        total_consumption(-1e-9, TIME_SPLITTING, cfg)


def test_breakdown_invariant_dynamic_formula(cfg):
    for protocol in (TIME_SPLITTING, UC_SPLITTING):
        b = total_consumption(3e-6, protocol, cfg)
        assert b.p_dynamic == reconfig_count(protocol, cfg) * cfg.e_rec / cfg.frame_duration


def test_dyn_over_static_strictly_decreasing(cfg):
    p_dyn = dynamic_power(TIME_SPLITTING, cfg)
    ratios = [p_dyn / p for p in (1e-6, 1e-5, 1e-4, 1e-3)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risharvest import ScenarioConfig
from risharvest.harvesting import harvest, rectify

from conftest import absorbing_config, per_chain_oracle


def test_partition_exact_division():
    # 2 uW per UC is below the 10 uW sensitivity alone but not in chains of 9
    cfg = absorbing_config(2e-6, 225, chain_size=9)
    eta = cfg.rectifier_efficiency
    assert harvest(cfg)[-1] == pytest.approx(25 * eta * 9 * 2e-6, rel=1e-12)
    assert not harvest(absorbing_config(2e-6, 225, chain_size=1)).any()


def test_partition_remainder_group():
    # 10 UCs of 3 uW in chains of 4 form chains of 12, 12 and 6 uW: only the
    # short one stays below the 10 uW sensitivity
    cfg = absorbing_config(3e-6, 10, chain_size=4)
    eta = cfg.rectifier_efficiency
    assert harvest(cfg)[10] == pytest.approx(eta * 24e-6, rel=1e-12)
    sigmoidal = dataclasses.replace(cfg, rectifier_kind="sigmoidal")
    p = sigmoidal.uc_absorbed_power
    expected = sum(rectify(n * p, sigmoidal) for n in (4, 4, 2))
    assert harvest(sigmoidal)[10] == pytest.approx(expected, rel=1e-12)


def test_partition_empty():
    # no absorbing UC forms no chain, even where one UC would saturate it
    for chain_size in (1, 4, 9, 225):
        assert harvest(absorbing_config(3e-3, 225, chain_size=chain_size))[0] == 0.0


def test_one_chain_lossless_sum():
    # one chain of 3 UCs in the linear region: DC = efficiency * summed RF
    cfg = absorbing_config(1e-5, 3, chain_size=3)
    assert harvest(cfg)[3] == pytest.approx(0.3 * 3e-5, rel=1e-12)


def test_one_chain_half_power_loss():
    cfg = absorbing_config(1e-5, 3, chain_size=3, rf_combining_loss_db=3.0103)
    assert harvest(cfg)[3] == pytest.approx(0.3 * 1.5e-5, rel=1e-4)


def test_entry_k_does_not_depend_on_surface_size():
    # UCs past the first k add nothing to entry k, even where the surface is
    # smaller than one chain
    for kind in ("linear_clipped", "sigmoidal"):
        full = harvest(absorbing_config(3e-3, 12, chain_size=4, rectifier_kind=kind))
        for n in range(1, 12):
            cfg = absorbing_config(3e-3, n, chain_size=4, rectifier_kind=kind)
            assert harvest(cfg).tolist() == full[: n + 1].tolist()


def test_rectify_linear_region():
    cfg = ScenarioConfig(
        rectifier_efficiency=0.3, rectifier_sensitivity=1e-5, rectifier_saturation=1e-2
    )
    assert rectify(1e-4, cfg) == pytest.approx(3e-5, rel=1e-12)


def test_rectify_zero_input_both_kinds():
    for cfg in (ScenarioConfig(), ScenarioConfig(rectifier_kind="sigmoidal")):
        out = rectify(0.0, cfg)
        assert isinstance(out, float) and out == 0.0


def test_rectify_saturates():
    cfg = ScenarioConfig(
        rectifier_efficiency=0.3, rectifier_sensitivity=1e-5, rectifier_saturation=1e-2
    )
    assert rectify(1.0, cfg) == pytest.approx(3e-3, rel=1e-12)


def test_rectify_below_sensitivity():
    cfg = ScenarioConfig(rectifier_sensitivity=1e-5)
    assert rectify(1e-5, cfg) == 0.0
    assert rectify(9.9e-6, cfg) == 0.0


def test_rectify_rejects_negative_input():
    with pytest.raises(ValueError):
        rectify(-1e-9, ScenarioConfig())


def test_sigmoidal_bounded_by_p_max():
    cfg = ScenarioConfig(
        rectifier_kind="sigmoidal", rectifier_p_max=5e-3, rectifier_steepness=1500.0,
        rectifier_centering=2.2e-3,
    )
    assert rectify(10.0, cfg) == pytest.approx(5e-3, rel=1e-6)
    assert rectify(10.0, cfg) <= 5e-3 + 1e-18


def test_sigmoidal_saturates_where_the_logistic_argument_overflows():
    # steepness * input reaches inf: the output is exactly 0 or p_max, with no warning
    cfg = ScenarioConfig(
        rectifier_kind="sigmoidal", rectifier_p_max=5e-3, rectifier_steepness=1e300,
        rectifier_centering=1e10,
    )
    assert rectify(np.array([0.0, 1.0, 1e300]), cfg).tolist() == [0.0, 0.0, 5e-3]


@given(
    steepness=st.floats(min_value=1.0, max_value=1e4),
    centering=st.floats(min_value=0.0, max_value=0.1),
    p_max=st.floats(min_value=1e-6, max_value=1.0),
    p_lo=st.floats(min_value=0.0, max_value=1.0),
    p_hi=st.floats(min_value=0.0, max_value=1.0),
)
def test_sigmoidal_monotone_and_bounded(steepness, centering, p_max, p_lo, p_hi):
    cfg = ScenarioConfig(
        rectifier_kind="sigmoidal", rectifier_p_max=p_max, rectifier_steepness=steepness,
        rectifier_centering=centering,
    )
    lo, hi = sorted((p_lo, p_hi))
    out_lo, out_hi = rectify(lo, cfg), rectify(hi, cfg)
    assert 0.0 <= out_lo <= out_hi <= p_max * (1 + 1e-12)


@given(
    efficiency=st.floats(min_value=0.05, max_value=1.0),
    sensitivity=st.floats(min_value=0.0, max_value=1e-3),
    span=st.floats(min_value=1e-6, max_value=1.0),
    p_lo=st.floats(min_value=0.0, max_value=2.0),
    p_hi=st.floats(min_value=0.0, max_value=2.0),
)
def test_linear_clipped_monotone_and_bounded(efficiency, sensitivity, span, p_lo, p_hi):
    cfg = ScenarioConfig(
        rectifier_efficiency=efficiency, rectifier_sensitivity=sensitivity,
        rectifier_saturation=sensitivity + span,
    )
    lo, hi = sorted((p_lo, p_hi))
    out_lo, out_hi = rectify(lo, cfg), rectify(hi, cfg)
    assert 0.0 <= out_lo <= out_hi <= efficiency * (sensitivity + span) + 1e-18


def test_rectifier_validation():
    with pytest.raises(ValueError, match="kind"):
        ScenarioConfig(rectifier_kind="cubic")
    with pytest.raises(ValueError, match="efficiency"):
        ScenarioConfig(rectifier_efficiency=1.2)
    with pytest.raises(ValueError, match="saturation"):
        ScenarioConfig(rectifier_sensitivity=1e-2, rectifier_saturation=1e-3)


def test_harvest_matches_per_chain_oracle(rng):
    for _ in range(100):
        fields = dict(
            chain_size=int(rng.integers(1, 12)),
            rf_combining_loss_db=float(rng.uniform(0.0, 6.0)),
            dc_combining_efficiency=float(rng.uniform(0.5, 1.0)),
            rectifier_kind=str(rng.choice(["linear_clipped", "sigmoidal"])),
        )
        n = int(rng.integers(1, 40))
        cfg = absorbing_config(float(rng.uniform(0.0, 3e-3)), n, **fields)
        dc = harvest(cfg)
        assert dc.shape == (n + 1,)
        p = cfg.uc_absorbed_power
        expected = [per_chain_oracle(np.full(k, p), cfg) for k in range(n + 1)]
        assert dc == pytest.approx(expected, rel=1e-12, abs=1e-300)


@given(
    kind=st.sampled_from(["linear_clipped", "sigmoidal"]),
    powers=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
    negative=st.floats(max_value=-1e-300, allow_nan=False, allow_infinity=False),
    at=st.integers(min_value=0, max_value=19),
)
def test_array_rectify_matches_scalar(kind, powers, negative, at):
    cfg = ScenarioConfig(rectifier_kind=kind)
    out = rectify(np.array(powers), cfg)
    assert out.shape == (len(powers),)
    assert out.tolist() == [rectify(p, cfg) for p in powers]
    broken = np.array(powers)
    broken[at % len(powers)] = negative
    with pytest.raises(ValueError, match="must be >= 0 W"):
        rectify(broken, cfg)


def test_harvest_linear_regime_closed_form():
    # uniform power, lossless combining: every fill of every chain lies inside
    # the linear region, so the harvest is linear in k
    cfg = absorbing_config(3e-5, 225)
    eta, p = cfg.rectifier_efficiency, cfg.uc_absorbed_power
    assert harvest(cfg) == pytest.approx(eta * np.arange(226) * p, rel=1e-12, abs=0.0)


def test_harvest_dc_combining_efficiency():
    cfg = absorbing_config(3e-5, 225, dc_combining_efficiency=0.8)
    assert harvest(cfg)[-1] == pytest.approx(0.8 * 0.3 * 225 * 3e-5, rel=1e-12)


def test_harvest_below_sensitivity_single_uc_chains():
    cfg = absorbing_config(0.5e-5, 225, chain_size=1)
    assert not harvest(cfg).any()  # sensitivity is 1e-5


def test_chain_size_tradeoff_extremes():
    # the same sub-sensitivity per-UC power harvests nothing on single-UC
    # chains but something when all UCs feed one rectifier
    single = absorbing_config(0.5e-5, 225, chain_size=1)
    combined = absorbing_config(0.5e-5, 225, chain_size=225)
    assert harvest(single)[-1] == 0.0
    assert harvest(combined)[-1] > 0.0


def test_harvest_empty_set():
    # no absorbing UC harvests exactly nothing, for any surface and rectifier
    for kind in ("linear_clipped", "sigmoidal"):
        for n in (1, 5, 225):
            dc = harvest(absorbing_config(1e-3, n, rectifier_kind=kind))
            assert dc.shape == (n + 1,) and dc[0] == 0.0


def test_harvest_monotone_in_appended_ucs(rng):
    # appending absorbing UCs never shifts existing chain boundaries, so the
    # DC total is nondecreasing for any chain size, also around the sensitivity
    for _ in range(300):
        chain_size = int(rng.integers(1, 12))
        p = float(rng.uniform(0.0, 3e-5))
        n = int(rng.integers(2, 60))
        cut = int(rng.integers(1, n))
        small = harvest(absorbing_config(p, cut, chain_size=chain_size))[-1]
        full = harvest(absorbing_config(p, n, chain_size=chain_size))[-1]
        assert full >= small - 1e-18


def test_harvest_monotone_in_set_size_uniform_power(rng):
    # far-field absorption is uniform across UCs, so growing the absorbing set
    # never hurts, below sensitivity, in the linear region and in saturation
    for _ in range(300):
        fields = dict(
            chain_size=int(rng.integers(1, 12)),
            rectifier_kind=str(rng.choice(["linear_clipped", "sigmoidal"])),
        )
        p = float(10 ** rng.uniform(-7.0, 0.0))
        cfg = absorbing_config(p, int(rng.integers(1, 200)), **fields)
        assert np.all(np.diff(harvest(cfg)) >= 0.0)

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risharvest import (
    RectifierModel,
    ScenarioConfig,
    harvest,
    rectify,
)


def per_chain_oracle(powers, cfg):
    """The harvest chain written out chain by chain, with scalar rectify calls."""
    size, loss = cfg.chain_size, 10.0 ** (-cfg.rf_combining_loss_db / 10.0)
    dc = [
        rectify(float(np.sum(powers[i : i + size])) * loss, cfg.rectifier)
        for i in range(0, len(powers), size)
    ]
    return cfg.dc_combining_efficiency * sum(dc)


def test_partition_exact_division():
    # 2 uW per UC is below the 10 uW sensitivity alone but not in chains of 9
    cfg = ScenarioConfig(chain_size=9)
    eta = cfg.rectifier.efficiency
    assert harvest(np.full(225, 2e-6), cfg) == pytest.approx(25 * eta * 9 * 2e-6, rel=1e-12)
    assert harvest(np.full(225, 2e-6), ScenarioConfig(chain_size=1)) == 0.0


def test_partition_remainder_group():
    # 10 UCs in chains of 4 form chains of 4 + 4 + 2 consecutive UCs
    cfg = ScenarioConfig(chain_size=4)
    eta = cfg.rectifier.efficiency
    # chains carry 14, 26 and 5 uW: only the short one stays below the 10 uW
    # sensitivity
    powers = np.array([2e-6, 3e-6, 4e-6, 5e-6, 5e-6, 6e-6, 7e-6, 8e-6, 2e-6, 3e-6])
    assert harvest(powers, cfg) == pytest.approx(eta * (14e-6 + 26e-6), rel=1e-12)
    sigmoidal = dataclasses.replace(cfg, rectifier=RectifierModel(kind="sigmoidal"))
    expected = sum(rectify(p, sigmoidal.rectifier) for p in (14e-6, 26e-6, 5e-6))
    assert harvest(powers, sigmoidal) == pytest.approx(expected, rel=1e-12)


def test_partition_empty():
    for chain_size in (1, 4, 9, 225):
        assert harvest([], ScenarioConfig(chain_size=chain_size)) == 0.0


def test_chain_rf_power_lossless_sum():
    # one chain of 3 UCs in the linear region: DC = efficiency * summed RF
    cfg = ScenarioConfig(chain_size=3)
    assert harvest([1e-5, 1e-5, 1e-5], cfg) == pytest.approx(0.3 * 3e-5, rel=1e-12)


def test_chain_rf_power_half_power_loss():
    cfg = ScenarioConfig(chain_size=3, rf_combining_loss_db=3.0103)
    assert harvest([1e-5, 1e-5, 1e-5], cfg) == pytest.approx(0.3 * 1.5e-5, rel=1e-4)


def test_chain_rf_power_empty_chain():
    # zero-power UCs, like the padding of a short last chain, add nothing
    for kind in ("linear_clipped", "sigmoidal"):
        cfg = ScenarioConfig(chain_size=4, rectifier=RectifierModel(kind=kind))
        powers = np.full(6, 3e-3)
        padded = np.concatenate((powers, np.zeros(6)))
        assert harvest(padded, cfg) == harvest(powers, cfg)


def test_rectify_linear_region():
    model = RectifierModel(efficiency=0.3, sensitivity=1e-5, saturation=1e-2)
    assert rectify(1e-4, model) == pytest.approx(3e-5, rel=1e-12)


def test_rectify_zero_input_both_kinds():
    for model in (RectifierModel(), RectifierModel(kind="sigmoidal")):
        out = rectify(0.0, model)
        assert isinstance(out, float) and out == 0.0


def test_rectify_saturates():
    model = RectifierModel(efficiency=0.3, sensitivity=1e-5, saturation=1e-2)
    assert rectify(1.0, model) == pytest.approx(3e-3, rel=1e-12)


def test_rectify_below_sensitivity():
    model = RectifierModel(sensitivity=1e-5)
    assert rectify(1e-5, model) == 0.0
    assert rectify(9.9e-6, model) == 0.0


def test_rectify_rejects_negative_input():
    with pytest.raises(ValueError):
        rectify(-1e-9, RectifierModel())


def test_sigmoidal_bounded_by_p_max():
    model = RectifierModel(kind="sigmoidal", p_max=5e-3, steepness=1500.0, centering=2.2e-3)
    assert rectify(10.0, model) == pytest.approx(5e-3, rel=1e-6)
    assert rectify(10.0, model) <= 5e-3 + 1e-18


def test_sigmoidal_saturates_where_the_logistic_argument_overflows():
    # steepness * input reaches inf: the output is exactly 0 or p_max, with no warning
    model = RectifierModel(kind="sigmoidal", p_max=5e-3, steepness=1e300, centering=1e10)
    assert rectify(np.array([0.0, 1.0, 1e300]), model).tolist() == [0.0, 0.0, 5e-3]


@given(
    steepness=st.floats(min_value=1.0, max_value=1e4),
    centering=st.floats(min_value=0.0, max_value=0.1),
    p_max=st.floats(min_value=1e-6, max_value=1.0),
    p_lo=st.floats(min_value=0.0, max_value=1.0),
    p_hi=st.floats(min_value=0.0, max_value=1.0),
)
def test_sigmoidal_monotone_and_bounded(steepness, centering, p_max, p_lo, p_hi):
    model = RectifierModel(kind="sigmoidal", p_max=p_max, steepness=steepness, centering=centering)
    lo, hi = sorted((p_lo, p_hi))
    out_lo, out_hi = rectify(lo, model), rectify(hi, model)
    assert 0.0 <= out_lo <= out_hi <= p_max * (1 + 1e-12)


@given(
    efficiency=st.floats(min_value=0.05, max_value=1.0),
    sensitivity=st.floats(min_value=0.0, max_value=1e-3),
    span=st.floats(min_value=1e-6, max_value=1.0),
    p_lo=st.floats(min_value=0.0, max_value=2.0),
    p_hi=st.floats(min_value=0.0, max_value=2.0),
)
def test_linear_clipped_monotone_and_bounded(efficiency, sensitivity, span, p_lo, p_hi):
    model = RectifierModel(
        efficiency=efficiency, sensitivity=sensitivity, saturation=sensitivity + span
    )
    lo, hi = sorted((p_lo, p_hi))
    out_lo, out_hi = rectify(lo, model), rectify(hi, model)
    assert 0.0 <= out_lo <= out_hi <= efficiency * (sensitivity + span) + 1e-18


def test_rectifier_validation():
    with pytest.raises(ValueError, match="kind"):
        RectifierModel(kind="cubic")
    with pytest.raises(ValueError, match="efficiency"):
        RectifierModel(efficiency=1.2)
    with pytest.raises(ValueError, match="saturation"):
        RectifierModel(sensitivity=1e-2, saturation=1e-3)


def test_harvest_matches_per_chain_oracle(rng):
    for _ in range(100):
        cfg = ScenarioConfig(
            chain_size=int(rng.integers(1, 12)),
            rf_combining_loss_db=float(rng.uniform(0.0, 6.0)),
            dc_combining_efficiency=float(rng.uniform(0.5, 1.0)),
            rectifier=RectifierModel(kind=str(rng.choice(["linear_clipped", "sigmoidal"]))),
        )
        powers = rng.uniform(0.0, 3e-3, size=int(rng.integers(0, 40)))
        assert harvest(powers, cfg) == pytest.approx(
            per_chain_oracle(powers, cfg), rel=1e-12, abs=1e-300
        )


@given(
    kind=st.sampled_from(["linear_clipped", "sigmoidal"]),
    powers=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
    negative=st.floats(max_value=-1e-300, allow_nan=False, allow_infinity=False),
    at=st.integers(min_value=0, max_value=19),
)
def test_array_rectify_matches_scalar(kind, powers, negative, at):
    model = RectifierModel(kind=kind)
    out = rectify(np.array(powers), model)
    assert out.shape == (len(powers),)
    assert out.tolist() == [rectify(p, model) for p in powers]
    broken = np.array(powers)
    broken[at % len(powers)] = negative
    with pytest.raises(ValueError, match="must be >= 0 W"):
        rectify(broken, model)


def test_harvest_linear_regime_closed_form(cfg):
    # uniform power, lossless combining, all chains inside the linear region
    p = 3e-5
    eta = cfg.rectifier.efficiency
    assert harvest(np.full(225, p), cfg) == pytest.approx(eta * 225 * p, rel=1e-12)


def test_harvest_dc_combining_efficiency():
    cfg = ScenarioConfig(dc_combining_efficiency=0.8)
    p = 3e-5
    assert harvest(np.full(225, p), cfg) == pytest.approx(0.8 * 0.3 * 225 * p, rel=1e-12)


def test_harvest_below_sensitivity_single_uc_chains():
    cfg = ScenarioConfig(chain_size=1)
    assert harvest(np.full(225, 0.5e-5), cfg) == 0.0  # sensitivity is 1e-5


def test_chain_size_tradeoff_extremes():
    # the same sub-sensitivity per-UC power harvests nothing on single-UC
    # chains but something when all UCs feed one rectifier
    per_uc = 0.5e-5
    single = ScenarioConfig(chain_size=1)
    combined = ScenarioConfig(chain_size=225)
    assert harvest(np.full(225, per_uc), single) == 0.0
    assert harvest(np.full(225, per_uc), combined) > 0.0


def test_harvest_empty_set(cfg):
    for empty in ([], np.empty(0)):
        out = harvest(empty, cfg)
        assert isinstance(out, float) and out == 0.0


def test_harvest_monotone_in_appended_ucs(rng):
    # appending absorbing UCs never shifts existing chain boundaries, so the
    # DC total is nondecreasing for any power profile and chain size
    for _ in range(300):
        chain_size = int(rng.integers(1, 12))
        cfg = ScenarioConfig(chain_size=chain_size)
        n = int(rng.integers(1, 60))
        powers = rng.uniform(0.0, 3e-5, size=n)
        cut = int(rng.integers(0, n))
        small = harvest(powers[:cut], cfg)
        full = harvest(powers, cfg)
        assert full >= small - 1e-18


def test_harvest_monotone_in_set_size_uniform_power(rng):
    # far-field absorption is uniform across UCs, so a random UC set harvests
    # exactly what any equally sized set does and growth never hurts
    p_uc = 0.9e-5
    for _ in range(200):
        chain_size = int(rng.integers(1, 12))
        cfg = ScenarioConfig(chain_size=chain_size)
        size = int(rng.integers(0, 200))
        grown = size + int(rng.integers(1, 20))
        small = harvest(np.full(size, p_uc), cfg)
        big = harvest(np.full(grown, p_uc), cfg)
        assert big >= small - 1e-18

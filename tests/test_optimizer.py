import dataclasses

import numpy as np
import pytest

import risharvest.harvesting
import risharvest.optimizer
from risharvest import (
    FEASIBLE,
    INFEASIBLE,
    TIME_SPLITTING,
    UC_SPLITTING,
    RectifierModel,
    ScenarioConfig,
    draw_trials,
    estimate_averages,
    free_space_uc_gain,
    harvest,
    optimize_time_splitting,
    optimize_uc_splitting,
    rectify,
    sample_amplitudes,
)
from risharvest.optimizer import harvest_curve

from conftest import frame_oracle, oracle_full_surface_snr

OPTIMIZERS = ((TIME_SPLITTING, optimize_time_splitting), (UC_SPLITTING, optimize_uc_splitting))


def exhaustive_best(protocol, p_static, cfg, trials):
    """Scan every allocation value; keep the feasible rate maximizer.

    Ties break toward the smaller value because the scan ascends.
    """
    vmax = cfg.frame_slots - cfg.preamble_slots if protocol == TIME_SPLITTING else cfg.m_s
    best = None
    for v in range(vmax + 1):
        est = estimate_averages(protocol, v, p_static, cfg, trials=trials)
        if est.avg_harvested_power >= est.avg_consumed_power:
            if best is None or est.average_rate > best[1]:
                best = (v, est.average_rate)
    return best


def chain_harvest_power(protocol, value, cfg):
    """Frame-averaged harvest of one allocation, through the full harvest chain."""
    absorbed = cfg.tx_power * free_space_uc_gain(cfg)
    if protocol == TIME_SPLITTING:
        energy = harvest(np.full(cfg.m_s, absorbed), cfg) * (value * cfg.slot_duration)
    else:
        duration = (cfg.frame_slots - cfg.preamble_slots) * cfg.slot_duration
        energy = harvest(np.full(value, absorbed), cfg) * duration
    return energy / (cfg.frame_slots * cfg.slot_duration)


def random_small_configs(rng, count=30):
    """Small surfaces and frames across TX powers, chain sizes, losses and rectifiers."""
    for _ in range(count):
        yield ScenarioConfig(
            ris_cols=int(rng.integers(2, 8)),
            ris_rows=int(rng.integers(2, 8)),
            frame_slots=200,
            preamble_slots=20,
            tx_power=float(10 ** rng.uniform(-1.0, 1.5)),
            chain_size=int(rng.integers(1, 12)),
            rf_combining_loss_db=float(rng.uniform(0.0, 6.0)),
            dc_combining_efficiency=float(rng.uniform(0.5, 1.0)),
            rectifier=RectifierModel(kind=str(rng.choice(["linear_clipped", "sigmoidal"]))),
        )


@pytest.fixture
def fresh_curves():
    """Empty the harvest-curve cache around a test that patches the harvest chain."""
    harvest_curve.cache_clear()
    yield
    harvest_curve.cache_clear()


def test_estimate_averages_deterministic(cfg):
    fast = dataclasses.replace(cfg, mc_trials=64)
    a = estimate_averages(
        TIME_SPLITTING, 100, 1e-5, fast, draw_trials(fast, np.random.default_rng(9))
    )
    b = estimate_averages(
        TIME_SPLITTING, 100, 1e-5, fast, draw_trials(fast, np.random.default_rng(9))
    )
    assert a == b


def test_estimate_averages_zero_variance_at_infinite_k(los_cfg):
    fast = dataclasses.replace(los_cfg, mc_trials=16)
    trials = draw_trials(fast, np.random.default_rng(1))
    est = estimate_averages(TIME_SPLITTING, 0, 0.0, fast, trials)
    expected = 0.9 * fast.bandwidth * np.log2(1.0 + oracle_full_surface_snr(fast))
    assert est.average_rate == pytest.approx(expected, rel=1e-9)
    assert est.rate_ci_halfwidth == pytest.approx(0.0, abs=1e-3)


def test_estimate_averages_ci_small_at_default_trials(cfg):
    trials = draw_trials(cfg, np.random.default_rng(2))
    est = estimate_averages(TIME_SPLITTING, 0, 0.0, cfg, trials)
    assert est.rate_ci_halfwidth / est.average_rate < 0.01


def test_estimate_averages_matches_frame_engine(cfg, rng):
    """Dual route: vectorized evaluation vs. the per-frame oracle on the same draws."""
    n, seed = 50, 555
    configs = [
        *random_small_configs(rng),
        dataclasses.replace(cfg, static_power_interpretation="per_asic"),
        dataclasses.replace(
            cfg, static_power_interpretation="per_asic", reconfig_counting_mode="per_asic"
        ),
    ]
    assert {c.rectifier.kind for c in configs} == {"linear_clipped", "sigmoidal"}
    for config in configs:
        trials = draw_trials(config, np.random.default_rng(seed), n_trials=n)
        rows = sample_amplitudes(config, np.random.default_rng(seed), n)
        frame = config.frame_slots * config.slot_duration
        for protocol in (TIME_SPLITTING, UC_SPLITTING):
            vmax = harvest_curve(protocol, config).size - 1
            for value in sorted({0, 1, vmax // 2, vmax}):
                p_static = float(10 ** rng.uniform(-7, -3))
                est = estimate_averages(protocol, value, p_static, config, trials)
                frames = [frame_oracle(protocol, value, row, p_static, config) for row in rows]
                rates, harvested, consumed = zip(*frames)
                assert est.average_rate == pytest.approx(np.mean(rates), rel=1e-10)
                assert est.avg_harvested_power == pytest.approx(harvested[0] / frame, rel=1e-10)
                assert est.avg_consumed_power == pytest.approx(consumed[0] / frame, rel=1e-10)


@pytest.mark.parametrize("chunk_values", [None, 1], ids=["default_chunks", "one_trial_chunks"])
def test_draw_stream_independent_of_trial_count_and_chunks(monkeypatch, cfg, chunk_values):
    if chunk_values is not None:
        monkeypatch.setattr(risharvest.optimizer, "_DRAW_CHUNK_VALUES", chunk_values)
    # 200 trials of 225 UCs span three default chunks of 72 trials
    fast = dataclasses.replace(cfg, mc_trials=200)
    seed = 556
    full = draw_trials(fast, np.random.default_rng(seed)).amp_prefix
    head = draw_trials(fast, np.random.default_rng(seed), n_trials=7).amp_prefix
    assert np.array_equal(full[:7], head)
    # the prefix is the running sum of the sampler's rows, bit for bit
    amp = sample_amplitudes(fast, np.random.default_rng(seed), fast.mc_trials)
    assert np.array_equal(full[:, 0], np.zeros(fast.mc_trials))
    assert np.array_equal(full[:, 1:], np.cumsum(amp, axis=1))


def test_unconstrained_case_allocates_nothing(cfg):
    free = dataclasses.replace(cfg, e_rec=0.0, mc_trials=32)
    ts = optimize_time_splitting(0.0, free, draw_trials(free, np.random.default_rng(4)))
    assert ts.status == FEASIBLE and ts.optimal_allocation == 0
    uc = optimize_uc_splitting(0.0, free, draw_trials(free, np.random.default_rng(4)))
    assert uc.status == FEASIBLE and uc.optimal_allocation == 0
    assert ts.average_rate == pytest.approx(uc.average_rate, rel=1e-12)


def test_absurd_static_power_is_infeasible(cfg):
    fast = dataclasses.replace(cfg, mc_trials=32)
    result = optimize_time_splitting(1.0, fast, draw_trials(fast, np.random.default_rng(5)))
    assert result.status == INFEASIBLE
    assert result.optimal_allocation == fast.frame_slots - fast.preamble_slots
    assert result.avg_harvested_power < result.avg_consumed_power


@pytest.mark.parametrize("p_static", [float("nan"), float("inf")])
def test_invalid_static_power_rejected(cfg, p_static):
    fast = dataclasses.replace(cfg, mc_trials=8)
    trials = draw_trials(fast, np.random.default_rng(5))
    for _, optimize in OPTIMIZERS:
        with pytest.raises(ValueError, match="static power"):
            optimize(p_static, fast, trials)


def test_feasible_result_satisfies_constraint(cfg):
    fast = dataclasses.replace(cfg, mc_trials=32)
    result = optimize_uc_splitting(5e-4, fast, draw_trials(fast, np.random.default_rng(6)))
    assert result.status == FEASIBLE
    assert result.avg_harvested_power >= result.avg_consumed_power


def test_harvest_power_monotone_in_allocation(rng):
    # the optimizer's searchsorted lookup rests on this monotonicity
    for cfg in random_small_configs(rng):
        for protocol in (TIME_SPLITTING, UC_SPLITTING):
            assert np.all(np.diff(harvest_curve(protocol, cfg)) >= 0.0)


def test_harvest_curve_matches_harvest_chain(rng):
    for cfg in random_small_configs(rng):
        for protocol in (TIME_SPLITTING, UC_SPLITTING):
            curve = harvest_curve(protocol, cfg)
            expected = [chain_harvest_power(protocol, v, cfg) for v in range(curve.size)]
            assert curve == pytest.approx(expected, rel=1e-12, abs=0.0)
    with pytest.raises(ValueError):
        curve[0] = 1.0  # the cached curve is shared, so it is read-only


def test_saturated_chains_keep_curve_monotone():
    # every chain saturates, so whole chains add equal DC powers; summing
    # them as q * dc rounds some entries below their predecessor
    for tx_power in (100.0, 1000.0):
        for chain_size in range(1, 12):
            cfg = ScenarioConfig(
                tx_power=tx_power, chain_size=chain_size, frame_slots=200, preamble_slots=20
            )
            curve = harvest_curve(UC_SPLITTING, cfg)
            assert np.all(np.diff(curve) >= 0.0)
            expected = [chain_harvest_power(UC_SPLITTING, k, cfg) for k in range(curve.size)]
            assert curve == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_curve_lookup_matches_exhaustive_scan(small_cfg):
    trials = draw_trials(small_cfg, np.random.default_rng(99))
    prng = np.random.default_rng(7)
    for _ in range(20):
        p_static = float(10 ** prng.uniform(-6, -3))
        for protocol, optimize in OPTIMIZERS:
            result = optimize(p_static, small_cfg, trials=trials)
            scan = exhaustive_best(protocol, p_static, small_cfg, trials)
            if result.status == FEASIBLE:
                assert scan is not None
                assert scan[0] == result.optimal_allocation
                assert scan[1] == pytest.approx(result.average_rate, rel=1e-12)
            else:
                assert scan is None


def test_consumption_equal_to_curve_entry_is_feasible(small_cfg):
    # with e_rec = 0 the consumed power is exactly the static input
    free = dataclasses.replace(small_cfg, e_rec=0.0)
    trials = draw_trials(free, np.random.default_rng(12), n_trials=8)
    for protocol, optimize in OPTIMIZERS:
        curve = harvest_curve(protocol, free)
        # interior values where the curve rises; the top edge has its own test
        rises = np.flatnonzero(curve[1:-1] > curve[:-2]) + 1
        for v in rises[:: max(1, rises.size // 10)]:
            result = optimize(float(curve[v]), free, trials=trials)
            assert (result.status, result.optimal_allocation) == (FEASIBLE, v)
            assert result.avg_harvested_power == result.avg_consumed_power
            above = optimize(float(np.nextafter(curve[v], np.inf)), free, trials=trials)
            assert above.optimal_allocation > v


def test_lookup_edges_zero_static_power_and_full_allocation(small_cfg):
    free = dataclasses.replace(small_cfg, e_rec=0.0)
    trials = draw_trials(free, np.random.default_rng(13), n_trials=8)
    for protocol, optimize in OPTIMIZERS:
        curve = harvest_curve(protocol, free)
        vmax = curve.size - 1
        result = optimize(0.0, free, trials=trials)
        assert (result.status, result.optimal_allocation) == (FEASIBLE, 0)
        assert optimize(float(curve[vmax]), free, trials=trials).status == FEASIBLE
        result = optimize(float(np.nextafter(curve[vmax], np.inf)), free, trials=trials)
        assert (result.status, result.optimal_allocation) == (INFEASIBLE, vmax)
        assert result.avg_harvested_power < result.avg_consumed_power


@pytest.mark.parametrize(
    "fake_rectify, bad_index",
    [(lambda p_rf, model: np.full(np.shape(p_rf), np.nan), 0), (lambda p_rf, model: -p_rf, 1)],
    ids=["nan", "decreasing"],
)
def test_broken_harvest_curve_is_rejected(
    monkeypatch, fresh_curves, small_cfg, fake_rectify, bad_index
):
    monkeypatch.setattr(risharvest.harvesting, "rectify", fake_rectify)
    trials = draw_trials(small_cfg, np.random.default_rng(14), n_trials=4)
    for protocol, optimize in OPTIMIZERS:
        with pytest.raises(ValueError, match=f"^{protocol} .* at allocation {bad_index}$"):
            optimize(1e-5, small_cfg, trials=trials)


@pytest.mark.parametrize(
    "config",
    [
        ScenarioConfig(),
        ScenarioConfig(chain_size=7, rectifier=RectifierModel(kind="sigmoidal")),
        ScenarioConfig(ris_cols=60, ris_rows=60, chain_size=3600),
    ],
    ids=["default", "sigmoidal", "one_chain_of_3600"],
)
def test_uc_curve_rectifies_once(monkeypatch, fresh_curves, config):
    # every chain fill is rectified in one array call, whatever the chain size
    calls = []

    def counting_rectify(p_rf, model):
        calls.append(np.shape(p_rf))
        return rectify(p_rf, model)

    monkeypatch.setattr(risharvest.harvesting, "rectify", counting_rectify)
    curve = harvest_curve(UC_SPLITTING, config)
    assert calls == [(config.chain_size + 1,)]
    assert curve.size == config.m_s + 1


def test_uc_splitting_dominates_at_common_static_power(cfg):
    fast = dataclasses.replace(cfg, mc_trials=500)
    trials = draw_trials(fast, np.random.default_rng(8))
    for p_static in (1e-6, 1e-4, 8e-4):
        ts = optimize_time_splitting(p_static, fast, trials=trials)
        uc = optimize_uc_splitting(p_static, fast, trials=trials)
        assert ts.status == uc.status == FEASIBLE
        assert uc.average_rate >= ts.average_rate


def test_feasibility_range_ordering(cfg):
    # max harvest is identical at full allocation while UC splitting spends
    # less dynamic power, so its feasible static-power range extends at
    # least as far
    fast = dataclasses.replace(cfg, mc_trials=16)
    trials = draw_trials(fast, np.random.default_rng(10))
    max_harvest_ts = harvest_curve(TIME_SPLITTING, fast)[9000]
    max_harvest_uc = harvest_curve(UC_SPLITTING, fast)[fast.m_s]
    assert max_harvest_uc == pytest.approx(max_harvest_ts, rel=1e-12)
    for p_static in np.linspace(1e-4, 3e-3, 13):
        ts = optimize_time_splitting(float(p_static), fast, trials=trials)
        uc = optimize_uc_splitting(float(p_static), fast, trials=trials)
        if ts.status == FEASIBLE:
            assert uc.status == FEASIBLE


def test_same_seed_same_result(cfg):
    fast = dataclasses.replace(cfg, mc_trials=128)
    a = optimize_uc_splitting(1e-4, fast, draw_trials(fast, np.random.default_rng(77)))
    b = optimize_uc_splitting(1e-4, fast, draw_trials(fast, np.random.default_rng(77)))
    assert a == b


def test_trials_for_another_surface_are_rejected(cfg):
    small = draw_trials(dataclasses.replace(cfg, ris_cols=5, ris_rows=5), np.random.default_rng(3))
    for _, optimize in OPTIMIZERS:
        with pytest.raises(ValueError, match="drawn for 25 UCs, the configuration has 225"):
            optimize(1e-6, cfg, small)


def test_allocation_value_bounds_checked(cfg):
    fast = dataclasses.replace(cfg, mc_trials=8)
    trials = draw_trials(fast, np.random.default_rng(1))
    with pytest.raises(ValueError):
        estimate_averages(TIME_SPLITTING, 9001, 0.0, fast, trials=trials)
    with pytest.raises(ValueError):
        estimate_averages(UC_SPLITTING, 226, 0.0, fast, trials=trials)

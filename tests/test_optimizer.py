import dataclasses

import numpy as np
import pytest

import risharvest.channel
import risharvest.harvesting
import risharvest.optimizer
from risharvest import (
    FEASIBLE,
    INFEASIBLE,
    TIME_SPLITTING,
    UC_SPLITTING,
    RectifierModel,
    ScenarioConfig,
)
from risharvest.channel import sample_amplitudes
from risharvest.harvesting import rectify
from risharvest.optimizer import estimate_averages, optimize_time_splitting, optimize_uc_splitting
from risharvest.power import total_consumption

from conftest import (
    allocation_harvest,
    clear_harvest_caches,
    curve_of,
    draw,
    drawn_rows,
    frame_oracle,
    oracle_full_surface_snr,
    per_chain_oracle,
    rebuilt_prefix,
)

OPTIMIZERS = ((TIME_SPLITTING, optimize_time_splitting), (UC_SPLITTING, optimize_uc_splitting))


def exhaustive_best(protocol, p_static, cfg, trials):
    """Scan every allocation value; keep the feasible rate maximizer.

    Ties break toward the smaller value because the scan ascends.
    """
    vmax = cfg.frame_slots - cfg.preamble_slots if protocol == TIME_SPLITTING else cfg.m_s
    consumed = total_consumption(p_static, protocol, cfg).total
    best = None
    for v in range(vmax + 1):
        if chain_harvest_power(protocol, v, cfg) >= consumed:
            rate, _ = estimate_averages(protocol, v, trials)
            if best is None or rate > best[1]:
                best = (v, rate)
    return best


def chain_harvest_power(protocol, value, cfg):
    """Frame-averaged harvest of one allocation, through the per-chain oracle."""
    absorbed = cfg.tx_power * cfg.free_space_uc_gain
    if protocol == TIME_SPLITTING:
        energy = per_chain_oracle(np.full(cfg.m_s, absorbed), cfg) * (value * cfg.slot_duration)
    else:
        duration = (cfg.frame_slots - cfg.preamble_slots) * cfg.slot_duration
        energy = per_chain_oracle(np.full(value, absorbed), cfg) * duration
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
    """Empty the harvest caches around a test that patches the harvest chain."""
    clear_harvest_caches()
    yield
    clear_harvest_caches()


def test_estimate_averages_deterministic(cfg):
    fast = dataclasses.replace(cfg, mc_trials=64)
    a = estimate_averages(TIME_SPLITTING, 100, draw(fast, 9))
    b = estimate_averages(TIME_SPLITTING, 100, draw(fast, 9))
    assert a == b


def test_estimate_averages_zero_variance_at_infinite_k(los_cfg):
    fast = dataclasses.replace(los_cfg, mc_trials=16)
    trials = draw(fast, 1)
    rate, ci = estimate_averages(TIME_SPLITTING, 0, trials)
    expected = 0.9 * fast.bandwidth * np.log2(1.0 + oracle_full_surface_snr(fast))
    assert rate == pytest.approx(expected, rel=1e-9)
    assert ci == pytest.approx(0.0, abs=1e-3)


def test_estimate_averages_ci_small_at_default_trials(cfg):
    trials = draw(cfg, 2)
    rate, ci = estimate_averages(TIME_SPLITTING, 0, trials)
    assert ci / rate < 0.01


def test_estimate_averages_matches_frame_engine(cfg, rng):
    """Dual route: rate, harvest and consumption vs. the per-frame oracle on the same draws."""
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
        trials = draw(config, seed, n)
        # the draw's own rows, which keeping every column makes the
        # sampler's trials [0, n) of the same seed
        rows = drawn_rows(config, seed, n)
        frame = config.frame_slots * config.slot_duration
        for protocol in (TIME_SPLITTING, UC_SPLITTING):
            vmax = curve_of(protocol, config).size - 1
            for value in sorted({0, 1, vmax // 2, vmax}):
                p_static = float(10 ** rng.uniform(-7, -3))
                rate, _ = estimate_averages(protocol, value, trials)
                harvest = allocation_harvest(protocol, value, config)
                consumed = total_consumption(p_static, protocol, config).total
                frames = [frame_oracle(protocol, value, row, p_static, config) for row in rows]
                rates, harvests, consumptions = zip(*frames)
                assert rate == pytest.approx(np.mean(rates), rel=1e-10)
                assert harvest == pytest.approx(harvests[0] / frame, rel=1e-10)
                assert consumed == pytest.approx(consumptions[0] / frame, rel=1e-10)


def test_estimate_reads_the_configuration_of_its_draw(cfg):
    # a draw keeps its configuration: at twice the RIS-RX distance the
    # estimate follows the per-frame oracle of that distance, not the default's
    n, seed = 50, 561
    far = dataclasses.replace(cfg, d_ris_rx=76.0)
    rows = drawn_rows(far, seed, n)
    for protocol, value in ((TIME_SPLITTING, 100), (UC_SPLITTING, 9)):
        rate, _ = estimate_averages(protocol, value, draw(far, seed, n))
        frames = [frame_oracle(protocol, value, row, 0.0, far) for row in rows]
        assert rate == pytest.approx(np.mean([r for r, _, _ in frames]), rel=1e-10)
        near, _ = estimate_averages(protocol, value, draw(cfg, seed, n))
        assert rate < near


# the draw's blocks: the default, and blocks of one trial
BLOCKS = pytest.mark.parametrize("block_values", [None, 1], ids=["default_chunks", "one_trial_chunks"])


@BLOCKS
def test_draw_stream_independent_of_trial_count_and_chunks(monkeypatch, cfg, block_values):
    if block_values is not None:
        monkeypatch.setattr(risharvest.channel, "_DRAW_BLOCK_VALUES", block_values)
    # a row depends on the seed and its trial alone: the prefix is the one
    # rebuilt segment by segment from the words (conftest.rebuilt_prefix),
    # bit for bit, and the first t trials are the same for any trial count
    fast = dataclasses.replace(cfg, mc_trials=1200, rng_seed=556)
    columns = [0, 3, 4, 100, fast.m_s - 1]
    full = draw(fast, 556, columns=columns).amp_prefix
    assert np.array_equal(full[:, 0], np.zeros(fast.mc_trials))
    assert np.array_equal(full, rebuilt_prefix(fast, [0, 3, 4, 100, fast.m_s - 1, fast.m_s]))
    for t in (1, 7, 291, 292, 1100):
        assert np.array_equal(draw(fast, 556, t, columns=columns).amp_prefix, full[:t])


def test_draws_compare_by_identity(cfg):
    # the prefix arrays have no truth value, so == compares the objects
    fast = dataclasses.replace(cfg, mc_trials=2)
    one, other = draw(fast, 3), draw(fast, 3)
    assert one == one
    assert one != other


@BLOCKS
def test_column_draw_keeps_the_full_prefix_columns(monkeypatch, cfg, block_values):
    if block_values is not None:
        monkeypatch.setattr(risharvest.channel, "_DRAW_BLOCK_VALUES", block_values)
    # a kept column depends only on the seed, its trial and the kept columns
    # at or below it: it is the running sum of the segments between them,
    # each rebuilt from its own word (conftest.rebuilt_prefix), bit for bit;
    # keeping every column makes every segment one UC, so the prefix is the
    # running sum of the sampler's rows
    fast = dataclasses.replace(cfg, mc_trials=300, rng_seed=557)
    m_s = fast.m_s
    full = draw(fast, 557)
    assert full.columns == tuple(range(m_s + 1))
    assert np.array_equal(full.amp_prefix[:, 0], np.zeros(fast.mc_trials))
    assert np.array_equal(full.amp_prefix[:, 1:], np.cumsum(sample_amplitudes(fast, 0, 300), axis=1))
    cases = [
        ([], [m_s]),
        ([0], [0, m_s]),
        ([m_s], [m_s]),
        ([1], [1, m_s]),
        ([3, 7], [3, 7, m_s]),
        ([m_s - 1], [m_s - 1, m_s]),
        ([7, 3, np.int64(7), m_s, 3, 0], [0, 3, 7, m_s]),
    ]
    for columns, kept in cases:
        trials = draw(fast, 557, columns=columns)
        assert trials.columns == tuple(kept)
        assert (trials.n_trials, trials.cfg.m_s) == (fast.mc_trials, m_s)
        assert np.array_equal(trials.amp_prefix, rebuilt_prefix(fast, kept)), columns
    # a column kept above the others leaves them as they were
    low, more = (draw(fast, 557, columns=c).amp_prefix for c in ([3, 7], [3, 7, 100]))
    assert np.array_equal(low[:, :2], more[:, :2])
    assert np.array_equal(full.amp_prefix[:, [1, 2, 3]], draw(fast, 557, columns=[1, 2, 3]).amp_prefix[:, :3])


def test_undrawn_prefix_column_is_rejected(small_cfg):
    # with e_rec = 0 the consumed power is the static input, so a curve entry
    # where the curve rises puts the UC-splitting optimum exactly there
    free = dataclasses.replace(small_cfg, e_rec=0.0)
    curve = curve_of(UC_SPLITTING, free)
    k = int(np.flatnonzero(curve[1:-1] > curve[:-2])[0]) + 1
    p_static = float(curve[k])
    assert optimize_uc_splitting(p_static, free).optimal_allocation == k
    trials = draw(free, 16, 8, columns=[0])
    with pytest.raises(ValueError, match=f"^prefix column k = {k} was not drawn$"):
        estimate_averages(UC_SPLITTING, k, trials)
    # time splitting reads only the full-surface sum, which every draw keeps:
    # here one segment of all m_s UCs, as in a draw that keeps no other column
    bare = draw(free, 16, 8, columns=[])
    ts = optimize_time_splitting(p_static, free).optimal_allocation
    assert ts > 0
    assert estimate_averages(TIME_SPLITTING, ts, trials) == estimate_averages(
        TIME_SPLITTING, ts, bare
    )


def test_unconstrained_case_allocates_nothing(cfg):
    free = dataclasses.replace(cfg, e_rec=0.0, mc_trials=32)
    ts = optimize_time_splitting(0.0, free)
    assert ts.status == FEASIBLE and ts.optimal_allocation == 0
    uc = optimize_uc_splitting(0.0, free)
    assert uc.status == FEASIBLE and uc.optimal_allocation == 0
    trials = draw(free, 4)
    ts_rate, _ = estimate_averages(TIME_SPLITTING, 0, trials)
    uc_rate, _ = estimate_averages(UC_SPLITTING, 0, trials)
    assert ts_rate == pytest.approx(uc_rate, rel=1e-12)


def test_absurd_static_power_is_infeasible(cfg):
    result = optimize_time_splitting(1.0, cfg)
    assert result.status == INFEASIBLE
    assert result.optimal_allocation == cfg.frame_slots - cfg.preamble_slots
    assert result.avg_harvested_power < result.avg_consumed_power


@pytest.mark.parametrize("p_static", [float("nan"), float("inf")])
def test_invalid_static_power_rejected(cfg, p_static):
    for _, optimize in OPTIMIZERS:
        with pytest.raises(ValueError, match="static power"):
            optimize(p_static, cfg)


def test_feasible_result_satisfies_constraint(cfg):
    result = optimize_uc_splitting(5e-4, cfg)
    assert result.status == FEASIBLE
    assert result.avg_harvested_power >= result.avg_consumed_power


def test_harvest_power_monotone_in_allocation(rng):
    # the optimizer's bisection solve rests on this monotonicity
    for cfg in random_small_configs(rng):
        for protocol in (TIME_SPLITTING, UC_SPLITTING):
            assert np.all(np.diff(curve_of(protocol, cfg)) >= 0.0)


def test_harvest_curve_matches_harvest_chain(rng):
    for cfg in random_small_configs(rng):
        for protocol in (TIME_SPLITTING, UC_SPLITTING):
            curve = curve_of(protocol, cfg)
            expected = [chain_harvest_power(protocol, v, cfg) for v in range(curve.size)]
            assert curve == pytest.approx(expected, rel=1e-12, abs=0.0)
    # the cached harvest is shared by both protocols, so it is read-only
    with pytest.raises(ValueError):
        risharvest.optimizer._harvest(cfg)[0] = 1.0


def test_full_allocations_harvest_the_same(rng):
    # every UC absorbs for the whole post-preamble interval under both protocols
    for cfg in random_small_configs(rng):
        post = cfg.frame_slots - cfg.preamble_slots
        assert allocation_harvest(TIME_SPLITTING, post, cfg) == allocation_harvest(
            UC_SPLITTING, cfg.m_s, cfg
        )


def test_saturated_chains_keep_curve_monotone():
    # every chain saturates, so whole chains add equal DC powers; summing
    # them as q * dc rounds some entries below their predecessor
    for tx_power in (100.0, 1000.0):
        for chain_size in range(1, 12):
            cfg = ScenarioConfig(
                tx_power=tx_power, chain_size=chain_size, frame_slots=200, preamble_slots=20
            )
            curve = curve_of(UC_SPLITTING, cfg)
            assert np.all(np.diff(curve) >= 0.0)
            expected = [chain_harvest_power(UC_SPLITTING, k, cfg) for k in range(curve.size)]
            assert curve == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_curve_lookup_matches_exhaustive_scan(small_cfg):
    trials = draw(small_cfg, 99)
    prng = np.random.default_rng(7)
    for _ in range(20):
        p_static = float(10 ** prng.uniform(-6, -3))
        for protocol, optimize in OPTIMIZERS:
            result = optimize(p_static, small_cfg)
            scan = exhaustive_best(protocol, p_static, small_cfg, trials)
            if result.status == FEASIBLE:
                assert scan is not None
                assert scan[0] == result.optimal_allocation
                rate, _ = estimate_averages(protocol, result.optimal_allocation, trials)
                assert scan[1] == pytest.approx(rate, rel=1e-12)
            else:
                assert scan is None


def test_consumption_equal_to_curve_entry_is_feasible(small_cfg):
    # with e_rec = 0 the consumed power is exactly the static input
    free = dataclasses.replace(small_cfg, e_rec=0.0)
    for protocol, optimize in OPTIMIZERS:
        curve = curve_of(protocol, free)
        # interior values where the curve rises; the top edge has its own test
        rises = np.flatnonzero(curve[1:-1] > curve[:-2]) + 1
        for v in rises[:: max(1, rises.size // 10)]:
            result = optimize(float(curve[v]), free)
            assert (result.status, result.optimal_allocation) == (FEASIBLE, v)
            assert result.avg_harvested_power == result.avg_consumed_power
            above = optimize(float(np.nextafter(curve[v], np.inf)), free)
            assert above.optimal_allocation > v


@pytest.mark.parametrize("protocol, optimize", OPTIMIZERS, ids=[p for p, _ in OPTIMIZERS])
def test_solve_matches_the_curve_lookup(rng, protocol, optimize):
    # either protocol's bisection solve picks the left searchsorted of its
    # harvest curve, capped at vmax, at curve entries and at both their float
    # neighbours, ties and the infeasible top included: either curve built
    # here as an array from the harvest chain in the solve's operation order
    for _ in range(40):
        frame_slots = int(rng.integers(2, 20_000))
        cfg = ScenarioConfig(
            frame_slots=frame_slots,
            preamble_slots=int(rng.integers(1, frame_slots)),
            slot_duration=float(10 ** rng.uniform(-7, -3)),
            tx_power=float(10 ** rng.uniform(-1.0, 1.5)),
            chain_size=int(rng.integers(1, 12)),
            rectifier=RectifierModel(kind=str(rng.choice(["linear_clipped", "sigmoidal"]))),
            e_rec=0.0,  # the consumed power is the static input
        )
        if protocol == TIME_SPLITTING:
            vmax = cfg.frame_slots - cfg.preamble_slots
            curve = np.arange(vmax + 1, dtype=float)
            curve *= cfg.slot_duration
            curve *= risharvest.harvesting.harvest(cfg)[-1]
            curve /= cfg.frame_duration
        else:
            vmax = cfg.m_s
            curve = risharvest.harvesting.harvest(cfg)
            curve *= (cfg.frame_slots - cfg.preamble_slots) * cfg.slot_duration
            curve /= cfg.frame_duration
        for v in {0, 1, vmax - 1, vmax, *rng.integers(0, vmax + 1, 8).tolist()}:
            for consumed in (np.nextafter(curve[v], -1.0), curve[v], np.nextafter(curve[v], 1.0)):
                if consumed < 0.0:
                    continue
                result = optimize(float(consumed), cfg)
                expected = min(int(np.searchsorted(curve, consumed, side="left")), vmax)
                assert result.optimal_allocation == expected
                assert result.avg_harvested_power == curve[expected]
                assert type(result.avg_harvested_power) is float
                assert (result.status == FEASIBLE) == (curve[expected] >= consumed)


def test_lookup_edges_zero_static_power_and_full_allocation(small_cfg):
    free = dataclasses.replace(small_cfg, e_rec=0.0)
    for protocol, optimize in OPTIMIZERS:
        curve = curve_of(protocol, free)
        vmax = curve.size - 1
        result = optimize(0.0, free)
        assert (result.status, result.optimal_allocation) == (FEASIBLE, 0)
        assert optimize(float(curve[vmax]), free).status == FEASIBLE
        result = optimize(float(np.nextafter(curve[vmax], np.inf)), free)
        assert (result.status, result.optimal_allocation) == (INFEASIBLE, vmax)
        assert result.avg_harvested_power < result.avg_consumed_power


@pytest.mark.parametrize(
    "fake_rectify, bad_index",
    [
        (lambda p_rf, model: np.full(np.shape(p_rf), np.nan), 0),
        (lambda p_rf, model: -p_rf, 1),
        # nondecreasing in k at first, but below 0 W, so time splitting's
        # harvest would fall as its slot count grows
        (lambda p_rf, model: p_rf - 1.0, 0),
    ],
    ids=["nan", "decreasing", "negative"],
)
def test_broken_harvest_curve_is_rejected(
    monkeypatch, fresh_curves, small_cfg, fake_rectify, bad_index
):
    monkeypatch.setattr(risharvest.harvesting, "rectify", fake_rectify)
    for protocol, optimize in OPTIMIZERS:
        message = f"^harvest is not finite, .* at {bad_index} absorbing UCs$"
        with pytest.raises(ValueError, match=message):
            optimize(1e-5, small_cfg)


def test_non_finite_rate_is_rejected_at_run_time(monkeypatch, small_cfg):
    # validation bounds the SNR, so only a broken rate formula reaches this guard
    monkeypatch.setattr(risharvest.optimizer, "coherent_snr",
                        lambda amplitude, cfg: np.full(np.shape(amplitude), np.inf))
    trials = draw(small_cfg, 15, 4)
    for protocol in (TIME_SPLITTING, UC_SPLITTING):
        with pytest.raises(ValueError, match=f"^{protocol} at allocation 3: .* not finite"):
            estimate_averages(protocol, 3, trials)


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
    # every chain fill is rectified in one array call per configuration,
    # whatever the chain size, and both protocols read that one harvest
    calls = []

    def counting_rectify(p_rf, model):
        calls.append(np.shape(p_rf))
        return rectify(p_rf, model)

    monkeypatch.setattr(risharvest.harvesting, "rectify", counting_rectify)
    fills = (min(config.chain_size, config.m_s) + 1,)
    assert curve_of(UC_SPLITTING, config).size == config.m_s + 1
    assert calls == [fills]
    vmax = config.frame_slots - config.preamble_slots
    assert curve_of(TIME_SPLITTING, config).size == vmax + 1
    assert calls == [fills]


def test_uc_splitting_dominates_at_common_static_power(cfg):
    fast = dataclasses.replace(cfg, mc_trials=500)
    trials = draw(fast, 8)
    for p_static in (1e-6, 1e-4, 8e-4):
        ts = optimize_time_splitting(p_static, fast)
        uc = optimize_uc_splitting(p_static, fast)
        assert ts.status == uc.status == FEASIBLE
        ts_rate, _ = estimate_averages(TIME_SPLITTING, ts.optimal_allocation, trials)
        uc_rate, _ = estimate_averages(UC_SPLITTING, uc.optimal_allocation, trials)
        assert uc_rate >= ts_rate


def test_feasibility_range_ordering(cfg):
    # max harvest is identical at full allocation while UC splitting spends
    # less dynamic power, so its feasible static-power range extends at
    # least as far
    max_harvest_ts = allocation_harvest(TIME_SPLITTING, 9000, cfg)
    max_harvest_uc = allocation_harvest(UC_SPLITTING, cfg.m_s, cfg)
    assert max_harvest_uc == max_harvest_ts
    for p_static in np.linspace(1e-4, 3e-3, 13):
        ts = optimize_time_splitting(float(p_static), cfg)
        uc = optimize_uc_splitting(float(p_static), cfg)
        if ts.status == FEASIBLE:
            assert uc.status == FEASIBLE


def test_same_seed_same_result(cfg):
    fast = dataclasses.replace(cfg, mc_trials=128)
    solve = optimize_uc_splitting(1e-4, fast)
    assert solve == optimize_uc_splitting(1e-4, fast)
    a = estimate_averages(UC_SPLITTING, solve.optimal_allocation, draw(fast, 77))
    b = estimate_averages(UC_SPLITTING, solve.optimal_allocation, draw(fast, 77))
    assert a == b


def test_allocation_value_bounds_checked(cfg):
    fast = dataclasses.replace(cfg, mc_trials=8)
    trials = draw(fast, 1)
    for protocol in (TIME_SPLITTING, UC_SPLITTING):
        vmax = curve_of(protocol, fast).size - 1
        for bad in (-1, vmax + 1, True, 3.0, "3", None):
            message = rf"^allocation value must be an integer in \[0, {vmax}\], got {bad!r}$"
            with pytest.raises(ValueError, match=message):
                estimate_averages(protocol, bad, trials)
        assert estimate_averages(protocol, np.int64(3), trials) == estimate_averages(
            protocol, 3, trials
        )

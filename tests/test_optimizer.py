import math
import tracemalloc
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from scipy import integrate, stats

import risharvest.channel
import risharvest.harvesting
import risharvest.optimizer
from risharvest import (
    FEASIBLE,
    INFEASIBLE,
    TIME_SPLITTING,
    UC_SPLITTING,
    ScenarioConfig,
    load_config,
)
from risharvest.channel import _tail_table, coherent_snr, draw_trials, shannon_rate
from risharvest.harvesting import rectify
from risharvest.optimizer import estimate_averages, optimize_time_splitting, optimize_uc_splitting
from risharvest.power import dynamic_power, total_consumption
from risharvest.sweep import SweepSpec, answer

from conftest import (
    allocation_harvest,
    clear_harvest_caches,
    curve_of,
    draw,
    drawn_rows,
    estimate,
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
            rate, _ = estimate(protocol, v, trials)
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
            rectifier_kind=str(rng.choice(["linear_clipped", "sigmoidal"])),
        )


@pytest.fixture
def fresh_curves():
    """Empty the harvest caches around a test that patches the harvest chain."""
    clear_harvest_caches()
    yield
    clear_harvest_caches()


def test_estimate_averages_deterministic(cfg):
    fast = cfg._replace(mc_trials=64)
    a = estimate(TIME_SPLITTING, 100, draw(fast, 9))
    b = estimate(TIME_SPLITTING, 100, draw(fast, 9))
    assert a == b


def test_estimate_averages_zero_variance_at_infinite_k(los_cfg):
    fast = los_cfg._replace(mc_trials=16)
    trials = draw(fast, 1)
    rate, ci = estimate(TIME_SPLITTING, 0, trials)
    expected = 0.9 * fast.bandwidth * np.log2(1.0 + oracle_full_surface_snr(fast))
    assert rate == pytest.approx(expected, rel=1e-9)
    assert ci == pytest.approx(0.0, abs=1e-3)


def test_estimate_averages_ci_small_at_default_trials(cfg):
    trials = draw(cfg, 2)
    rate, ci = estimate(TIME_SPLITTING, 0, trials)
    assert ci / rate < 0.01


def test_estimate_averages_matches_frame_engine(cfg, rng):
    """Dual route: rate, harvest and consumption vs. the per-frame oracle on the same draws."""
    n, seed = 50, 555
    configs = [
        *random_small_configs(rng),
        cfg._replace(static_power_interpretation="per_asic"),
        cfg._replace(
            static_power_interpretation="per_asic", reconfig_counting_mode="per_asic"
        ),
    ]
    assert {c.rectifier_kind for c in configs} == {"linear_clipped", "sigmoidal"}
    for config in configs:
        trials = draw(config, seed, n)
        # the draw's own amplitudes: keeping every column makes every
        # segment one UC
        rows = drawn_rows(config, seed, n)
        frame = config.frame_slots * config.slot_duration
        for protocol in (TIME_SPLITTING, UC_SPLITTING):
            vmax = curve_of(protocol, config).size - 1
            for value in sorted({0, 1, vmax // 2, vmax}):
                p_static = float(10 ** rng.uniform(-7, -3))
                rate, _ = estimate(protocol, value, trials)
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
    far = cfg._replace(d_ris_rx=76.0)
    rows = drawn_rows(far, seed, n)
    for protocol, value in ((TIME_SPLITTING, 100), (UC_SPLITTING, 9)):
        rate, _ = estimate(protocol, value, draw(far, seed, n))
        frames = [frame_oracle(protocol, value, row, 0.0, far) for row in rows]
        assert rate == pytest.approx(np.mean([r for r, _, _ in frames]), rel=1e-10)
        near, _ = estimate(protocol, value, draw(cfg, seed, n))
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
    fast = cfg._replace(mc_trials=1200, rng_seed=556)
    columns = [0, 3, 4, 100, fast.m_s - 1]
    full = draw(fast, 556, columns=columns).amp_prefix
    assert np.array_equal(full[:, 0], np.zeros(fast.mc_trials))
    assert np.array_equal(full, rebuilt_prefix(fast, [0, 3, 4, 100, fast.m_s - 1, fast.m_s]))
    for t in (2, 7, 291, 292, 1100):
        assert np.array_equal(draw(fast, 556, t, columns=columns).amp_prefix, full[:t])


def test_draws_compare_by_identity(cfg):
    # the prefix arrays have no truth value, so == compares the objects
    fast = cfg._replace(mc_trials=2)
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
    # keeping every column makes every segment one UC, drawn from its cells
    fast = cfg._replace(mc_trials=300, rng_seed=557)
    m_s = fast.m_s
    full = draw(fast, 557)
    assert full.columns == tuple(range(m_s + 1))
    assert np.array_equal(full.amp_prefix[:, 0], np.zeros(fast.mc_trials))
    assert np.array_equal(full.amp_prefix, rebuilt_prefix(fast, range(m_s + 1)))
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
        assert (trials.amp_prefix.shape[0], trials.cfg.m_s) == (fast.mc_trials, m_s)
        assert np.array_equal(trials.amp_prefix, rebuilt_prefix(fast, kept)), columns
    # a column kept above the others leaves them as they were
    low, more = (draw(fast, 557, columns=c).amp_prefix for c in ([3, 7], [3, 7, 100]))
    assert np.array_equal(low[:, :2], more[:, :2])
    assert np.array_equal(full.amp_prefix[:, [1, 2, 3]], draw(fast, 557, columns=[1, 2, 3]).amp_prefix[:, :3])


def test_undrawn_prefix_column_is_rejected(small_cfg):
    # with e_rec = 0 the consumed power is the static input, so a curve entry
    # where the curve rises puts the UC-splitting optimum exactly there
    free = small_cfg._replace(e_rec=0.0)
    curve = curve_of(UC_SPLITTING, free)
    k = int(np.flatnonzero(curve[1:-1] > curve[:-2])[0]) + 1
    p_static = float(curve[k])
    assert optimize_uc_splitting(p_static, free).optimal_allocation == k
    trials = draw(free, 16, 8, columns=[0])
    n = free.m_s - k  # the UCs left reflecting
    with pytest.raises(ValueError, match=f"^column n = {n} of allocation {k} was not drawn$"):
        estimate(UC_SPLITTING, k, trials)
    # time splitting reads only the full-surface sum, which every draw keeps:
    # here one segment of all m_s UCs, as in a draw that keeps no other column
    bare = draw(free, 16, 8, columns=[])
    ts = optimize_time_splitting(p_static, free).optimal_allocation
    assert ts > 0
    assert estimate(TIME_SPLITTING, ts, trials) == estimate(
        TIME_SPLITTING, ts, bare
    )


def test_unconstrained_case_allocates_nothing(cfg):
    free = cfg._replace(e_rec=0.0, mc_trials=32)
    ts = optimize_time_splitting(0.0, free)
    assert ts.status == FEASIBLE and ts.optimal_allocation == 0
    uc = optimize_uc_splitting(0.0, free)
    assert uc.status == FEASIBLE and uc.optimal_allocation == 0
    trials = draw(free, 4)
    ts_rate, _ = estimate(TIME_SPLITTING, 0, trials)
    uc_rate, _ = estimate(UC_SPLITTING, 0, trials)
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


@pytest.mark.parametrize("interpretation", ["total", "per_asic"])
@pytest.mark.parametrize("budget", [np.float64(1e-5), np.float32(1e-5), 0], ids=type)
def test_a_numpy_or_int_budget_gives_the_solve_of_its_float(cfg, interpretation, budget):
    # a sweep hands its grid's np.float64 budgets to the solves unchanged;
    # each power field is a float all the same, equal to the one the float
    # of the budget gives
    cfg = cfg._replace(static_power_interpretation=interpretation)
    for _, optimize in OPTIMIZERS:
        result = optimize(budget, cfg)
        assert type(result.avg_harvested_power) is float, result
        assert type(result.avg_consumed_power) is float, result
        assert result == optimize(float(budget), cfg)


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
    # the cached UC curve is shared by every solve of the configuration, so it is read-only
    values, _ = risharvest.optimizer._tables(cfg)[UC_SPLITTING]
    with pytest.raises(ValueError):
        np.asarray(values)[0] = 1.0


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
                rate, _ = estimate(protocol, result.optimal_allocation, trials)
                assert scan[1] == pytest.approx(rate, rel=1e-12)
            else:
                assert scan is None


def test_consumption_equal_to_curve_entry_is_feasible(small_cfg):
    # with e_rec = 0 the consumed power is exactly the static input
    free = small_cfg._replace(e_rec=0.0)
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
            rectifier_kind=str(rng.choice(["linear_clipped", "sigmoidal"])),
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
    free = small_cfg._replace(e_rec=0.0)
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
            estimate(protocol, 3, trials)


def test_every_value_is_checked_before_any_rate(monkeypatch, small_cfg):
    # with every rate overflowing, a bad value later in the list is still the
    # error raised; the overflow error names the first value whose rate overflows
    monkeypatch.setattr(risharvest.optimizer, "coherent_snr",
                        lambda amplitude, cfg: np.full(np.shape(amplitude), np.inf))
    trials = draw(small_cfg, 15, 4, columns=[small_cfg.m_s - 3, small_cfg.m_s - 5])
    for protocol in (TIME_SPLITTING, UC_SPLITTING):
        vmax = curve_of(protocol, small_cfg).size - 1
        with pytest.raises(ValueError, match="^allocation value must be"):
            estimate_averages(protocol, [3, 5, vmax + 1], trials)
        with pytest.raises(ValueError, match=f"^{protocol} at allocation 5: .* not finite"):
            estimate_averages(protocol, [5, 3], trials)
    with pytest.raises(ValueError, match="^column n = 21 of allocation 4 was not drawn$"):
        estimate_averages(UC_SPLITTING, [3, 5, 4], trials)


# UC-splitting values, each reading column 225 - k of the default surface
KS = [0, 1, 2, 5, 9, 17, 40, 112, 200, 224, 225]


@pytest.fixture(scope="module")
def estimate_draws():
    """Draws of the default surface at 1000 and 10^4 trials, keeping the columns of KS."""
    base = ScenarioConfig()
    return {n: draw(base, 31, n, columns=[base.m_s - k for k in KS]) for n in (1000, 10_000)}


@pytest.mark.parametrize(
    "block_values", [None, 1, 1 << 16], ids=["default_blocks", "one_row_blocks", "long_blocks"]
)
@pytest.mark.parametrize("n", [1000, 10_000])
def test_estimate_averages_of_many_values_is_one_at_a_time_bit_for_bit(
    monkeypatch, estimate_draws, n, block_values
):
    # each value's (average, ci) is the 1-D mean and std of the rates of its
    # column, with every post-preamble slot carrying data, times its payload
    # share, bit for bit, whatever list it comes in: unsorted, with a
    # duplicate, across block boundaries (16 rows a default block at 1000
    # trials, 1 at 10^4, 65 or 6 a long block), alone, and no value at all
    if block_values is not None:
        monkeypatch.setattr(risharvest.optimizer, "_ESTIMATE_BLOCK_VALUES", block_values)
    trials = estimate_draws[n]
    cfg = trials.cfg
    post = cfg.frame_slots - cfg.preamble_slots

    def one_at_a_time(protocol, value):
        if protocol == TIME_SPLITTING:
            share, amplitude = (post - value) / post, trials.amp_prefix[:, -1]
        else:
            share, amplitude = 1.0, trials.amp_prefix[:, trials.columns.index(cfg.m_s - value)]
        rates = shannon_rate(post, coherent_snr(amplitude, cfg), cfg)
        return float(rates.mean()) * share, 1.96 * float(rates.std(ddof=1)) / math.sqrt(n) * share

    lists = {
        TIME_SPLITTING: [[4000, 0, 9000, 17, 1], [3, 250, 3], list(range(0, 9001, 700)), [1234], []],
        UC_SPLITTING: [[112, 0, 225, 5, 1], [9, 40, 9], KS[::-1] + KS, [17], []],
    }
    for protocol, value_lists in lists.items():
        for values in value_lists:
            expected = [one_at_a_time(protocol, value) for value in values]
            assert estimate_averages(protocol, values, trials) == expected, (protocol, values)


def test_time_splitting_estimates_are_payload_shares_of_the_full_surface_one(estimate_draws):
    # every time-splitting value reads the one full-surface column, so its
    # (average, ci) is (post - v) / post times that of v = 0, within 2 ulp
    trials = estimate_draws[1000]
    post = trials.cfg.frame_slots - trials.cfg.preamble_slots
    values = [0, 1, 2, 17, 250, 4000, 4500, 8999, 9000]
    estimates = estimate_averages(TIME_SPLITTING, values, trials)
    full = estimates[0]
    for value, estimate_of_value in zip(values, estimates):
        for got, at_zero in zip(estimate_of_value, full):
            expected = float(Fraction(at_zero) * (post - value) / post)
            assert abs(got - expected) <= 2 * math.ulp(expected), (value, got, expected)
    assert estimates[-1] == (0.0, 0.0)


def exact_rate(protocol, value, cfg):
    """The average rate (bit/s) of allocation ``value`` that its estimate
    averages over draws of the lattice law of S_n: (payload / frame) B
    E[log2(1 + P_t S_n^2 / N)], one dot product over
    channel._tail_table(K, n); 0 with no reflecting UC or no payload slot."""
    post = cfg.frame_slots - cfg.preamble_slots
    if protocol == TIME_SPLITTING:
        n, payload = cfg.m_s, post - value
    else:
        n, payload = cfg.m_s - value, post
    if n == 0 or payload == 0:
        return 0.0
    gain = math.sqrt(cfg.free_space_uc_gain * cfg.mean_ris_rx_gain)
    cdf, amplitudes = _tail_table(cfg.rician_k, n)
    spectral = np.log2(1.0 + cfg.tx_power * (amplitudes * gain) ** 2 / cfg.noise_power)
    expectation = float(np.diff(cdf, prepend=0.0) @ spectral)
    return payload / cfg.frame_slots * cfg.bandwidth * expectation


@pytest.mark.parametrize("snr_scale", [None, 1e6], ids=["default_link", "a_1e6"])
@pytest.mark.parametrize("k", [0.0, 0.5, 10.0, 100.0, 1e6])
def test_one_uc_exact_rate_matches_a_rice_quadrature(k, snr_scale):
    # exact_rate, which the Bonferroni and CI-coverage tests compare against,
    # must agree with an independent quadrature of (payload / frame) B
    # E[log2(1 + a r^2)] over scipy's unit-power Rice law of one amplitude r,
    # a = P_t |h|^2 E|g|^2 / N. The cells' Sheppard excess makes K = 0 the
    # worst case: 1.9e-7 on the default link, 6.3e-7 at a = 1e6
    cfg = ScenarioConfig(rician_k=k)
    gain = cfg.free_space_uc_gain * cfg.mean_ris_rx_gain
    if snr_scale is not None:
        cfg = cfg._replace(tx_power=snr_scale * cfg.noise_power / gain)
    a = cfg.tx_power * gain / cfg.noise_power
    c, sigma = math.sqrt(k / (k + 1.0)), math.sqrt(1.0 / (2.0 * (k + 1.0)))
    law = stats.rice(c / sigma, scale=sigma)
    # beyond 40 sigma of c the density is below e^{-800}
    expectation, _ = integrate.quad(lambda r: law.pdf(r) * math.log2(1.0 + a * r * r),
                                    max(0.0, c - 40.0 * sigma), c + 40.0 * sigma, points=[c],
                                    limit=200)
    post = cfg.frame_slots - cfg.preamble_slots
    expected = post / cfg.frame_slots * cfg.bandwidth * expectation
    assert exact_rate(UC_SPLITTING, cfg.m_s - 1, cfg) == pytest.approx(expected, rel=1e-6)


SCENARIOS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"

# The sweeps of the Bonferroni test, by id: each benchmark workload, its
# scenario file at the grid of its perfbench/run.py flags (all three at the
# default K = 10), and the default scenario at the other Rician K factors, on
# a linear grid across both feasibility edges (1.66 mW and 1.75 mW), so that
# each holds an infeasible row of each protocol.
EXACT_RATE_SWEEPS = {
    "paper_default": (load_config(SCENARIOS / "paper_default.cfg"), SweepSpec()),
    "large_surface": (load_config(SCENARIOS / "large_surface.cfg"), SweepSpec(points=5)),
    "edge_sweep": (load_config(SCENARIOS / "edge_sweep.cfg"),
                   SweepSpec(start=0.0, stop=2e-2, points=400, scale="linear")),
    **{
        f"rician_k_{name}": (ScenarioConfig(rician_k=k),
                             SweepSpec(start=0.0, stop=2.5e-3, points=40, scale="linear"))
        for name, k in (("0", 0.0), ("0.5", 0.5), ("100", 100.0), ("1e6", 1e6))
    },
}


@pytest.mark.parametrize("sweep", sorted(EXACT_RATE_SWEEPS))
def test_every_sweep_estimate_is_within_a_bonferroni_band_of_its_exact_rate(sweep):
    # each allocation's estimate averages its rate over draws of the lattice
    # law of S_n, so its expectation is (payload / frame) B E[log2(1 + P_t
    # S_n^2 / N)], one dot product over channel._tail_table(K, n); every
    # distinct (protocol, allocation) of a fixed-seed sweep must lie within
    # the Bonferroni band (family alpha 1e-6) of it, and a row with no
    # reflecting UC or no payload slot reads exactly 0
    cfg, spec = EXACT_RATE_SWEEPS[sweep]
    cfg = cfg._replace(rng_seed=20230816)
    rows = answer(cfg, spec.grid())
    estimates = {
        (row.protocol, row.optimal_allocation): (row.average_rate, row.rate_ci) for row in rows
    }
    limit = NormalDist().inv_cdf(1.0 - 1e-6 / (2 * len(estimates)))
    for (protocol, value), (average, ci) in estimates.items():
        exact = exact_rate(protocol, value, cfg)
        if exact == 0.0:
            assert (average, ci) == (0.0, 0.0), (protocol, value)
            continue
        assert ci > 0.0, (protocol, value)
        z = (average - exact) / (ci / 1.96)
        assert abs(z) <= limit, (protocol, value, z, limit)


@pytest.mark.parametrize("side", [15, 60])
def test_an_infinite_k_sweep_gives_the_line_of_sight_rate(side):
    # at K = inf every amplitude is the unit line-of-sight one, so S_n = n on
    # every trial: each row's estimate is the closed form (payload / frame) B
    # log2(1 + P_t (n sqrt(|h|^2 E|g|^2))^2 / N) up to rounding, with a CI of
    # rounding size (worst today: 6.9e-16 and 8.7e-18 relative), and a row
    # with no reflecting UC or no payload slot reads exactly 0; at 15x15 the
    # grid crosses both feasibility edges, so such rows occur, while 60x60
    # harvests enough to stay feasible over the whole grid
    cfg = ScenarioConfig(rician_k=math.inf, ris_cols=side, ris_rows=side)
    rows = answer(cfg, SweepSpec(start=0.0, stop=2.5e-3, points=40, scale="linear").grid())
    post = cfg.frame_slots - cfg.preamble_slots
    gain = math.sqrt(cfg.free_space_uc_gain * cfg.mean_ris_rx_gain)
    zeros = 0
    for row in rows:
        if row.protocol == TIME_SPLITTING:
            n, payload = cfg.m_s, post - row.optimal_allocation
        else:
            n, payload = cfg.m_s - row.optimal_allocation, post
        if n == 0 or payload == 0:
            assert (row.average_rate, row.rate_ci) == (0.0, 0.0), row
            zeros += 1
            continue
        los = (payload / cfg.frame_slots * cfg.bandwidth
               * math.log2(1.0 + cfg.tx_power * (n * gain) ** 2 / cfg.noise_power))
        assert abs(row.average_rate - los) <= 4e-15 * los, (row, los)
        assert row.rate_ci <= 1e-15 * row.average_rate, row
    assert (zeros > 0) == (side == 15)


@pytest.mark.parametrize("side", [15, 60])
@pytest.mark.parametrize("protocol", [TIME_SPLITTING, UC_SPLITTING])
def test_the_exact_rate_at_infinite_k_is_the_line_of_sight_closed_form(protocol, side):
    # the K = inf law of S_n is the point mass n, so at every allocation
    # exact_rate must be (payload / frame) B log2(1 + a n^2), with
    # a = P_t |h|^2 E|g|^2 / N, up to the rounding of the SNR (worst today:
    # 3.2e-16 relative), and exactly 0 with no reflecting UC or no payload slot
    cfg = ScenarioConfig(rician_k=math.inf, ris_cols=side, ris_rows=side)
    a = cfg.tx_power * cfg.free_space_uc_gain * cfg.mean_ris_rx_gain / cfg.noise_power
    post = cfg.frame_slots - cfg.preamble_slots
    vmax = post if protocol == TIME_SPLITTING else cfg.m_s
    for value in range(vmax + 1):
        n = cfg.m_s if protocol == TIME_SPLITTING else cfg.m_s - value
        payload = post - value if protocol == TIME_SPLITTING else post
        los = payload / cfg.frame_slots * cfg.bandwidth * math.log2(1.0 + a * n * n)
        exact = exact_rate(protocol, value, cfg)
        if n == 0 or payload == 0:
            assert exact == los == 0.0, value
        else:
            assert abs(exact - los) <= 1e-15 * los, (value, exact, los)


@pytest.mark.parametrize("sweep", sorted(EXACT_RATE_SWEEPS))
def test_the_exact_uc_splitting_rate_does_not_rise_along_the_grid(sweep):
    # a larger budget needs at least as many absorbing UCs, so it leaves at
    # most as many reflecting, and S_n grows with n; the exact rate of each
    # budget's solve must therefore not rise along the grid, and must fall
    # wherever the solve absorbs more UCs; the solves alone, with no draw
    cfg, spec = EXACT_RATE_SWEEPS[sweep]
    values = [optimize_uc_splitting(p, cfg).optimal_allocation for p in spec.grid()]
    rates = {value: exact_rate(UC_SPLITTING, value, cfg) for value in set(values)}
    for low, high in zip(values, values[1:]):
        assert low <= high, (low, high)
        assert rates[high] < rates[low] or high == low, (low, high, rates[low], rates[high])
    assert len(rates) > 1


def binomial_band(n, p, alpha):
    """The counts (lo, hi) that Binomial(n, p) falls below or above with
    probability at most alpha / 2 each."""
    pmf = [math.comb(n, c) * p**c * (1.0 - p) ** (n - c) for c in range(n + 1)]
    lo = next(c for c in range(n + 1) if math.fsum(pmf[: c + 1]) > alpha / 2)
    hi = next(c for c in range(n, -1, -1) if math.fsum(pmf[c:]) > alpha / 2)
    return lo, hi


def test_the_95_percent_ci_covers_the_exact_rate_in_95_percent_of_seeds():
    # over independent seeds, each (average, ci) covers its exact rate with
    # probability 0.95, so the count that does is Binomial(seeds, 0.95); it
    # must lie within that law's band at family alpha 1e-6 over the values.
    # 300 seeds make the band's top end fall below 300, so a CI too wide (a
    # missing 1 / sqrt(trials), say) fails as a CI too narrow does; n = 1
    # reads the cells of one amplitude, n = m_s the sum of every UC
    cfg = ScenarioConfig(ris_cols=3, ris_rows=3, mc_trials=300)
    seeds, columns = 300, [1, cfg.m_s]
    values = [cfg.m_s - n for n in columns]
    exact = [exact_rate(UC_SPLITTING, value, cfg) for value in values]
    covered = [0] * len(values)
    for seed in range(seeds):
        trials = draw_trials(cfg._replace(rng_seed=seed), columns=columns)
        for j, (average, ci) in enumerate(estimate_averages(UC_SPLITTING, values, trials)):
            covered[j] += abs(average - exact[j]) <= ci
    lo, hi = binomial_band(seeds, 0.95, 1e-6 / len(values))
    assert hi < seeds
    assert all(lo <= count <= hi for count in covered), (covered, lo, hi)


@pytest.mark.parametrize("protocol", [TIME_SPLITTING, UC_SPLITTING])
def test_estimate_memory_is_a_few_blocks_whatever_the_number_of_values(protocol):
    # the rates are formed a block at a time, so what an estimate holds at
    # its peak beyond the list it returns is a few blocks, for 40 values as
    # for 400, not an array of every value's rates (400 x 1000 x 8 B)
    cfg = ScenarioConfig(ris_cols=20, ris_rows=20, mc_trials=1000)
    trials = draw_trials(cfg, columns=range(cfg.m_s + 1))
    block_bytes = 8 * risharvest.optimizer._ESTIMATE_BLOCK_VALUES
    held = {}
    for count in (40, 400):
        values = list(range(0, 400, 400 // count))
        tracemalloc.start()
        try:
            estimate_averages(protocol, values, trials)  # warm: the same calls as below
            tracemalloc.reset_peak()
            result = estimate_averages(protocol, values, trials)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result) == count
        held[count] = peak - current
        assert held[count] <= 6 * block_bytes, (count, held[count] / block_bytes)
    # the values' own list is all that grows: 8 B a value
    assert held[400] - held[40] < block_bytes / 4


@pytest.mark.parametrize(
    "config",
    [
        ScenarioConfig(),
        ScenarioConfig(chain_size=7, rectifier_kind="sigmoidal"),
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
    fast = cfg._replace(mc_trials=500)
    trials = draw(fast, 8)
    for p_static in (1e-6, 1e-4, 8e-4):
        ts = optimize_time_splitting(p_static, fast)
        uc = optimize_uc_splitting(p_static, fast)
        assert ts.status == uc.status == FEASIBLE
        ts_rate, _ = estimate(TIME_SPLITTING, ts.optimal_allocation, trials)
        uc_rate, _ = estimate(UC_SPLITTING, uc.optimal_allocation, trials)
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
    fast = cfg._replace(mc_trials=128)
    solve = optimize_uc_splitting(1e-4, fast)
    assert solve == optimize_uc_splitting(1e-4, fast)
    a = estimate(UC_SPLITTING, solve.optimal_allocation, draw(fast, 77))
    b = estimate(UC_SPLITTING, solve.optimal_allocation, draw(fast, 77))
    assert a == b


def test_allocation_value_bounds_checked(cfg):
    fast = cfg._replace(mc_trials=8)
    trials = draw(fast, 1)
    for protocol in (TIME_SPLITTING, UC_SPLITTING):
        vmax = curve_of(protocol, fast).size - 1
        for bad in (-1, vmax + 1, True, 3.0, "3", None):
            message = rf"^allocation value must be an integer in \[0, {vmax}\], got {bad!r}$"
            with pytest.raises(ValueError, match=message):
                estimate(protocol, bad, trials)
        assert estimate(protocol, np.int64(3), trials) == estimate(
            protocol, 3, trials
        )


def test_harvest_of_checks_the_protocol_and_every_value(cfg):
    # an unknown protocol is not read as UC splitting, and a value outside
    # 0..vmax neither wraps (k = -1 as the full surface), nor gives a
    # negative harvest (-5 slots), nor raises a bare IndexError (k = 226)
    with pytest.raises(ValueError, match="^unknown protocol 'frequency_splitting'$"):
        risharvest.optimizer.harvest_of("frequency_splitting", cfg)
    for protocol, vmax in ((TIME_SPLITTING, 9000), (UC_SPLITTING, cfg.m_s)):
        harvested = risharvest.optimizer.harvest_of(protocol, cfg)
        for bad in (-1, -5, vmax + 1, True, 3.0, None):
            message = rf"^allocation value must be an integer in \[0, {vmax}\], got {bad!r}$"
            with pytest.raises(ValueError, match=message):
                harvested(bad)
        assert harvested(np.int64(3)) == harvested(3)
        assert harvested(0) == 0.0 < harvested(vmax)


def test_time_splitting_solve_memory_does_not_grow_with_the_frame():
    # the solve bisects range(vmax + 1) with a key, so a billion-slot frame
    # materializes no curve of its slot counts; it still picks the left
    # bisection of the harvest of every slot count
    cfg = ScenarioConfig(frame_slots=10**9, preamble_slots=1000)
    vmax = cfg.frame_slots - cfg.preamble_slots
    harvested = risharvest.optimizer.harvest_of(TIME_SPLITTING, cfg)
    p_static = harvested(vmax // 3) - dynamic_power(TIME_SPLITTING, cfg)
    optimize_time_splitting(p_static, cfg)  # warm: the cached harvest and key
    tracemalloc.start()
    try:
        result = optimize_time_splitting(p_static, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024
    consumed = total_consumption(p_static, TIME_SPLITTING, cfg).total
    assert result.status == FEASIBLE
    assert result.optimal_allocation == bisect_left(
        range(vmax + 1), consumed, 0, vmax, key=harvested
    )

import copy
import csv
import gc
import importlib
import io
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
import tracemalloc
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import risharvest
import risharvest.optimizer
from risharvest import (
    FEASIBLE,
    INFEASIBLE,
    PROTOCOLS,
    RECTIFIER_KINDS,
    TIME_SPLITTING,
    UC_SPLITTING,
    ConfigValidationError,
    ScenarioConfig,
    save_config,
)
from risharvest.channel import TrialChannels
from risharvest.optimizer import (
    AllocationResult,
    optimize_time_splitting,
    optimize_uc_splitting,
    reflecting_ucs,
)
from risharvest.power import ConsumptionBreakdown, total_consumption
from risharvest.sweep import (
    CSV_HEADER,
    SweepCsvError,
    SweepRow,
    SweepSpec,
    answer,
    main,
    read_rows,
    run_sweep,
    summarize,
)

from conftest import allocation_harvest, clear_harvest_caches, rebuilt_prefix


def written(rows) -> str:
    """The text the csv module writes for ``rows``, as ``run_sweep`` writes its rows."""
    handle = io.StringIO()
    csv.writer(handle).writerows(rows)
    return handle.getvalue()


def csv_records(rows) -> list[list[str]]:
    """The records the csv module writes for ``rows``, read back as lists of cells."""
    return list(csv.reader(io.StringIO(written(rows))))


def small_spec(**overrides):
    base = dict(start=1e-6, stop=1e-3, points=3, scale="log")
    base.update(overrides)
    return SweepSpec(**base)


@pytest.fixture
def fast_config_path(tmp_path):
    path = tmp_path / "fast.cfg"
    save_config(ScenarioConfig(mc_trials=100), path)
    return path


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(start=1e-3, stop=1e-6)
    with pytest.raises(ValueError):
        SweepSpec(points=1)
    with pytest.raises(ValueError):
        SweepSpec(scale="cubic")
    with pytest.raises(ValueError):
        SweepSpec(start=0.0, scale="log")
    assert SweepSpec(start=0.0, stop=1.0, scale="linear").grid()[0] == 0.0


@pytest.mark.parametrize(
    "overrides, field",
    [
        (dict(stop=float("inf"), scale="linear"), "stop"),
        (dict(stop=float("nan")), "stop"),
        (dict(start=float("-inf"), scale="linear"), "start"),
        (dict(start=float("nan")), "start"),
        (dict(start=-1e-3, scale="linear"), "start"),
        (dict(start=True, stop=2.0, scale="linear"), "start"),
        (dict(points=True), "points"),
        (dict(points=np.True_), "points"),
        (dict(points=2.0), "points"),
        (dict(points="3"), "points"),
    ],
    ids=["stop_inf", "stop_nan", "start_neg_inf", "start_nan", "start_negative",
         "start_bool", "points_bool", "points_np_bool", "points_float", "points_str"],
)
def test_sweep_spec_rejects_bad_bounds(overrides, field):
    with pytest.raises(ValueError, match=f"sweep {field} "):
        small_spec(**overrides)


@pytest.mark.parametrize("points", [5, np.int64(5), np.uint8(5)], ids=["int", "np_int64", "np_uint8"])
def test_sweep_spec_takes_any_integer_points(points):
    # as start and stop take any real number, points takes any integer but a bool
    assert small_spec(points=points).grid().tolist() == small_spec(points=5).grid().tolist()


SPEC_CONSTRUCTIONS = {
    "class": lambda overrides: SweepSpec(**overrides),
    "_replace": lambda overrides: SweepSpec()._replace(**overrides),
    "_make": lambda overrides: SweepSpec._make(
        overrides.get(name, value) for name, value in zip(SweepSpec._fields, SweepSpec())),
}


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(points=1), "sweep needs at least 2 points, got 1"),
        (dict(scale="cubic"), "scale must be one of ('linear', 'log'), got 'cubic'"),
        (dict(start=0.0), "log-scale sweeps need a positive start value"),
    ],
    ids=["points", "scale", "log_start"],
)
@pytest.mark.parametrize("construction", sorted(SPEC_CONSTRUCTIONS))
def test_every_construction_path_validates_a_sweep_spec(construction, overrides, message):
    # namedtuple's own _make, which _replace calls, checks only the length;
    # every path must reject as the class call does
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SPEC_CONSTRUCTIONS[construction](overrides)


@pytest.mark.parametrize(
    "duplicate",
    [lambda spec: pickle.loads(pickle.dumps(spec)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_a_sweep_spec_survives_pickle_and_copy(duplicate):
    spec = SweepSpec(start=0.0, stop=2e-2, points=400, scale="linear")
    again = duplicate(spec)
    assert type(again) is SweepSpec and again == spec
    # each rebuilds a spec through the class, so each checks it
    with pytest.raises(ValueError, match="^sweep needs at least 2 points, got 1$"):
        duplicate(tuple.__new__(SweepSpec, (0.0, 2e-2, 1, "linear")))


def test_row_count_and_header(fast_config_path, tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_sweep(fast_config_path, small_spec(points=2), out) == 0
    text = out.read_text().splitlines()
    assert text[0] == ",".join(CSV_HEADER)
    rows = read_rows(out)
    assert len(rows) == 4
    assert {r.protocol for r in rows} == {"time_splitting", "uc_splitting"}
    # sorted by (p_static, protocol)
    keys = [(r.p_static, r.protocol) for r in rows]
    assert keys == sorted(keys)


def test_round_trip_recovers_rows_exactly(fast_config_path, tmp_path):
    out = tmp_path / "sweep.csv"
    run_sweep(fast_config_path, small_spec(), out)
    rows = read_rows(out)
    records = csv_records(rows)
    assert len(records) == len(rows)
    for row, record in zip(rows, records):
        assert SweepRow.from_record(record) == row


def test_rerun_is_byte_identical(fast_config_path, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(fast_config_path, small_spec(), out1)
    run_sweep(fast_config_path, small_spec(), out2)
    assert out1.read_bytes() == out2.read_bytes()


def test_rate_nonincreasing_within_protocol(fast_config_path, tmp_path):
    out = tmp_path / "sweep.csv"
    run_sweep(fast_config_path, small_spec(points=6), out)
    rows = read_rows(out)
    for protocol in ("time_splitting", "uc_splitting"):
        rates = [r.average_rate for r in rows if r.protocol == protocol]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_feasibility_threshold_flip_and_ordering(fast_config_path, tmp_path):
    out = tmp_path / "edge.csv"
    run_sweep(
        fast_config_path,
        small_spec(start=1e-4, stop=3e-3, points=12),
        out,
        trials=50,
    )
    rows = read_rows(out)
    thresholds = {}
    for protocol in ("time_splitting", "uc_splitting"):
        sub = [r for r in rows if r.protocol == protocol]
        feasible = [r.p_static for r in sub if r.status == "feasible"]
        infeasible = [r.p_static for r in sub if r.status == "infeasible"]
        assert feasible and infeasible, "grid must straddle the threshold"
        assert max(feasible) < min(infeasible)
        thresholds[protocol] = max(feasible)
    assert thresholds["uc_splitting"] >= thresholds["time_splitting"]


def test_dyn_over_static_column(fast_config_path, tmp_path):
    out = tmp_path / "sweep.csv"
    run_sweep(fast_config_path, small_spec(), out)
    for row in read_rows(out):
        assert row.dyn_over_static == pytest.approx(row.p_dynamic / row.p_static, rel=1e-12)
    # p_static = 0 leaves the ratio cell empty
    zero_row = SweepRow(0.0, "time_splitting", "feasible", 0, 1.0, 0.0, 2.7e-4, None)
    assert written([zero_row]) == "0.0,time_splitting,feasible,0,1.0,0.0,0.00027,\r\n"
    [record] = csv_records([zero_row])
    assert record[-1] == ""
    assert SweepRow.from_record(record).dyn_over_static is None


def test_summarize_reports_gap_and_thresholds(fast_config_path, tmp_path):
    out = tmp_path / "sweep.csv"
    run_sweep(fast_config_path, small_spec(points=4), out)
    report = summarize(out)
    assert "feasible up to" in report
    assert "rate gap" in report
    gaps = [
        float(line.split("=")[-1].replace("bit/s", ""))
        for line in report.splitlines()
        if "rate gap" in line
    ]
    assert gaps and all(g >= 0.0 for g in gaps)


@pytest.mark.parametrize(
    "stop, beyond",
    [(1e-3, {"time_splitting", "uc_splitting"}), (3e-3, set())],
    ids=["edges_beyond_the_grid", "edges_inside_the_grid"],
)
def test_summarize_marks_an_edge_beyond_the_grid(tmp_path, stop, beyond):
    # the default edges are 1.66 mW (time splitting) and 1.75 mW (UC splitting)
    out = tmp_path / "sweep.csv"
    run_sweep(None, small_spec(stop=stop, points=7), out, trials=8)
    lines = {line.split(":")[0]: line for line in summarize(out).splitlines()}
    for protocol in ("time_splitting", "uc_splitting"):
        marked = "(the last grid point; the feasibility edge lies beyond the grid)"
        assert "feasible up to p_static = " in lines[protocol]
        assert (marked in lines[protocol]) == (protocol in beyond)
        if protocol in beyond:
            assert f"p_static = {stop:.3e} W {marked}" in lines[protocol]


def test_summarize_all_infeasible(tmp_path):
    out = tmp_path / "dead.csv"
    path = tmp_path / "cfg.txt"
    save_config(ScenarioConfig(mc_trials=20), path)
    run_sweep(path, small_spec(start=0.5, stop=1.0, points=2), out)
    rows = read_rows(out)
    assert all(r.status == "infeasible" for r in rows)
    assert "no feasible operating point" in summarize(out)


def test_summarize_rejects_header_only_csv(tmp_path):
    out = tmp_path / "empty.csv"
    out.write_text(",".join(CSV_HEADER) + "\n")
    with pytest.raises(SweepCsvError):
        summarize(out)


def test_read_rows_rejects_malformed(tmp_path):
    out = tmp_path / "bad.csv"
    out.write_text(",".join(CSV_HEADER) + "\nnot-a-number,time_splitting,feasible,0,1,1,1,\n")
    with pytest.raises(SweepCsvError):
        read_rows(out)


@pytest.mark.parametrize(
    "body, message",
    [
        (("x" * 200_000 + "\n").encode(), "bad.csv, line 2: field larger than field limit"),
        (b"0.0,\xff\xfe\n", "bad.csv: 'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["field_limit", "not_utf8"],
)
def test_summarize_names_the_file_of_an_unreadable_csv(tmp_path, capsys, body, message):
    out = tmp_path / "bad.csv"
    out.write_bytes((",".join(CSV_HEADER) + "\n").encode() + body)
    with pytest.raises(SweepCsvError, match=re.escape(message)):
        read_rows(out)
    assert main(["summarize", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}") and message in err


GOOD_RECORD = ["1e-06", "time_splitting", "feasible", "3", "1000.0", "10.0", "2e-07", "0.2"]
ZERO_RECORD = ["0.0", "uc_splitting", "infeasible", "0", "1000.0", "10.0", "2e-07", ""]


@pytest.mark.parametrize(
    "record, column",
    [
        (ZERO_RECORD[:1] + ["frequency_splitting"] + ZERO_RECORD[2:], "protocol"),
        (ZERO_RECORD[:2] + ["maybe"] + ZERO_RECORD[3:], "status"),
        (ZERO_RECORD[:3] + ["-3"] + ZERO_RECORD[4:], "optimal_allocation"),
        (["-1e-06"] + GOOD_RECORD[1:], "p_static_w"),
        (ZERO_RECORD[:4] + ["nan"] + ZERO_RECORD[5:], "avg_rate_bps"),
        (ZERO_RECORD[:5] + ["-1.0"] + ZERO_RECORD[6:], "rate_ci_bps"),
        (ZERO_RECORD[:6] + ["inf"] + ZERO_RECORD[7:], "p_dyn_w"),
        (GOOD_RECORD[:7] + [""], "dyn_over_static"),
        (ZERO_RECORD[:7] + ["0.2"], "dyn_over_static"),
    ],
    ids=["protocol", "status", "allocation", "static", "rate", "ci", "dynamic",
         "ratio_missing", "ratio_at_zero"],
)
def test_read_rows_rejects_values_no_sweep_writes(tmp_path, capsys, record, column):
    out = tmp_path / "bad.csv"
    lines = [CSV_HEADER, GOOD_RECORD, ZERO_RECORD, record]
    out.write_text("".join(",".join(line) + "\n" for line in lines))
    message = f"bad.csv, line 4: column {column}: "
    with pytest.raises(SweepCsvError, match=re.escape(message)):
        read_rows(out)
    assert main(["summarize", str(out)]) == 1
    assert message in capsys.readouterr().err
    out.write_text("".join(",".join(line) + "\n" for line in lines[:3]))
    assert csv_records(read_rows(out)) == lines[1:3]


def test_a_row_is_its_csv_record_in_header_order():
    # run_sweep writes each row as the tuple it is, so its fields must
    # follow CSV_HEADER's columns; each value here differs from the others
    row = SweepRow(1e-06, "time_splitting", "feasible", 3, 1000.0, 10.0, 2e-07, 0.2)
    assert dict(zip(CSV_HEADER, tuple(row), strict=True)) == {
        "p_static_w": row.p_static,
        "protocol": row.protocol,
        "status": row.status,
        "optimal_allocation": row.optimal_allocation,
        "avg_rate_bps": row.average_rate,
        "rate_ci_bps": row.rate_ci,
        "p_dyn_w": row.p_dynamic,
        "dyn_over_static": row.dyn_over_static,
    }
    assert csv_records([row]) == [GOOD_RECORD]


@pytest.mark.parametrize(
    "record",
    [
        ConsumptionBreakdown(1e-06, 2e-07),
        AllocationResult(TIME_SPLITTING, 3, 1e-05, 1.2e-06, FEASIBLE),
        SweepRow(0.0, "uc_splitting", INFEASIBLE, 0, 1000.0, 10.0, 2e-07, None),
        ScenarioConfig(),
        SweepSpec(),
    ],
    ids=["consumption", "allocation", "row", "config", "spec"],
)
def test_records_reject_attribute_assignment(record):
    before = tuple(record)
    for name in [*record._fields, "total", "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
    assert tuple(record) == before


def test_cli_sweep_and_summarize(fast_config_path, tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = main(
        [
            "sweep",
            "--config",
            str(fast_config_path),
            "--sweep-start",
            "1e-6",
            "--sweep-stop",
            "1e-4",
            "--points",
            "2",
            "--out",
            str(out),
            "--trials",
            "40",
            "--seed",
            "5",
        ]
    )
    assert code == 0
    assert len(read_rows(out)) == 4
    assert main(["summarize", str(out)]) == 0
    assert "feasible" in capsys.readouterr().out


def test_cli_flag_overrides_change_output(fast_config_path, tmp_path):
    base = ["sweep", "--config", str(fast_config_path), "--points", "2", "--trials", "30"]
    out1, out2, out3 = (tmp_path / n for n in ("s1.csv", "s2.csv", "s3.csv"))
    main(base + ["--seed", "1", "--out", str(out1)])
    main(base + ["--seed", "1", "--out", str(out2)])
    main(base + ["--seed", "2", "--out", str(out3)])
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() != out3.read_bytes()


def test_cli_rejects_one_trial_before_writing(tmp_path, capsys):
    # one trial has no sample sd, so its rows would claim a CI of 0
    out = tmp_path / "o.csv"
    assert main(["sweep", "--points", "2", "--trials", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: mc_trials must be >= 2, got 1\n"
    assert not out.exists()


def test_cli_missing_config_fails_nonzero(tmp_path, capsys):
    code = main(
        ["sweep", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o.csv")]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_bad_sweep_bounds_fail_nonzero(fast_config_path, tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--config",
            str(fast_config_path),
            "--sweep-start",
            "1e-3",
            "--sweep-stop",
            "1e-6",
            "--out",
            str(tmp_path / "o.csv"),
        ]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bounds",
    [["--sweep-stop", "inf"], ["--sweep-start=-1e-3"]],
    ids=["stop_inf", "start_negative"],
)
def test_cli_rejects_bad_bounds_before_writing(tmp_path, capsys, bounds):
    out = tmp_path / "o.csv"
    code = main(["sweep", "--scale", "linear", *bounds, "--trials", "8", "--out", str(out)])
    assert code == 1
    assert "sweep st" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, field",
    [
        ("tx_gain_dbi = 1e4", "tx_gain_dbi"),
        ("rx_gain_dbi = 1e4", "rx_gain_dbi"),
        ("noise_figure_db = 1e4", "noise_figure_db"),
        ("d_tx_ris = 1e-300", "d_tx_ris"),
        ("d_ris_rx = 1e-300", "d_ris_rx"),
        ("d_tx_ris = 1e300", "d_tx_ris"),
        ("noise_temperature = 1e-320", "noise_temperature"),
        ("carrier_frequency = 1e-150", "carrier_frequency"),
        ("carrier_frequency = 1e300", "carrier_frequency"),
        # each field passes alone; together E|g|^2 or the SNR overflows
        ("carrier_frequency = 1e-140\nd_ris_rx = 1e-150", "d_ris_rx"),
        ("tx_power = 2e250\ncarrier_frequency = 5.3e-21", "tx_power"),
    ],
)
def test_cli_rejects_link_budget_overflow(tmp_path, capsys, line, field):
    config = tmp_path / "link.cfg"
    config.write_text(line + "\n")
    out = tmp_path / "o.csv"
    code = main(["sweep", "--config", str(config), "--points", "2", "--trials", "8",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and field in err
    assert not out.exists()


def test_cli_never_writes_a_non_finite_rate(tmp_path, capsys):
    # the full-surface SNR bound overflows, so validation rejects the config
    config = tmp_path / "loud.cfg"
    config.write_text("tx_power = 1e308\n")
    out = tmp_path / "o.csv"
    code = main(["sweep", "--config", str(config), "--points", "2", "--trials", "8",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: full-surface SNR bound from tx_power")
    assert not out.exists()


def test_cli_rejects_dyn_over_static_overflow_on_the_grid(tmp_path, capsys):
    # p_dyn / p_static overflows at the default 1e-7 W, but not from 1e-3 W up
    config = tmp_path / "costly.cfg"
    config.write_text("e_rec = 4.5e298\n")
    out = tmp_path / "o.csv"
    base = ["sweep", "--config", str(config), "--points", "2", "--trials", "8", "--out", str(out)]
    assert main(base) == 1
    assert capsys.readouterr().err.startswith("error: e_rec = 4.5e+298 J ")
    assert not out.exists()
    assert main(base + ["--sweep-start", "1e-3", "--sweep-stop", "1"]) == 0
    assert all(math.isfinite(row.dyn_over_static) for row in read_rows(out))


def test_cli_defaults_without_config(tmp_path):
    out = tmp_path / "defaults.csv"
    code = main(["sweep", "--points", "2", "--trials", "25", "--out", str(out)])
    assert code == 0
    assert len(read_rows(out)) == 4


def test_python_m_risharvest_runs_cleanly(tmp_path):
    # runpy warns when the package __init__ has already imported the module
    env = dict(os.environ, PYTHONPATH=str(Path(risharvest.__file__).parents[1]))
    for module in ("risharvest", "risharvest.sweep"):
        out = tmp_path / f"{module}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", module, "sweep", "--points", "2", "--trials", "8",
             "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (module, proc.returncode, proc.stderr) == (module, 0, "")
        assert len(read_rows(out)) == 4


@pytest.mark.parametrize("kind", RECTIFIER_KINDS)
@pytest.mark.parametrize(
    "spec",
    [SweepSpec(), SweepSpec(start=0.0, stop=2e-2, points=400, scale="linear")],
    ids=["paper_grid", "edge_grid"],
)
def test_column_draw_writes_the_full_draw_csv(monkeypatch, tmp_path, spec, kind):
    # the sweep keeps only the prefix columns its grid reads, and each kept
    # column is the running sum of the segments below it; a draw rebuilt in
    # full by the tests, every segment from its own pure-Python word
    # (conftest.rebuilt_prefix), must give the same CSV byte for byte
    config = tmp_path / "scenario.cfg"
    save_config(ScenarioConfig(mc_trials=200, rectifier_kind=kind), config)
    kept = []

    def rebuilt_draw(cfg, *, columns):
        kept.append(sorted({*columns, cfg.m_s}))
        prefix = rebuilt_prefix(cfg, kept[-1])
        return TrialChannels(cfg=cfg, amp_prefix=prefix, columns=tuple(kept[-1]))

    run_sweep(config, spec, tmp_path / "columns.csv")
    monkeypatch.setattr(risharvest.sweep, "draw_trials", rebuilt_draw)
    run_sweep(config, spec, tmp_path / "full.csv")
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()
    uc_rows = [row for row in read_rows(tmp_path / "full.csv") if row.protocol == "uc_splitting"]
    assert kept == [sorted({225 - row.optimal_allocation for row in uc_rows} | {225})]


def test_a_trillion_slot_frame_sweeps_to_a_finite_csv(tmp_path):
    # the time-splitting harvest is solved by bisection; an array over its
    # 10^12 slot counts would take 8 TB
    path, out = tmp_path / "long_frame.cfg", tmp_path / "sweep.csv"
    cfg = ScenarioConfig(frame_slots=10**12)
    save_config(cfg, path)
    tracemalloc.start()
    try:
        run_sweep(path, small_spec(), out, trials=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    rows = read_rows(out)
    assert len(rows) == 6
    for row in rows:
        assert math.isfinite(row.average_rate) and math.isfinite(row.rate_ci)
        if row.protocol == TIME_SPLITTING:
            # the fewest slots whose harvest covers consumption
            consumed = total_consumption(row.p_static, TIME_SPLITTING, cfg).total
            assert row.status == FEASIBLE
            assert allocation_harvest(TIME_SPLITTING, row.optimal_allocation, cfg) >= consumed
            assert allocation_harvest(TIME_SPLITTING, row.optimal_allocation - 1, cfg) < consumed


def test_sweep_builds_each_harvest_curve_from_one_harvest_call(monkeypatch, tmp_path):
    # both protocols' solves read one cached harvest of the configuration
    calls = []
    harvest = risharvest.optimizer.harvest

    def counting_harvest(*args, **kwargs):
        calls.append(args)
        return harvest(*args, **kwargs)

    clear_harvest_caches()
    monkeypatch.setattr(risharvest.optimizer, "harvest", counting_harvest)
    try:
        run_sweep(None, small_spec(), tmp_path / "sweep.csv", trials=8)
    finally:
        clear_harvest_caches()
    assert len(calls) == 1


def test_sweep_solves_every_point_once_before_one_draw(monkeypatch, tmp_path):
    # the solves read no draw, so every (point, protocol) is solved once
    # before the single draw; after it, one estimate per protocol takes that
    # protocol's allocations in grid order, repeats included, and forms its
    # rate statistic once per distinct column they read: coherent_snr
    # receives one row per distinct column in each call
    calls = []
    snr_rows = []  # per estimate call, the rows of each coherent_snr call it made

    def recording(name, function):
        def wrapper(*args, **kwargs):
            if name == "estimate_averages":
                args = (args[0], list(args[1]), *args[2:])
                snr_rows.append([])
            result = function(*args, **kwargs)
            calls.append((name, args, result))
            return result

        return wrapper

    coherent_snr = risharvest.optimizer.coherent_snr

    def counting_snr(amplitude, cfg):
        snr_rows[-1].append(len(amplitude))
        return coherent_snr(amplitude, cfg)

    monkeypatch.setattr(risharvest.optimizer, "coherent_snr", counting_snr)
    for module, name in [
        (risharvest.sweep, "optimize_time_splitting"),
        (risharvest.sweep, "optimize_uc_splitting"),
        (risharvest.sweep, "draw_trials"),
        (risharvest.optimizer, "estimate_averages"),
    ]:
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    spec = small_spec(start=1e-7, stop=1e-2, points=12)  # both sides of the feasibility edge
    run_sweep(None, spec, tmp_path / "sweep.csv", trials=8)
    names = [name for name, _, _ in calls]
    assert names.count("draw_trials") == 1
    draw = names.index("draw_trials")
    solves = [(name, args[0]) for name, args, _ in calls[:draw]]
    expected = [(name, float(p)) for p in spec.grid()
                for name in ("optimize_time_splitting", "optimize_uc_splitting")]
    assert sorted(solves) == sorted(expected)
    assert set(names[draw + 1 :]) == {"estimate_averages"}
    estimates = calls[draw + 1 :]
    assert sorted(args[0] for _, args, _ in estimates) == sorted(PROTOCOLS)
    solved = {(result.protocol, args[0]): result.optimal_allocation
              for _, args, result in calls[:draw]}
    distinct_columns = 0
    for (_, (protocol, values, trial_set), result), rows in zip(estimates, snr_rows):
        assert values == [solved[protocol, p] for p in spec.grid()]
        assert len(result) == len(values)
        columns = {reflecting_ucs(protocol, value, trial_set.cfg) for value in values}
        assert sum(rows) == len(columns)
        distinct_columns += len(columns)
    assert distinct_columns < len(solves)  # so the grid repeats columns


def test_answer_zips_each_budget_with_its_own_solve_in_any_order():
    # a shuffled grid with a repeated budget gives the rows of the sorted
    # grid, and every row carries the solve of its own budget
    cfg = ScenarioConfig(mc_trials=8)
    rows = answer(cfg, [1e-3, 1e-7, 0.0, 1e-3])
    assert rows == answer(cfg, [0.0, 1e-7, 1e-3, 1e-3])
    assert [(row.p_static, row.protocol) for row in rows] == sorted(
        (p, protocol) for p in (0.0, 1e-7, 1e-3, 1e-3) for protocol in PROTOCOLS)
    solvers = {TIME_SPLITTING: optimize_time_splitting, UC_SPLITTING: optimize_uc_splitting}
    for row in rows:
        solve = solvers[row.protocol](row.p_static, cfg)
        assert (row.optimal_allocation, row.status) == (solve.optimal_allocation, solve.status)
    assert len({(row.protocol, row.optimal_allocation) for row in rows}) > len(PROTOCOLS)


@pytest.mark.parametrize(
    "spec",
    [SweepSpec(), SweepSpec(start=0.0, stop=2e-2, points=400, scale="linear")],
    ids=["paper_grid", "edge_grid"],
)
def test_answer_gives_the_rows_of_the_sweep_csv(tmp_path, spec):
    # run_sweep writes answer's rows: read back, they are equal row for row
    config, cfg = tmp_path / "scenario.cfg", ScenarioConfig(mc_trials=200)
    save_config(cfg, config)
    run_sweep(config, spec, tmp_path / "sweep.csv")
    assert answer(cfg, spec.grid()) == read_rows(tmp_path / "sweep.csv")


def test_answer_at_zero_budgets_only_leaves_every_ratio_empty():
    # no positive budget, so there is no ratio to overflow
    rows = answer(ScenarioConfig(mc_trials=8), [0.0, 0.0])
    assert len(rows) == 4
    assert all(row.p_static == 0.0 and row.dyn_over_static is None for row in rows)


def test_answer_rejects_no_budgets_or_a_bad_one_before_the_draw(monkeypatch):
    calls = []
    draw_trials = risharvest.sweep.draw_trials

    def recording(*args, **kwargs):
        calls.append(args)
        return draw_trials(*args, **kwargs)

    monkeypatch.setattr(risharvest.sweep, "draw_trials", recording)
    for p_statics in ([], iter(())):
        with pytest.raises(ValueError, match="^p_statics is empty"):
            answer(ScenarioConfig(mc_trials=8), p_statics)
    # a bool, a str or a bytes budget is not a number, though float() takes it
    bad = ([1e-3, -1e-3], [1e-3, math.nan], [1e-3, math.inf], [1e-3, True], [1e-3, "1e-3"],
           [1e-3, b"1e-3"])
    for p_statics in bad:
        with pytest.raises(ValueError, match="^static power must be a finite number >= 0 W"):
            answer(ScenarioConfig(mc_trials=8), p_statics)
    assert calls == []


# The question's vocabulary, and the machinery that stays in its modules.
PUBLIC_NAMES = [
    "ConfigError", "ConfigParseError", "ConfigValidationError", "FEASIBLE", "INFEASIBLE",
    "LINEAR_CLIPPED", "PROTOCOLS", "RECTIFIER_KINDS", "SIGMOIDAL", "ScenarioConfig",
    "TIME_SPLITTING", "UC_SPLITTING", "dumps_config", "load_config", "loads_config",
    "save_config",
]
MODULE_NAMES = {
    "channel": ["TrialChannels", "draw_trials"],
    "harvesting": ["harvest", "rectify"],
    "optimizer": [
        "AllocationResult", "estimate_averages", "optimize_time_splitting", "optimize_uc_splitting",
    ],
    "power": ["ConsumptionBreakdown", "dynamic_power", "reconfig_count", "total_consumption"],
}


def test_the_top_level_exports_the_question_and_the_modules_the_machinery():
    assert sorted(risharvest.__all__) == PUBLIC_NAMES
    assert all(hasattr(risharvest, name) for name in PUBLIC_NAMES)
    for module, names in MODULE_NAMES.items():
        for name in names:
            assert name not in risharvest.__all__
            assert hasattr(importlib.import_module(f"risharvest.{module}"), name), (module, name)


def test_benchmark_tracer_sees_every_layer(tmp_path):
    # perfbench/tracer.py wraps the sweep's layer calls by name and reads the
    # draw's size from its arguments; a renamed call or a changed signature
    # would drop a per-layer metric without failing the sweep
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    config, spans, out = tmp_path / "small.cfg", tmp_path / "spans.json", tmp_path / "sweep.csv"
    save_config(ScenarioConfig(mc_trials=8), config)
    env = dict(os.environ, PYTHONPATH=str(Path(risharvest.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(tracer), str(spans), "risharvest.sweep:main",
         "sweep", "--config", str(config), "--points", "3", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(spans.read_text())
    assert (report["exit_code"], report["missing"]) == (0, [])
    assert {span["name"] for span in report["spans"]} == {
        "main", "load_config", "draw_trials", "optimize_time_splitting",
        "optimize_uc_splitting", "estimate_averages", "harvest",
    }
    [draw] = [span for span in report["spans"] if span["name"] == "draw_trials"]
    assert draw["values"] == 8 * ScenarioConfig().m_s
    assert draw["bytes"] > 0


def test_sweep_and_summarize_leave_numpy_ma_unimported(tmp_path):
    # np.unique and np.union1d import numpy.ma on first use, and numpy.random
    # imports secrets, which loads OpenSSL: each costs time and memory at
    # start-up, and neither the package, a sweep nor summarize needs them
    out = tmp_path / "sweep.csv"
    code = (
        "import sys\n"
        "import risharvest\n"
        "from risharvest.sweep import main\n"
        "unneeded = ('numpy.ma', 'numpy.random', 'secrets')\n"
        "print([name for name in unneeded if name in sys.modules])\n"
        "assert main(['sweep', '--points', '5', '--trials', '8', '--out', sys.argv[1]]) == 0\n"
        "assert main(['summarize', sys.argv[1]]) == 0\n"
        "print([name for name in unneeded if name in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(risharvest.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(out)], capture_output=True, text=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[0] == proc.stdout.splitlines()[-1] == "[]"


def test_numpy_loads_only_when_a_command_computes(tmp_path):
    # the package, the CLI module, the scenario-file I/O, summarize, --help
    # and a sweep whose configuration is rejected form no array, so none of
    # them loads numpy, nor freezes the collector's heap; a sweep does both,
    # with the collector on again for its own objects
    csv_path, bad, out = tmp_path / "sweep.csv", tmp_path / "bad.cfg", tmp_path / "out.csv"
    run_sweep(None, small_spec(points=2), csv_path, trials=8)
    bad.write_text("mc_trials = 1\n")
    code = (
        "import contextlib, gc, io, sys\n"
        "tmp = sys.argv[1]\n"
        "def step(name):\n"
        "    loaded = 'numpy' in sys.modules\n"
        "    assert loaded or gc.get_freeze_count() == 0, (name, gc.get_freeze_count())\n"
        "    print(name, loaded)\n"
        "import risharvest, risharvest.sweep\n"
        "step('import')\n"
        "from risharvest import dumps_config, load_config, loads_config, save_config\n"
        "from risharvest.sweep import main\n"
        "cfg = loads_config('ris_cols = 4')\n"
        "step('loads_config')\n"
        "save_config(cfg, tmp + '/saved.cfg')\n"
        "step('save_config')\n"
        "assert load_config(tmp + '/saved.cfg') == cfg\n"
        "step('load_config')\n"
        "assert dumps_config(cfg)\n"
        "step('dumps_config')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['summarize', tmp + '/sweep.csv']) == 0\n"
        "step('summarize')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        main(['--help'])\n"
        "    except SystemExit as exc:\n"
        "        help_exit = exc.code\n"
        "assert help_exit == 0\n"
        "step('help')\n"
        "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
        "    assert main(['sweep', '--config', tmp + '/bad.cfg', '--out', tmp + '/out.csv']) == 1\n"
        "assert err.getvalue() == 'error: mc_trials must be >= 2, got 1\\n'\n"
        "step('rejected_sweep')\n"
        "assert main(['sweep', '--points', '2', '--trials', '8', '--out', tmp + '/out.csv']) == 0\n"
        "step('sweep')\n"
        "assert gc.isenabled() and gc.get_freeze_count() > 0\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(risharvest.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "import False", "loads_config False", "save_config False", "load_config False",
        "dumps_config False", "summarize False", "help False", "rejected_sweep False",
        "sweep True",
    ]
    assert len(read_rows(out)) == 4


def test_argparse_and_csv_load_only_in_the_commands_that_use_them(tmp_path):
    # importing the package and the scenario-file I/O parse no command line
    # and touch no CSV, so none of them loads argparse (nor the gettext it
    # imports) or csv; --help loads argparse, and read_rows and a sweep load
    # csv, each in a fresh interpreter
    csv_path = tmp_path / "sweep.csv"
    run_sweep(None, small_spec(points=2), csv_path, trials=8)
    setup = (
        "import contextlib, io, sys\n"
        "tmp = sys.argv[1]\n"
        "def loaded():\n"
        "    return sorted({'argparse', 'gettext', 'csv'} & set(sys.modules))\n"
    )
    code = {
        "config": setup + (
            "import risharvest, risharvest.sweep\n"
            "from risharvest import dumps_config, load_config, loads_config, save_config\n"
            "cfg = loads_config('ris_cols = 4')\n"
            "save_config(cfg, tmp + '/saved.cfg')\n"
            "assert load_config(tmp + '/saved.cfg') == cfg and dumps_config(cfg)\n"
        ),
        "help": setup + (
            "from risharvest.sweep import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
            "    main(['--help'])\n"
        ),
        "read_rows": setup + (
            "from risharvest.sweep import read_rows\n"
            "assert len(read_rows(tmp + '/sweep.csv')) == 4\n"
        ),
        "sweep": setup + (
            "from risharvest.sweep import SweepSpec, run_sweep\n"
            "assert run_sweep(None, SweepSpec(points=2), tmp + '/out.csv', trials=8) == 0\n"
        ),
    }
    env = dict(os.environ, PYTHONPATH=str(Path(risharvest.__file__).parents[1]))
    seen = {}
    for name, steps in code.items():
        proc = subprocess.run(
            [sys.executable, "-c", steps + "print(' '.join(loaded()))\n", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), name
        seen[name] = proc.stdout.split()
    assert seen["config"] == []
    assert "argparse" in seen["help"] and "csv" not in seen["help"]
    assert seen["read_rows"] == ["csv"]
    assert "csv" in seen["sweep"] and "argparse" not in seen["sweep"]
    assert len(read_rows(tmp_path / "out.csv")) == 4


PAPER_DEFAULT_CFG = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "paper_default.cfg"


def test_no_command_loads_dataclasses_and_only_a_sweep_loads_inspect(tmp_path):
    # configurations, sweep grids and draws are NamedTuples, so importing the
    # package, loading a scenario, summarize and --help load neither
    # dataclasses nor the inspect it imports; a CLI sweep loads numpy, which
    # imports inspect, but still not dataclasses; each in a fresh interpreter
    csv_path = tmp_path / "sweep.csv"
    run_sweep(None, small_spec(points=2), csv_path, trials=8)
    setup = (
        "import contextlib, io, sys\n"
        "tmp = sys.argv[1]\n"
    )
    code = {
        "import": "import risharvest\n",
        "config": (
            "import risharvest.sweep\n"
            "from risharvest import load_config\n"
            f"load_config({str(PAPER_DEFAULT_CFG)!r})\n"
        ),
        "summarize": (
            "from risharvest.sweep import summarize\n"
            "assert summarize(tmp + '/sweep.csv')\n"
        ),
        "help": (
            "from risharvest.sweep import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
            "    main(['--help'])\n"
        ),
        "sweep": (
            "from risharvest.sweep import main\n"
            "assert main(['sweep', '--points', '2', '--trials', '8', '--out', tmp + '/out.csv']) == 0\n"
        ),
    }
    env = dict(os.environ, PYTHONPATH=str(Path(risharvest.__file__).parents[1]))
    seen = {}
    for name, steps in code.items():
        proc = subprocess.run(
            [sys.executable, "-c",
             setup + steps + "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n",
             str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), name
        seen[name] = proc.stdout.split()
    quiet = ("import", "config", "summarize", "help")
    assert {name: seen[name] for name in quiet} == {name: [] for name in quiet}
    assert "dataclasses" not in seen["sweep"]
    assert len(read_rows(tmp_path / "out.csv")) == 4


def test_the_computing_imports_and_answer_leave_the_collector_as_they_found_it():
    # only run_sweep, the CLI's step, pauses the collector and freezes the
    # heap; importing the computing modules and calling answer, on or off,
    # leave both the collector's state and its frozen count alone
    code = (
        "import gc\n"
        "def state():\n"
        "    print(gc.isenabled(), gc.get_freeze_count())\n"
        "import risharvest.optimizer\n"
        "state()\n"
        "from risharvest import ScenarioConfig\n"
        "from risharvest.sweep import answer\n"
        "cfg = ScenarioConfig(mc_trials=8)\n"
        "assert len(answer(cfg, [1e-6, 1e-4])) == 4\n"
        "state()\n"
        "gc.disable()\n"
        "assert len(answer(cfg, [1e-6, 1e-4])) == 4\n"
        "state()\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(risharvest.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["True 0", "True 0", "False 0"]


def test_a_second_sweep_in_one_process_freezes_nothing_more(tmp_path):
    # run_sweep freezes the heap only while nothing is frozen, so a process
    # that sweeps again keeps each later sweep's garbage collectable, and
    # the second sweep writes the same CSV as the first
    code = (
        "import gc, sys\n"
        "from risharvest.sweep import main\n"
        "args = ['sweep', '--points', '3', '--trials', '8', '--out']\n"
        "assert main([*args, sys.argv[1] + '/first.csv']) == 0\n"
        "frozen = gc.get_freeze_count()\n"
        "assert main([*args, sys.argv[1] + '/second.csv']) == 0\n"
        "print(frozen > 0, gc.get_freeze_count() == frozen, gc.isenabled())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(risharvest.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "True True True\n"
    assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()
    assert len(read_rows(tmp_path / "first.csv")) == 6


@pytest.mark.parametrize("grid_raises", [False, True], ids=["sweeps", "grid_raises"])
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_run_sweep_leaves_the_collector_on_or_off_as_it_found_it(
    monkeypatch, tmp_path, enabled, grid_raises
):
    # the collector is paused for the imports alone and turned back on only
    # if the caller had it on, also when the grid after them raises
    if grid_raises:
        def failing_grid(spec):
            raise RuntimeError("grid failed")
        monkeypatch.setattr(SweepSpec, "grid", failing_grid)
    was_enabled = gc.isenabled()
    gc.unfreeze()  # what an earlier sweep of this process froze
    (gc.enable if enabled else gc.disable)()
    try:
        if grid_raises:
            with pytest.raises(RuntimeError, match="grid failed"):
                run_sweep(None, small_spec(points=2), tmp_path / "out.csv", trials=8)
        else:
            assert run_sweep(None, small_spec(points=2), tmp_path / "out.csv", trials=8) == 0
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() > 0
    finally:
        (gc.enable if was_enabled else gc.disable)()


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_fresh(code, *args, **preset):
    """Run ``code`` in a fresh interpreter whose environment holds none of
    BLAS_THREAD_VARIABLES but those of ``preset``; return its stdout."""
    env = {name: value for name, value in os.environ.items() if name not in BLAS_THREAD_VARIABLES}
    env.update(preset, PYTHONPATH=str(Path(risharvest.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


# A sweep of 3 points and 8 trials from the CLI entry point into argv[1],
# then the process's environment and its thread count.
SWEEP_THEN_STATE = (
    "import json, os, sys\n"
    "from risharvest.sweep import main\n"
    "assert main(['sweep', '--points', '3', '--trials', '8', '--out', sys.argv[1]]) == 0\n"
    "print(json.dumps([dict(os.environ), len(os.listdir('/proc/self/task'))]))\n"
)

needs_proc_tasks = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                      reason="no /proc/self/task to count threads")


@needs_proc_tasks
def test_a_sweep_holds_blas_to_one_thread_and_leaves_the_environment_as_it_found_it(tmp_path):
    # with none of the variables OpenBLAS reads set, the sweep's numpy
    # import starts a one-thread BLAS pool, so the process runs one thread;
    # importing the package, a rejected configuration and the sweep itself
    # leave os.environ exactly as they found it
    bad = tmp_path / "bad.cfg"
    bad.write_text("mc_trials = 1\n")
    code = (
        "import contextlib, io, json, os, sys\n"
        "before = dict(os.environ)\n"
        "import risharvest, risharvest.sweep\n"
        "assert dict(os.environ) == before, 'import'\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert risharvest.sweep.main(['sweep', '--config', sys.argv[2], '--out', sys.argv[1]]) == 1\n"
        "assert dict(os.environ) == before, 'rejected'\n"
        "assert 'numpy' not in sys.modules\n"
        + SWEEP_THEN_STATE
        + "print(json.dumps(before))\n"
    )
    (after, threads), before = map(json.loads, run_fresh(code, tmp_path / "out.csv", bad).splitlines())
    assert after == before
    assert threads == 1
    assert len(read_rows(tmp_path / "out.csv")) == 6


@needs_proc_tasks
@pytest.mark.parametrize("variable", ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"])
def test_a_callers_blas_thread_setting_is_kept_and_changes_no_byte(tmp_path, variable):
    # a caller that sets one of the variables gets the BLAS pool it asked
    # for, as many threads as a bare numpy import under the same setting,
    # keeps the variable at its value, and gets the CSV of the one-thread
    # sweep byte for byte
    run_fresh(SWEEP_THEN_STATE, tmp_path / "one_thread.csv")
    (environ, threads), = map(json.loads, run_fresh(
        SWEEP_THEN_STATE, tmp_path / "preset.csv", **{variable: "2"}).splitlines())
    bare = run_fresh("import os, numpy\nprint(len(os.listdir('/proc/self/task')))\n",
                     **{variable: "2"})
    assert environ[variable] == "2"
    assert not (set(BLAS_THREAD_VARIABLES) - {variable}) & set(environ)
    assert threads == int(bare)
    assert (tmp_path / "preset.csv").read_bytes() == (tmp_path / "one_thread.csv").read_bytes()


def test_a_failing_numpy_import_leaves_no_blas_variable_and_the_collector_on():
    # the variable is removed in the same finally that turns the collector
    # back on, so an import that raises leaves neither behind
    code = (
        "import gc, os, sys\n"
        "sys.modules['numpy'] = None  # makes 'import numpy' raise ImportError\n"
        "from risharvest.sweep import SweepSpec, run_sweep\n"
        "try:\n"
        "    run_sweep(None, SweepSpec(points=2), os.devnull, trials=8)\n"
        "except ImportError:\n"
        "    print('OPENBLAS_NUM_THREADS' in os.environ, gc.isenabled())\n"
    )
    assert run_fresh(code) == "False True\n"


# Scenario-file keys (the ScenarioConfig field names), and a strategy for
# every float key: log-uniform over [1e-300, 1e300], or uniform over +-1e4
# for the four dB fields.
SCENARIO_KEYS = list(ScenarioConfig._fields)
DB_KEYS = ("tx_gain_dbi", "rx_gain_dbi", "noise_figure_db", "rf_combining_loss_db")
FLOAT_KEYS = [key for key, kind in typing.get_type_hints(ScenarioConfig).items() if kind is float]
LOG_UNIFORM = st.floats(-300.0, 300.0).map(lambda exponent: 10.0**exponent)
# Each key is set or left at its default, so that some examples validate.
ANY_CONFIG = st.fixed_dictionaries(
    {},
    optional={key: st.floats(-1e4, 1e4) if key in DB_KEYS else LOG_UNIFORM for key in FLOAT_KEYS}
    | {"rectifier_kind": st.sampled_from(RECTIFIER_KINDS)},
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(values=ANY_CONFIG)
@example(values={"carrier_frequency": 1e-140, "d_ris_rx": 1e-150})
@example(values={"tx_power": 2e250, "carrier_frequency": 5.3e-21})
@example(values={"e_rec": 4.5e298})
def test_a_config_is_rejected_by_field_or_sweeps_finite(values):
    text = "".join(f"{key} = {value}\n" for key, value in values.items())
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp, "any.cfg"), Path(tmp, "o.csv")
        config.write_text(text)
        try:
            run_sweep(config, SweepSpec(points=2), out, trials=8)
        except ConfigValidationError as exc:
            assert any(re.search(rf"\b{key}\b", str(exc)) for key in SCENARIO_KEYS), str(exc)
            assert not out.exists()
            event("rejected: " + re.split(r" from | must | \(", str(exc))[0])
            return
        event("swept")
        rows = read_rows(out)
    for row in rows:
        cells = (row.p_static, row.average_rate, row.rate_ci, row.p_dynamic, row.dyn_over_static)
        assert all(math.isfinite(cell) for cell in cells), (text, row)

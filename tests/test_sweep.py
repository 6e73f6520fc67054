import os
import subprocess
import sys
from pathlib import Path

import pytest

import risharvest
from risharvest import ScenarioConfig, save_config
from risharvest.sweep import (
    CSV_HEADER,
    SweepCsvError,
    SweepRow,
    SweepSpec,
    main,
    read_rows,
    run_sweep,
    summarize,
)


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
        (dict(points=2.0), "points"),
        (dict(points="3"), "points"),
    ],
    ids=["stop_inf", "stop_nan", "start_neg_inf", "start_nan", "start_negative",
         "start_bool", "points_bool", "points_float", "points_str"],
)
def test_sweep_spec_rejects_bad_bounds(overrides, field):
    with pytest.raises(ValueError, match=f"sweep {field} "):
        small_spec(**overrides)


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
    for row in rows:
        assert SweepRow.from_record(row.to_record()) == row


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
    assert zero_row.to_record()[-1] == ""
    assert SweepRow.from_record(zero_row.to_record()).dyn_over_static is None


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
    config = tmp_path / "loud.cfg"
    config.write_text("tx_power = 1e308\n")
    out = tmp_path / "o.csv"
    code = main(["sweep", "--config", str(config), "--points", "2", "--trials", "8",
                 "--out", str(out)])
    assert code == 1
    assert "time_splitting at p_static = 1e-07 W" in capsys.readouterr().err
    assert not out.exists()


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

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


def test_cli_defaults_without_config(tmp_path):
    out = tmp_path / "defaults.csv"
    code = main(["sweep", "--points", "2", "--trials", "25", "--out", str(out)])
    assert code == 0
    assert len(read_rows(out)) == 4


def test_python_m_risharvest_runs_cleanly(tmp_path):
    out = tmp_path / "m.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(risharvest.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "risharvest", "sweep", "--points", "2", "--trials", "8",
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(read_rows(out)) == 4

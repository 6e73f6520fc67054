"""Tests of the benchmark itself.

Run from the root of the repository:

    python3 -m pytest perfbench/selftest.py -q

The file is not named test_*.py, so the package's own test run does not
collect it. Each workload runs at a tiny trial count: harvest does not
depend on the draws, so the reference CSVs still apply.
"""

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from check import RATE, RATE_CI, check_csv, read_csv  # noqa: E402

TINY_TRIALS = 64
WORKLOADS = sorted(run.WORKLOADS)
REPEATABLE_COUNTS = ("channel.draw_values", "harvesting.harvest_calls", "optimizer.solves")


@pytest.fixture
def tiny(tmp_path):
    return lambda workload: run.Runner(workload, tmp_path, trials=TINY_TRIALS)


def _write_csv(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _edit_csv(path: Path, line: int, column: str, value: str) -> None:
    rows = read_csv(path)
    rows[line][column] = value
    _write_csv(path, rows)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_sweep_passes_the_check(tiny, workload):
    sample = tiny(workload).sweep(seed=7)
    assert sample.exit_code == 0
    assert sample.ok, sample.problems


@pytest.mark.parametrize(
    "column, value",
    [("optimal_allocation", None), (RATE, "nan")],
)
def test_a_corrupted_csv_is_counted_as_failed(tiny, column, value):
    runner = tiny("paper_default")
    good, bad = runner.sweep(seed=1), runner.sweep(seed=2)
    assert good.ok and bad.ok
    line = 10
    if value is None:
        value = str(int(read_csv(bad.out)[line][column]) + 1)
    _edit_csv(bad.out, line, column, value)
    assert not runner.judge(bad).ok

    values = run.end_to_end([good, bad], setups=[0.1, 0.2], yardsticks=[0.25, 0.3])
    outcome = run.result(values, run.END_TO_END_UNITS, [good, bad])
    assert (outcome["correct"], outcome["attempted"], outcome["failed"]) == (False, 2, 1)
    assert outcome["metrics"]["pass_ratio"]["value"] == 0.5


def test_an_inflated_half_width_does_not_widen_the_rate_band(tiny):
    runner = tiny("paper_default")
    sample = runner.sweep(seed=8)
    assert sample.ok, sample.problems
    rows = read_csv(sample.out)
    reference = read_csv(runner.reference)
    # Row 0 starts the time-splitting curve, so raising its rate keeps the
    # curve non-increasing; 20 expected half-widths is far outside the band.
    expected_ci = float(reference[0][RATE_CI]) * math.sqrt(runner.trials_ratio)
    rows[0][RATE] = repr(float(rows[0][RATE]) + 20 * expected_ci)
    for row in rows:
        row[RATE_CI] = repr(100 * float(row[RATE_CI]))
    _write_csv(sample.out, rows)
    assert not runner.judge(sample).ok
    assert any(p.startswith("line 2: rate") for p in sample.problems), sample.problems
    assert any("half-width" in p for p in sample.problems), sample.problems


def test_reference_trials_match_the_scenarios(tmp_path):
    for workload in WORKLOADS:
        _, probe = run.Runner(workload, tmp_path).setup()
        assert int(probe.split()[0]) == run.REFERENCE_TRIALS[workload]


def test_extra_columns_are_ignored(tiny):
    runner = tiny("paper_default")
    sample = runner.sweep(seed=3)
    rows = read_csv(sample.out)
    with open(sample.out, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=["margin_w", *rows[0]])
        writer.writeheader()
        writer.writerows({"margin_w": "0.5", **row} for row in rows)
    assert check_csv(sample.out, runner.reference, runner.trials_ratio) == []


def test_rate_rising_along_the_grid_fails(tiny):
    runner = tiny("paper_default")
    sample = runner.sweep(seed=4)
    rows = read_csv(sample.out)
    # Rows alternate protocols; raise one rate above the row before it on
    # the same protocol's curve, within the band the reference allows.
    previous, line = float(rows[20][RATE]), 22
    _edit_csv(sample.out, line, RATE, repr(math.nextafter(previous, math.inf)))
    problems = check_csv(sample.out, runner.reference, runner.trials_ratio)
    assert any("rate rises" in p for p in problems), problems


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_counts_repeat_exactly(tiny, workload):
    runner = tiny(workload)
    first, second = runner.traced_sweep(seed=5), runner.traced_sweep(seed=6)
    assert first.ok and second.ok, first.problems + second.problems
    a, b = run.layer_metrics(first.trace), run.layer_metrics(second.trace)
    assert set(a) == set(run.LAYER_UNITS)
    for name in REPEATABLE_COUNTS:
        assert a[name] == b[name] > 0
    # About a microsecond per wrapped call: far below the traced run's time.
    assert 0 < a["trace.overhead_s"] < 0.1 * first.wall_s


def test_a_traced_name_that_is_gone_leaves_its_metrics_out():
    spans = [
        {"name": "main", "parent": None, "start": 0.0, "end": 1.0},
        {"name": "load_config", "parent": 0, "start": 0.0, "end": 0.1},
        {"name": "draw_trials", "parent": 0, "start": 0.1, "end": 0.5, "values": 10},
    ]
    trace = {"spans": spans, "missing": ["harvest"], "import_s": 0.2, "csv_bytes": 5, "overhead_s": 1e-5}
    metrics = run.layer_metrics(trace)
    assert "harvesting.harvest_calls" not in metrics
    assert "optimizer.probes_per_solve" not in metrics
    assert "channel.draw_bytes" not in metrics
    assert metrics["channel.draw_values"] == 10
    assert metrics["sweep.self_s"] == pytest.approx(0.5)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


@pytest.mark.parametrize("trace, units", [(0, run.END_TO_END_UNITS), (1, run.LAYER_UNITS)])
def test_command_prints_every_metric_last(trace, units):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    cmd = [*spec["command"], "--workload", "edge_sweep", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(
        [sys.executable, *cmd[1:], "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode == 0, done.stderr
    outcome = json.loads(done.stdout.splitlines()[-1])
    assert list(outcome) == ["correct", "attempted", "failed", "metrics"]
    assert outcome["correct"] and outcome["failed"] == 0
    assert {n: m["unit"] for n, m in outcome["metrics"].items()} == units


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "paper_default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

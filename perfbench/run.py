"""Benchmark of the ``risharvest sweep`` CLI, end to end and layer by layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload paper_default --seed 1 --seconds 35 --trace 0

The CLI runs as a user runs it: one subprocess at a time, started from this
single process, through the console-script entry point ``risharvest.sweep:main``,
with the package taken from ``src/``. Every sweep gets its own
``--seed``, drawn from the benchmark seed, and every CSV it writes is
checked against the workload's reference (check.py).

``--trace 0`` repeats the yardstick, a set-up probe (start Python, import
the package, load the workload's scenario file) and an untraced sweep
until the time is up, and reports the end-to-end metrics. ``--trace 1``
repeats the sweep under tracer.py and reports the per-layer metrics, each
the median over the traced sweeps.

Sweep and set-up times are steadied against the machine's speed, because
on a shared two-core machine the same sweep runs at two or three speeds,
in phases of 5 to 20 s, and the machine as a whole drifts by up to 30%
over tens of minutes, both set by other tenants; the median of the raw
times of a 30 s run follows the share of slow phases and moved by 16-29%
between runs. Each iteration therefore times YARDSTICK, a fixed program
that does not touch the package, right before its set-up probe and sweep,
which then run in the same phase. Each time is divided by its iteration's
yardstick time, and the metric is the median of these ratios times
YARDSTICK_REFERENCE_S. Over ten runs per workload the spread between runs
was 3-6% for sweep_s and about 2% for setup_s. The raw wall times are
printed beside them. Peak memory is the median ``ru_maxrss`` of the untraced
sweeps, read with ``os.wait4``, which slows nothing, unlike ``tracemalloc``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records where the numbers come from.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from check import check_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCENARIOS = HERE / "scenarios"
REFERENCES = HERE / "reference"
WORK = HERE / "out"

# The console-script entry point of the CLI (pyproject.toml).
ENTRY_MODULE = "risharvest.sweep"
ENTRY_FUNCTION = "main"

# Grid flags per workload; the scenario file is scenarios/<name>.cfg.
WORKLOADS = {
    # The CLI defaults a user runs: 15x15 UCs, 10^4 trials, 25-point log
    # grid. The channel draw takes about 3/4 of the sweep, the optimizer 1/4.
    "paper_default": (),
    # 60x60 UCs and 5 grid points: the draw takes about 9/10 of the sweep and
    # its amplitude prefix alone about 290 MB, so changes to the draw and to
    # memory show here and the optimizer barely runs.
    "large_surface": ("--points", "5"),
    # The mirror of large_surface: 10^3 trials, a sigmoidal rectifier and 400
    # linear points across the feasibility edge near 10 mW, about half of
    # them infeasible, p_static = 0 included. The optimizer and harvest
    # chain take nearly all of the sweep and the CSV is the largest.
    "edge_sweep": ("--sweep-start", "0", "--sweep-stop", "2e-2", "--points", "400", "--scale", "linear"),
}

# Trial count of each reference CSV: the scenario's, as no --trials was
# given. Each was written by
#     risharvest sweep --config perfbench/scenarios/<name>.cfg <grid flags> \
#         --seed 20230816 --out perfbench/reference/<name>.csv
REFERENCE_TRIALS = {"paper_default": 10_000, "large_surface": 10_000, "edge_sweep": 1_000}

END_TO_END_UNITS = {
    "sweep_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "pass_ratio": "ratio",
}
LAYER_UNITS = {
    "scenario.load_s": "s",
    "process.import_s": "s",
    "channel.draw_s": "s",
    "channel.draw_values": "count",
    "channel.draw_bytes": "B",
    "harvesting.harvest_calls": "count",
    "harvesting.harvest_s": "s",
    "harvesting.harvest_us_per_call": "us",
    "optimizer.solves": "count",
    "optimizer.solve_ts_s": "s",
    "optimizer.solve_uc_s": "s",
    "optimizer.estimate_s": "s",
    "optimizer.probes_per_solve": "calls/solve",
    "optimizer.feasible_share": "ratio",
    "sweep.self_s": "s",
    "sweep.csv_bytes": "B",
    "sweep.read_rows_s": "s",
    "sweep.summarize_s": "s",
    "trace.overhead_s": "s",
}

SOLVERS = ("optimize_time_splitting", "optimize_uc_splitting")
# The traced names (see tracer.py) each per-layer metric is computed from; a
# metric is left out when one of them is missing from the package.
LAYER_SOURCES = {
    "scenario.load_s": ("load_config",),
    "channel.draw_s": ("draw_trials",),
    "channel.draw_values": ("draw_trials",),
    "channel.draw_bytes": ("draw_trials",),
    "harvesting.harvest_calls": ("harvest",),
    "harvesting.harvest_s": ("harvest",),
    "harvesting.harvest_us_per_call": ("harvest",),
    "optimizer.solves": SOLVERS,
    "optimizer.solve_ts_s": SOLVERS[:1],
    "optimizer.solve_uc_s": SOLVERS[1:],
    "optimizer.estimate_s": ("estimate_averages",),
    "optimizer.probes_per_solve": ("harvest", *SOLVERS),
    "optimizer.feasible_share": SOLVERS,
}

# Start Python, import numpy and run small array operations in a Python
# loop, as a sweep does; about 0.25 s. Its time measures the machine's
# speed at that moment, independently of the package under test.
YARDSTICK = """
import numpy as np
rng = np.random.default_rng(0)
total = 0.0
for i in range(5000):
    x = rng.standard_normal(225)
    total += float(np.cumsum(np.abs(x + 1j * x))[-1]) + sum(sorted(range(i % 97)))
"""
# About the median time of the yardstick on the reference host (2 vCPUs,
# Python 3.11.7, numpy 2.4.6): scaled times read as seconds on that host.
YARDSTICK_REFERENCE_S = 0.3

MIN_SWEEPS = 3             # per run, however short --seconds is
PROCESS_TIMEOUT_S = 60     # a subprocess that runs longer is killed and fails


class BenchError(RuntimeError):
    """The benchmark cannot run here, for example without the package source."""


@dataclass
class Sample:
    """One finished sweep subprocess and the verdict on what it wrote."""

    exit_code: int
    wall_s: float
    rss_mb: float
    out: Path
    log: Path
    problems: list = field(default_factory=list)
    trace: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def spawn(cmd, log_path) -> tuple[int, float, float]:
    """Run ``cmd`` to its end; return exit code, wall seconds and peak RSS in MiB."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT
        )
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall_s, usage.ru_maxrss / 1024.0


def _tail(path: Path) -> str:
    return path.read_text(errors="replace")[-400:]


class Runner:
    """Starts one workload's subprocesses; their files go to ``workdir``.

    ``trials`` overrides the scenario's trial count, to run a workload at a
    tiny size in the benchmark's own tests.
    """

    def __init__(self, workload: str, workdir: Path, trials=None):
        if not (ROOT / "src" / "risharvest" / "__init__.py").is_file():
            raise BenchError(f"no package source under {ROOT / 'src'}")
        self.workload = workload
        self.scenario = SCENARIOS / f"{workload}.cfg"
        self.reference = REFERENCES / f"{workload}.csv"
        self.workdir = workdir
        self.trials = trials
        reference_trials = REFERENCE_TRIALS[workload]
        self.trials_ratio = reference_trials / (trials or reference_trials)
        self._count = 0

    def _paths(self, kind: str) -> tuple[Path, Path]:
        self._count += 1
        stem = self.workdir / f"{kind}-{self._count}"
        return stem.with_suffix(".log"), stem.with_suffix(".csv")

    def _cli_args(self, seed: int, out: Path) -> list[str]:
        args = ["sweep", "--config", str(self.scenario), *WORKLOADS[self.workload]]
        args += ["--seed", str(seed), "--out", str(out)]
        if self.trials is not None:
            args += ["--trials", str(self.trials)]
        return args

    def setup(self) -> tuple[float, str]:
        """Wall time to start Python, import the package and load the scenario.

        Also returns what the probe printed: the trial and unit-cell counts.
        """
        log, _ = self._paths("setup")
        code = (
            f"import sys; from {ENTRY_MODULE} import load_config; "
            "c = load_config(sys.argv[1]); "
            "print(getattr(c, 'mc_trials', '?'), getattr(c, 'm_s', '?'))"
        )
        status, wall_s, _ = spawn([sys.executable, "-c", code, str(self.scenario)], log)
        if status != 0:
            raise BenchError(f"set-up probe failed: {_tail(log)}")
        return wall_s, log.read_text().strip()

    def yardstick(self) -> float:
        """Wall time of YARDSTICK in a subprocess."""
        log, _ = self._paths("yardstick")
        status, wall_s, _ = spawn([sys.executable, "-c", YARDSTICK], log)
        if status != 0:
            raise BenchError(f"yardstick failed: {_tail(log)}")
        return wall_s

    def sweep(self, seed: int) -> Sample:
        """One untraced CLI sweep, judged."""
        log, out = self._paths("sweep")
        code = f"import sys; from {ENTRY_MODULE} import {ENTRY_FUNCTION}; sys.exit({ENTRY_FUNCTION}())"
        cmd = [sys.executable, "-c", code, *self._cli_args(seed, out)]
        return self.judge(Sample(*spawn(cmd, log), out, log))

    def traced_sweep(self, seed: int) -> Sample:
        """One CLI sweep run under tracer.py, judged, with its spans attached."""
        log, out = self._paths("traced")
        spans = out.with_suffix(".json")
        cmd = [
            sys.executable,
            str(HERE / "tracer.py"),
            str(spans),
            f"{ENTRY_MODULE}:{ENTRY_FUNCTION}",
            *self._cli_args(seed, out),
        ]
        sample = self.judge(Sample(*spawn(cmd, log), out, log))
        if sample.exit_code == 0:
            sample.trace = json.loads(spans.read_text())
            sample.trace["csv_bytes"] = out.stat().st_size
        return sample

    def judge(self, sample: Sample) -> Sample:
        """Record why the sweep failed: a non-zero exit or a CSV failing the check."""
        if sample.exit_code != 0:
            sample.problems = [f"exit code {sample.exit_code}: {_tail(sample.log)}"]
        else:
            sample.problems = check_csv(sample.out, self.reference, self.trials_ratio)
        return sample


def sweep_seeds(workload: str, seed: int):
    """The CLI seeds of one run: the same benchmark seed gives the same ones."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(2**32)


def scaled_median(times, yardsticks) -> float:
    """Median of each time over its iteration's yardstick, in reference seconds."""
    ratios = [t / y for t, y in zip(times, yardsticks, strict=True)]
    return statistics.median(ratios) * YARDSTICK_REFERENCE_S


def end_to_end(sweeps: list, setups: list, yardsticks: list) -> dict:
    return {
        "sweep_s": scaled_median([s.wall_s for s in sweeps], yardsticks),
        "setup_s": scaled_median(setups, yardsticks),
        "peak_rss_mb": statistics.median(s.rss_mb for s in sweeps),
        "pass_ratio": sum(s.ok for s in sweeps) / len(sweeps),
    }


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced sweep; ones it cannot compute are left out."""
    spans = trace["spans"]
    busy = defaultdict(float)
    calls = Counter()
    for span in spans:
        busy[span["name"]] += span["end"] - span["start"]
        calls[span["name"]] += 1

    def observed(names, key):
        # Sum of a value the tracer attached to every span of these names.
        values = [s.get(key) for s in spans if s["name"] in names]
        return None if None in values else sum(values)

    def ratio(part, whole):
        return None if part is None or not whole else part / whole

    solves = calls[SOLVERS[0]] + calls[SOLVERS[1]]
    # Spans run one after another, so the part of the CLI call its direct
    # children cover is the sum of their lengths.
    root = next(i for i, s in enumerate(spans) if s["name"] == "main")
    children_s = sum(s["end"] - s["start"] for s in spans if s["parent"] == root)
    metrics = {
        "scenario.load_s": busy["load_config"],
        "process.import_s": trace["import_s"],
        "channel.draw_s": busy["draw_trials"],
        "channel.draw_values": observed(("draw_trials",), "values"),
        "channel.draw_bytes": observed(("draw_trials",), "bytes"),
        "harvesting.harvest_calls": calls["harvest"],
        "harvesting.harvest_s": busy["harvest"],
        "harvesting.harvest_us_per_call": ratio(1e6 * busy["harvest"], calls["harvest"]),
        "optimizer.solves": solves,
        "optimizer.solve_ts_s": busy[SOLVERS[0]],
        "optimizer.solve_uc_s": busy[SOLVERS[1]],
        "optimizer.estimate_s": busy["estimate_averages"],
        "optimizer.probes_per_solve": ratio(calls["harvest"], solves),
        "optimizer.feasible_share": ratio(observed(SOLVERS, "feasible"), solves),
        "sweep.self_s": spans[root]["end"] - spans[root]["start"] - children_s,
        "sweep.csv_bytes": trace["csv_bytes"],
        "sweep.read_rows_s": trace.get("read_rows_s"),
        "sweep.summarize_s": trace.get("summarize_s"),
        "trace.overhead_s": trace["overhead_s"],
    }
    missing = set(trace["missing"])
    return {
        name: value
        for name, value in metrics.items()
        if value is not None and not missing.intersection(LAYER_SOURCES.get(name, ()))
    }


def median_metrics(per_sweep: list) -> dict:
    """Median of each per-layer metric that every traced sweep reports."""
    names = [n for n in LAYER_UNITS if per_sweep and all(n in m for m in per_sweep)]
    return {n: statistics.median(m[n] for m in per_sweep) for n in names}


def result(values: dict, units: dict, attempted: list) -> dict:
    """The object printed last; every attempted sweep that failed is counted."""
    failed = sum(not s.ok for s in attempted)
    return {
        "correct": failed == 0,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def provenance(workload: str, seed: int, setup_output: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = git.stdout.strip() or None
    src = b"".join(
        path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes()
        for path in sorted((ROOT / "src").rglob("*.py"))
    )
    grid = " ".join(WORKLOADS[workload])
    trials, unit_cells = (setup_output.split() + ["?", "?"])[:2]
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "src_sha256": _sha256(src),
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "scenario_sha256": _sha256((SCENARIOS / f"{workload}.cfg").read_bytes()),
        "reference_sha256": _sha256((REFERENCES / f"{workload}.csv").read_bytes()),
        "grid_args": grid,
        "grid_sha256": _sha256(grid.encode()),
        "mc_trials": trials,
        "unit_cells": unit_cells,
    }


def describe(values) -> str:
    """Sample count, quartiles and the highest percentile with ten samples beyond it."""
    values = sorted(values)
    text = f"n={len(values)} min={values[0]:.4g} max={values[-1]:.4g}"
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
        text += f" p25={q1:.4g} median={q2:.4g} p75={q3:.4g}"
    for pct in (99, 90, 75):
        if len(values) * (100 - pct) >= 1000:
            text += f" p{pct}={statistics.quantiles(values, n=100)[pct - 1]:.4g}"
            break
    return text


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Measure one workload and print its metrics; returns the result object."""
    runner = Runner(workload, workdir)
    _, setup_output = runner.setup()  # warm-up: byte-code and page caches
    seeds = sweep_seeds(workload, seed)
    deadline = time.perf_counter() + seconds
    sweeps, setups, yardsticks = [], [], []
    while len(sweeps) < MIN_SWEEPS or time.perf_counter() < deadline:
        cli_seed = next(seeds)
        if trace:
            sweeps.append(runner.traced_sweep(cli_seed))
        else:
            yardsticks.append(runner.yardstick())
            setups.append(runner.setup()[0])
            sweeps.append(runner.sweep(cli_seed))

    for sample in [s for s in sweeps if not s.ok][:3]:
        print(f"FAILED sweep: {'; '.join(sample.problems[:5])}", file=sys.stderr)
    print(f"workload {workload}, seed {seed}, trace {int(trace)}: {len(sweeps)} sweeps")
    print(f"  {'traced ' if trace else ''}sweep wall s: {describe([s.wall_s for s in sweeps])}")
    if trace:
        units = LAYER_UNITS
        values = median_metrics([layer_metrics(s.trace) for s in sweeps if s.ok])
        gone = [name for name in LAYER_UNITS if name not in values]
        if gone:
            print(f"  missing per-layer metrics: {', '.join(gone)}")
    else:
        print(f"  set-up wall s: {describe(setups)}")
        print(f"  yardstick wall s: {describe(yardsticks)}")
        units = END_TO_END_UNITS
        values = end_to_end(sweeps, setups, yardsticks)
    for name, value in values.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    print(json.dumps(provenance(workload, seed, setup_output), sort_keys=True))
    return result(values, units, sweeps)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Raise on SIGTERM, so that the running subprocess is killed and waited
    # for and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK) as workdir:
            outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), Path(workdir))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Answer a configuration over static-power budgets, and the sweep CLI that writes it as CSV.

Importing this module loads no numpy, so the CLI's argument handling, a
configuration it rejects and ``summarize`` run without it. numpy loads
when a command computes: ``SweepSpec.grid()`` imports it, and ``answer``
looks up the draw (``channel.draw_trials``) and the solvers
(``optimizer.optimize_*``) on this module, which imports their modules on
first use.
"""

import argparse
import csv
import importlib
import math
import numbers
import sys
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import Optional

from .power import FEASIBLE, INFEASIBLE, PROTOCOLS, TIME_SPLITTING, UC_SPLITTING, dynamic_power
from .scenario import (
    ConfigError,
    ConfigValidationError,
    ScenarioConfig,
    is_finite_number,
    load_config,
)

# The computing names this module gives, by their home module. Each is
# imported on its first look-up here (PEP 562) and then kept in the module's
# globals; ``answer`` calls them through the module, so that a wrapper set
# on it (perfbench/tracer.py) sees each call.
_LAZY_NAMES = {
    "draw_trials": "channel",
    "optimize_time_splitting": "optimizer",
    "optimize_uc_splitting": "optimizer",
}


def __getattr__(name):
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY_NAMES[name]}", __package__), name)
    globals()[name] = value
    return value


def _finite_nonnegative(value) -> bool:
    return math.isfinite(value) and value >= 0.0


# Per CSV column, in order: the parser of a cell and the rule its value must
# meet. An empty ratio cell is None, and it must be empty iff p_static_w is 0.
_CELLS = {
    "p_static_w": (float, _finite_nonnegative),
    "protocol": (str, PROTOCOLS.__contains__),
    "status": (str, (FEASIBLE, INFEASIBLE).__contains__),
    "optimal_allocation": (int, lambda value: value >= 0),
    "avg_rate_bps": (float, _finite_nonnegative),
    "rate_ci_bps": (float, _finite_nonnegative),
    "p_dyn_w": (float, _finite_nonnegative),
    "dyn_over_static": (lambda cell: float(cell) if cell else None,
                        lambda value: value is None or _finite_nonnegative(value)),
}
CSV_HEADER = list(_CELLS)

LINEAR = "linear"
LOG = "log"
SCALES = (LINEAR, LOG)

DEFAULT_SWEEP_START = 1e-7   # W, brackets the feasibility edge of low-power ASICs
DEFAULT_SWEEP_STOP = 1e-3    # W
DEFAULT_SWEEP_POINTS = 25


class SweepCsvError(ValueError):
    """Malformed or empty sweep CSV."""


@dataclass(frozen=True)
class SweepSpec:
    """Static-power grid: [start, stop] W with `points` samples."""

    start: float = DEFAULT_SWEEP_START
    stop: float = DEFAULT_SWEEP_STOP
    points: int = DEFAULT_SWEEP_POINTS
    scale: str = LOG

    def __post_init__(self):
        if self.scale not in SCALES:
            raise ValueError(f"scale must be one of {SCALES}, got {self.scale!r}")
        for name in ("start", "stop"):
            value = getattr(self, name)
            if not is_finite_number(value):
                raise ValueError(f"sweep {name} must be a finite number, got {value!r}")
        if self.start < 0.0:
            raise ValueError(f"sweep start must be >= 0 W, got {self.start}")
        if not isinstance(self.points, numbers.Integral) or isinstance(self.points, bool):
            raise ValueError(f"sweep points must be an integer, got {self.points!r}")
        if not self.start < self.stop:
            raise ValueError(f"sweep start ({self.start}) must be below stop ({self.stop})")
        if self.points < 2:
            raise ValueError(f"sweep needs at least 2 points, got {self.points}")
        if self.scale == LOG and self.start <= 0.0:
            raise ValueError("log-scale sweeps need a positive start value")

    def grid(self) -> "numpy.ndarray":
        import numpy as np

        if self.scale == LINEAR:
            return np.linspace(self.start, self.stop, self.points)
        return np.logspace(math.log10(self.start), math.log10(self.stop), self.points)


@dataclass(frozen=True)
class SweepRow:
    p_static: float
    protocol: str
    status: str
    optimal_allocation: int
    average_rate: float
    rate_ci: float
    p_dynamic: float
    dyn_over_static: Optional[float]  # None (empty cell) at p_static = 0

    def to_record(self) -> list[str]:
        # str of a float is its shortest round-trip repr; None is an empty cell.
        values = _ROW_VALUES(self)
        return ["" if value is None else str(value) for value in values]

    @classmethod
    def from_record(cls, record: list[str]) -> "SweepRow":
        if len(record) != len(CSV_HEADER):
            raise SweepCsvError(f"expected {len(CSV_HEADER)} columns, got {len(record)}")
        row = cls(*(_parse_cell(column, text) for column, text in zip(CSV_HEADER, record)))
        if (row.dyn_over_static is None) != (row.p_static == 0.0):
            raise SweepCsvError("column dyn_over_static: must be empty exactly when "
                                f"p_static_w is 0, got {record[-1]!r}")
        return row


# A SweepRow's field values in CSV column order, from field names read once, not per row.
_ROW_VALUES = attrgetter(*(f.name for f in fields(SweepRow)))


def _parse_cell(column: str, text: str):
    parse, valid = _CELLS[column]
    try:
        value = parse(text)
    except ValueError:
        raise SweepCsvError(f"column {column}: malformed value {text!r}") from None
    if not valid(value):
        raise SweepCsvError(f"column {column}: invalid value {text!r}")
    return value


def answer(cfg: ScenarioConfig, p_statics) -> list[SweepRow]:
    """Answer ``cfg`` at every static power budget of ``p_statics`` (W).

    Returns one row per (budget, protocol), sorted by budget then protocol:
    the rate-maximizing allocation, whether its harvest covers consumption,
    its Monte-Carlo rate and CI, and the dynamic power. The allocations
    depend on the harvests alone, so every (budget, protocol) is solved
    once before any channel draw. One draw of ``cfg.mc_trials`` trials,
    seeded by ``cfg.rng_seed``, then keeps only the sums over the n UCs
    those solves leave reflecting (``optimizer.reflecting_ucs``), and the
    rate of each distinct (protocol, allocation) is estimated once on it,
    in one ``optimizer.estimate_averages`` call per protocol. Sharing the
    draws across budgets keeps rate curves free of re-sampling noise. A
    kept sum depends on ``rng_seed``, its trial and the kept sums below it.

    Raises ValueError when ``p_statics`` is empty or holds a budget that is
    not a finite number >= 0, and ConfigValidationError when ``e_rec`` makes
    ``dyn_over_static`` overflow at the smallest positive budget; all before
    the draw.
    """
    from . import optimizer

    sweep = sys.modules[__name__]  # the computing names, looked up on the module
    grid = [float(p) for p in p_statics]
    if not grid:
        raise ValueError("p_statics is empty: there is no budget to answer")
    p_dyn = {protocol: dynamic_power(protocol, cfg) for protocol in PROTOCOLS}
    # p_dyn / p_static is largest for the larger p_dyn at the smallest positive
    # p_static; with no positive p_static there is no ratio to overflow.
    p_worst, p_low = max(p_dyn.values()), min((p for p in grid if p > 0.0), default=math.inf)
    if not math.isfinite(p_worst / p_low):
        raise ConfigValidationError(
            f"e_rec = {cfg.e_rec!r} J gives a dynamic power of {p_worst!r} W, whose ratio to "
            f"p_static = {p_low!r} W overflows dyn_over_static"
        )
    solves = [
        (p_static, solve(p_static, cfg))
        for p_static in grid
        for solve in (sweep.optimize_time_splitting, sweep.optimize_uc_splitting)
    ]
    allocations = {protocol: {} for protocol in PROTOCOLS}  # dicts, as ordered sets
    for _, result in solves:
        allocations[result.protocol][result.optimal_allocation] = None
    columns = (optimizer.reflecting_ucs(r.protocol, r.optimal_allocation, cfg) for _, r in solves)
    trial_set = sweep.draw_trials(cfg, columns=columns)
    rates = {}
    for protocol, values in allocations.items():
        # Through the module, so that a wrapper set there (perfbench/tracer.py) sees each call.
        estimates = optimizer.estimate_averages(protocol, values, trial_set)
        rates[protocol] = dict(zip(values, estimates))
    rows = []
    for p_static, result in solves:
        rate, ci = rates[result.protocol][result.optimal_allocation]
        rows.append(
            SweepRow(
                p_static=p_static,
                protocol=result.protocol,
                status=result.status,
                optimal_allocation=result.optimal_allocation,
                average_rate=rate,
                rate_ci=ci,
                p_dynamic=p_dyn[result.protocol],
                dyn_over_static=p_dyn[result.protocol] / p_static if p_static > 0.0 else None,
            )
        )
    return sorted(rows, key=lambda r: (r.p_static, r.protocol))


def run_sweep(
    config_path,
    spec: SweepSpec,
    output_path,
    seed: Optional[int] = None,
    trials: Optional[int] = None,
) -> int:
    """Write the CSV of ``answer`` over ``spec``'s grid.

    The configuration is read from ``config_path`` (the defaults when it is
    None); ``seed`` and ``trials`` override its ``rng_seed`` and
    ``mc_trials``.
    """
    cfg = load_config(config_path) if config_path is not None else ScenarioConfig()
    if seed is not None:
        cfg = replace(cfg, rng_seed=seed)
    if trials is not None:
        cfg = replace(cfg, mc_trials=trials)
    rows = answer(cfg, spec.grid())
    with open(output_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        writer.writerows(row.to_record() for row in rows)
    return 0


def read_rows(csv_path) -> list[SweepRow]:
    """Parse a sweep CSV back into rows.

    Raises SweepCsvError naming the file: with the line and the column of a
    malformed cell or of a value no sweep writes, with the line of a record
    the csv module rejects (such as a field over its size limit), and alone
    for text that does not decode."""
    path = Path(csv_path)
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise SweepCsvError(f"{path}: empty file")
            if header != CSV_HEADER:
                raise SweepCsvError(f"{path}: unexpected header {header!r}")
            rows = []
            for record in reader:
                try:
                    rows.append(SweepRow.from_record(record))
                except SweepCsvError as exc:
                    raise SweepCsvError(f"{path}, line {reader.line_num}: {exc}") from None
        except csv.Error as exc:
            raise SweepCsvError(f"{path}, line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise SweepCsvError(f"{path}: {exc}") from None
    if not rows:
        raise SweepCsvError(f"{path}: no data rows")
    return rows


def summarize(csv_path) -> str:
    """Per-protocol feasibility thresholds, best rates, and the rate gap.

    A protocol still feasible at the largest p_static of the CSV is marked
    as such: its feasibility edge lies beyond the grid, not at its end.
    """
    rows = read_rows(csv_path)
    lines = []
    feasible = {p: [r for r in rows if r.protocol == p and r.status == FEASIBLE] for p in PROTOCOLS}
    grid_end = max(r.p_static for r in rows)
    for protocol in PROTOCOLS:
        if not feasible[protocol]:
            lines.append(f"{protocol}: no feasible operating point")
            continue
        threshold = max(r.p_static for r in feasible[protocol])
        best = max(r.average_rate for r in feasible[protocol])
        beyond = (" (the last grid point; the feasibility edge lies beyond the grid)"
                  if threshold == grid_end else "")
        lines.append(
            f"{protocol}: feasible up to p_static = {threshold:.3e} W{beyond}, "
            f"max avg rate = {best:.4e} bit/s"
        )
    if not any(feasible.values()):
        lines.append("no feasible operating point for any protocol")
        return "\n".join(lines) + "\n"
    ts, uc = ({r.p_static: r for r in feasible[p]} for p in (TIME_SPLITTING, UC_SPLITTING))
    common = sorted(set(ts) & set(uc))
    lines.append(f"points feasible under both protocols: {len(common)}")
    for p_static in common:
        gap = uc[p_static].average_rate - ts[p_static].average_rate
        lines.append(f"  p_static = {p_static:.3e} W: uc - time rate gap = {gap:+.4e} bit/s")
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risharvest",
        description=(
            "Sweep the ASIC static power budget of a self-powered RIS, solving the "
            "rate-maximizing harvest allocation for the time-splitting and "
            "UC-splitting protocols at every grid point."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run the static-power sweep and write a CSV")
    sweep.add_argument("--config", type=Path, default=None,
                       help="scenario file keyed by ScenarioConfig field names (defaults used if omitted)")
    sweep.add_argument("--sweep-start", type=float, default=DEFAULT_SWEEP_START, help="grid start in W")
    sweep.add_argument("--sweep-stop", type=float, default=DEFAULT_SWEEP_STOP, help="grid stop in W")
    sweep.add_argument("--points", type=int, default=DEFAULT_SWEEP_POINTS, help="number of grid points")
    sweep.add_argument("--scale", choices=SCALES, default=LOG, help="grid spacing")
    sweep.add_argument("--out", type=Path, required=True, help="output CSV path")
    sweep.add_argument("--seed", type=int, default=None, help="override the scenario rng_seed")
    sweep.add_argument("--trials", type=int, default=None, help="override the scenario mc_trials")

    summ = sub.add_parser("summarize", help="report thresholds and rate gaps from a sweep CSV")
    summ.add_argument("csv", type=Path, help="CSV produced by the sweep command")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            spec = SweepSpec(
                start=args.sweep_start,
                stop=args.sweep_stop,
                points=args.points,
                scale=args.scale,
            )
            return run_sweep(
                args.config, spec, args.out, seed=args.seed, trials=args.trials
            )
        report = summarize(args.csv)
        sys.stdout.write(report)
        return 0
    except (ConfigError, SweepCsvError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Answer a configuration over static-power budgets, and the sweep CLI that writes it as CSV.

This module is the package's one account of when numpy, ``argparse``,
``csv``, ``dataclasses`` and ``inspect`` load, of the garbage-collector
freeze and of the size of numpy's BLAS thread pool.

numpy loads only where the package computes. ``scenario``, ``power`` and
this module import no numpy, so loading, validating and writing a
configuration, the CLI's argument handling, a configuration it rejects,
reading a sweep CSV and ``summarize`` run without it. Importing
``channel``, ``harvesting`` or ``optimizer`` loads it, and so do
``SweepSpec.grid()`` and ``answer``, which looks up the draw
(``channel.draw_trials``) and the solvers (``optimizer.optimize_*``) on
this module, which imports their modules on first use.

Likewise, the standard library's ``argparse`` (with the ``gettext`` it
imports) loads only in ``main``, which parses a command line, and ``csv``
only in ``run_sweep``, which writes a sweep CSV, and ``read_rows``, which
reads one, ``summarize`` among its callers. Importing the package or this
module and the configuration I/O load neither.

No command loads ``dataclasses``, and only a sweep loads the ``inspect``
it imports. The package's records (``ScenarioConfig``, ``SweepSpec``, the
draw's ``TrialChannels`` and the result rows) are ``typing.NamedTuple``
classes, so importing the package or this module, the configuration I/O,
``summarize`` and ``--help`` load neither module; a sweep loads
``inspect`` only because numpy imports it.

``run_sweep``, the CLI's sweep, is the one place that touches the garbage
collector: once its configuration is valid, and only while nothing in the
process is frozen (``gc.get_freeze_count() == 0``), it imports the
computing modules, numpy with them, with the collector paused, and then
freezes (``gc.freeze``) what they leave, so that neither the sweep's
collections nor the interpreter's exit walk numpy's objects again. The
freeze is safe because the collections that import would have run find
almost no garbage: a few hundred of the some 21,000 objects a sweep
tracks, which the frozen heap then keeps for the life of the process. The
collector is turned back on only if it was on before, also when the import
raises. A process that sweeps again, or whose caller froze its own heap,
freezes nothing more, so it does not pin each later sweep's garbage; a
caller that wants the frozen objects collected again calls
``gc.unfreeze()``. Importing a module and ``answer`` leave the collector
as they find it.

The same import, and only it, also starts numpy's BLAS with one thread.
numpy's bundled OpenBLAS starts a worker thread per further CPU when it
loads, and that worker spins for work the sweep never gives it: the
package's one BLAS call is the 1-D dot of a few thousand entries in
``channel._tail_table``. So while the computing modules load,
``run_sweep`` sets ``OPENBLAS_NUM_THREADS=1`` if the caller has set none
of the three variables OpenBLAS reads (``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS``, ``OMP_NUM_THREADS``), and removes it again after
the import, also when the import raises. OpenBLAS reads it only as it
loads, so the pool keeps its one thread, while the environment, and with
it every child process, is left as the caller had it. The scope is the
freeze's: a process whose first numpy import is ``run_sweep``'s. A
caller that wants a threaded BLAS imports numpy before it sweeps or sets
one of the three variables. Importing the package or this module, a
configuration ``run_sweep`` rejects and ``answer`` set no variable.
"""

import gc
import importlib
import math
import numbers
import os
import sys
from pathlib import Path
from typing import NamedTuple, Optional

from .power import FEASIBLE, INFEASIBLE, PROTOCOLS, TIME_SPLITTING, UC_SPLITTING, dynamic_power
from .scenario import (
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

# The variables OpenBLAS reads for its thread count as it loads; a caller
# that sets any of them keeps its own choice (see the module docstring).
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class SweepCsvError(ValueError):
    """Malformed or empty sweep CSV."""


class _SweepGrid(NamedTuple):
    """The fields of ``SweepSpec``, with their defaults."""

    start: float = DEFAULT_SWEEP_START
    stop: float = DEFAULT_SWEEP_STOP
    points: int = DEFAULT_SWEEP_POINTS
    scale: str = LOG


class SweepSpec(_SweepGrid):
    """Static-power grid: [start, stop] W with `points` samples.

    A tuple of its fields, validated on every construction path, as a
    ``ScenarioConfig`` is.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, checks the length
        # alone; the class call checks the values
        return cls(*super()._make(iterable))

    def grid(self) -> "numpy.ndarray":
        import numpy as np

        if self.scale == LINEAR:
            return np.linspace(self.start, self.stop, self.points)
        return np.logspace(math.log10(self.start), math.log10(self.stop), self.points)


class SweepRow(NamedTuple):
    """One CSV record: its fields are the columns of ``CSV_HEADER``, in order.

    The csv module writes a float as its shortest round-trip repr and None
    as an empty cell.
    """

    p_static: float
    protocol: str
    status: str
    optimal_allocation: int
    average_rate: float
    rate_ci: float
    p_dynamic: float
    dyn_over_static: Optional[float]  # None (empty cell) at p_static = 0

    @classmethod
    def from_record(cls, record: list[str]) -> "SweepRow":
        if len(record) != len(CSV_HEADER):
            raise SweepCsvError(f"expected {len(CSV_HEADER)} columns, got {len(record)}")
        row = cls(*(_parse_cell(column, text) for column, text in zip(CSV_HEADER, record)))
        if (row.dyn_over_static is None) != (row.p_static == 0.0):
            raise SweepCsvError("column dyn_over_static: must be empty exactly when "
                                f"p_static_w is 0, got {record[-1]!r}")
        return row


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
    its Monte-Carlo rate and CI, and the dynamic power. A straight pipeline:
    each budget goes unchanged to each protocol's solve (``optimize_*``),
    which reads the harvest alone, so the whole grid is solved before any
    channel draw. One draw (``draw_trials``) of ``cfg.mc_trials`` trials,
    seeded by ``cfg.rng_seed``, then keeps the sums over the n UCs each
    solve leaves reflecting (``optimizer.reflecting_ucs``), and one
    ``optimizer.estimate_averages`` call per protocol takes that protocol's
    allocations in grid order, duplicates included, and returns their rates
    in that order. Each row is its budget, its solve and its estimate.
    Sharing the draws across budgets keeps rate curves free of re-sampling
    noise; a kept sum depends on ``rng_seed``, its trial and the kept sums
    below it.

    Raises ValueError when ``p_statics`` is empty or holds a budget that is
    not a finite real number >= 0, by the solve's own check: a bool, a str
    or a bytes budget is rejected, though ``float`` would take it. Raises
    ConfigValidationError when ``e_rec`` makes ``dyn_over_static`` overflow
    at the smallest positive budget. All of these come before the draw.
    """
    from . import optimizer

    sweep = sys.modules[__name__]  # the computing names, looked up on the module
    grid = list(p_statics)
    if not grid:
        raise ValueError("p_statics is empty: there is no budget to answer")
    solves = {TIME_SPLITTING: [sweep.optimize_time_splitting(p, cfg) for p in grid],
              UC_SPLITTING: [sweep.optimize_uc_splitting(p, cfg) for p in grid]}
    grid = [float(p) for p in grid]  # each budget has passed the solve's check
    p_dyn = {protocol: dynamic_power(protocol, cfg) for protocol in PROTOCOLS}
    # p_dyn / p_static is largest for the larger p_dyn at the smallest positive
    # p_static; with no positive p_static there is no ratio to overflow.
    p_worst, p_low = max(p_dyn.values()), min((p for p in grid if p > 0.0), default=math.inf)
    if not math.isfinite(p_worst / p_low):
        raise ConfigValidationError(
            f"e_rec = {cfg.e_rec!r} J gives a dynamic power of {p_worst!r} W, whose ratio to "
            f"p_static = {p_low!r} W overflows dyn_over_static"
        )
    columns = [optimizer.reflecting_ucs(r.protocol, r.optimal_allocation, cfg)
               for results in solves.values() for r in results]
    trial_set = sweep.draw_trials(cfg, columns=columns)
    rows = []
    for protocol, results in solves.items():
        # Through the module, so that a wrapper set there (perfbench/tracer.py) sees each call.
        rates = optimizer.estimate_averages(
            protocol, [r.optimal_allocation for r in results], trial_set)
        for p_static, result, (rate, ci) in zip(grid, results, rates):
            rows.append(
                SweepRow(
                    p_static=p_static,
                    protocol=protocol,
                    status=result.status,
                    optimal_allocation=result.optimal_allocation,
                    average_rate=rate,
                    rate_ci=ci,
                    p_dynamic=p_dyn[protocol],
                    dyn_over_static=p_dyn[protocol] / p_static if p_static > 0.0 else None,
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
    ``mc_trials`` in one ``_replace``, which validates the result. A
    configuration that fails validation is rejected before numpy loads.
    The first sweep in a process then imports the computing modules with
    the collector paused and numpy's BLAS held to one thread, and freezes
    what they leave, as the module docstring explains.
    """
    cfg = load_config(config_path) if config_path is not None else ScenarioConfig()
    overrides = {"rng_seed": seed, "mc_trials": trials}
    cfg = cfg._replace(**{name: value for name, value in overrides.items() if value is not None})
    if gc.get_freeze_count() == 0:
        enabled = gc.isenabled()
        gc.disable()
        one_blas_thread = not any(name in os.environ for name in _BLAS_THREAD_VARIABLES)
        if one_blas_thread:
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            from . import optimizer  # noqa: F401 (imports numpy, channel and harvesting)
        finally:
            if one_blas_thread:
                del os.environ["OPENBLAS_NUM_THREADS"]
            gc.freeze()
            if enabled:
                gc.enable()
    rows = answer(cfg, spec.grid())
    import csv

    with open(output_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    return 0


def read_rows(csv_path) -> list[SweepRow]:
    """Parse a sweep CSV back into rows.

    Raises SweepCsvError naming the file: with the line and the column of a
    malformed cell or of a value no sweep writes, with the line of a record
    the csv module rejects (such as a field over its size limit), and alone
    for text that does not decode."""
    import csv

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


def _build_parser() -> "argparse.ArgumentParser":
    import argparse

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
    except (ValueError, OSError) as exc:  # ConfigError and SweepCsvError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

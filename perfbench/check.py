"""Correctness check of one sweep CSV against the workload's reference CSV.

The CSV is parsed by column name with the standard ``csv`` module, so the
check neither depends on the package's own reader (a timed layer) nor on
the column order, and it ignores columns it does not know.

Harvest is deterministic, so the grid, the status, the allocation and the
dynamic-power columns do not depend on the channel draws: they must equal
the reference exactly. The average rate is a Monte-Carlo estimate. Its
expected 95% half-width is the reference row's, scaled by the square root
of reference trials over run trials; the CSV's own ``rate_ci_bps`` must lie
within CI_FACTOR of it. The rate must be finite and agree with the
reference within a band built from the two rows' expected half-widths,
never from the CSV's own, wide enough that a correct sweep fails it with
probability below FAMILY_ALPHA over all rows together. Rows of one CSV
share their draws, so along the grid the allocation cannot fall, the rate
cannot rise, and the status flips from feasible to infeasible at most once.
"""

import csv
import math
from statistics import NormalDist

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

# Columns compared exactly, with the parser that gives their value.
EXACT_COLUMNS = {
    "p_static_w": float,
    "protocol": str,
    "status": str,
    "optimal_allocation": int,
    "p_dyn_w": float,
    "dyn_over_static": lambda text: None if text == "" else float(text),
}
RATE = "avg_rate_bps"
RATE_CI = "rate_ci_bps"
REQUIRED_COLUMNS = (*EXACT_COLUMNS, RATE, RATE_CI)

CI_Z = 1.96            # the CSV's half-width is 1.96 standard errors
FAMILY_ALPHA = 1e-6    # chance that a correct CSV fails the rate band
CI_FACTOR = 2.0        # the CSV's half-width may be this far off the expected one
RATE_ABS_TOL = 1e-6    # bit/s, for rows whose rate and half-width are 0


def read_csv(path) -> list[dict]:
    """Rows of a CSV as dicts keyed by column name."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        missing = [c for c in REQUIRED_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        return list(reader)


def _parse(row: dict) -> dict:
    parsed = {name: parse(row[name]) for name, parse in EXACT_COLUMNS.items()}
    parsed[RATE] = float(row[RATE])
    parsed[RATE_CI] = float(row[RATE_CI])
    return parsed


def check_rows(rows: list[dict], reference: list[dict], trials_ratio: float = 1.0) -> list[str]:
    """Problems found in ``rows``; an empty list means the sweep is correct.

    ``trials_ratio`` is the reference's trial count over the sweep's.
    """
    if len(rows) != len(reference):
        return [f"{len(rows)} rows, reference has {len(reference)}"]
    try:
        got = [_parse(row) for row in rows]
    except (ValueError, TypeError) as exc:
        return [f"unparsable row: {exc}"]
    want = [_parse(row) for row in reference]
    z = NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2 * len(rows)))
    problems = []
    for line, (g, w) in enumerate(zip(got, want), start=2):
        for name in EXACT_COLUMNS:
            if g[name] != w[name]:
                problems.append(f"line {line}: {name} {g[name]!r} != reference {w[name]!r}")
        rate, ci = g[RATE], g[RATE_CI]
        if not (math.isfinite(rate) and math.isfinite(ci) and ci >= 0.0):
            problems.append(f"line {line}: rate {rate!r} or half-width {ci!r} not finite")
            continue
        expected_ci = w[RATE_CI] * math.sqrt(trials_ratio)
        low, high = expected_ci / CI_FACTOR, expected_ci * CI_FACTOR
        if not low - RATE_ABS_TOL <= ci <= high + RATE_ABS_TOL:
            problems.append(f"line {line}: half-width {ci!r} is not within {CI_FACTOR}x of {expected_ci:.6g}")
        band = z * math.hypot(expected_ci, w[RATE_CI]) / CI_Z + RATE_ABS_TOL
        if abs(rate - w[RATE]) > band:
            problems.append(
                f"line {line}: rate {rate!r} differs from reference {w[RATE]!r} by more than {band:.6g}"
            )
    problems.extend(_check_monotone(got))
    return problems


def _check_monotone(rows: list[dict]) -> list[str]:
    problems = []
    for protocol in sorted({r["protocol"] for r in rows}):
        curve = sorted((r for r in rows if r["protocol"] == protocol), key=lambda r: r["p_static_w"])
        statuses = [r["status"] for r in curve]
        if set(statuses) - {FEASIBLE, INFEASIBLE}:
            problems.append(f"{protocol}: unknown status in {sorted(set(statuses))}")
        flips = sum(a != b for a, b in zip(statuses, statuses[1:]))
        if flips > 1 or (flips == 1 and statuses[0] == INFEASIBLE):
            problems.append(f"{protocol}: status is not feasible-then-infeasible")
        for prev, cur in zip(curve, curve[1:]):
            if cur["optimal_allocation"] < prev["optimal_allocation"]:
                problems.append(f"{protocol}: allocation falls at p_static {cur['p_static_w']!r}")
            if cur[RATE] > prev[RATE]:
                problems.append(f"{protocol}: rate rises at p_static {cur['p_static_w']!r}")
    return problems


def check_csv(path, reference_path, trials_ratio: float = 1.0) -> list[str]:
    """Problems found in the CSV at ``path``; empty when it is correct."""
    try:
        rows = read_csv(path)
    except (OSError, ValueError, csv.Error) as exc:
        return [f"unreadable CSV: {exc}"]
    return check_rows(rows, read_csv(reference_path), trials_ratio)

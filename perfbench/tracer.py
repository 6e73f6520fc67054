"""Run the risharvest CLI in this process with spans around its layer calls.

Usage: python3 tracer.py SPANS_JSON MODULE:FUNCTION CLI_ARG...

Each traced function is replaced at the module attribute its caller looks
up, so the span covers the call as the caller makes it and the package is
not edited. Spans stay in memory and are written to SPANS_JSON as one JSON
document when the run ends. A traced name that a later version of the
package no longer has is listed under "missing" instead of failing the run.
After the CLI returns, the CSV it wrote is read back and summarized once
each, timed from here, and the tracer's own cost is estimated: the extra
time of a wrapped no-op call over a bare one, times the number of spans.
"""

import importlib
import json
import sys
import time

OVERHEAD_CALLS = 20_000  # no-op calls per timing of the tracer's cost
OVERHEAD_REPEATS = 5     # the fastest of these timings is kept

# (module, attribute) pairs: the names the sweep and the optimizer look up.
TRACED = (
    ("risharvest.sweep", "load_config"),
    ("risharvest.sweep", "draw_trials"),
    ("risharvest.sweep", "optimize_time_splitting"),
    ("risharvest.sweep", "optimize_uc_splitting"),
    ("risharvest.optimizer", "estimate_averages"),
    ("risharvest.optimizer", "harvest"),
)


def _draw_counts(args, kwargs, result) -> dict:
    cfg = args[0] if args else kwargs["cfg"]
    n_trials = args[2] if len(args) > 2 else kwargs.get("n_trials")
    counts = {"values": (n_trials or cfg.mc_trials) * cfg.m_s}
    prefix = getattr(result, "amp_prefix", None)
    if prefix is not None:
        counts["bytes"] = prefix.nbytes
    return counts


def _solve_outcome(args, kwargs, result) -> dict:
    return {"feasible": result.status == "feasible"}


OBSERVERS = {
    "draw_trials": _draw_counts,
    "optimize_time_splitting": _solve_outcome,
    "optimize_uc_splitting": _solve_outcome,
}


class Tracer:
    """Records one span per wrapped call: name, parent span, start, end."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, function, observe=None):
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if observe is not None:
                try:
                    span.update(observe(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # the call's signature changed; the counts go missing
            return result

        return traced


def _noop():
    return None


def _loop_s(function) -> float:
    """Fastest time of OVERHEAD_CALLS calls of ``function``."""
    best = float("inf")
    for _ in range(OVERHEAD_REPEATS):
        start = time.perf_counter()
        for _ in range(OVERHEAD_CALLS):
            function()
        best = min(best, time.perf_counter() - start)
    return best


def overhead_per_call_s() -> float:
    """Extra seconds a wrapped call takes over the bare call."""
    wrapped = Tracer().wrap("noop", _noop)
    return (_loop_s(wrapped) - _loop_s(_noop)) / OVERHEAD_CALLS


def main(argv) -> int:
    spans_path, entry, cli_args = argv[0], argv[1], argv[2:]
    module_name, _, function_name = entry.partition(":")
    start = time.perf_counter()
    entry_module = importlib.import_module(module_name)
    import_s = time.perf_counter() - start

    tracer = Tracer()
    missing = []
    for module_name, attribute in TRACED:
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            module = None
        if not hasattr(module, attribute):
            missing.append(attribute)
            continue
        wrapped = tracer.wrap(attribute, getattr(module, attribute), OBSERVERS.get(attribute))
        setattr(module, attribute, wrapped)

    sys.argv = ["risharvest", *cli_args]
    exit_code = tracer.wrap("main", getattr(entry_module, function_name))()

    report = {"import_s": import_s, "exit_code": exit_code, "missing": missing}
    csv_path = cli_args[cli_args.index("--out") + 1]
    for name in ("read_rows", "summarize"):
        function = getattr(entry_module, name, None)
        if function is None:
            continue
        start = time.perf_counter()
        function(csv_path)
        report[f"{name}_s"] = time.perf_counter() - start
    report["overhead_s"] = overhead_per_call_s() * len(tracer.spans)
    report["spans"] = tracer.spans
    with open(spans_path, "w") as handle:
        json.dump(report, handle)
    return 0 if exit_code in (0, None) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

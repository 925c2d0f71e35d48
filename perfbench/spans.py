"""In-memory spans around calls into netdea's public functions.

The benchmark wraps the functions named in ``TARGETS`` from the outside:
every reference to a target inside the ``netdea`` package is swapped for
a wrapper that records one span per call, so nothing under ``src/``
changes. A span is ``[name, start_ns, end_ns, parent, op, attrs]``; its
index in ``Recorder.spans`` is its id, ``parent`` is the id of the
enclosing span (or None) and ``op`` the operation it belongs to.

``layer_metrics`` turns the spans of a traced run into the per-layer
metrics and raises ``TraceError`` when a wrapped entry point recorded
nothing, so a refactor that bypasses one breaks the trace visibly.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

#: Span name -> (module, function) of each wrapped public entry point.
TARGETS = {
    "cli.main": ("netdea.cli", "main"),
    "dataset_io.parse": ("netdea.dataset_io", "parse_dataset"),
    "dataset_io.render": ("netdea.dataset_io", "render_report"),
    "models.full": ("netdea.models", "run_full_analysis"),
    "models.relational": ("netdea.models", "solve_relational_overall"),
    "models.priority": ("netdea.models", "solve_stage_priority"),
    "models.ccr": ("netdea.models", "solve_ccr"),
    "lp_core.solve": ("netdea.lp_core", "solve_lp"),
    "analysis.report": ("netdea.analysis", "build_report"),
}

#: A "<=" row counts as binding when its slack is at most this; it matches
#: the solver's default feasibility tolerance.
BINDING_SLACK = 1e-9


class TraceError(RuntimeError):
    """The trace is missing spans it must have."""


def _attrs(name, args, result):
    # Only cheap facts are taken here; LP analysis waits until the run ends.
    if name == "dataset_io.parse":
        return {"bytes": len(args[0].encode()), "n": result.n}
    if name == "dataset_io.render":
        return {"bytes": len(result.encode())}
    if name == "lp_core.solve":
        return {"lp": args[0], "solution": result}
    return None


class Recorder:
    """Collects spans while installed; ``op`` tags each new span."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, func):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else None, self.op, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            span[5] = _attrs(name, args, result)
            return result

        return traced

    def install(self):
        """Swap every reference to each target inside netdea for a wrapper."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "netdea" or key.startswith("netdea.")]
        for name, (module, attr) in TARGETS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def write(self, path):
        """Write the spans once, as JSON lines, without the LP objects."""
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                record = {"id": i, "name": name, "start_ns": start,
                          "end_ns": end, "parent": parent, "op": op}
                if attrs and name != "lp_core.solve":
                    record.update(attrs)
                out.write(json.dumps(record) + "\n")


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _bytes(spans):
    return sum(s[5]["bytes"] for s in spans if s[5])


def _binding(lp, solution):
    """(binding, total) "<=" rows of an optimal LP, from its public shape."""
    import numpy as np

    rows = np.array([s == "<=" for s in lp.constraint_senses])
    slack = lp.rhs[rows] - lp.constraint_matrix[rows] @ solution.variable_values
    return int(np.count_nonzero(slack <= BINDING_SLACK)), int(rows.sum())


def layer_metrics(spans, ok_ops, ops, through_cli):
    """Per-layer metrics of a traced run of ``ops`` operations.

    Times and work counts are means per operation; percentiles and shares
    are over all LPs of the run. ``ok_ops`` maps each operation that
    succeeded to its number of DMUs: each must show exactly three LPs per
    DMU. Raises TraceError when a wrapped layer recorded no span; ``cli.main``
    is required only when the operations go through the CLI.
    """
    by_name = {name: [] for name in TARGETS}
    for span in spans:
        by_name[span[0]].append(span)
    missing = sorted(name for name in TARGETS if not by_name[name]
                     and (through_cli or name != "cli.main"))
    if missing:
        raise TraceError(f"no spans recorded for {', '.join(missing)}; an entry "
                         f"point the benchmark wraps is no longer called")

    lps_per_op = {}
    for span in by_name["lp_core.solve"]:
        lps_per_op[span[4]] = lps_per_op.get(span[4], 0) + 1
    for op, n in ok_ops.items():
        if lps_per_op.get(op, 0) != 3 * n:
            raise TraceError(f"operation {op} scored {n} DMUs with "
                             f"{lps_per_op.get(op, 0)} LP spans, expected {3 * n}")

    def total_ms(name):
        return sum(s[2] - s[1] for s in by_name[name]) / 1e6

    lp_spans = [s for s in by_name["lp_core.solve"] if s[5]]
    pivots = [s[5]["solution"].iterations for s in lp_spans]
    rows = [s[5]["lp"].num_constraints for s in lp_spans]
    cols = [s[5]["lp"].num_variables for s in lp_spans]
    optimal = [s[5] for s in lp_spans if s[5]["solution"].status.name == "OPTIMAL"]
    binding = [_binding(a["lp"], a["solution"]) for a in optimal]
    solve_ms = total_ms("lp_core.solve")
    models_calls = sum(len(by_name[n]) for n in
                       ("models.full", "models.relational", "models.priority",
                        "models.ccr"))
    return {
        "dataset_io.parse_ms": total_ms("dataset_io.parse") / ops,
        "dataset_io.render_ms": total_ms("dataset_io.render") / ops,
        "dataset_io.bytes_in": _bytes(by_name["dataset_io.parse"]) / ops,
        "dataset_io.bytes_out": _bytes(by_name["dataset_io.render"]) / ops,
        "models.relational_ms": total_ms("models.relational") / ops,
        "models.priority_ms": total_ms("models.priority") / ops,
        "models.ccr_ms": total_ms("models.ccr") / ops,
        "models.calls": models_calls / ops,
        "models.self_ms": (total_ms("models.full") - solve_ms) / ops,
        "lp_core.solve_ms": solve_ms / ops,
        "lp_core.lps": len(lp_spans) / ops,
        "lp_core.pivots": sum(pivots) / ops,
        "lp_core.pivots_per_lp_p50": quantile(pivots, 50),
        "lp_core.pivots_per_lp_p90": quantile(pivots, 90),
        "lp_core.us_per_pivot": solve_ms * 1e3 / max(sum(pivots), 1),
        "lp_core.rows_mean": sum(rows) / len(rows),
        "lp_core.non_optimal": len(lp_spans) - len(optimal),
        # Computed, not counted: pivots times a tableau of (rows + 1) x
        # (columns + one slack or artificial per row + rhs).
        "lp_core.cells_updated": sum(k * (r + 1) * (c + r + 1) for k, r, c
                                     in zip(pivots, rows, cols)) / ops,
        "lp_core.binding_row_share": (sum(b for b, _ in binding)
                                      / max(sum(t for _, t in binding), 1)),
        "analysis.report_ms": total_ms("analysis.report") / ops,
    }

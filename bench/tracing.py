"""Span tracing for the traced benchmark run, from outside the program.

``Tracer.install`` replaces each traced ldpcdesign function with a wrapper
in every module namespace that binds it (``lp.simplex_solve``,
``desim.min_normalized_slack``, ``experiment.solve_sdp`` ...), so calls made
through a module's globals are caught as well as the benchmark's own.
Every span records its name, start, end, parent span and the workload
operation it belongs to; counts are read from the return values.
Functions a later version of the program no longer has are skipped and
their metrics read 0.
"""

from __future__ import annotations

import sys
from collections import defaultdict


def _certified(result) -> int:
    margin = result.margin
    return int(result.status == "optimal" and margin is not None and margin.feasible)


PACKAGE = "ldpcdesign"

# (defining module, function) -> counters read from its return value
TRACED = {
    ("lp", "solve_semi_infinite"): {
        "cuts": lambda r: r.cuts_added,
        "lp_solves": lambda r: r.solver_iterations,
        "certified": _certified,
    },
    ("lp", "simplex_solve"): {},
    ("lp", "build_discretized_lp"): {},
    ("polynomials", "constraint_basis"): {},
    ("certify", "min_normalized_slack"): {},
    ("certify", "feasibility_floor"): {},
    ("sos", "build_sos_problem"): {},
    ("sos", "solve_sdp"): {"ipm_iters": lambda r: r[0].iterations},
    ("desim", "threshold"): {},
    ("desim", "de_trace"): {"values": lambda r: len(r.values)},
    ("experiment", "run_sweep"): {},
    ("experiment", "emit_csv"): {},
    ("svgplot", "emit_svg_plot"): {},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.counts = None


class Tracer:
    """Collects spans in memory; ``layer_metrics`` reduces them at the end."""

    def __init__(self, clock):
        self.clock = clock  # seconds, net of the speed probe
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.op = -1

    def _wrap(self, name, fn, counters):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, parent, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if counters:
                span.counts = {k: get(result) for k, get in counters.items()}
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = {name[len(PACKAGE) + 1:]: mod for name, mod in sys.modules.items()
                   if name.startswith(PACKAGE + ".") and mod is not None}
        wrappers = {}
        for (mod_name, fn_name), counters in TRACED.items():
            fn = getattr(modules.get(mod_name), fn_name, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self._wrap(f"{mod_name}.{fn_name}", fn, counters))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def start_op(self, op: int):
        self.op = op

    def _totals(self):
        inclusive = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(int)
        for span in self.spans:
            duration = span.end - span.start
            inclusive[span.name] += duration
            calls[span.name] += 1
            if span.parent >= 0:
                child[self.spans[span.parent].name] += duration
            for key, value in (span.counts or {}).items():
                counts[f"{span.name}.{key}"] += value
        return inclusive, child, calls, counts

    def self_seconds(self) -> dict:
        """Self time of every traced layer, largest first."""
        inclusive, child, _, _ = self._totals()
        return dict(sorted(((name, inclusive[name] - child[name]) for name in inclusive),
                           key=lambda item: -item[1]))

    def layer_metrics(self, ops: int, factor: float = 1.0) -> dict:
        """Per-operation totals, self times and count ratios by layer; times
        are divided by the speed ``factor``."""
        inclusive, child, calls, counts = self._totals()

        def ms(name):
            return 1e3 * inclusive[name] / ops / factor

        def self_ms(name):
            return 1e3 * (inclusive[name] - child[name]) / ops / factor

        def ratio(num, den):
            return num / den if den else 0.0

        solves = calls["lp.solve_semi_infinite"]
        lp_solves = counts["lp.solve_semi_infinite.lp_solves"]
        ipm_iters = counts["sos.solve_sdp.ipm_iters"]
        return {
            "lp.simplex_solve.calls": (calls["lp.simplex_solve"] / ops, "count"),
            "lp.simplex_solve.ms": (ms("lp.simplex_solve"), "ms"),
            "lp.build_discretized_lp.ms": (ms("lp.build_discretized_lp"), "ms"),
            "lp.solve_semi_infinite.self_ms": (self_ms("lp.solve_semi_infinite"), "ms"),
            "lp.cuts_per_solve": (ratio(counts["lp.solve_semi_infinite.cuts"], solves), "count"),
            "lp.lp_solves_per_solve": (ratio(lp_solves, solves), "count"),
            "lp.certified_per_lp_solve": (
                ratio(counts["lp.solve_semi_infinite.certified"], lp_solves), "ratio"),
            "polynomials.constraint_basis.calls": (calls["polynomials.constraint_basis"] / ops,
                                                   "count"),
            "polynomials.constraint_basis.ms": (ms("polynomials.constraint_basis"), "ms"),
            "certify.min_normalized_slack.calls": (calls["certify.min_normalized_slack"] / ops,
                                                   "count"),
            "certify.min_normalized_slack.self_ms": (self_ms("certify.min_normalized_slack"),
                                                     "ms"),
            "certify.feasibility_floor.ms": (ms("certify.feasibility_floor"), "ms"),
            "sos.build_sos_problem.ms": (ms("sos.build_sos_problem"), "ms"),
            "sos.solve_sdp.ms": (ms("sos.solve_sdp"), "ms"),
            "sos.ipm_iters_per_solve": (ratio(ipm_iters, calls["sos.solve_sdp"]), "count"),
            "sos.ms_per_ipm_iter": (ratio(1e3 * inclusive["sos.solve_sdp"] / factor, ipm_iters),
                                    "ms"),
            "desim.threshold.self_ms": (self_ms("desim.threshold"), "ms"),
            "desim.de_trace.ms": (ms("desim.de_trace"), "ms"),
            "desim.de_trace.iters": (counts["desim.de_trace.values"] / ops, "count"),
            "experiment.run_sweep.self_ms": (self_ms("experiment.run_sweep"), "ms"),
            "experiment.emit_csv.ms": (ms("experiment.emit_csv"), "ms"),
            "svgplot.emit_svg_plot.ms": (ms("svgplot.emit_svg_plot"), "ms"),
        }

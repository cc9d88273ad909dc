"""Spans around calls into each proprep module, recorded from outside.

The tracer replaces a public function with a recording wrapper in the
module that binds it for its caller (``cli.detect_axis``,
``assignment.feasible_min_cost`` and so on), and puts the original back
afterwards; nothing under ``src/proprep`` changes.  Each call becomes one
in-memory span (name, start, end, parent).  Call counts, inclusive seconds
and self seconds are derived from the spans once the traced round is over;
work counts are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

# span name -> the (module, attribute) bindings that route calls through it
BINDINGS = {
    "fileio.parse_instance": (("cli", "parse_instance"),),
    "fileio.render_solution": (("cli", "render_solution"),),
    "fileio.parse_solution": (("fileio", "parse_solution"), ("cli", "parse_solution")),
    "core.build_misrep": (("fileio", "build_misrep"),),
    "core.verify_solution": (("core", "verify_solution"), ("cli", "verify_solution")),
    "single_peaked.detect_axis": (("cli", "detect_axis"),),
    "single_peaked.solve_cc_sum_sp": (("cli", "solve_cc_sum_sp"),),
    "single_peaked.solve_cc_minimax_sp": (("cli", "solve_cc_minimax_sp"),),
    "single_peaked.check_single_troughed": (("single_peaked", "check_single_troughed"),),
    "solvers.solve_subset_enum": (("cli", "solve_subset_enum"), ("solvers", "solve_subset_enum")),
    "solvers.solve_constantR": (("cli", "solve_constantR"),),
    "solvers.solve_cc_branch_rk": (("cli", "solve_cc_branch_rk"),),
    "solvers.solve_minimax_cc_branch_rk": (("cli", "solve_minimax_cc_branch_rk"),),
    "solvers.solve_m_mw_rk": (("cli", "solve_m_mw_rk"),),
    "solvers.solve_minimax_m_mw_rk": (("cli", "solve_minimax_m_mw_rk"),),
    "assignment.cc_value": (("solvers", "cc_value"),),
    "assignment.assign_monroe_sum": (("solvers", "assign_monroe_sum"),),
    "assignment.monroe_minimax_value": (("solvers", "monroe_minimax_value"),),
    "assignment.assign_monroe_minimax": (("assignment", "assign_monroe_minimax"),),
    "flows.feasible_min_cost": (
        ("assignment", "feasible_min_cost"),
        ("solvers", "feasible_min_cost"),
        ("stabbing", "feasible_min_cost"),
    ),
    "stabbing.solve_monroe_sum_sp": (("cli", "solve_monroe_sum_sp"),),
    "stabbing.solve_minimax_m_mw_sp": (("cli", "solve_minimax_m_mw_sp"),),
    "stabbing.solve_max_bal_1rs": (("stabbing", "solve_max_bal_1rs"),),
}

# Decision procedures that cli's bound search (_search_within) probes.
PROBED = (
    "single_peaked.solve_cc_minimax_sp",
    "stabbing.solve_minimax_m_mw_sp",
    "solvers.solve_constantR",
    "solvers.solve_cc_branch_rk",
    "solvers.solve_minimax_cc_branch_rk",
    "solvers.solve_m_mw_rk",
    "solvers.solve_minimax_m_mw_rk",
)
SCORERS = ("assignment.cc_value", "assignment.assign_monroe_sum", "assignment.monroe_minimax_value")
FLOW_SCORERS = SCORERS[1:]

# Per-layer metrics in report order: (name, unit, better).
LAYER_METRICS = (
    ("fileio.parse_instance.calls", "count", "lower"),
    ("fileio.parse_instance.s", "s", "lower"),
    ("fileio.render_solution.s", "s", "lower"),
    ("fileio.parse_solution.s", "s", "lower"),
    ("core.build_misrep.s", "s", "lower"),
    ("core.verify_solution.calls", "count", "lower"),
    ("core.verify_solution.s", "s", "lower"),
    ("cli.bound_probes", "count", "lower"),
    ("single_peaked.detect_axis.calls", "count", "lower"),
    ("single_peaked.detect_axis.s", "s", "lower"),
    ("single_peaked.solve_cc_sum_sp.s", "s", "lower"),
    ("single_peaked.solve_cc_minimax_sp.calls", "count", "lower"),
    ("single_peaked.solve_cc_minimax_sp.s", "s", "lower"),
    ("single_peaked.check_single_troughed.calls", "count", "lower"),
    ("single_peaked.check_single_troughed.s", "s", "lower"),
    ("solvers.solve_subset_enum.calls", "count", "lower"),
    ("solvers.solve_subset_enum.s", "s", "lower"),
    ("solvers.solve_subset_enum.self_s", "s", "lower"),
    ("solvers.committees_scored", "count", "lower"),
    ("assignment.cc_value.calls", "count", "lower"),
    ("assignment.cc_value.s", "s", "lower"),
    ("assignment.assign_monroe_sum.calls", "count", "lower"),
    ("assignment.assign_monroe_sum.s", "s", "lower"),
    ("assignment.monroe_minimax_value.calls", "count", "lower"),
    ("assignment.monroe_minimax_value.s", "s", "lower"),
    ("assignment.assign_monroe_minimax.calls", "count", "lower"),
    ("flows.feasible_min_cost.calls", "count", "lower"),
    ("flows.feasible_min_cost.s", "s", "lower"),
    ("flows.arcs", "count", "lower"),
    ("flows.useful_ratio", "ratio", "higher"),
    ("stabbing.solve_max_bal_1rs.calls", "count", "lower"),
    ("stabbing.solve_max_bal_1rs.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def instance_key(rule: str, objective: str, k: int, rows) -> tuple:
    """Identifies an instance across the program's and the benchmark's parsers."""
    return (rule, objective, k, tuple(tuple(row) for row in rows))


@dataclass
class Tracer:
    spans: list = field(default_factory=list)  # [name, start, end, parent]
    arcs: int = 0
    enumerated: list = field(default_factory=list)  # keys of Monroe subset-enum runs
    _open: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def _wrap(self, name: str, function: Callable) -> Callable:
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if name == "flows.feasible_min_cost":
                self.arcs += len(args[1] if len(args) > 1 else kwargs["arcs"])
            elif name == "solvers.solve_subset_enum":
                self._note_enumeration(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def _note_enumeration(self, instance, budget=None, candidate_pool=None, *_, **__):
        if instance.rule.value == "monroe" and candidate_pool is None:
            self.enumerated.append(
                instance_key("monroe", instance.objective.value, instance.k, instance.matrix.rows)
            )

    def install(self, program: SimpleNamespace) -> None:
        """Wrap every binding that exists; a binding a refactor removed reads 0."""
        for name, bindings in BINDINGS.items():
            for module_name, attribute in bindings:
                module = getattr(program, module_name, None)
                original = getattr(module, attribute, None)
                if original is None:
                    continue
                self._saved.append((module, attribute, original))
                setattr(module, attribute, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attribute, original = self._saved.pop()
            setattr(module, attribute, original)

    def metrics(self, useful_by_key: dict, overhead_s: float, untraced_s: float) -> dict:
        """Per-layer metrics derived from the recorded spans."""
        calls: dict[str, int] = {}
        inclusive: dict[str, float] = {}
        exclusive: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            exclusive[name] = exclusive.get(name, 0.0) + (end - start - child_time[index])

        def under_enumeration(index: int) -> bool:
            parent = self.spans[index][3]
            while parent >= 0:
                if self.spans[parent][0] == "solvers.solve_subset_enum":
                    return True
                parent = self.spans[parent][3]
            return False

        scored = flow_scored = 0
        for index, span in enumerate(self.spans):
            if span[0] in SCORERS and under_enumeration(index):
                scored += 1
                flow_scored += span[0] in FLOW_SCORERS
        useful = sum(useful_by_key[key] for key in self.enumerated)
        values = {
            "cli.bound_probes": sum(calls.get(name, 0) for name in PROBED),
            "solvers.committees_scored": scored,
            "flows.arcs": self.arcs,
            "flows.useful_ratio": useful / flow_scored if flow_scored else 0.0,
            "trace.overhead_s": overhead_s,
            "trace.overhead_pct": 100.0 * overhead_s / untraced_s,
        }
        for metric, _, _ in LAYER_METRICS:
            if metric in values:
                continue
            span_name, _, kind = metric.rpartition(".")
            table = {"calls": calls, "s": inclusive, "self_s": exclusive}[kind]
            values[metric] = table.get(span_name, 0)
        return values

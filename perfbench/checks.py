"""Checks of every program output against the benchmark's own references.

A solve output is checked three ways: the program's own ``parse_solution``
and ``verify_solution`` must accept the witness, the benchmark recomputes
the witness from the instance file by itself, and the value (or the
infeasible answer) must match the reference optimum from :mod:`oracles`.
A ``bench`` output must exit 0 and report, for every file and solver, the
reference optimum or the infeasible answer it implies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import oracles
from corpus import Corpus, Item


@dataclass(frozen=True)
class Outcome:
    """What one in-process ``proprep`` call returned or raised."""

    code: Optional[int]
    stdout: str
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        """A crash or an exit other than 0 (answered) or 1 (infeasible)."""
        return self.error is not None or self.code not in (0, 1)


@dataclass
class Reference:
    """The benchmark's answer for one instance, and what it needs to check one."""

    item: Item
    inst: oracles.Instance
    value: int
    problem: object  # the program's ProblemInstance, for verify_solution
    committee: Optional[tuple[int, ...]] = None
    useful: Optional[int] = None
    intervals: Optional[oracles.AxisIntervals] = None

    @property
    def feasible(self) -> bool:
        return self.value <= self.inst.bound


def reference(item: Item, program: SimpleNamespace) -> tuple[Reference, list[str]]:
    """Reference optimum of one instance file, plus any problem found on the way.

    Single-peaked references take the program's axis as a certificate: the
    benchmark checks it is a valid axis before using it, so a wrong axis
    shows as a problem instead of a wrong reference.
    """
    inst = oracles.read_instance(item.path.read_text())
    core = program.core
    election = core.Election(inst.names, inst.votes)
    problem = core.ProblemInstance(
        election,
        core.MisrepMatrix(inst.rows),
        core.Rule(inst.rule),
        core.Objective(inst.objective),
        inst.k,
        inst.bound,
    )
    problems: list[str] = []
    name = item.path.name
    if item.oracle == "enum":
        answer = oracles.enum_optimum(inst)
        ref = Reference(item, inst, answer.value, problem, answer.committee)
        if inst.rule == "monroe":
            ref.useful = answer.useful
    else:
        axis = program.single_peaked.detect_axis(election)
        why = "no axis found" if axis is None else oracles.axis_problem(inst, axis)
        if why is not None:
            return Reference(item, inst, -1, problem), [f"{name}: {why}"]
        intervals = oracles.AxisIntervals(inst, axis)
        if inst.objective == "sum":
            value = oracles.sp_sum_optimum(inst, axis)
        else:
            value = oracles.sp_minimax_optimum(inst, intervals)
        ref = Reference(item, inst, value, problem, intervals=intervals)
    if item.cover_kind == "hitting-set":
        exists = oracles.hitting_set_exists(*item.cover)
    elif item.cover_kind == "exact-cover":
        exists = oracles.exact_cover_exists(*item.cover)
    else:
        exists = None
    if exists is not None and exists != ref.feasible:
        problems.append(
            f"{name}: {item.cover_kind} answer {exists} but optimum {ref.value} "
            f"vs bound {inst.bound}"
        )
    return ref, problems


def _recompute(inst: oracles.Instance, witness: oracles.Witness) -> list[str]:
    """The benchmark's own re-derivation of a witness from the instance file."""
    problems = []
    winners = witness.winners
    if len(set(winners)) != inst.k or len(winners) != inst.k:
        problems.append(f"committee {winners} is not {inst.k} distinct candidates")
    if len(witness.mapping) != inst.n:
        return problems + [f"{len(witness.mapping)} voters mapped, expected {inst.n}"]
    if any(w not in winners for w in witness.mapping):
        problems.append("a voter is mapped to a non-winner")
        return problems
    value = inst.aggregate(inst.rows[v][w] for v, w in enumerate(witness.mapping))
    if value != witness.value:
        problems.append(f"recomputed value {value}, claimed {witness.value}")
    if value > inst.bound:
        problems.append(f"value {value} exceeds the bound {inst.bound}")
    if inst.rule == "monroe":
        low, extra = divmod(inst.n, inst.k)
        loads = [witness.mapping.count(w) for w in winners]
        if any(load not in (low, low + (extra > 0)) for load in loads):
            problems.append(f"loads {loads} are not balanced")
    else:
        for v, w in enumerate(witness.mapping):
            if inst.rows[v][w] != min(inst.rows[v][x] for x in winners):
                problems.append(f"voter {v} is not given one of her best winners")
                break
    return problems


def check_solve(ref: Reference, outcome: Outcome, program: SimpleNamespace) -> list[str]:
    """Problems with one solve output; failed operations are counted, not checked."""
    if outcome.failed:
        return []
    name, inst = ref.item.path.name, ref.inst
    if outcome.code == 1:
        if ref.feasible:
            return [f"{name}: answered infeasible, but the optimum {ref.value} is within {inst.bound}"]
        return [f"{name}: infeasible answer printed a solution"] if outcome.stdout else []
    if not ref.feasible:
        return [f"{name}: answered, but the optimum {ref.value} exceeds the bound {inst.bound}"]
    problems = []
    solution, _ = program.fileio.parse_solution(outcome.stdout, ref.problem.election)
    report = program.core.verify_solution(ref.problem, solution)
    problems += [f"verify_solution: {c.name} failed ({c.detail})" for c in report.checks if not c.passed]
    witness = oracles.read_solution(outcome.stdout, inst.names)
    problems += _recompute(inst, witness)
    if witness.value != ref.value:
        problems.append(f"value {witness.value}, reference optimum {ref.value}")
    elif witness.solver == "subset-enum" and witness.winners != ref.committee:
        problems.append(
            f"committee {witness.winners} is not the first optimal one {ref.committee}"
        )
    if ref.intervals is not None:
        swap = oracles.improving_swap(inst, witness.winners, witness.value)
        if swap is not None:
            problems.append(f"swapping {swap[0]} for {swap[1]} improves the value to {swap[2]}")
        if inst.objective == "minimax" and oracles.minimax_lower_certificate(
            inst, ref.intervals, witness.value
        ) is None:
            problems.append(f"no certificate that {witness.value} is optimal")
    return [f"{name}: {p}" for p in problems]


_BENCH_ROW = re.compile(r"^(\S+) (\S+) (.+) \d+\.\dms$")


def bench_rows(stdout: str) -> list[tuple[str, str, str]]:
    """(file, solver, status) per row; timings dropped."""
    rows = []
    for line in stdout.splitlines():
        match = _BENCH_ROW.match(line)
        rows.append(match.groups() if match else ("?", "?", line))
    return rows


def check_bench(corpus: Corpus, refs: dict, outcome: Outcome) -> list[str]:
    if outcome.failed:
        return []
    problems = [] if outcome.code == 0 else [f"bench exited {outcome.code}"]
    by_file = {item.path.name: refs[item.path] for item in corpus.items if not item.kept}
    seen = set()
    for file, solver, status in bench_rows(outcome.stdout):
        ref = by_file.get(file)
        if ref is None:
            problems.append(f"bench: unexpected row {file} {solver} {status}")
            continue
        seen.add((file, solver))
        expected = f"ok value={ref.value}" if ref.feasible else "infeasible"
        if status.startswith("skipped (") and solver != "auto":
            continue
        if status != expected:
            problems.append(f"bench: {file} {solver} reports {status!r}, expected {expected!r}")
    for file in by_file:
        if (file, "auto") not in seen:
            problems.append(f"bench: no auto row for {file}")
    return problems

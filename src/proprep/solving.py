"""Which solver suits which instance, written down once, in `SOLVERS`.

`solve` runs one entry by name, or ``auto``, which tries those in
`AUTO_ORDER`; `bench_roster` lists ``auto`` and the entries marked for
bench that apply; `optimize` runs one at the worst bound.  Decision
procedures share one bound search, `search_bound`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .core import (
    BudgetExceededError,
    Objective,
    ProblemInstance,
    Rule,
    Solution,
    first_feasible,
)
from .fileio import worst_bound
from .single_peaked import AxisRows, detect_axis, solve_cc_minimax_sp, solve_cc_sum_sp
from .solvers import (
    DEFAULT_BUDGET,
    SolverBudget,
    m_mw_rk_decider,
    solve_cc_branch_rk,
    solve_constantR,
    solve_minimax_R0,
    solve_partition_enum,
    solve_subset_enum,
)
from .stabbing import solve_minimax_m_mw_sp, solve_monroe_sum_sp


def _within_bound(solution: Solution, bound: int) -> Optional[Solution]:
    return solution if solution.objective_value <= bound else None


def search_bound(
    instance: ProblemInstance,
    decide: Callable[[ProblemInstance], Optional[Solution]],
) -> Optional[Solution]:
    """Best solution within the instance bound, via a decision procedure.

    Probes candidate bounds from below: a short linear ramp, then doubling
    until feasible, never probing past the instance bound; then
    ``core.first_feasible`` bisects between the last infeasible and the
    first feasible probe.  Working upward keeps every probed bound close to
    the optimum, which matters for solvers whose cost grows quickly with
    the bound.  Under minimax only the values in the table are probed;
    under sum every integer is eligible.
    """
    points: Sequence[int]
    if instance.objective is Objective.MINIMAX:
        values = instance.matrix.distinct_values()
        points = [value for value in values if value <= instance.bound]
        limit = len(points) - 1
    else:
        # len() of this range overflows past sys.maxsize; indexing it does not.
        points = range(instance.bound + 1)
        limit = instance.bound
    if limit < 0:
        return None

    def probe(index: int) -> Optional[Solution]:
        return decide(replace(instance, bound=points[index]))

    best: Optional[Solution] = None
    last_infeasible = -1
    step = 0
    while True:
        point = min(step, limit)
        best = probe(point)
        if best is not None or point >= limit:
            break
        last_infeasible = point
        step = step + 1 if step < 4 else step * 2
    if best is None:
        return None
    found = first_feasible(range(last_infeasible + 1, min(step, limit)), probe)
    return best if found is None else found[1]


Applies = Callable[[ProblemInstance, SolverBudget], Optional[str]]
Run = Callable[[ProblemInstance, Optional[AxisRows], SolverBudget], Optional[Solution]]


@dataclass(frozen=True)
class SolverSpec:
    """One named solver: when it suits an instance, and how to run it.

    ``applies`` returns None when the solver suits the instance within the
    budget, or else the reason it does not.  ``run`` gets the instance's
    `AxisRows` (`axis_rows`), which only the sp-* solvers, marked ``axis``,
    read.  It returns the best solution within the instance bound, or None,
    and raises ``ValueError`` when the solver cannot handle the instance.
    Runs look their solver functions up on this module when called, so a
    wrapper installed there sees every call.
    """

    name: str
    applies: Applies
    run: Run
    bench: bool = False
    axis: bool = False

    def why_not(
        self, instance: ProblemInstance, rows: Optional[AxisRows], budget: SolverBudget
    ) -> Optional[str]:
        """`applies`, after the axis check: None when the solver suits the instance."""
        if self.axis and rows is None:
            return "the election is not single-peaked"
        return self.applies(instance, budget)


def axis_rows(
    instance: ProblemInstance, axis: Optional[tuple[int, ...]]
) -> Optional[AxisRows]:
    """The instance's table read along its election's axis, or None without one."""
    return None if axis is None else AxisRows(instance.matrix, axis)


def _needs(rule: Rule, objective: Optional[Objective] = None) -> Applies:
    """An `applies` that checks the rule and maybe the objective."""

    def applies(instance: ProblemInstance, budget: SolverBudget) -> Optional[str]:
        if instance.rule is not rule:
            return f"needs rule={rule.value}"
        if objective is not None and instance.objective is not objective:
            return f"needs objective={objective.value}"
        return None

    return applies


def _subset_enum_applies(
    instance: ProblemInstance, budget: SolverBudget
) -> Optional[str]:
    if instance.matrix.m > budget.max_subset_candidates:
        return f"more than {budget.max_subset_candidates} candidates"
    return None


def _partition_enum_applies(
    instance: ProblemInstance, budget: SolverBudget
) -> Optional[str]:
    if instance.matrix.n > budget.max_partition_voters:
        return f"more than {budget.max_partition_voters} voters"
    return None


def _constant_r_applies(
    instance: ProblemInstance, budget: SolverBudget
) -> Optional[str]:
    if instance.objective is not Objective.SUM:
        return "needs objective=sum"
    if instance.bound > budget.max_constant_bound:
        return f"bound above {budget.max_constant_bound}"
    return None


def _minimax_r0_applies(
    instance: ProblemInstance, budget: SolverBudget
) -> Optional[str]:
    if instance.objective is not Objective.MINIMAX or instance.bound != 0:
        return "needs objective=minimax at bound 0"
    return None


def _run_subset_enum(
    instance: ProblemInstance, rows: Optional[AxisRows], budget: SolverBudget
) -> Optional[Solution]:
    return _within_bound(solve_subset_enum(instance, budget), instance.bound)


def _run_partition_enum(
    instance: ProblemInstance, rows: Optional[AxisRows], budget: SolverBudget
) -> Optional[Solution]:
    return _within_bound(solve_partition_enum(instance, budget), instance.bound)


def _run_branch_rk(
    instance: ProblemInstance, rows: Optional[AxisRows], budget: SolverBudget
) -> Optional[Solution]:
    return search_bound(instance, lambda probed: solve_cc_branch_rk(probed, budget))


def _run_constant_r(
    instance: ProblemInstance, rows: Optional[AxisRows], budget: SolverBudget
) -> Optional[Solution]:
    return search_bound(instance, lambda probed: solve_constantR(probed, budget))


def _run_monroe_rk(
    instance: ProblemInstance, rows: Optional[AxisRows], budget: SolverBudget
) -> Optional[Solution]:
    return search_bound(instance, m_mw_rk_decider(budget))


def _run_minimax_r0(
    instance: ProblemInstance, rows: Optional[AxisRows], budget: SolverBudget
) -> Optional[Solution]:
    return solve_minimax_R0(instance)


def _run_sp_dp(
    instance: ProblemInstance, rows: AxisRows, budget: SolverBudget
) -> Optional[Solution]:
    solution = solve_cc_sum_sp(instance, rows, budget=budget)
    return _within_bound(solution, instance.bound)


def _run_sp_greedy(
    instance: ProblemInstance, rows: AxisRows, budget: SolverBudget
) -> Optional[Solution]:
    def probe(probed: ProblemInstance) -> Optional[Solution]:
        budget.check()
        return solve_cc_minimax_sp(probed, rows)

    return search_bound(instance, probe)


def _run_sp_stab(
    instance: ProblemInstance, rows: AxisRows, budget: SolverBudget
) -> Optional[Solution]:
    if instance.objective is Objective.SUM:
        solution = solve_monroe_sum_sp(instance, rows, budget)
        return _within_bound(solution, instance.bound)
    return search_bound(
        instance, lambda probed: solve_minimax_m_mw_sp(probed, rows, budget)
    )


SOLVERS = {
    spec.name: spec
    for spec in (
        SolverSpec("subset-enum", _subset_enum_applies, _run_subset_enum, bench=True),
        SolverSpec(
            "partition-enum", _partition_enum_applies, _run_partition_enum, bench=True
        ),
        SolverSpec("branch-rk", _needs(Rule.CC), _run_branch_rk),
        SolverSpec("constant-r", _constant_r_applies, _run_constant_r),
        SolverSpec("monroe-rk", _needs(Rule.MONROE), _run_monroe_rk),
        SolverSpec("minimax-r0", _minimax_r0_applies, _run_minimax_r0),
        SolverSpec(
            "sp-dp", _needs(Rule.CC, Objective.SUM), _run_sp_dp, bench=True, axis=True
        ),
        SolverSpec(
            "sp-greedy",
            _needs(Rule.CC, Objective.MINIMAX),
            _run_sp_greedy,
            bench=True,
            axis=True,
        ),
        SolverSpec(
            "sp-stab", _needs(Rule.MONROE), _run_sp_stab, bench=True, axis=True
        ),
    )
}

SOLVER_NAMES = ("auto", *SOLVERS)

# The order auto tries: the axis methods, then the small-bound methods, and
# committee enumeration last, as the fallback.
AUTO_ORDER = (
    "sp-dp", "sp-greedy", "sp-stab", "constant-r", "minimax-r0", "subset-enum"
)


def solve_auto(
    instance: ProblemInstance, rows: Optional[AxisRows], budget: SolverBudget
) -> tuple[str, Optional[Solution]]:
    """Run the first solver in `AUTO_ORDER` that applies and succeeds.

    A solver that applies but then raises `ValueError` or exhausts its
    budget falls through to the next; an infeasible answer is final.
    Committee enumeration runs last whatever its `applies` says.  All of
    them run on the one `budget` and so on its one clock: a later solver
    gets only the time left, and `BudgetExceededError` is raised when none
    is.  Returns the name of the solver that answered, with its answer.
    """
    *structured, fallback = (SOLVERS[name] for name in AUTO_ORDER)
    for spec in structured:
        if spec.why_not(instance, rows, budget) is None:
            try:
                return spec.name, spec.run(instance, rows, budget)
            except (BudgetExceededError, ValueError):
                budget.check()
    return fallback.name, fallback.run(instance, rows, budget)


def solve(
    instance: ProblemInstance,
    solver: str = "auto",
    budget: SolverBudget = DEFAULT_BUDGET,
) -> tuple[str, Optional[Solution]]:
    """Best solution within the instance bound, or None, by the named solver.

    ``auto`` runs `solve_auto` on the election's axis.  Returns the name of
    the solver that answered, with its answer; an unknown name raises
    `ValueError`.
    """
    if solver == "auto":
        rows = axis_rows(instance, detect_axis(instance.election))
        return solve_auto(instance, rows, budget)
    return solver, _run_named(_spec(solver), instance, budget)


def bench_roster(
    instance: ProblemInstance, rows: Optional[AxisRows], budget: SolverBudget
) -> list[tuple[str, Run]]:
    """``auto``, then every solver marked for bench that suits the instance."""
    return [("auto", lambda *args: solve_auto(*args)[1])] + [
        (spec.name, spec.run)
        for spec in SOLVERS.values()
        if spec.bench and spec.why_not(instance, rows, budget) is None
    ]


def _spec(name: str) -> SolverSpec:
    if name not in SOLVERS:
        raise ValueError(f"unknown solver {name!r}; choose from {', '.join(SOLVERS)}")
    return SOLVERS[name]


def _run_named(
    spec: SolverSpec, instance: ProblemInstance, budget: SolverBudget
) -> Optional[Solution]:
    """Run one solver, looking for the election's axis only if it reads one."""
    rows = axis_rows(instance, detect_axis(instance.election)) if spec.axis else None
    if spec.axis and rows is None:
        raise ValueError("the election is not single-peaked; sp-* solvers need an axis")
    return spec.run(instance, rows, budget)


def optimize(
    instance: ProblemInstance,
    solver: str = "subset-enum",
    budget: SolverBudget = DEFAULT_BUDGET,
) -> Solution:
    """Optimal solution by the named solver: its run at the worst bound."""
    worst = replace(instance, bound=worst_bound(instance.matrix, instance.objective))
    spec = _spec(solver)
    try:
        solution = _run_named(spec, worst, budget)
    except ValueError as error:
        raise ValueError(f"solver {solver!r} does not support this instance: {error}")
    assert solution is not None, "the worst bound is always feasible"
    return solution

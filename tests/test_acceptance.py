"""Acceptance gate: seven end-to-end checks over the whole package.

Each test prints one ``criterion N: PASS``/``FAIL`` line on the real
stdout (bypassing capture) so the gate can be read straight off the run
log.  The random corpora are seeded, so every run checks the same
instances.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from typing import Callable, Optional

from conftest import ranked, threshold
from oracles import (
    brute_exact_3_cover,
    brute_force_stabbing,
    brute_hitting_set,
    count_leaves,
)
from proprep.core import (
    ApprovalMisrep,
    BordaMisrep,
    Election,
    Objective,
    ProblemInstance,
    Rule,
    Solution,
    build_misrep,
    check_m_criterion,
)
from proprep.generators import random_election, random_prefix_approvals
from proprep.hardness import (
    HittingSetInstance,
    RX3CInstance,
    gen_hs_approval,
    gen_hs_borda,
    gen_rx3c_monroe,
    gen_vc_minimax,
)
from proprep.single_peaked import (
    AxisRows,
    DPStats,
    check_single_troughed,
    detect_axis,
    sample_single_peaked_election,
    solve_cc_minimax_sp,
    solve_cc_sum_sp,
)
from proprep.solvers import (
    DEFAULT_BUDGET,
    SolverBudget,
    solve_cc_branch_rk,
    solve_partition_enum,
    solve_subset_enum,
)
from proprep.solving import optimize
from proprep.stabbing import (
    StabbingInstance,
    solve_max_bal_1rs,
    solve_minimax_m_mw_sp,
    solve_monroe_sum_sp,
    validate_cover,
)


def criterion(number: int, summary: str):
    """Print the gate line for this criterion after the test body runs.

    The line goes through ``capsys.disabled()`` so it lands on the real
    terminal whether or not the run captures output.
    """

    def wrap(fn):
        def run(capsys):
            try:
                fn()
            except BaseException:
                with capsys.disabled():
                    print(f"criterion {number}: FAIL - {summary}", flush=True)
                raise
            with capsys.disabled():
                print(f"criterion {number}: PASS - {summary}", flush=True)

        run.__doc__ = fn.__doc__
        return run

    return wrap


def random_instance(
    rng: random.Random, rule: Rule, objective: Objective, kind: str
) -> ProblemInstance:
    num_candidates = rng.randint(1, 8)
    num_voters = rng.randint(1, 8)
    election = random_election(rng, num_candidates, num_voters)
    if kind == "borda":
        matrix = build_misrep(election, BordaMisrep())
    else:
        matrix = build_misrep(
            election, ApprovalMisrep(random_prefix_approvals(rng, election))
        )
    k = rng.randint(1, min(3, num_candidates, num_voters))
    return ProblemInstance(election, matrix, rule, objective, k, 0)


def first_feasible_value(
    instance: ProblemInstance,
    decide: Callable[[ProblemInstance], Optional[Solution]],
) -> int:
    """Optimal value of a decision procedure, by scanning the value grid."""
    for bound in instance.matrix.distinct_values():
        solution = decide(replace(instance, bound=bound))
        if solution is not None:
            return solution.objective_value
    raise AssertionError("the largest matrix value is always feasible")


def axis_solver_values(instance: ProblemInstance, axis) -> dict[str, int]:
    """Values from whichever single-peaked solver fits this instance."""
    try:
        rows = AxisRows(instance.matrix, axis)
        if instance.rule is Rule.CC and instance.objective is Objective.SUM:
            return {"sp-dp": solve_cc_sum_sp(instance, rows).objective_value}
        if instance.rule is Rule.CC:
            return {
                "sp-greedy": first_feasible_value(
                    instance, lambda probe: solve_cc_minimax_sp(probe, rows)
                )
            }
        if instance.objective is Objective.SUM:
            return {"sp-stab": solve_monroe_sum_sp(instance, rows).objective_value}
        return {
            "sp-stab": first_feasible_value(
                instance, lambda probe: solve_minimax_m_mw_sp(probe, rows)
            )
        }
    except ValueError:
        return {}


@criterion(1, "every applicable solver matches subset enumeration on "
             "200 random instances per problem and misrepresentation kind")
def test_criterion_1_oracle_equivalence():
    rng = random.Random(20260816)
    combos = itertools.product(Rule, Objective, ("borda", "approval"))
    for rule, objective, kind in combos:
        for _ in range(200):
            instance = random_instance(rng, rule, objective, kind)
            oracle = solve_subset_enum(instance).objective_value
            values = {
                "partition-enum": solve_partition_enum(instance).objective_value
            }
            if kind == "borda":
                solver = "branch-rk" if rule is Rule.CC else "monroe-rk"
                values[solver] = optimize(instance, solver).objective_value
            if (
                instance.objective is Objective.SUM
                and oracle <= DEFAULT_BUDGET.max_constant_bound
            ):
                try:
                    values["constant-r"] = optimize(
                        instance, "constant-r"
                    ).objective_value
                except ValueError:
                    pass  # a voter repeats a value, so the solver opts out
            axis = detect_axis(instance.election)
            if axis is not None:
                values.update(axis_solver_values(instance, axis))
            wrong = {name: value for name, value in values.items() if value != oracle}
            assert not wrong, (instance, oracle, wrong)


@criterion(2, "the single-peaked sum dp matches the oracle on 200 instances "
             "within 2*n*m^2 table updates")
def test_criterion_2_single_peaked_sum_dp():
    rng = random.Random(1119)
    for _ in range(200):
        num_candidates = rng.randint(1, 8)
        num_voters = rng.randint(1, 8)
        election, axis = sample_single_peaked_election(
            rng, num_candidates, num_voters
        )
        matrix = build_misrep(election, BordaMisrep())
        k = rng.randint(1, min(3, num_candidates, num_voters))
        instance = ProblemInstance(
            election, matrix, Rule.CC, Objective.SUM, k, 0
        )
        stats = DPStats()
        solution = solve_cc_sum_sp(instance, AxisRows(matrix, axis), stats)
        assert solution.objective_value == solve_subset_enum(instance).objective_value
        assert stats.cell_updates <= 2 * num_voters * num_candidates**2


@criterion(3, "the balanced stabbing dp equals brute force on 500 random "
             "instances and scores 3 on the worked three-interval case")
def test_criterion_3_stabbing_oracle():
    rng = random.Random(731)
    for _ in range(500):
        num_lines = rng.randint(1, 6)
        spans = []
        for _ in range(rng.randint(0, 8)):
            left = rng.randint(1, num_lines)
            spans.append((left, rng.randint(left, num_lines)))
        instance = StabbingInstance(
            intervals=tuple(sorted(spans)),
            num_lines=num_lines,
            k=rng.randint(1, min(3, num_lines)),
            num_targets=len(spans) + rng.randint(0, 3),
        )
        covered, cover = solve_max_bal_1rs(instance)
        assert covered == brute_force_stabbing(instance)
        validate_cover(instance, cover)
        assert sum(len(ids) for _, ids in cover.assigned) == covered
    worked = StabbingInstance(((1, 2), (1, 1), (2, 3)), 3, 2, 3)
    assert solve_max_bal_1rs(worked)[0] == 3


@criterion(4, "the balanced single-peaked pipeline matches the oracle, always "
             "balances loads, and its minimax decisions match at every bound")
def test_criterion_4_balanced_single_peaked_pipeline():
    rng = random.Random(4141)
    for _ in range(150):
        num_candidates = rng.randint(2, 7)
        num_voters = rng.randint(2, 7)
        election, axis = sample_single_peaked_election(
            rng, num_candidates, num_voters
        )
        approvals = tuple(
            vote[: rng.randint(0, num_candidates)] for vote in election.votes
        )
        matrix = build_misrep(election, ApprovalMisrep(approvals))
        k = rng.randint(1, min(num_candidates, num_voters))
        instance = ProblemInstance(
            election, matrix, Rule.MONROE, Objective.SUM, k, 0
        )
        rows = AxisRows(matrix, axis)
        solution = solve_monroe_sum_sp(instance, rows)
        assert solution.objective_value == solve_subset_enum(instance).objective_value
        assert check_m_criterion(solution.assignment, num_voters, k)

        minimax = replace(instance, objective=Objective.MINIMAX)
        minimax_optimum = solve_subset_enum(minimax).objective_value
        for bound in matrix.distinct_values():
            decision = solve_minimax_m_mw_sp(replace(minimax, bound=bound), rows)
            assert (decision is not None) == (minimax_optimum <= bound)
            if decision is not None:
                assert decision.objective_value <= bound
                assert check_m_criterion(decision.assignment, num_voters, k)


@criterion(5, "the worked profiles give the published axis, committee, and "
             "exact-cover optimum")
def test_criterion_5_worked_values():
    fenced = ranked(
        "c1 c2 c3 c4",
        "c1 c2 c3 c4",
        "c2 c3 c4 c1",
        "c3 c2 c1 c4",
    )
    assert detect_axis(fenced) == (0, 1, 2, 3)

    leaning = ranked(
        "a b c d",
        "a b c d",
        "a b c d",
        "a b c d",
        "a b c d",
        "c b a d",
        "c b a d",
    )
    matrix = build_misrep(leaning, BordaMisrep())
    instance = ProblemInstance(
        leaning, matrix, Rule.MONROE, Objective.SUM, 3, 0
    )
    best = solve_subset_enum(instance)
    assert best.assignment.winner_set == (0, 1, 2)
    assert best.objective_value == 2
    assert best.m_criterion_satisfied

    cover_instance, _ = gen_rx3c_monroe(RX3CInstance(3, ((0, 1, 2),) * 3))
    optimum = solve_subset_enum(cover_instance).objective_value
    assert optimum == 18 == cover_instance.bound


def nonempty_subsets(universe_size: int) -> list[tuple[int, ...]]:
    elements = range(universe_size)
    return [
        subset
        for size in range(1, universe_size + 1)
        for subset in itertools.combinations(elements, size)
    ]


@criterion(6, "all four reduction biconditionals hold against independent "
             "brute force on exhaustive tiny corpora")
def test_criterion_6_reduction_biconditionals():
    combos = tuple(itertools.product(Rule, Objective))

    # Approval reduction: zero total/worst misrepresentation iff some k
    # elements hit every set.
    for universe_size in (1, 2, 3):
        subsets = nonempty_subsets(universe_size)
        families = [
            family
            for size in (1, 2)
            for family in itertools.combinations_with_replacement(subsets, size)
        ]
        for family, budget in itertools.product(families, (1, 2)):
            if budget > universe_size:
                continue
            hs = HittingSetInstance(universe_size, family, budget)
            expected = brute_hitting_set(hs)
            for rule, objective in combos:
                problem = gen_hs_approval(hs, budget, rule, objective)
                value = solve_subset_enum(problem).objective_value
                assert (value == 0) is expected

    # Positional reduction: the blocker construction meets its bound iff the
    # same hitting set exists.
    wide = SolverBudget(max_subset_candidates=40)
    for universe_size in (1, 2):
        subsets = nonempty_subsets(universe_size)
        families = [
            family
            for size in (1, 2)
            for family in itertools.combinations_with_replacement(subsets, size)
        ]
        for family, budget in itertools.product(families, (1, 2)):
            if budget > universe_size:
                continue
            hs = HittingSetInstance(universe_size, family, budget)
            expected = brute_hitting_set(hs)
            for rule, objective in combos:
                problem = gen_hs_borda(hs, budget, rule, objective)
                value = solve_subset_enum(problem, wide).objective_value
                assert (value <= problem.bound) is expected

    # Worst-voter reduction: the padded election meets its bound iff a
    # vertex cover of size k exists.
    for num_vertices in (2, 3, 4):
        pairs = list(itertools.combinations(range(num_vertices), 2))
        for count in range(1, min(4, len(pairs)) + 1):
            for edges in itertools.combinations(pairs, count):
                degrees = [0] * num_vertices
                for a, b in edges:
                    degrees[a] += 1
                    degrees[b] += 1
                if max(degrees) > 3:
                    continue
                for k, bound, rule in itertools.product((1, 2), (1, 2), Rule):
                    if k > len(edges):
                        continue
                    cover_exists = brute_hitting_set(
                        HittingSetInstance(num_vertices, edges, k)
                    )
                    problem = gen_vc_minimax(edges, k, bound, rule)
                    value = solve_subset_enum(problem).objective_value
                    assert (value <= problem.bound) is cover_exists

    # Exact-cover reduction: the election reaches 2*n^2 iff n/3 disjoint
    # sets cover all elements.
    cover_corpus = (
        RX3CInstance(3, ((0, 1, 2),) * 3),
        RX3CInstance(6, ((0, 1, 2),) * 3 + ((3, 4, 5),) * 3),
        RX3CInstance(
            6,
            ((0, 1, 3), (1, 2, 4), (2, 3, 5), (0, 3, 4), (1, 4, 5), (0, 2, 5)),
        ),
    )
    for rx3c in cover_corpus:
        expected = brute_exact_3_cover(rx3c)
        problem, axis = gen_rx3c_monroe(rx3c)
        assert check_single_troughed(problem.matrix, axis)
        value = solve_subset_enum(problem).objective_value
        assert (value <= problem.bound) is expected
        if expected:
            assert value == problem.bound


@criterion(7, "zero-bound agreement, threshold reduction, row monotonicity, "
             "single-troughedness, and the branch-tree size bound all hold")
def test_criterion_7_structural_identities():
    rng = random.Random(77)
    for _ in range(150):
        rule = rng.choice(list(Rule))
        kind = rng.choice(("borda", "approval"))
        instance = random_instance(rng, rule, Objective.SUM, kind)
        election, matrix = instance.election, instance.matrix

        # Rows never improve down a ranking.
        for voter, vote in enumerate(election.votes):
            row = matrix.rows[voter]
            assert all(
                row[better] <= row[worse] for better, worse in zip(vote, vote[1:])
            )

        sum_optimum = solve_subset_enum(instance).objective_value
        minimax = replace(instance, objective=Objective.MINIMAX)
        minimax_optimum = solve_subset_enum(minimax).objective_value

        # Bound zero is one question under both objectives.
        assert (sum_optimum == 0) == (minimax_optimum == 0)

        # Meeting a minimax bound is a zero-sum question on the
        # thresholded table.
        for bound in matrix.distinct_values():
            thresholded = ProblemInstance(
                election, threshold(matrix, bound), rule, Objective.SUM,
                instance.k, 0,
            )
            zero_reachable = solve_subset_enum(thresholded).objective_value == 0
            assert zero_reachable == (minimax_optimum <= bound)

    # Misrepresentation rows are single-troughed along the sampled axis.
    for _ in range(50):
        num_candidates = rng.randint(1, 8)
        num_voters = rng.randint(1, 8)
        election, axis = sample_single_peaked_election(
            rng, num_candidates, num_voters
        )
        assert check_single_troughed(build_misrep(election, BordaMisrep()), axis)
        approvals = tuple(
            vote[: rng.randint(0, num_candidates)] for vote in election.votes
        )
        assert check_single_troughed(
            build_misrep(election, ApprovalMisrep(approvals)), axis
        )

    # The sum branching search stays inside its (R+1)^(R+k) leaf budget.
    for _ in range(100):
        instance = random_instance(rng, Rule.CC, Objective.SUM, "borda")
        bound = rng.randint(0, 4)
        with count_leaves() as leaves:
            solve_cc_branch_rk(replace(instance, bound=bound), DEFAULT_BUDGET)
        assert len(leaves) <= (bound + 1) ** (bound + instance.k)

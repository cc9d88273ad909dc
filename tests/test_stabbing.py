"""Capacitated stabbing solver and the balanced-rule pipeline on top of it."""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import instance_for, ranked
from oracles import brute_force_stabbing
from proprep import stabbing
from proprep.cli import main
from proprep.core import (
    ApprovalMisrep,
    BordaMisrep,
    BudgetExceededError,
    Objective,
    Rule,
    balanced_loads,
    build_misrep,
)
from proprep.fileio import parse_instance
from proprep.single_peaked import (
    AxisRows,
    detect_axis,
    sample_single_peaked_election,
)
from proprep.solvers import DEFAULT_BUDGET, SolverBudget, solve_subset_enum
from proprep.stabbing import (
    StabbingInstance,
    solve_max_bal_1rs,
    solve_minimax_m_mw_sp,
    solve_monroe_sum_sp,
    validate_cover,
)


def make_instance(intervals, num_lines, k, extra_targets=0):
    ordered = tuple(sorted(intervals, key=lambda span: span[0]))
    return StabbingInstance(
        intervals=ordered,
        num_lines=num_lines,
        k=k,
        num_targets=len(ordered) + extra_targets,
    )


def capacities(instance: StabbingInstance) -> tuple[int, int, int]:
    return balanced_loads(instance.num_targets, instance.k)


def covered_count(cover) -> int:
    return sum(len(ids) for _, ids in cover.assigned)


def axis_cover(problem, axis, monkeypatch):
    """`_axis_cover` at bound 0, with the stabbing instances it solved."""
    solved = []
    solve = stabbing.solve_max_bal_1rs

    def record(instance, budget):
        solved.append(instance)
        return solve(instance, budget)

    monkeypatch.setattr(stabbing, "solve_max_bal_1rs", record)
    found = stabbing._axis_cover(
        problem, AxisRows(problem.matrix, axis), 0, DEFAULT_BUDGET
    )
    return found, solved


def built_tables(monkeypatch):
    """Record every `_BalancedTable` that `solve_max_bal_1rs` builds."""
    tables = []
    init = stabbing._BalancedTable.__init__

    def keep(table, *args):
        tables.append(table)
        init(table, *args)

    monkeypatch.setattr(stabbing._BalancedTable, "__init__", keep)
    return tables


def random_instance(rng: random.Random) -> StabbingInstance:
    num_lines = rng.randint(1, 6)
    count = rng.randint(0, 8)
    intervals = []
    for _ in range(count):
        a = rng.randint(1, num_lines)
        b = rng.randint(1, num_lines)
        intervals.append((min(a, b), max(a, b)))
    return make_instance(
        intervals, num_lines, rng.randint(1, num_lines), rng.randint(0, 3)
    )


def approval_instance(rng: random.Random, k=None):
    """Random single-peaked election with per-voter approval prefixes."""
    num_candidates = rng.randint(2, 7)
    num_voters = rng.randint(2, 7)
    election, axis = sample_single_peaked_election(rng, num_candidates, num_voters)
    approvals = tuple(
        tuple(election.votes[v][: rng.randint(0, num_candidates)])
        for v in range(num_voters)
    )
    matrix = build_misrep(election, ApprovalMisrep(approvals))
    if k is None:
        k = rng.randint(1, min(num_candidates, num_voters))
    problem = instance_for(
        election, Rule.MONROE, Objective.SUM, k=k, matrix=matrix
    )
    return problem, axis


@st.composite
def stabbing_instances(draw):
    num_lines = draw(st.integers(1, 6))
    count = draw(st.integers(0, 8))
    intervals = []
    for _ in range(count):
        left = draw(st.integers(1, num_lines))
        intervals.append((left, draw(st.integers(left, num_lines))))
    k = draw(st.integers(1, num_lines))
    extra = draw(st.integers(0, 3))
    return make_instance(intervals, num_lines, k, extra)


@st.composite
def repeated_interval_instances(draw):
    """Few distinct intervals, each repeated, with one or two seats.

    A line's capacity then often exceeds the number of intervals that could
    still go to it, which is where the DP caps the capacity.
    """
    num_lines = draw(st.integers(1, 6))
    shapes = []
    for _ in range(draw(st.integers(1, 3))):
        left = draw(st.integers(1, num_lines))
        shapes.append((left, draw(st.integers(left, num_lines))))
    intervals = [
        shape for shape in shapes for _ in range(draw(st.integers(1, 4)))
    ][:8]
    k = draw(st.integers(1, min(2, num_lines)))
    return make_instance(intervals, num_lines, k, draw(st.integers(0, 2)))


class TestStabbingInstance:
    def test_balanced_capacities(self):
        instance = make_instance([(1, 1)] * 7, 4, 3)
        low, high, full = capacities(instance)
        assert (high, low) == (3, 2)
        assert (full, instance.k - full) == (1, 2)

    def test_even_split_has_no_full_lines(self):
        instance = make_instance([(1, 2)] * 6, 4, 3)
        assert capacities(instance) == (2, 2, 0)

    def test_rejects_unsorted_intervals(self):
        with pytest.raises(ValueError, match="sorted"):
            StabbingInstance(((2, 3), (1, 1)), num_lines=3, k=1, num_targets=2)

    def test_rejects_out_of_range_interval(self):
        with pytest.raises(ValueError, match="out of range"):
            StabbingInstance(((1, 4),), num_lines=3, k=1, num_targets=1)

    def test_rejects_bad_committee_size(self):
        with pytest.raises(ValueError, match="k must be"):
            StabbingInstance(((1, 1),), num_lines=3, k=4, num_targets=1)

    def test_rejects_no_lines(self):
        with pytest.raises(ValueError, match="^need at least one line$"):
            StabbingInstance((), num_lines=0, k=1, num_targets=0)

    def test_rejects_too_few_targets(self):
        with pytest.raises(ValueError, match="num_targets"):
            StabbingInstance(((1, 1), (2, 2)), num_lines=3, k=1, num_targets=1)


# Covers that break one rule of `validate_cover` on four intervals (1, 2),
# three lines and k = 3 (loads 1..2, one line may take 2), and the message.
BAD_COVERS = {
    "more-lines-than-k": (
        ((1, ()), (2, ()), (3, ()), (1, ())), "cover uses more lines than allowed"
    ),
    "line-out-of-range": (((4, ()),), "line 4 out of range"),
    "interval-missing-its-line": (
        ((3, (0,)),), "interval 0 does not contain line 3"
    ),
    "interval-assigned-twice": (((1, (0,)), (2, (0,))), "interval 0 assigned twice"),
    "line-overloaded": (((1, (0, 1, 2)),), "line 1 overloaded"),
    "too-many-full-lines": (
        ((1, (0, 1)), (2, (2, 3))), "too many lines at the higher capacity"
    ),
}


@pytest.mark.parametrize(
    "assigned, message", BAD_COVERS.values(), ids=BAD_COVERS.keys()
)
def test_validate_cover_rejects_with_its_message(assigned, message):
    instance = make_instance([(1, 2)] * 4, 3, 3)
    with pytest.raises(ValueError) as caught:
        validate_cover(instance, stabbing.StabbingCover(assigned))
    assert str(caught.value) == message


class TestBruteForce:
    def test_two_lines_cover_three_intervals(self):
        instance = make_instance([(1, 2), (1, 1), (2, 3)], 3, 2)
        assert brute_force_stabbing(instance) == 3

    def test_empty_instance(self):
        assert brute_force_stabbing(make_instance([], 3, 2, extra_targets=3)) == 0

    def test_single_interval(self):
        assert brute_force_stabbing(make_instance([(1, 1)], 1, 1)) == 1

    def test_capacity_binds_when_intervals_share_one_line(self):
        instance = make_instance([(2, 2)] * 5, 3, 2)
        assert capacities(instance)[1] == 3
        assert brute_force_stabbing(instance) == 3

    def test_unit_capacities_with_more_seats_than_targets(self):
        instance = StabbingInstance(((1, 2), (1, 2)), 3, k=3, num_targets=2)
        assert brute_force_stabbing(instance) == 2

    def test_guard_on_interval_count(self):
        instance = make_instance([(1, 1)] * 9, 2, 1)
        with pytest.raises(BudgetExceededError):
            brute_force_stabbing(instance)


class TestSolveMaxBal:
    def test_two_lines_cover_three_intervals(self):
        instance = make_instance([(1, 2), (1, 1), (2, 3)], 3, 2)
        covered, cover = solve_max_bal_1rs(instance)
        assert covered == 3
        assert covered_count(cover) == 3
        validate_cover(instance, cover)

    def test_empty_instance_yields_empty_cover(self):
        covered, cover = solve_max_bal_1rs(make_instance([], 4, 2, extra_targets=2))
        assert covered == 0
        assert cover.assigned == ()

    def test_capacity_binds_when_intervals_share_one_line(self):
        instance = make_instance([(2, 2)] * 5, 3, 2)
        covered, _ = solve_max_bal_1rs(instance)
        assert covered == capacities(instance)[1] == 3

    def test_disjoint_intervals_need_separate_lines(self):
        instance = make_instance([(1, 1), (3, 3), (5, 5)], 5, 2, extra_targets=1)
        covered, cover = solve_max_bal_1rs(instance)
        assert covered == 2
        assert len(cover.assigned) == 2

    @settings(max_examples=150, deadline=None)
    @given(stabbing_instances())
    def test_agrees_with_brute_force(self, instance):
        covered, cover = solve_max_bal_1rs(instance)
        assert covered == brute_force_stabbing(instance)
        validate_cover(instance, cover)

    @settings(max_examples=200, deadline=None)
    @given(repeated_interval_instances())
    def test_capped_capacity_agrees_with_brute_force(self, instance):
        covered, cover = solve_max_bal_1rs(instance)
        assert covered == brute_force_stabbing(instance)
        validate_cover(instance, cover)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(stabbing_instances(), repeated_interval_instances()))
    def test_entries_never_increase_along_the_anchored_intervals(self, instance):
        # Continuing the anchor and a split's halves read only the first
        # later anchored interval's entry, which is exact only if the entry
        # of the next anchored interval, at the same capped capacity, never
        # covers more.
        with pytest.MonkeyPatch.context() as patch:
            tables = built_tables(patch)
            solve_max_bal_1rs(instance)
        for table in tables:
            for key, (value, _) in list(table.entries.items()):
                i, x1, x2, full, lean, b = key
                span = table.anchored(x1, x2)
                at = span.index(i) + 1
                if at == len(span):
                    continue
                later = (span[at], x1, x2, full, lean, min(b, len(span) - at))
                assert stabbing.run_nodes(
                    table.entry, table.entries, later, DEFAULT_BUDGET
                )[0] <= value

    @pytest.mark.parametrize(
        "intervals, num_lines, k, num_targets, assigned",
        [
            ([(1, 2), (1, 2)], 2, 2, 4, ((1, (0, 1)),)),
            (
                [(1, 2), (1, 2), (1, 3), (1, 1), (1, 1), (2, 3)], 3, 3, 8,
                ((1, (0, 3, 4)), (2, (1, 2, 5))),
            ),
            (
                [(1, 2), (1, 2), (1, 2), (1, 1), (2, 3), (2, 2)], 3, 3, 6,
                ((1, (0, 1)), (2, (2, 5)), (3, (4,))),
            ),
            (
                [
                    (1, 2), (1, 4), (1, 3), (1, 3), (2, 4), (2, 3), (3, 4), (3, 3),
                    (3, 5), (3, 5), (3, 5), (3, 4), (4, 4), (4, 5), (5, 5),
                ],
                5, 2, 17,
                ((2, (0, 1, 2, 3, 4, 5)), (4, (6, 8, 9, 10, 11, 12, 13))),
            ),
        ],
    )
    def test_witness_follows_the_choice_order(
        self, intervals, num_lines, k, num_targets, assigned
    ):
        """Chain, then retire, then split; a later option wins only when
        strictly better, and among tied intervals the first one wins.  The
        covers are those the memoised recursion gave before the table."""
        instance = StabbingInstance(tuple(intervals), num_lines, k, num_targets)
        covered, cover = solve_max_bal_1rs(instance)
        assert cover.assigned == assigned
        assert covered == covered_count(cover)

    def test_runs_without_recursion(self):
        # One interval short of the whole axis keeps the instance off the
        # all-full path, so the table chains 1500 intervals on one line.
        instance = make_instance([(1, 3)] * 1499 + [(2, 3)], 3, 1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            covered, cover = solve_max_bal_1rs(instance)
        finally:
            sys.setrecursionlimit(limit)
        assert covered == 1500
        assert cover.assigned == ((2, tuple(range(1500))),)

    def test_capped_capacity_keeps_all_approve_tables_small(self, monkeypatch):
        # Two intervals that miss line 1 keep the instance off the all-full
        # path, so the table is built; line 2 takes every interval.
        tables = built_tables(monkeypatch)
        n, m = 300, 3
        instance = make_instance([(1, m)] * (n - 2) + [(2, m)] * 2, m, 1)
        covered, _ = solve_max_bal_1rs(instance)
        assert covered == n
        (table,) = tables
        assert len(table.entries) <= n * m * m
        # With short intervals at both ends no line takes every interval,
        # so the top tail opens a line, at full capacity, on interval after
        # interval.  The cap at the intervals left merges the entries of
        # those lines that differ only above it; without it the table holds
        # O(n²) entries.
        tables.clear()
        m = 4
        short = [(1, 1), (1, 2), (3, 4), (4, 4)]
        instance = make_instance([(1, m)] * (n - len(short)) + short, m, 1)
        covered, _ = solve_max_bal_1rs(instance)
        assert covered == n - 2
        (table,) = tables
        assert len(table.entries) <= n * m * m

    @pytest.mark.parametrize(
        "n, m, k, extra_targets, assigned",
        [
            (1500, 3, 1, 0, ((1, tuple(range(1500))),)),
            (7, 4, 3, 0, ((1, (0, 1, 2)), (2, (3, 4)), (3, (5, 6)))),
            (5, 4, 3, 3, ((1, (0, 1, 2)), (2, (3, 4)))),
            (2, 3, 3, 0, ((1, (0,)), (2, (1,)))),
            (1, 1, 1, 4, ((1, (0,)),)),
        ],
    )
    def test_all_full_instance_builds_no_table(
        self, monkeypatch, n, m, k, extra_targets, assigned
    ):
        # Consecutive blocks in index order, full lines first.
        tables = built_tables(monkeypatch)
        covered, cover = solve_max_bal_1rs(
            make_instance([(1, m)] * n, m, k, extra_targets)
        )
        assert (covered, cover.assigned) == (n, assigned)
        assert tables == []

    def test_all_full_instance_gets_the_table_cover(self):
        # Every all-full shape up to six lines and 30 intervals, the target
        # count equal to the interval count or above it, is answered
        # without the table and with the table's own cover.
        for m in range(1, 7):
            for k in range(1, m + 1):
                for n in range(1, 31):
                    for extra_targets in (0, 1, 3):
                        instance = make_instance([(1, m)] * n, m, k, extra_targets)
                        assert solve_max_bal_1rs(instance) == stabbing._table_cover(
                            instance, DEFAULT_BUDGET
                        )

    def test_zero_seconds_stop_the_table(self):
        instance = make_instance([(1, 2), (1, 1), (2, 3)], 3, 2)
        with pytest.raises(BudgetExceededError, match="wall-clock"):
            solve_max_bal_1rs(instance, SolverBudget(max_seconds=0))

    def test_zero_seconds_stop_an_all_full_instance(self):
        instance = make_instance([(1, 3)] * 4, 3, 2)
        with pytest.raises(BudgetExceededError, match="wall-clock"):
            solve_max_bal_1rs(instance, SolverBudget(max_seconds=0))

    def test_witness_respects_balanced_capacities(self):
        rng = random.Random(20260816)
        for _ in range(150):
            instance = random_instance(rng)
            _, cover = solve_max_bal_1rs(instance)
            validate_cover(instance, cover)
            low, high, full = capacities(instance)
            loads = sorted((len(ids) for _, ids in cover.assigned), reverse=True)
            assert all(load <= high for load in loads)
            if high > low:
                at_high = sum(1 for load in loads if load == high)
                assert at_high <= full


class TestReduction:
    def test_prefix_approvals_become_axis_intervals(self, profile_3v4c, monkeypatch):
        approvals = tuple(vote[:2] for vote in profile_3v4c.votes)
        matrix = build_misrep(profile_3v4c, ApprovalMisrep(approvals))
        problem = instance_for(
            profile_3v4c, Rule.MONROE, Objective.SUM, k=2, matrix=matrix
        )
        (covered, solution), (instance,) = axis_cover(
            problem, (0, 1, 2, 3), monkeypatch
        )
        assert instance.intervals == ((1, 2), (2, 3), (2, 3))
        assert instance.num_targets == 3
        # Every voter is placed, and on an approved candidate.
        assert covered == 3
        for voter, candidate in enumerate(solution.assignment.mapping):
            assert candidate in approvals[voter]

    def test_unanimous_approval_spans_whole_axis(self, monkeypatch):
        election = ranked("a b c", "a b c", "c b a")
        approvals = tuple(vote[:3] for vote in election.votes)
        matrix = build_misrep(election, ApprovalMisrep(approvals))
        problem = instance_for(
            election, Rule.MONROE, Objective.SUM, k=1, matrix=matrix
        )
        _, (instance,) = axis_cover(problem, (0, 1, 2), monkeypatch)
        assert instance.intervals == ((1, 3), (1, 3))

    def test_voter_without_approvals_is_kept_aside(self, monkeypatch):
        election = ranked("a b c", "a b c", "b a c")
        matrix = build_misrep(election, ApprovalMisrep(((0,), ())))
        problem = instance_for(
            election, Rule.MONROE, Objective.SUM, k=1, matrix=matrix
        )
        (covered, solution), (instance,) = axis_cover(
            problem, (0, 1, 2), monkeypatch
        )
        assert instance.intervals == ((1, 1),)
        assert instance.num_targets == 2
        assert covered == 1
        assert solution.assignment.mapping == (0, 0)
        assert solution.objective_value == 1

    def test_minimax_stops_before_the_table_when_a_voter_has_no_interval(
        self, monkeypatch
    ):
        election = ranked("a b c", "a b c", "b a c")
        matrix = build_misrep(election, ApprovalMisrep(((0,), ())))
        problem = instance_for(
            election, Rule.MONROE, Objective.MINIMAX, k=1, matrix=matrix
        )
        found, solved = axis_cover(problem, (0, 1, 2), monkeypatch)
        assert found is None
        assert solved == []

    def test_rejects_approvals_not_contiguous_on_axis(self):
        election = ranked("a b c", "a c b")
        matrix = build_misrep(election, ApprovalMisrep(((0, 2),)))
        problem = instance_for(
            election, Rule.MONROE, Objective.SUM, k=1, matrix=matrix
        )
        with pytest.raises(ValueError, match="contiguous"):
            solve_monroe_sum_sp(problem, AxisRows(problem.matrix, (0, 1, 2)))

    def test_rejects_graded_misrepresentation(self, profile_3v4c):
        problem = instance_for(profile_3v4c, Rule.MONROE, Objective.SUM, k=2)
        with pytest.raises(ValueError, match="0 or 1"):
            solve_monroe_sum_sp(problem, AxisRows(problem.matrix, (0, 1, 2, 3)))

    def test_rejects_per_voter_rule(self, profile_3v4c):
        approvals = tuple(vote[:2] for vote in profile_3v4c.votes)
        matrix = build_misrep(profile_3v4c, ApprovalMisrep(approvals))
        problem = instance_for(
            profile_3v4c, Rule.CC, Objective.SUM, k=2, matrix=matrix
        )
        with pytest.raises(ValueError, match="balanced rule"):
            solve_monroe_sum_sp(problem, AxisRows(problem.matrix, (0, 1, 2, 3)))


class TestCompleteAssignment:
    def test_single_winner_takes_all_when_unanimously_acceptable(
        self, profile_3v4c, monkeypatch
    ):
        """One seat suffices here: every voter's top two include c2."""
        approvals = tuple(vote[:2] for vote in profile_3v4c.votes)
        matrix = build_misrep(profile_3v4c, ApprovalMisrep(approvals))
        problem = instance_for(
            profile_3v4c, Rule.MONROE, Objective.SUM, k=1, matrix=matrix
        )
        covered, solution = axis_cover(problem, (0, 1, 2, 3), monkeypatch)[0]
        rows = AxisRows(problem.matrix, (0, 1, 2, 3))
        assert solve_monroe_sum_sp(problem, rows) == solution
        assert covered == 3
        assert solution.objective_value == 0
        assert solution.assignment.winner_set == (1,)
        oracle = solve_subset_enum(problem, DEFAULT_BUDGET)
        assert oracle.objective_value == 0

    def test_full_coverage_gives_value_zero_and_balanced_loads(self, monkeypatch):
        election = ranked("a b c", "a b c", "a b c", "b a c", "c b a")
        approvals = ((0,), (0,), (1,), (2,))
        matrix = build_misrep(election, ApprovalMisrep(approvals))
        problem = instance_for(
            election, Rule.MONROE, Objective.SUM, k=3, matrix=matrix
        )
        covered, solution = axis_cover(problem, (0, 1, 2), monkeypatch)[0]
        rows = AxisRows(problem.matrix, (0, 1, 2))
        assert solve_monroe_sum_sp(problem, rows) == solution
        assert covered == 4
        assert solution.objective_value == 0
        assert solution.assignment.winner_set == (0, 1, 2)
        assert solution.assignment.loads() == (2, 1, 1)
        assert solution.m_criterion_satisfied

    def test_pads_committee_with_smallest_unused_candidates(self, monkeypatch):
        election = ranked("a b c", "a b c", "a b c", "a b c", "a b c")
        approvals = tuple(vote[:1] for vote in election.votes)
        matrix = build_misrep(election, ApprovalMisrep(approvals))
        problem = instance_for(
            election, Rule.MONROE, Objective.SUM, k=2, matrix=matrix
        )
        covered, solution = axis_cover(problem, (0, 1, 2), monkeypatch)[0]
        rows = AxisRows(problem.matrix, (0, 1, 2))
        assert solve_monroe_sum_sp(problem, rows) == solution
        assert covered == 2
        assert solution.assignment.winner_set == (0, 1)
        assert solution.assignment.loads() == (2, 2)
        assert solution.objective_value == 2
        oracle = solve_subset_enum(problem, DEFAULT_BUDGET)
        assert oracle.objective_value == 2

    def test_seats_voters_who_approve_nobody(self, monkeypatch):
        election = ranked("a b", "a b", "b a", "a b", "b a")
        matrix = build_misrep(election, ApprovalMisrep(((0,), (1,), (), ())))
        problem = instance_for(
            election, Rule.MONROE, Objective.SUM, k=2, matrix=matrix
        )
        covered, solution = axis_cover(problem, (0, 1), monkeypatch)[0]
        rows = AxisRows(problem.matrix, (0, 1))
        assert solve_monroe_sum_sp(problem, rows) == solution
        assert covered == 2
        assert solution.objective_value == 2
        assert solution.assignment.loads() == (2, 2)
        assert solution.m_criterion_satisfied


class TestMonroeSumPipeline:
    def test_matches_exhaustive_oracle(self):
        rng = random.Random(4242)
        for _ in range(80):
            problem, axis = approval_instance(rng)
            solution = solve_monroe_sum_sp(problem, AxisRows(problem.matrix, axis))
            oracle = solve_subset_enum(problem, DEFAULT_BUDGET)
            assert solution.objective_value == oracle.objective_value
            assert solution.m_criterion_satisfied

    def test_requires_sum_objective(self, profile_3v4c):
        approvals = tuple(vote[:2] for vote in profile_3v4c.votes)
        matrix = build_misrep(profile_3v4c, ApprovalMisrep(approvals))
        problem = instance_for(
            profile_3v4c, Rule.MONROE, Objective.MINIMAX, k=2, matrix=matrix
        )
        with pytest.raises(ValueError, match="sum objective"):
            solve_monroe_sum_sp(problem, AxisRows(problem.matrix, (0, 1, 2, 3)))


class TestMinimaxPipeline:
    def test_zero_bound_needs_distinct_favorites(self, profile_3v4c):
        problem = instance_for(profile_3v4c, Rule.MONROE, Objective.MINIMAX, k=3)
        rows = AxisRows(problem.matrix, (0, 1, 2, 3))
        solution = solve_minimax_m_mw_sp(problem, rows)
        assert solution is not None
        assert solution.objective_value == 0
        assert solution.assignment.loads() == (1, 1, 1)

    def test_zero_bound_infeasible_with_shared_favorite(self):
        election = ranked("a b", "a b", "a b")
        problem = instance_for(election, Rule.MONROE, Objective.MINIMAX, k=2)
        assert solve_minimax_m_mw_sp(problem, AxisRows(problem.matrix, (0, 1))) is None

    def test_bound_one_two_seats(self, profile_3v4c):
        problem = instance_for(
            profile_3v4c, Rule.MONROE, Objective.MINIMAX, k=2, bound=1
        )
        rows = AxisRows(problem.matrix, (0, 1, 2, 3))
        solution = solve_minimax_m_mw_sp(problem, rows)
        oracle = solve_subset_enum(problem, DEFAULT_BUDGET)
        assert oracle.objective_value <= 1
        assert solution is not None
        assert solution.objective_value <= 1
        assert solution.m_criterion_satisfied

    def test_generous_bound_feasible_for_every_committee_size(self, profile_3v4c):
        for k in (1, 2, 3):
            problem = instance_for(
                profile_3v4c, Rule.MONROE, Objective.MINIMAX, k=k, bound=3
            )
            rows = AxisRows(problem.matrix, (0, 1, 2, 3))
            assert solve_minimax_m_mw_sp(problem, rows) is not None

    def test_decision_matches_oracle_across_all_bounds(self):
        rng = random.Random(31337)
        for _ in range(40):
            num_candidates = rng.randint(2, 6)
            num_voters = rng.randint(2, 6)
            election, axis = sample_single_peaked_election(
                rng, num_candidates, num_voters
            )
            k = rng.randint(1, min(num_candidates, num_voters))
            base = instance_for(election, Rule.MONROE, Objective.MINIMAX, k=k)
            optimum = solve_subset_enum(base, DEFAULT_BUDGET).objective_value
            for bound in base.matrix.distinct_values():
                probe = replace(base, bound=bound)
                solution = solve_minimax_m_mw_sp(probe, AxisRows(probe.matrix, axis))
                if optimum <= bound:
                    assert solution is not None
                    assert solution.objective_value <= bound
                    assert solution.m_criterion_satisfied
                else:
                    assert solution is None

    def test_infeasible_probe_stops_at_the_first_voter_without_an_interval(
        self, tmp_path, monkeypatch, capsys
    ):
        # Voter 1 approves nobody, so bound 0 is out of reach once voter 1
        # is read; the other 1998 voters need not be.  The digest pins the
        # printed solution of the whole bound search.
        path = tmp_path / "mm.elect"
        argv = ["single-peaked", "--m", "6", "--n", "2000", "--k", "2"]
        argv += ["--rule", "monroe", "--misrep", "approval", "--objective", "minimax"]
        assert main(["gen", *argv, "--seed", "1", "--out", str(path)]) == 0
        for solver in ("auto", "sp-stab"):
            assert main(["solve", str(path), "--solver", solver]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == (
                "efd5eeef40016f29abc02e23311b8f5b956f022170ba6e01b90eae24a1f23c81"
            )
        problem = replace(parse_instance(path.read_text()), bound=0)
        rows = AxisRows(problem.matrix, detect_axis(problem.election))
        first = next(v for v in range(problem.matrix.n) if rows.interval(v, 0) is None)
        assert first == 1
        read = []
        interval = AxisRows.interval

        def counted(self, voter, bound):
            read.append(voter)
            return interval(self, voter, bound)

        monkeypatch.setattr(AxisRows, "interval", counted)
        assert solve_minimax_m_mw_sp(problem, rows) is None
        assert len(read) <= first + 1

    def test_requires_minimax_objective(self, profile_3v4c):
        problem = instance_for(profile_3v4c, Rule.MONROE, Objective.SUM, k=2)
        with pytest.raises(ValueError, match="minimax"):
            solve_minimax_m_mw_sp(problem, AxisRows(problem.matrix, (0, 1, 2, 3)))


class TestMirrorAxis:
    def test_reversed_axis_gives_the_same_value_and_decisions(self):
        # Minimax is probed at every table value, on the approval table and
        # on the Borda table of the same election.
        rng = random.Random(4343)
        decided = set()
        for _ in range(60):
            problem, axis = approval_instance(rng)
            forward = AxisRows(problem.matrix, axis)
            backward = AxisRows(problem.matrix, axis[::-1])
            assert (
                solve_monroe_sum_sp(problem, forward).objective_value
                == solve_monroe_sum_sp(problem, backward).objective_value
            )
            borda = build_misrep(problem.election, BordaMisrep())
            for matrix in (problem.matrix, borda):
                forward = AxisRows(matrix, axis)
                backward = AxisRows(matrix, axis[::-1])
                for bound in matrix.distinct_values():
                    probe = replace(
                        problem, matrix=matrix, objective=Objective.MINIMAX, bound=bound
                    )
                    feasible = solve_minimax_m_mw_sp(probe, forward) is not None
                    mirrored = solve_minimax_m_mw_sp(probe, backward) is not None
                    assert feasible == mirrored
                    decided.add(feasible)
        assert decided == {False, True}


class TestPinnedWitnesses:
    def test_witnesses_are_pinned(self):
        # Printed sp-stab witnesses follow the DP's tie-breaks and the way
        # uncovered voters are seated, so every (value, winners, mapping)
        # over these profiles is fixed by this digest.  Every fifth profile
        # approves nobody, every fifth everybody; minimax is probed at each
        # table value, on a Borda table too for every fifth profile.
        rng = random.Random(1402)
        digest = hashlib.sha256()
        solved = infeasible = 0
        for trial in range(300):
            m, n = rng.randint(1, 6), rng.randint(1, 8)
            election, axis = sample_single_peaked_election(rng, m, n)
            kind = trial % 5
            lengths = [
                0 if kind == 0 else m if kind == 1 else rng.randint(0, m)
                for _ in range(n)
            ]
            approvals = tuple(
                tuple(vote[:length]) for vote, length in zip(election.votes, lengths)
            )
            tables = [build_misrep(election, ApprovalMisrep(approvals))]
            if kind == 4:
                tables.append(build_misrep(election, BordaMisrep()))
            for k in range(1, min(m, n) + 1):
                problem = instance_for(
                    election, Rule.MONROE, Objective.SUM, k=k, matrix=tables[0]
                )
                results = [solve_monroe_sum_sp(problem, AxisRows(problem.matrix, axis))]
                for matrix in tables:
                    for bound in matrix.distinct_values():
                        probe = replace(
                            problem,
                            matrix=matrix,
                            objective=Objective.MINIMAX,
                            bound=bound,
                        )
                        rows = AxisRows(probe.matrix, axis)
                        results.append(solve_minimax_m_mw_sp(probe, rows))
                for result in results:
                    solved += 1
                    infeasible += result is None
                    if result is not None:
                        result = (
                            result.objective_value,
                            result.assignment.winner_set,
                            result.assignment.mapping,
                        )
                    digest.update(repr(result).encode())
        assert (solved, infeasible) == (2965, 541)
        assert digest.hexdigest() == (
            "628813bf35146c103d82d0b9b227a1cec2538fe9853339c5751b7c7dbedf00b1"
        )

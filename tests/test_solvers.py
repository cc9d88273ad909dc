"""Exact solver behavior: frozen small examples plus cross-solver agreement."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import math
import random
import sys
import time
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proprep import assignment, solvers, solving
from proprep.assignment import assign_cc, balanced_solution
from proprep.cli import main
from proprep.core import (
    ApprovalMisrep,
    BordaMisrep,
    BudgetExceededError,
    Election,
    ExplicitMisrep,
    MisrepMatrix,
    Objective,
    ProblemInstance,
    Rule,
    build_misrep,
    evaluate,
    verify_solution,
)
from proprep.fileio import parse_instance, worst_bound
from proprep.generators import random_election, random_prefix_approvals
from proprep.single_peaked import sample_single_peaked_election
from proprep.solvers import (
    PackedColumns,
    SolverBudget,
    solve_cc_branch_rk,
    solve_constantR,
    solve_m_mw_rk,
    solve_minimax_R0,
    solve_partition_enum,
    solve_subset_enum,
)
from proprep.solving import SOLVERS, optimize, solve

from conftest import instance_for, ranked, threshold
from oracles import count_leaves, walk_by_lists


def random_borda_instance(rng, rule, objective, max_m=5, max_n=6, bound=0):
    m = rng.randint(2, max_m)
    n = rng.randint(2, max_n)
    k = rng.randint(1, min(3, m, n))
    names = tuple(f"c{i}" for i in range(m))
    votes = tuple(tuple(rng.sample(range(m), m)) for _ in range(n))
    election = Election(names, votes)
    matrix = build_misrep(election, BordaMisrep())
    return ProblemInstance(election, matrix, rule, objective, k, bound)


def random_table_instance(rng, rule, objective, table):
    """m <= 7 candidates, n <= 10 voters, a Borda, approval or explicit table."""
    m = rng.randint(2, 7)
    n = rng.randint(2, 10)
    k = rng.randint(1, min(4, m, n))
    election = random_election(rng, m, n)
    if table == "borda":
        spec = BordaMisrep()
    elif table == "approval":
        spec = ApprovalMisrep(random_prefix_approvals(rng, election))
    else:
        rows = []
        for vote in election.votes:
            row, value = [0] * m, 0
            for c in vote:
                row[c] = value
                value += rng.randint(0, 3)
            rows.append(tuple(row))
        spec = ExplicitMisrep(tuple(rows))
    matrix = build_misrep(election, spec)
    return ProblemInstance(election, matrix, rule, objective, k, 0)


def best_by_scoring_every_committee(instance, pool):
    """Plain minimum of (value, committee) over every committee from the pool."""
    matrix = instance.matrix

    def score(committee):
        if instance.rule is Rule.CC:
            chosen = assign_cc(committee, matrix)
            return evaluate(matrix, chosen.mapping, instance.objective), chosen
        solution = balanced_solution(committee, matrix, instance.objective)
        return solution.objective_value, solution.assignment

    committees = itertools.combinations(sorted(pool), instance.k)
    value, committee = min((score(c)[0], c) for c in committees)
    return value, committee, score(committee)[1].mapping


@st.composite
def tied_instances(draw):
    """Small explicit tables full of ties, with a pool and k at its extremes.

    Entries come from 0..2; some columns copy an earlier one, some voters
    rate every candidate 0 (an approve-all ballot), and the table may be one
    constant.  Each vote ranks candidates by the voter's row, so any table
    is consistent with its votes.
    """
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    columns = []
    for c in range(m):
        source = draw(st.integers(0, c))
        if source < c:
            columns.append(columns[source])
        else:
            columns.append(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    rows = [[column[v] for column in columns] for v in range(n)]
    for v in draw(st.sets(st.integers(0, n - 1))):
        rows[v] = [0] * m
    if draw(st.booleans()):
        rows = [[draw(st.integers(0, 2))] * m] * n
    pool = draw(st.one_of(st.none(), st.sets(st.integers(0, m - 1), min_size=1)))
    size = m if pool is None else len(pool)
    k = draw(st.sampled_from([1, min(size, n), draw(st.integers(1, min(size, n)))]))
    votes = tuple(tuple(sorted(range(m), key=row.__getitem__)) for row in rows)
    election = Election(tuple(f"c{i}" for i in range(m)), votes)
    matrix = build_misrep(election, ExplicitMisrep(tuple(map(tuple, rows))))
    rule = draw(st.sampled_from(list(Rule)))
    objective = draw(st.sampled_from(list(Objective)))
    return ProblemInstance(election, matrix, rule, objective, k, 0), pool


def count_walk_steps(monkeypatch):
    """Record every pointwise minimum the committee walk takes.

    Each step folds a prefix's packed per-voter minima with one candidate's
    packed column or with the packed suffix minima of the candidates left.
    """
    steps = []
    fold = solvers.PackedColumns.min

    def counted(self, a, b):
        steps.append(1)
        return fold(self, a, b)

    monkeypatch.setattr(solvers.PackedColumns, "min", counted)
    return steps


def generated_cc(tmp_path, m, n, k, objective):
    """A seeded `proprep gen random --rule cc` file."""
    path = tmp_path / f"cc-{m}-{n}-{k}-{objective}.elect"
    code = main([
        "gen", "random", "--m", str(m), "--n", str(n), "--k", str(k), "--rule", "cc",
        "--objective", objective, "--seed", "0", "--out", str(path),
    ])
    assert code == 0
    return parse_instance(path.read_text())


def generated_monroe(tmp_path, objective, seed=0):
    """A seeded 9-candidate, 24-voter, 3-seat Monroe file from `proprep gen`."""
    path = tmp_path / f"random-{objective}-{seed}.elect"
    code = main([
        "gen", "random", "--m", "9", "--n", "24", "--k", "3", "--rule", "monroe",
        "--objective", objective, "--seed", str(seed), "--out", str(path),
    ])
    assert code == 0
    return parse_instance(path.read_text())


def record_scoring(monkeypatch):
    """Record every `committee_solution`, `balanced_solution` and `_seat` call.

    Events are ``(kind, committee, solution)``: ``"seat"``, with no solution,
    when a run starts, and ``"scored"`` or ``"built"`` when a call returns.
    """
    events = []
    build, score = solvers.committee_solution, assignment.balanced_solution
    seat = assignment._seat

    def recorded_build(instance, committee):
        found = build(instance, committee)
        events.append(("built", tuple(committee), found))
        return found

    def recorded_score(committee, matrix, objective, limit=None):
        found = score(committee, matrix, objective, limit)
        events.append(("scored", committee, found))
        return found

    def recorded_seat(winners, matrix, bound):
        events.append(("seat", tuple(winners), None))
        return seat(winners, matrix, bound)

    monkeypatch.setattr(solvers, "committee_solution", recorded_build)
    monkeypatch.setattr(assignment, "balanced_solution", recorded_score)
    monkeypatch.setattr(solvers, "balanced_solution", recorded_score)
    monkeypatch.setattr(assignment, "_seat", recorded_seat)
    return events


# Largest entries on each side of every field-width boundary, and past the
# eight bytes a native format reads.
WIDTH_BOUNDARIES = {
    0: 1, 1: 1, 127: 1, 128: 2, 255: 2, 256: 2, 2**15 - 1: 2, 2**15: 4,
    2**31 - 1: 4, 2**31: 8, 2**63 - 1: 8, 2**63: 9, 2**64 + 5: 9, 2**200: 26,
}


@st.composite
def packed_columns(draw):
    """n voters' entries in two columns, with the table's largest entry.

    Entries are 0, the largest, or anything between, with the largest at
    a width boundary or anywhere below 2**70; or both columns are a scaled
    explicit table of fractions.
    """
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        fraction = st.fractions(min_value=0, max_value=10**6, max_denominator=60)
        rows = draw(st.lists(st.tuples(fraction, fraction), min_size=n, max_size=n))
        votes = tuple(tuple(sorted(range(2), key=row.__getitem__)) for row in rows)
        election = Election(("a", "b"), votes)
        matrix = build_misrep(election, ExplicitMisrep(tuple(rows)))
        columns = [[row[c] for row in matrix.rows] for c in range(2)]
        return columns, matrix.max_value()
    largest = draw(
        st.one_of(st.sampled_from(sorted(WIDTH_BOUNDARIES)), st.integers(0, 2**70))
    )
    entry = st.one_of(st.just(0), st.just(largest), st.integers(0, largest))
    column = st.lists(entry, min_size=n, max_size=n)
    columns = draw(st.lists(column, min_size=2, max_size=2))
    return columns, largest


class TestPackedColumns:
    @pytest.mark.parametrize("largest, width", WIDTH_BOUNDARIES.items())
    def test_field_width_is_the_least_that_holds_the_largest_entry(
        self, largest, width
    ):
        assert PackedColumns(3, largest).width == width

    @settings(max_examples=300, deadline=None)
    @given(packed_columns())
    @example(([[0], [0]], 0))
    @example(([[0, 0, 0], [0, 0, 0]], 0))
    @example(([[2**63 - 1, 0], [2**63 - 2, 2**63 - 1]], 2**63 - 1))
    @example(([[2**64 + 1, 7], [2**64, 2**64 + 1]], 2**64 + 1))
    def test_agrees_with_the_list_versions(self, drawn):
        (a, b), largest = drawn
        packed = PackedColumns(len(a), largest)
        x, y = packed.pack(a), packed.pack(b)
        assert list(packed.fields(x)) == a
        low = packed.min(x, y)
        assert list(packed.fields(low)) == [min(u, v) for u, v in zip(a, b)]
        assert sum(packed.fields(low)) == sum(map(min, a, b))
        assert max(packed.fields(x)) == max(a)
        for limit in {-1, 0, largest - 1, largest, largest + 1, math.inf, *a, *b}:
            flagged = (low + packed.over(limit)) & packed.high != 0
            assert flagged == any(min(u, v) > limit for u, v in zip(a, b))


class TestSubsetEnum:
    def test_single_seat(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.SUM, k=1)
        solution = solve_subset_enum(instance)
        assert solution.objective_value == 2
        assert solution.assignment.winner_set == (1,)

    def test_two_seats_lexicographic_tie(self, profile_3v4c):
        # Three committees tie at value 1; the smallest one wins.
        instance = instance_for(profile_3v4c, Rule.CC, Objective.SUM, k=2)
        solution = solve_subset_enum(instance)
        assert solution.objective_value == 1
        assert solution.assignment.winner_set == (0, 1)

    def test_balanced_rule_example(self, profile_6v4c):
        instance = instance_for(profile_6v4c, Rule.MONROE, Objective.SUM, k=3)
        solution = solve_subset_enum(instance)
        assert solution.assignment.winner_set == (0, 1, 2)
        assert solution.objective_value == 2
        assert verify_solution(
            instance_for(profile_6v4c, Rule.MONROE, Objective.SUM, k=3, bound=2),
            solution,
        ).ok

    def test_candidate_budget(self):
        m = 21
        election = Election(
            tuple(f"c{i}" for i in range(m)), (tuple(range(m)),)
        )
        instance = instance_for(election, Rule.CC, Objective.SUM, k=1)
        with pytest.raises(BudgetExceededError):
            solve_subset_enum(instance)

    def test_candidate_pool_restriction(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.SUM, k=1)
        solution = solve_subset_enum(instance, candidate_pool=[0, 3])
        assert solution.assignment.winner_set == (0,)
        assert solution.objective_value == 5

    @pytest.mark.parametrize("table", ["borda", "approval", "explicit"])
    @pytest.mark.parametrize("rule", list(Rule))
    @pytest.mark.parametrize("objective", list(Objective))
    def test_equals_the_minimum_over_every_committee(self, table, rule, objective):
        rng = random.Random(f"{table}/{rule.value}/{objective.value}")
        for trial in range(60):
            instance = random_table_instance(rng, rule, objective, table)
            m, k = instance.matrix.m, instance.k
            pool = None if trial % 2 else rng.sample(range(m), rng.randint(k, m))
            solution = solve_subset_enum(instance, candidate_pool=pool)
            expected = best_by_scoring_every_committee(
                instance, range(m) if pool is None else pool
            )
            got = (
                solution.objective_value,
                solution.assignment.winner_set,
                solution.assignment.mapping,
            )
            assert got == expected

    @pytest.mark.parametrize("objective", ["sum", "minimax"])
    def test_monroe_flows_only_for_committees_within_the_bound(
        self, tmp_path, monkeypatch, objective
    ):
        # Scoring every committee would take at least C(9, 3) flows.  Every
        # committee scored and every witness is seated by `assignment._seat`.
        instance = generated_monroe(tmp_path, objective)
        flows = []
        seat = assignment._seat

        def counted(*args):
            flows.append(args)
            return seat(*args)

        monkeypatch.setattr(assignment, "_seat", counted)
        solve_subset_enum(instance)
        assert 0 < len(flows) < math.comb(9, 3) / 10

    def test_deadline_holds_while_scoring(self, tmp_path, monkeypatch):
        # Each scored committee takes one second on a fake clock.  Without a
        # budget several committees are scored, and the solution returned
        # is the one its scoring built, never seated again; with half a
        # second the check after the first one stops the walk.
        instance = generated_monroe(tmp_path, "sum")
        now = [0.0]
        scored = []
        score = assignment.balanced_solution

        def slow(committee, matrix, objective, limit=None):
            now[0] += 1.0
            scored.append((committee, score(committee, matrix, objective, limit)))
            return scored[-1][1]

        monkeypatch.setattr(solvers, "time", SimpleNamespace(monotonic=lambda: now[0]))
        monkeypatch.setattr(assignment, "balanced_solution", slow)
        monkeypatch.setattr(solvers, "balanced_solution", slow)
        solution = solve_subset_enum(instance)
        assert len(scored) > 1
        assert len({committee for committee, _ in scored}) == len(scored)
        assert any(found is solution for _, found in scored)
        scored.clear()
        with pytest.raises(BudgetExceededError):
            solve_subset_enum(instance, SolverBudget(max_seconds=0.5))
        assert len(scored) == 1

    @pytest.mark.parametrize("objective", ["sum", "minimax"])
    def test_no_committee_is_scored_twice(self, tmp_path, monkeypatch, objective):
        # The CC-optimal committee is scored before the other committees
        # within its value are collected, through `committee_solution`; no
        # committee is scored twice, and the solution returned is the one
        # its scoring built, so the committee returned is never seated
        # after it is scored.
        instance = generated_monroe(tmp_path, objective)
        events = record_scoring(monkeypatch)
        solution = solve_subset_enum(instance)
        scored = [committee for kind, committee, _ in events if kind == "scored"]
        assert len(set(scored)) == len(scored)
        winners = solution.assignment.winner_set
        last = max(i for i, event in enumerate(events) if event[2] is solution)
        assert events[last][1] == winners
        assert ("seat", winners, None) not in events[last + 1:]

    @pytest.mark.parametrize("rule", ["cc", "monroe"])
    @pytest.mark.parametrize(
        "objective, seed", [("sum", 0), ("sum", 4), ("minimax", 0), ("minimax", 1)]
    )
    def test_at_most_two_assignments_per_solve(
        self, tmp_path, monkeypatch, rule, objective, seed
    ):
        # Under CC voters are assigned once, to the committee returned, and
        # nobody is seated.  Under Monroe the committee returned is seated
        # only while it is scored, once under sum, and its solution is the
        # one that scoring built; `committee_solution` scores only the
        # CC-optimal committee.  Seeds 4 (sum) and 1 (minimax) return a
        # committee other than the CC-optimal one.
        instance = generated_monroe(tmp_path, objective, seed)
        instance = dataclasses.replace(instance, rule=Rule(rule))
        cc_optimal = solve_subset_enum(
            dataclasses.replace(instance, rule=Rule.CC)
        ).assignment.winner_set
        events = record_scoring(monkeypatch)
        solution = solve_subset_enum(instance)
        winners = solution.assignment.winner_set
        built = [event for event in events if event[0] == "built"]
        assert [committee for _, committee, _ in built] == [cc_optimal]
        if rule == "cc":
            assert events == built and built[0][2] is solution
            return
        assert (winners != cc_optimal) == (seed in (1, 4))
        first = min(i for i, event in enumerate(events) if event[2] is solution)
        assert events[first][:2] == ("scored", winners)
        assert ("seat", winners, None) not in events[first + 1:]
        if objective == "sum":
            assert events.count(("seat", winners, None)) == 1

    @pytest.mark.parametrize("objective", ["sum", "minimax"])
    def test_one_seating_answers_2000_voters(self, tmp_path, monkeypatch, objective):
        # No committee beats the CC-optimal one on these files, and that
        # committee's value takes one test under either objective, so one
        # `_seat` run answers: its seating is the witness, and nothing is
        # seated after it.
        path = tmp_path / f"n2000-{objective}.elect"
        assert main([
            "gen", "random", "--m", "20", "--n", "2000", "--k", "2", "--rule",
            "monroe", "--objective", objective, "--seed", "1", "--out", str(path),
        ]) == 0
        instance = parse_instance(path.read_text())
        seatings = []
        seat = assignment._seat

        def counted(winners, matrix, bound):
            seatings.append((tuple(winners), bound, seat(winners, matrix, bound)))
            return seatings[-1][2]

        monkeypatch.setattr(assignment, "_seat", counted)
        solution = solve_subset_enum(instance)
        assert len(seatings) == 1
        winners, bound, (cost, members) = seatings[0]
        assert winners == solution.assignment.winner_set
        value = solution.objective_value
        assert bound == (None if objective == "sum" else value)
        assert objective != "sum" or cost == value
        seating = {v: w for w, held in zip(winners, members) for v in held}
        assert tuple(seating[v] for v in range(instance.matrix.n)) == (
            solution.assignment.mapping
        )

    def test_deadline_holds_while_walking_cc_committees(self, tmp_path, monkeypatch):
        # The fake clock reads the walk steps taken so far, so a budget of
        # half the steps of a full solve expires mid-walk.  The deadline is
        # checked every 1024 nodes, and a node takes at most two steps.
        instance = generated_cc(tmp_path, 20, 20, 10, "sum")
        steps = count_walk_steps(monkeypatch)
        monkeypatch.setattr(solvers, "time", SimpleNamespace(monotonic=lambda: len(steps)))
        solve_subset_enum(instance)
        total = len(steps)
        assert total > 8 * 1024
        steps.clear()
        with pytest.raises(BudgetExceededError):
            solve_subset_enum(instance, SolverBudget(max_seconds=total // 2))
        assert len(steps) <= total // 2 + instance.matrix.m + 2 * 1024

    def test_deadline_holds_at_large_n(self, tmp_path, monkeypatch):
        # The fake clock reads the voter entries folded so far, n per step.
        # The walk reads it after at most 2**16 entries' worth of nodes, two
        # steps each, so it stops within 2 * 2**16 entries of the deadline,
        # or within the m suffix steps taken before the walk starts.
        instance = generated_cc(tmp_path, 20, 5000, 10, "sum")
        n, m = instance.matrix.n, instance.matrix.m
        steps = count_walk_steps(monkeypatch)
        monkeypatch.setattr(
            solvers, "time", SimpleNamespace(monotonic=lambda: len(steps) * n)
        )
        deadline = 10 * 2**16
        with pytest.raises(BudgetExceededError):
            solve_subset_enum(instance, SolverBudget(max_seconds=deadline))
        assert len(steps) * n <= deadline + m * n + 2 * 2**16

    def test_deadline_holds_while_walking_minimax_committees(
        self, tmp_path, monkeypatch
    ):
        # A rejected minimax leaf takes no fold, so this clock ticks once per
        # read instead.  A full solve reads it once every 65536 // n = 655
        # nodes of those the list walk visits, rejected leaves included,
        # and a budgeted one raises at the first read past the deadline, so
        # the walk stops within 1024 nodes of it.
        instance = generated_cc(tmp_path, 20, 100, 6, "minimax")
        rows = instance.matrix.rows
        nodes = walk_by_lists(rows, range(20), 6, max, math.inf, lambda v, _: v - 1)
        reads = []
        clock = SimpleNamespace(monotonic=lambda: reads.append(1) or len(reads))
        monkeypatch.setattr(solvers, "time", clock)
        solve_subset_enum(instance, SolverBudget(max_seconds=math.inf))
        checks = len(reads) - 1  # the first read starts the budget
        assert checks == -(-nodes // 655) > 16
        reads.clear()
        with pytest.raises(BudgetExceededError):
            solve_subset_enum(instance, SolverBudget(max_seconds=checks // 2))
        assert len(reads) - 1 == checks // 2 + 1

    def test_one_budget_is_one_clock_across_calls(self, tmp_path, monkeypatch):
        # The clock starts when the budget is made, not when a solver is
        # called: the second call on the same budget finds it spent.
        instance = generated_monroe(tmp_path, "sum")
        now = [0.0]
        monkeypatch.setattr(solvers, "time", SimpleNamespace(monotonic=lambda: now[0]))
        budget = SolverBudget(max_seconds=1.0)
        now[0] = 0.6
        solve_subset_enum(instance, budget)
        now[0] = 1.2
        with pytest.raises(BudgetExceededError, match="wall-clock"):
            solve_subset_enum(instance, budget)
        solve_subset_enum(instance, SolverBudget(max_seconds=1.0))

    @pytest.mark.parametrize(
        "pool, message",
        [
            ([0, 0, 1], "candidate pool must hold distinct indices in 0..3, got [0, 0, 1]"),
            ([-1, 0], "candidate pool must hold distinct indices in 0..3, got [-1, 0]"),
            ([0, 1, 4], "candidate pool must hold distinct indices in 0..3, got [0, 1, 4]"),
            ([3], "candidate pool smaller than the committee size"),
        ],
        ids=["duplicate", "negative", "past-m", "smaller-than-k"],
    )
    def test_rejects_a_malformed_candidate_pool(self, profile_3v4c, pool, message):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.SUM, k=2)
        with pytest.raises(ValueError) as caught:
            solve_subset_enum(instance, candidate_pool=pool)
        assert str(caught.value) == message

    @settings(max_examples=300, deadline=None)
    @given(tied_instances())
    def test_ties_break_as_the_plain_minimum(self, drawn):
        instance, pool = drawn
        solution = solve_subset_enum(instance, candidate_pool=pool)
        expected = best_by_scoring_every_committee(
            instance, range(instance.matrix.m) if pool is None else pool
        )
        got = (
            solution.objective_value,
            solution.assignment.winner_set,
            solution.assignment.mapping,
        )
        assert got == expected

    @settings(max_examples=100, deadline=None)
    @given(tied_instances(), st.sampled_from([2**7, 2**15, 2**63 - 1, 2**64 + 3]))
    def test_wide_entries_break_ties_as_the_plain_minimum(self, drawn, scale):
        # Scaling keeps every tie and every order, and moves the packed
        # fields to 2, 4 or 8 bytes, or past 8, where they are read by slices.
        instance, pool = drawn
        rows = tuple(tuple(x * scale for x in row) for row in instance.matrix.rows)
        instance = dataclasses.replace(instance, matrix=MisrepMatrix(rows))
        solution = solve_subset_enum(instance, candidate_pool=pool)
        expected = best_by_scoring_every_committee(
            instance, range(instance.matrix.m) if pool is None else pool
        )
        got = (
            solution.objective_value,
            solution.assignment.winner_set,
            solution.assignment.mapping,
        )
        assert got == expected

    @pytest.mark.parametrize("objective", ["sum", "minimax"])
    def test_cc_memory_does_not_grow_with_the_committee_count(self, tmp_path, objective):
        # C(20, 10) = 184 756 committees; holding one pair per committee
        # takes tens of MB.
        instance = generated_cc(tmp_path, 20, 20, 10, objective)
        tracemalloc.start()
        try:
            solve_subset_enum(instance)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024

    @pytest.mark.parametrize("objective", ["sum", "minimax"])
    def test_pruned_walk_visits_fewer_nodes_than_committees(
        self, tmp_path, monkeypatch, objective
    ):
        instance = generated_cc(tmp_path, 20, 20, 10, objective)
        steps = count_walk_steps(monkeypatch)
        solve_subset_enum(instance)
        assert 0 < len(steps) < math.comb(20, 10) / 5

    @pytest.mark.parametrize("objective", ["sum", "minimax"])
    def test_answers_300_seats_without_recursion(self, tmp_path, capsys, objective):
        # The walk's frames go one seat deep each, 300 here; they wait on a
        # list, not on the call stack.
        path, solution = tmp_path / "deep.elect", tmp_path / "deep.sol"
        assert main([
            "gen", "random", "--m", "301", "--n", "301", "--k", "300", "--rule", "cc",
            "--objective", objective, "--seed", "1", "--out", str(path),
        ]) == 0
        capsys.readouterr()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            code = main([
                "solve", str(path), "--solver", "subset-enum",
                "--budget-subset-candidates", "400",
            ])
        finally:
            sys.setrecursionlimit(limit)
        solution.write_text(capsys.readouterr().out)
        assert code == 0
        assert main(["verify", str(path), str(solution)]) == 0


@st.composite
def walk_tables(draw):
    """Rows of a Borda, approval or wide-entry table, m <= 6 and n <= 8."""
    m, n = draw(st.integers(2, 6)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["borda", "approval", "wide"]))
    if kind == "borda":
        return [draw(st.permutations(range(m))) for _ in range(n)]
    entry = st.integers(0, 1) if kind == "approval" else st.integers(0, 2**70)
    row = st.lists(entry, min_size=m, max_size=m)
    return draw(st.lists(row, min_size=n, max_size=n))


def walked(k, objective, limit, leaf, rows, pool):
    """The committee walk's `leaf` calls and node count, with a check per node."""
    calls, checks = [], []

    def recorded(value, committee):
        calls.append((committee, value))
        return leaf(value)

    budget = SimpleNamespace(check=lambda: checks.append(1))
    packing = solvers._pack_pool(MisrepMatrix(tuple(map(tuple, rows))), pool)
    with mock.patch.object(solvers, "_ENTRIES_PER_CHECK", 0):
        solvers._committee_walk(packing, k, objective, budget, limit, recorded)
    return calls, len(checks)


def walked_by_lists(k, objective, limit, leaf, rows, pool):
    """`walked`, from `walk_by_lists`."""
    calls = []

    def recorded(value, committee):
        calls.append((committee, value))
        return leaf(value)

    combine = sum if objective is Objective.SUM else max
    return calls, walk_by_lists(rows, pool, k, combine, limit, recorded)


class TestCommitteeWalk:
    @settings(max_examples=300, deadline=None)
    @given(walk_tables(), st.data())
    def test_singleton_gains_bound_each_pair(self, rows, data):
        # value(P+j+l) >= value(P+j) + value(P+l) - value(P), from each
        # voter's largest entry, as the walk's sum leaves are skipped.
        m = len(rows[0])
        candidate = st.integers(0, m - 1)
        j, l = data.draw(st.lists(candidate, min_size=2, max_size=2, unique=True))
        prefix = data.draw(st.sets(candidate))

        def value(committee):
            return sum(min([max(row), *(row[c] for c in committee)]) for row in rows)

        assert value(prefix | {j, l}) >= (
            value(prefix | {j}) + value(prefix | {l}) - value(prefix)
        )

    @settings(max_examples=300, deadline=None)
    @given(
        tied_instances(),
        st.sampled_from([1, 2**7, 2**64 + 3]),
        st.one_of(st.none(), st.integers(-1, 16)),
    )
    def test_agrees_with_the_list_walk(self, drawn, scale, bound):
        # Keeping the strictly better committees from no limit, as the CC
        # walk does, or collecting those within a fixed limit, as the
        # second Monroe walk does: `leaf` sees the same committees in the
        # same order and the walk visits the same nodes as one that folds
        # every leaf and tests every child against plain lists.
        instance, pool = drawn
        rows = [[x * scale for x in row] for row in instance.matrix.rows]
        pool = sorted(range(instance.matrix.m) if pool is None else pool)
        if bound is None:
            limit, leaf = math.inf, lambda value: value - 1
        else:
            limit = -1 if bound < 0 else bound * scale
            leaf = lambda value: limit  # noqa: E731
        args = (instance.k, instance.objective, limit, leaf, rows, pool)
        assert walked(*args) == walked_by_lists(*args)

    def test_minimax_limit_falls_deep_in_the_walk(self):
        # Voter v's entry is its distance from candidate 1 + v % 9, so the
        # one committee of three at value 1 is (2, 5, 8), and the limit
        # falls again and again under open frames, five times within the
        # last-seat loop under (0, 1).
        rows = [[abs(c - 1 - v % 9) for c in range(10)] for v in range(18)]
        args = (3, Objective.MINIMAX, math.inf, lambda v: v - 1, rows, range(10))
        calls, nodes = walked(*args)
        assert (calls, nodes) == walked_by_lists(*args)
        assert [value for _, value in calls] == [7, 6, 5, 4, 3, 2, 1]
        assert calls[-1][0] == (2, 5, 8)
        assert [committee[:2] for committee, _ in calls].count((0, 1)) == 5

    @pytest.mark.parametrize("table", ["borda", "approval", "explicit"])
    @pytest.mark.parametrize("objective", list(Objective))
    def test_monroe_collects_every_committee_within_its_bound(
        self, monkeypatch, table, objective
    ):
        # The second walk's limit U is the Monroe value of the CC-optimal
        # committee, and it passes every committee whose CC value is <= U,
        # in lexicographic order, with that value.
        rng = random.Random(f"collect/{table}/{objective.value}")
        walks = []
        walk = solvers._committee_walk

        def recorded(packing, k, objective, budget, limit, leaf):
            calls = []
            walks.append((limit, calls))

            def seen(value, committee):
                calls.append((committee, value))
                return leaf(value, committee)

            walk(packing, k, objective, budget, limit, seen)

        monkeypatch.setattr(solvers, "_committee_walk", recorded)
        combine = sum if objective is Objective.SUM else max
        for trial in range(40):
            instance = random_table_instance(rng, Rule.MONROE, objective, table)
            m, k, rows = instance.matrix.m, instance.k, instance.matrix.rows
            pool = sorted(rng.sample(range(m), rng.randint(k, m)))
            pool = range(m) if trial % 2 else pool
            walks.clear()
            solve_subset_enum(instance, candidate_pool=pool)
            (_, first), (bound, collected) = walks
            cc_optimal = first[-1][0]
            assert bound == balanced_solution(
                cc_optimal, instance.matrix, objective
            ).objective_value
            values = {
                committee: combine(min(row[c] for c in committee) for row in rows)
                for committee in itertools.combinations(pool, k)
            }
            assert collected == [
                (committee, value)
                for committee, value in values.items()
                if value <= bound
            ]


class TestPartitionEnum:
    @pytest.mark.parametrize("rule", list(Rule))
    @pytest.mark.parametrize("objective", list(Objective))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_agrees_with_subset_enum(self, profile_3v4c, rule, objective, k):
        instance = instance_for(profile_3v4c, rule, objective, k=k)
        by_partition = solve_partition_enum(instance)
        by_subset = solve_subset_enum(instance)
        assert by_partition.objective_value == by_subset.objective_value
        report = verify_solution(
            instance_for(
                profile_3v4c, rule, objective, k=k, bound=by_partition.objective_value
            ),
            by_partition,
        )
        assert report.ok, report.checks

    def test_all_singletons_when_k_equals_n(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.MONROE, Objective.SUM, k=3)
        solution = solve_partition_enum(instance)
        assert solution.objective_value == 0
        assert solution.assignment.mapping == (0, 1, 2)

    def test_balanced_rule_example(self, profile_6v4c):
        instance = instance_for(profile_6v4c, Rule.MONROE, Objective.SUM, k=3)
        assert solve_partition_enum(instance).objective_value == 2

    @pytest.mark.parametrize("objective", list(Objective))
    def test_block_matching_is_a_cheapest_injective_map(self, objective):
        # Every injective block-to-candidate map is tried.  Under minimax
        # the matching also costs the least in total among the maps at its
        # bottleneck, since it is seated at the value with the real costs.
        combine = sum if objective is Objective.SUM else max
        rng = random.Random(4151)
        for _ in range(400):
            m, n = rng.randint(1, 6), rng.randint(1, 7)
            top = rng.choice((1, 3, 9))
            matrix = MisrepMatrix(
                tuple(tuple(rng.randint(0, top) for _ in range(m)) for _ in range(n))
            )
            b = rng.randint(1, min(m, n))
            cuts = sorted(rng.sample(range(1, n), b - 1))
            voters = rng.sample(range(n), n)
            blocks = [voters[i:j] for i, j in zip([0, *cuts], [*cuts, n])]
            costs = [
                [combine(matrix.rows[v][c] for v in block) for c in range(m)]
                for block in blocks
            ]
            maps = [
                [costs[i][c] for i, c in enumerate(chosen)]
                for chosen in itertools.permutations(range(m), b)
            ]
            value, chosen = solvers._match_blocks(blocks, matrix, objective)
            assert len(chosen) == b and len(set(chosen)) == b
            assert value == min(map(combine, maps))
            matched = [costs[i][c] for i, c in enumerate(chosen)]
            assert combine(matched) == value
            if objective is Objective.MINIMAX:
                assert sum(matched) == min(sum(x) for x in maps if max(x) == value)

    @pytest.mark.parametrize("rule, partitions", [(Rule.MONROE, 280), (Rule.CC, 3281)])
    def test_reaches_only_admissible_partitions(self, rule, partitions):
        # Nine voters fall into three blocks of three in 9!/(3!^4) = 280
        # ways, and into at most three blocks in S(9,1) + S(9,2) + S(9,3)
        # = 1 + 255 + 3025 ways; each partition is one leaf of the search.
        votes = ["a b c d", "b c d a", "c d a b", "d a b c"] * 2 + ["a c b d"]
        election = ranked("a b c d", *votes)
        instance = instance_for(election, rule, Objective.SUM, k=3)
        with count_leaves() as leaves:
            solution = solve_partition_enum(instance)
        assert len(leaves) == partitions
        assert solution.objective_value == solve_subset_enum(instance).objective_value

    def test_voter_budget(self):
        election = ranked("a b", *(["a b"] * 10))
        instance = instance_for(election, Rule.CC, Objective.SUM, k=1)
        with pytest.raises(BudgetExceededError):
            solve_partition_enum(instance)


class TestBranchSum:
    def test_witness_at_generous_bound(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.SUM, k=1, bound=2)
        solution = solve_cc_branch_rk(instance)
        assert solution is not None
        assert solution.assignment.winner_set == (1,)
        assert solution.objective_value == 2

    def test_zero_bound_distinct_tops(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.SUM, k=3, bound=0)
        solution = solve_cc_branch_rk(instance)
        assert solution is not None
        assert solution.assignment.winner_set == (0, 1, 2)
        assert solution.objective_value == 0

    def test_absent_below_optimum(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.SUM, k=1, bound=1)
        assert solve_cc_branch_rk(instance) is None

    def test_sparsity_precondition(self):
        election = ranked("a b c", "a b c")
        matrix = MisrepMatrix(((0, 0, 0),))
        instance = ProblemInstance(
            ranked("a b c", "a b c"), matrix, Rule.CC, Objective.SUM, 1, 1
        )
        with pytest.raises(ValueError, match="solve_subset_enum"):
            solve_cc_branch_rk(instance)

    def test_search_tree_leaf_bound(self):
        rng = random.Random(414)
        for _ in range(60):
            bound = rng.randint(0, 4)
            instance = random_borda_instance(
                rng, Rule.CC, Objective.SUM, bound=bound
            )
            with count_leaves() as leaves:
                solve_cc_branch_rk(instance)
            assert len(leaves) <= (bound + 1) ** (bound + instance.k)

    def test_agrees_with_oracle_on_random_instances(self):
        rng = random.Random(8128)
        for _ in range(40):
            instance = random_borda_instance(rng, Rule.CC, Objective.SUM)
            oracle = solve_subset_enum(instance).objective_value
            found = optimize(instance, "branch-rk")
            assert found.objective_value == oracle

    def test_answers_1500_voters_without_recursion(self, tmp_path):
        # Every voter a chosen candidate serves above 0 takes one level of
        # the search, so its depth grows with n; the open nodes wait on a
        # list, not on the call stack.  `auto` finds the same value.
        path = tmp_path / "m3n1500.elect"
        assert main([
            "gen", "random", "--m", "3", "--n", "1500", "--k", "1", "--rule", "cc",
            "--seed", "1", "--out", str(path),
        ]) == 0
        instance = parse_instance(path.read_text())
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            name, solution = solve(instance, "branch-rk")
        finally:
            sys.setrecursionlimit(limit)
        assert (name, solution.objective_value) == ("branch-rk", 1483)
        assert verify_solution(instance, solution).ok
        assert solve(instance)[1].objective_value == 1483


class TestBranchMinimax:
    def test_witness(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.MINIMAX, k=1, bound=1)
        solution = solve_cc_branch_rk(instance)
        assert solution is not None
        assert solution.assignment.winner_set == (1,)

    def test_absent_at_zero_with_three_tops(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.MINIMAX, k=2, bound=0)
        assert solve_cc_branch_rk(instance) is None

    def test_max_entry_bound_always_feasible(self, profile_6v4c):
        instance = instance_for(profile_6v4c, Rule.CC, Objective.MINIMAX, k=1, bound=3)
        assert solve_cc_branch_rk(instance) is not None

    def test_search_tree_leaf_bound(self):
        rng = random.Random(1729)
        for _ in range(60):
            bound = rng.randint(0, 4)
            instance = random_borda_instance(
                rng, Rule.CC, Objective.MINIMAX, bound=bound
            )
            with count_leaves() as leaves:
                solve_cc_branch_rk(instance)
            assert len(leaves) <= (bound + 1) ** instance.k

    def test_voter_without_a_candidate_within_the_bound_is_a_leaf(self):
        # Choosing a serves voter 0; voter 1 approves nothing, so no
        # candidate is within bound 0 of it and its node cannot branch.
        election = ranked("a b", "a b", "b a")
        matrix = build_misrep(election, ApprovalMisrep(((0,), ())))
        instance = instance_for(election, Rule.CC, Objective.MINIMAX, 2, 0, matrix)
        with count_leaves() as leaves:
            assert solve_cc_branch_rk(instance) is None
        assert leaves == [((1,), 1, frozenset({0}))]


class TestConstantBound:
    def test_zero_bound(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.SUM, k=3, bound=0)
        solution = solve_constantR(instance)
        assert solution is not None
        assert solution.assignment.winner_set == (0, 1, 2)

    def test_witness_names_cheap_committee(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.SUM, k=2, bound=1)
        solution = solve_constantR(instance)
        assert solution is not None
        assert solution.assignment.winner_set == (1, 2)
        assert solution.objective_value == 1

    def test_absent(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.SUM, k=1, bound=1)
        assert solve_constantR(instance) is None

    def test_balanced_rule(self, profile_6v4c):
        feasible = instance_for(profile_6v4c, Rule.MONROE, Objective.SUM, k=3, bound=2)
        solution = solve_constantR(feasible)
        assert solution is not None
        assert solution.objective_value == 2
        assert solution.m_criterion_satisfied
        short = instance_for(profile_6v4c, Rule.MONROE, Objective.SUM, k=3, bound=1)
        assert solve_constantR(short) is None

    def test_uniqueness_precondition(self):
        election = ranked("a b c", "a b c")
        matrix = MisrepMatrix(((0, 0, 1),))
        instance = ProblemInstance(election, matrix, Rule.CC, Objective.SUM, 1, 1)
        with pytest.raises(ValueError, match="one candidate per voter per value"):
            solve_constantR(instance)

    def test_bound_budget(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.SUM, k=1, bound=4)
        with pytest.raises(BudgetExceededError):
            solve_constantR(instance)


    def test_gives_up_at_once_when_the_tops_outnumber_the_bound(self, tmp_path):
        # 1500 voters over 3 candidates with k = 1: about 1000 voters pay on
        # any committee, far above every bound within the cap of 3.
        path = tmp_path / "m3.elect"
        argv = ["gen", "random", "--m", "3", "--n", "1500", "--k", "1", "--rule", "cc"]
        assert main([*argv, "--seed", "1", "--out", str(path)]) == 0
        started = time.perf_counter()
        argv = ["solve", str(path), "--solver", "constant-r", "--budget-seconds", "10"]
        assert main(argv) == 3
        assert time.perf_counter() - started < 5
        instance = parse_instance(path.read_text())
        for bound in range(4):
            assert solve_constantR(dataclasses.replace(instance, bound=bound)) is None

    def test_pruning_agrees_with_the_unpruned_search(self, monkeypatch):
        rng = random.Random(26)
        pruned = 0
        for _ in range(200):
            rule = rng.choice((Rule.CC, Rule.MONROE))
            instance = random_borda_instance(
                rng, rule, Objective.SUM, max_m=4, max_n=7, bound=rng.randint(0, 3)
            )
            answer = solve_constantR(instance)
            tables = solvers._unique_value_candidates(instance.matrix, instance.bound)
            pruned += solvers._tops_exceed(tables, instance.k, instance.bound)
            with monkeypatch.context() as patch:
                patch.setattr(solvers, "_tops_exceed", lambda *args: False)
                assert solve_constantR(instance) == answer
        assert pruned > 20


class TestBalancedRuleDecision:
    def test_sum_small_instance_uses_partitions(self, profile_6v4c):
        instance = instance_for(profile_6v4c, Rule.MONROE, Objective.SUM, k=3, bound=2)
        solution = solve_m_mw_rk(instance)
        assert solution is not None
        assert solution.objective_value == 2
        tight = instance_for(profile_6v4c, Rule.MONROE, Objective.SUM, k=3, bound=1)
        assert solve_m_mw_rk(tight) is None

    def test_sum_absent_with_many_favorites(self):
        m = 7
        votes = [" ".join(f"c{(i + j) % m}" for j in range(m)) for i in range(m)]
        election = ranked(" ".join(f"c{i}" for i in range(m)), *votes)
        instance = instance_for(election, Rule.MONROE, Objective.SUM, k=1, bound=1)
        assert solve_m_mw_rk(instance) is None

    def test_sum_favorite_pool_path(self):
        election = ranked("a b c d", *(["a b c d"] * 4 + ["b a c d"] * 4))
        instance = instance_for(election, Rule.MONROE, Objective.SUM, k=2, bound=1)
        solution = solve_m_mw_rk(instance)
        assert solution is not None
        assert solution.objective_value == 0
        assert solution.assignment.winner_set == (0, 1)

    def test_minimax_small_instance(self, profile_3v4c):
        instance = instance_for(
            profile_3v4c, Rule.MONROE, Objective.MINIMAX, k=3, bound=0
        )
        solution = solve_m_mw_rk(instance)
        assert solution is not None
        assert solution.assignment.winner_set == (0, 1, 2)

    def test_minimax_decision_boundary(self, profile_6v4c):
        at_one = instance_for(profile_6v4c, Rule.MONROE, Objective.MINIMAX, k=3, bound=1)
        solution = solve_m_mw_rk(at_one)
        assert solution is not None
        assert solution.objective_value <= 1
        at_zero = instance_for(
            profile_6v4c, Rule.MONROE, Objective.MINIMAX, k=3, bound=0
        )
        assert solve_m_mw_rk(at_zero) is None

    def test_minimax_serving_pool_path(self):
        election = ranked("a b c d", *(["a b c d"] * 5 + ["b a c d"] * 3))
        at_one = instance_for(election, Rule.MONROE, Objective.MINIMAX, k=2, bound=1)
        solution = solve_m_mw_rk(at_one)
        assert solution is not None
        assert solution.objective_value == 1
        at_zero = instance_for(election, Rule.MONROE, Objective.MINIMAX, k=2, bound=0)
        assert solve_m_mw_rk(at_zero) is None

    @staticmethod
    def count_probes_and_calls(monkeypatch, name):
        """Bounds probed by the monroe-rk search, and calls of `solvers.name`."""
        probes, calls = [], []
        make, run = solving.m_mw_rk_decider, getattr(solvers, name)

        def probing(budget):
            decide = make(budget)

            def probe(instance):
                probes.append(instance.bound)
                return decide(instance)

            return probe

        def counted(*args, **kwargs):
            calls.append(1)
            return run(*args, **kwargs)

        monkeypatch.setattr(solving, "m_mw_rk_decider", probing)
        monkeypatch.setattr(solvers, name, counted)
        return probes, calls

    def test_bound_search_enumerates_partitions_once(self, monkeypatch):
        election = random_election(random.Random(3), 6, 9)
        instance = instance_for(election, Rule.MONROE, Objective.SUM, k=3)
        expected = solve_partition_enum(instance)
        probes, calls = self.count_probes_and_calls(monkeypatch, "solve_partition_enum")
        solution = optimize(instance, "monroe-rk")
        # Partition enumeration serves every bound with n <= (bound+1)k.
        assert sum(9 <= (bound + 1) * 3 for bound in probes) > 1
        assert len(calls) == 1
        assert solution == expected

    def test_sum_bound_search_enumerates_the_favorite_pool_once(self, monkeypatch):
        # The optimum moves two "a" voters to "b", cost 2, so bounds 0, 1
        # and 2 are probed, each over the pool {a, b} with 12 > (bound+1)2.
        election = ranked("a b c d", *(["a b c d"] * 8 + ["b a c d"] * 4))
        instance = instance_for(election, Rule.MONROE, Objective.SUM, k=2)
        probes, calls = self.count_probes_and_calls(monkeypatch, "solve_subset_enum")
        solution = optimize(instance, "monroe-rk")
        assert probes == [0, 1, 2]
        assert len(calls) == 1
        assert (solution.objective_value, solution.assignment.winner_set) == (2, (0, 1))


class TestMinimaxZeroBound:
    def test_distinct_tops(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.MINIMAX, k=3, bound=0)
        solution = solve_minimax_R0(instance)
        assert solution is not None
        assert solution.assignment.winner_set == (0, 1, 2)
        assert solution.objective_value == 0

    def test_too_many_tops(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.MINIMAX, k=2, bound=0)
        assert solve_minimax_R0(instance) is None

    def test_balanced_rule_needs_exact_winner_count(self, profile_6v4c):
        instance = instance_for(
            profile_6v4c, Rule.MONROE, Objective.MINIMAX, k=3, bound=0
        )
        assert solve_minimax_R0(instance) is None

    def test_balanced_rule_accepts_even_split(self):
        election = ranked("a b", "a b", "a b", "a b", "b a", "b a", "b a")
        instance = instance_for(election, Rule.MONROE, Objective.MINIMAX, k=2, bound=0)
        solution = solve_minimax_R0(instance)
        assert solution is not None
        assert solution.assignment.loads() == (3, 3)

    def test_balanced_rule_rejects_lopsided_tops(self, profile_6v4c):
        instance = instance_for(
            profile_6v4c, Rule.MONROE, Objective.MINIMAX, k=2, bound=0
        )
        # Tops are a and c, but a is top for four of six voters.
        assert solve_minimax_R0(instance) is None

    def test_preconditions(self, profile_3v4c):
        with pytest.raises(ValueError, match="bound-zero"):
            solve_minimax_R0(
                instance_for(profile_3v4c, Rule.CC, Objective.MINIMAX, k=1, bound=1)
            )
        with pytest.raises(ValueError, match="minimax"):
            solve_minimax_R0(
                instance_for(profile_3v4c, Rule.CC, Objective.SUM, k=1, bound=0)
            )
        matrix = MisrepMatrix(((0, 0, 1),))
        bad = ProblemInstance(
            ranked("a b c", "a b c"), matrix, Rule.CC, Objective.MINIMAX, 1, 0
        )
        with pytest.raises(ValueError, match="exactly one zero"):
            solve_minimax_R0(bad)


class TestOptimize:
    def test_branch_minimax_optimum(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.MINIMAX, k=1)
        assert optimize(instance, "branch-rk").objective_value == 1

    def test_branch_sum_optimum(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.SUM, k=2)
        assert optimize(instance, "branch-rk").objective_value == 1

    def test_full_committee_is_free(self):
        election = ranked("a b", "a b", "b a", "a b")
        instance = instance_for(election, Rule.CC, Objective.SUM, k=2)
        assert optimize(instance, "branch-rk").objective_value == 0

    def test_constant_bound_optimum(self, profile_6v4c):
        instance = instance_for(profile_6v4c, Rule.MONROE, Objective.SUM, k=3)
        assert optimize(instance, "constant-r").objective_value == 2

    def test_balanced_rule_optima(self, profile_6v4c):
        by_sum = instance_for(profile_6v4c, Rule.MONROE, Objective.SUM, k=3)
        assert optimize(by_sum, "monroe-rk").objective_value == 2
        by_max = instance_for(profile_6v4c, Rule.MONROE, Objective.MINIMAX, k=3)
        assert optimize(by_max, "monroe-rk").objective_value == 1

    def test_enumeration_passthrough(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.SUM, k=2)
        assert optimize(instance, "subset-enum").objective_value == 1
        assert optimize(instance, "partition-enum").objective_value == 1

    def test_unsupported_pairings(self, profile_3v4c):
        with pytest.raises(ValueError, match="does not support"):
            optimize(
                instance_for(profile_3v4c, Rule.CC, Objective.SUM, k=1), "monroe-rk"
            )
        with pytest.raises(ValueError, match="does not support"):
            optimize(
                instance_for(profile_3v4c, Rule.CC, Objective.MINIMAX, k=1),
                "minimax-r0",
            )

    def test_unknown_solver_names_the_choices(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.SUM, k=1)
        choices = ", ".join(SOLVERS)
        for run in (optimize, solve):
            with pytest.raises(ValueError) as raised:
                run(instance, "nope")
            assert str(raised.value) == f"unknown solver 'nope'; choose from {choices}"


class TestCrossSolverAgreement:
    @pytest.mark.parametrize("rule", list(Rule))
    @pytest.mark.parametrize("objective", list(Objective))
    def test_random_borda_instances(self, rule, objective):
        rng = random.Random(hash((rule.value, objective.value)) & 0xFFFF)
        for _ in range(25):
            instance = random_borda_instance(rng, rule, objective)
            oracle = solve_subset_enum(instance)
            values = {"subset": oracle.objective_value}
            values["partition"] = solve_partition_enum(instance).objective_value
            if rule is Rule.CC:
                values["branch"] = optimize(instance, "branch-rk").objective_value
            else:
                values["monroe-rk"] = optimize(instance, "monroe-rk").objective_value
            if objective is Objective.SUM and oracle.objective_value <= 3:
                values["constant"] = optimize(instance, "constant-r").objective_value
            assert len(set(values.values())) == 1, values

    def test_zero_bound_objectives_coincide(self):
        # At bound zero a committee is feasible for the sum objective exactly
        # when it is feasible for the minimax objective.
        rng = random.Random(77)
        for _ in range(25):
            for rule in Rule:
                instance = random_borda_instance(rng, rule, Objective.SUM)
                sum_zero = solve_subset_enum(instance).objective_value == 0
                flipped = ProblemInstance(
                    instance.election,
                    instance.matrix,
                    rule,
                    Objective.MINIMAX,
                    instance.k,
                    0,
                )
                max_zero = solve_subset_enum(flipped).objective_value == 0
                assert sum_zero == max_zero

    def test_threshold_matrix_preserves_minimax_decision(self):
        rng = random.Random(404)
        for _ in range(25):
            for rule in Rule:
                instance = random_borda_instance(rng, rule, Objective.MINIMAX)
                cut = rng.randint(0, instance.matrix.max_value())
                original = solve_subset_enum(instance).objective_value <= cut
                thresholded = ProblemInstance(
                    instance.election,
                    threshold(instance.matrix, cut),
                    rule,
                    Objective.MINIMAX,
                    instance.k,
                    0,
                )
                zeroed = solve_subset_enum(thresholded).objective_value == 0
                assert original == zeroed


@functools.cache
def pinned_solves() -> tuple[dict, str, str]:
    """What `solve` answers under each name below, at bounds 0 to min(worst, 4).

    Returns the outcome counts and two digests.  Each answer is the
    answering name with (value, winners, mapping, balanced flag), or None,
    or only the class of the exception raised, since error texts may
    change.  The first digest leaves the mapping out, so it stays fixed
    when only a witness's seating moves among equally good ones; the
    second covers it.  Tables cycle through Borda, prefix approvals and
    explicit rows with ties, under both rules and both objectives; the sp-*
    solvers run on single-peaked profiles.
    """
    rng = random.Random(1402)
    values, full = hashlib.sha256(), hashlib.sha256()
    counts = {"solved": 0, "none": 0, "raised": 0}

    def record(instance, names):
        worst = worst_bound(instance.matrix, instance.objective)
        for bound in range(min(worst, 4) + 1):
            probe = dataclasses.replace(instance, bound=bound)
            for name in names:
                try:
                    answered, solution = solve(probe, name)
                except (BudgetExceededError, ValueError) as error:
                    result = answer = type(error).__name__
                    counts["raised"] += 1
                else:
                    if solution is None:
                        result = answer = None
                        counts["none"] += 1
                    else:
                        answer = (
                            answered,
                            solution.objective_value,
                            solution.assignment.winner_set,
                            solution.m_criterion_satisfied,
                        )
                        result = (*answer[:3], solution.assignment.mapping, answer[3])
                        counts["solved"] += 1
                values.update(repr(answer).encode())
                full.update(repr(result).encode())

    names = (
        "branch-rk", "monroe-rk", "partition-enum", "minimax-r0", "constant-r",
        "subset-enum",
    )
    for trial in range(48):
        # Partition enumeration grows fast in n and k, so only every
        # sixth instance may have seven or eight voters, and k <= 3.
        m, n = rng.randint(1, 6), rng.randint(1, 8 if trial % 6 == 0 else 6)
        k = rng.randint(1, min(m, n, 3))
        election = random_election(rng, m, n)
        kind = trial % 3
        if kind == 0:
            spec = BordaMisrep()
        elif kind == 1:
            spec = ApprovalMisrep(random_prefix_approvals(rng, election))
        else:
            rows = []
            for vote in election.votes:
                row, value = [0] * m, 0
                for c in vote:
                    row[c] = value
                    value += rng.randint(0, 2)
                rows.append(tuple(row))
            spec = ExplicitMisrep(tuple(rows))
        matrix = build_misrep(election, spec)
        for rule in Rule:
            for objective in Objective:
                record(ProblemInstance(election, matrix, rule, objective, k, 0), names)
    for trial in range(24):
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        election, _ = sample_single_peaked_election(rng, m, n)
        spec = (
            BordaMisrep()
            if trial % 2
            else ApprovalMisrep(random_prefix_approvals(rng, election))
        )
        matrix = build_misrep(election, spec)
        for k in range(1, min(m, n) + 1):
            for objective in Objective:
                instance = ProblemInstance(election, matrix, Rule.CC, objective, k, 0)
                record(instance, ("sp-dp", "sp-greedy"))
    return counts, values.hexdigest(), full.hexdigest()


class TestPinnedSolves:
    def test_named_values_are_pinned(self):
        # Names, values, winners and balanced flags, without the mappings.
        counts, values, _ = pinned_solves()
        assert counts == {"solved": 1771, "none": 540, "raised": 2651}
        assert values == (
            "ce5f8422fd1a5e9dfe16713cc35ff324c42af97c3abad94cb906e10058475b22"
        )

    def test_named_solves_are_pinned(self):
        # Everything above and every mapping; Monroe witnesses follow the
        # seating of `assignment._seat`'s shortest paths.
        counts, _, full = pinned_solves()
        assert counts == {"solved": 1771, "none": 540, "raised": 2651}
        assert full == (
            "2fcead7f3e0cee15d0fc35c4cfb0ce6082fc43cabec3c73dce0705c3fdd084ca"
        )

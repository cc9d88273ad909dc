"""Voter-to-committee assignment: argmin maps, balanced flows, oracles."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proprep import assignment
from proprep.assignment import (
    assign_cc,
    balanced_solution,
    committee_solution,
)
from proprep.core import (
    ApprovalMisrep,
    Assignment,
    BordaMisrep,
    BudgetExceededError,
    Election,
    ExplicitMisrep,
    MisrepMatrix,
    Objective,
    ProblemInstance,
    Rule,
    balanced_loads,
    build_misrep,
    check_m_criterion,
    evaluate,
    verify_solution,
)
from proprep.fileio import worst_bound
from proprep.generators import random_prefix_approvals

from conftest import ranked
from oracles import cheapest_seating, enumerate_balanced_assignments


def borda(election):
    return build_misrep(election, BordaMisrep())


def random_election(rng: random.Random, m: int, n: int) -> Election:
    names = tuple(f"c{i}" for i in range(m))
    votes = tuple(
        tuple(rng.sample(range(m), m)) for _ in range(n)
    )
    return Election(names, votes)


class TestAssignCC:
    def test_best_winner_per_voter(self, profile_3v4c):
        matrix = borda(profile_3v4c)
        assignment = assign_cc((0, 2), matrix)
        assert assignment.mapping == (0, 2, 2)
        assert evaluate(matrix, assignment.mapping, Objective.SUM) == 1

    def test_single_winner_takes_everyone(self, profile_3v4c):
        matrix = borda(profile_3v4c)
        assignment = assign_cc((3,), matrix)
        assert assignment.mapping == (3, 3, 3)
        assert evaluate(matrix, assignment.mapping, Objective.SUM) == 8

    def test_ties_break_to_lowest_index(self):
        election = ranked("a b c", "a b c", "a b c")
        matrix = build_misrep(election, ApprovalMisrep(((0, 1), (0, 1))))
        assignment = assign_cc((1, 2), matrix)
        assert assignment.mapping == (1, 1)
        # a and b both cost 0 for both voters; the lower index wins.
        tied = assign_cc((0, 1), matrix)
        assert tied.mapping == (0, 0)


class TestEnumerateBalanced:
    def test_counts(self):
        assert len(list(enumerate_balanced_assignments((0, 1), 4))) == 6
        assert len(list(enumerate_balanced_assignments((0, 1), 2))) == 2
        assert len(list(enumerate_balanced_assignments((5,), 3))) == 1
        # Loads (3,2) and (2,3).
        assert len(list(enumerate_balanced_assignments((0, 1), 5))) == 20

    def test_every_map_is_balanced(self):
        for mapping in enumerate_balanced_assignments((0, 1, 2), 7):
            counts = [mapping.count(w) for w in (0, 1, 2)]
            low, high, at_high = balanced_loads(7, 3)
            assert all(low <= c <= high for c in counts)
            assert sum(1 for c in counts if c == high) == at_high

    def test_guard(self):
        with pytest.raises(BudgetExceededError):
            next(enumerate_balanced_assignments((0, 1), 11))


def seated(winners, matrix, bound):
    """``_seat``'s seating at the bound as ``(cost, Assignment)``, or None."""
    found = assignment._seat(winners, matrix, bound)
    if found is None:
        return None
    cost, members = found
    mapping = [-1] * matrix.n
    for w, held in zip(winners, members):
        for voter in held:
            mapping[voter] = w
    return cost, Assignment(winners, tuple(mapping))


def seat_cost(winners, matrix, bound=None):
    """``_seat``'s cost at the bound, or None."""
    found = assignment._seat(winners, matrix, bound)
    return None if found is None else found[0]


def solution_value(winners, matrix, objective, limit=None):
    """``balanced_solution``'s value, or None."""
    found = balanced_solution(winners, matrix, objective, limit)
    return None if found is None else found.objective_value


class TestMonroeAssignments:
    def test_sum_on_skewed_profile(self, profile_6v4c):
        matrix = borda(profile_6v4c)
        solution = balanced_solution((0, 1, 2), matrix, Objective.SUM)
        assert solution.objective_value == 2
        assert solution.m_criterion_satisfied
        assert check_m_criterion(solution.assignment, 6, 3)
        assert evaluate(matrix, solution.assignment.mapping, Objective.SUM) == 2

    def test_minimax_zero_feasible_with_distinct_tops(self, profile_3v4c):
        matrix = borda(profile_3v4c)
        found = balanced_solution((0, 1, 2), matrix, Objective.MINIMAX, 0)
        assert found is not None
        assert found.objective_value == 0
        assert found.assignment.mapping == (0, 1, 2)

    def test_minimax_zero_infeasible_without_top(self, profile_6v4c):
        matrix = borda(profile_6v4c)
        assert assignment._seat((0, 1, 3), matrix, 0) is None
        assert balanced_solution((0, 1, 3), matrix, Objective.MINIMAX, 0) is None

    def test_minimax_max_value_always_feasible(self, profile_6v4c):
        matrix = borda(profile_6v4c)
        found = seated((0, 1, 3), matrix, matrix.max_value())
        assert found is not None
        assert check_m_criterion(found[1], 6, 3)

    def test_flow_matches_enumeration_oracle(self):
        rng = random.Random(90125)
        for _ in range(40):
            m = rng.randint(2, 5)
            n = rng.randint(2, 6)
            k = rng.randint(1, min(m, n))
            election = random_election(rng, m, n)
            matrix = borda(election)
            winners = tuple(sorted(rng.sample(range(m), k)))
            best_sum = min(
                evaluate(matrix, mapping, Objective.SUM)
                for mapping in enumerate_balanced_assignments(winners, n)
            )
            best_max = min(
                evaluate(matrix, mapping, Objective.MINIMAX)
                for mapping in enumerate_balanced_assignments(winners, n)
            )
            solution = balanced_solution(winners, matrix, Objective.SUM)
            assert solution.objective_value == best_sum
            assert check_m_criterion(solution.assignment, n, k)
            solution = balanced_solution(winners, matrix, Objective.MINIMAX)
            assert solution.objective_value == best_max
            assert check_m_criterion(solution.assignment, n, k)

    def test_minimax_bound_search_is_tight(self, profile_6v4c):
        matrix = borda(profile_6v4c)
        solution = balanced_solution((0, 1, 2), matrix, Objective.MINIMAX)
        value = solution.objective_value
        assert value == 1
        assert evaluate(matrix, solution.assignment.mapping, Objective.MINIMAX) == 1
        assert assignment._seat((0, 1, 2), matrix, value - 1) is None

    def test_minimax_value_is_the_first_feasible_table_value(self, monkeypatch):
        # The bisection starts at the committee's CC minimax value; its
        # answer is that of a scan over every table value with the flow.
        # The witness is the seating of the bisection's own test at the
        # value: no seating runs after the bisection, which makes at most
        # floor(log2 L) + 1 tests over the L table values it starts from.
        probed = []
        seat = assignment._seat

        def recorded(winners, matrix, bound):
            probed.append(bound)
            return seat(winners, matrix, bound)

        rng = random.Random(1729)
        for trial in range(120):
            m = rng.randint(2, 6)
            n = rng.randint(2, 9)
            k = rng.randint(1, min(m, n))
            election = random_election(rng, m, n)
            if trial % 2:
                matrix = borda(election)
            else:
                approvals = random_prefix_approvals(rng, election)
                matrix = build_misrep(election, ApprovalMisrep(approvals))
            winners = tuple(sorted(rng.sample(range(m), k)))
            entries = sorted({row[w] for row in matrix.rows for w in winners})
            expected = next(
                bound for bound in entries if seat(winners, matrix, bound) is not None
            )
            nearest = assign_cc(winners, matrix).mapping
            nearest = evaluate(matrix, nearest, Objective.MINIMAX)
            probed.clear()
            with monkeypatch.context() as patched:
                patched.setattr(assignment, "_seat", recorded)
                solution = balanced_solution(winners, matrix, Objective.MINIMAX)
            assert solution.objective_value == expected
            assert min(probed) >= nearest
            assert expected in probed
            tried = sum(1 for bound in entries if bound >= nearest)
            assert len(probed) <= tried.bit_length()
            assert solution.assignment == seated(winners, matrix, expected)[1]


@st.composite
def committee_tables(draw):
    """A table of n <= 12 voters with entries from 0..1, 0..4 or 0..30, and k <= 6 winners."""
    top = draw(st.sampled_from([1, 4, 30]))
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 12))
    entry = st.integers(0, top)
    rows = draw(st.lists(st.tuples(*[entry] * m), min_size=n, max_size=n))
    k = draw(st.integers(1, min(m, n, 6)))
    winners = tuple(sorted(draw(st.permutations(range(m)))[:k]))
    return MisrepMatrix(tuple(rows)), winners


@st.composite
def monroe_tables(draw):
    """Borda, prefix-approval or tied explicit tables of n <= 10 voters, with k winners.

    Explicit rows climb the voter's ranking in steps of 0..2, so a step of 0
    ties two candidates.
    """
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 10))
    votes = tuple(tuple(draw(st.permutations(range(m)))) for _ in range(n))
    election = Election(tuple(f"c{i}" for i in range(m)), votes)
    kind = draw(st.sampled_from(["borda", "approval", "explicit"]))
    if kind == "borda":
        spec = BordaMisrep()
    elif kind == "approval":
        lengths = draw(st.lists(st.integers(0, m), min_size=n, max_size=n))
        spec = ApprovalMisrep(tuple(vote[:j] for vote, j in zip(votes, lengths)))
    else:
        rows = []
        for vote in votes:
            steps = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
            row = [0] * m
            for c, value in zip(vote, itertools.accumulate(steps, initial=0)):
                row[c] = value
            rows.append(tuple(row))
        spec = ExplicitMisrep(tuple(rows))
    k = draw(st.integers(1, min(m, n)))
    winners = tuple(sorted(draw(st.permutations(range(m)))[:k]))
    return build_misrep(election, spec), winners


def least_seating_cost(winners, matrix, bound):
    """``cheapest_seating``'s cost with voters as rows and winners as columns."""
    low, high, _ = balanced_loads(matrix.n, len(winners))
    costs = [
        [row[w] if bound is None or row[w] <= bound else None for w in winners]
        for row in matrix.rows
    ]
    return cheapest_seating(costs, [(low, high)] * len(winners))


def cheapest_balanced_maps(matrix, winners, bounds):
    """Per bound, the smallest sum over balanced maps using only entries within it.

    Every map is enumerated once, for all the bounds; None is no bound.
    """
    cheapest = {}  # a map's largest entry -> the smallest sum of such a map
    for mapping in enumerate_balanced_assignments(winners, matrix.n):
        entries = [matrix.rows[v][w] for v, w in enumerate(mapping)]
        top, cost = max(entries), sum(entries)
        cheapest[top] = min(cost, cheapest.get(top, cost))
    return {
        bound: min(
            (cost for top, cost in cheapest.items() if bound is None or top <= bound),
            default=None,
        )
        for bound in bounds
    }


class TestBalancedCost:
    # Derandomized, so every run draws the same examples: the brute-force
    # oracle's time depends on how many draws have n = 8 and many winners.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(committee_tables())
    def test_equals_the_flow_value_at_every_bound(self, table):
        matrix, winners = table
        bounds = [None, *sorted({x for row in matrix.rows for x in row})]
        if matrix.n <= 8:
            brute = cheapest_balanced_maps(matrix, winners, bounds)
        for bound in bounds:
            expected = least_seating_cost(winners, matrix, bound)
            assert seat_cost(winners, matrix, bound) == expected
            if matrix.n <= 8:
                assert expected == brute[bound]

    @settings(max_examples=200, deadline=None)
    @given(committee_tables())
    def test_minimax_bound_within_a_limit(self, table):
        matrix, winners = table
        entries = sorted({x for row in matrix.rows for x in row})
        value = next(b for b in entries if seated(winners, matrix, b) is not None)
        witness = seated(winners, matrix, value)[1]
        assert solution_value(winners, matrix, Objective.MINIMAX) == value
        for limit in range(-1, max(max(row) for row in matrix.rows) + 2):
            expected = value if value <= limit else None
            found = balanced_solution(winners, matrix, Objective.MINIMAX, limit)
            assert (None if found is None else found.objective_value) == expected
            assert found is None or found.assignment == witness

    @settings(max_examples=200, deadline=None)
    @given(committee_tables())
    def test_sum_value_within_a_limit(self, table):
        matrix, winners = table
        value = seat_cost(winners, matrix)
        assert solution_value(winners, matrix, Objective.SUM) == value
        for limit in (-1, 0, value - 1, value, value + 1):
            expected = value if value <= limit else None
            assert solution_value(winners, matrix, Objective.SUM, limit) == expected

    @settings(max_examples=300, deadline=None)
    @given(monroe_tables())
    def test_witness_is_a_cheapest_balanced_seating(self, table):
        # The witness is `_seat`'s own seating; an exhaustive search checks
        # that it exists exactly when some seating does and that it costs
        # what the cheapest seating costs.
        matrix, winners = table
        for bound in [None, *matrix.distinct_values()]:
            least = least_seating_cost(winners, matrix, bound)
            found = seated(winners, matrix, bound)
            assert (found is None) == (least is None)
            if found is None:
                continue
            cost, witness = found
            assert witness.winner_set == winners
            assert check_m_criterion(witness, matrix.n, len(winners))
            entries = [matrix.rows[v][w] for v, w in enumerate(witness.mapping)]
            assert bound is None or max(entries) <= bound
            assert cost == sum(entries) == least

    @settings(max_examples=300, deadline=None)
    @given(monroe_tables(), st.sampled_from(list(Objective)))
    def test_committee_witness_is_the_seating_at_its_value(self, table, objective):
        # `committee_solution` seats no committee again: its witness is the
        # seating `_seat` finds at the value's own bound, none under sum and
        # the value under minimax.
        matrix, winners = table
        m, n, k = matrix.m, matrix.n, len(winners)
        votes = tuple(
            tuple(sorted(range(m), key=row.__getitem__)) for row in matrix.rows
        )
        election = Election(tuple(f"c{i}" for i in range(m)), votes)
        bound = worst_bound(matrix, objective)
        instance = ProblemInstance(election, matrix, Rule.MONROE, objective, k, bound)
        solution = committee_solution(instance, winners)
        value = solution.objective_value
        at = None if objective is Objective.SUM else value
        assert solution.assignment == seated(winners, matrix, at)[1]
        assert solution.m_criterion_satisfied
        assert check_m_criterion(solution.assignment, n, k)
        assert verify_solution(instance, solution).ok

    def test_a_winner_below_its_floor_is_infeasible(self):
        # Every voter has an entry within 3, but winner 3 has none, so it
        # cannot get its one voter.
        rows = ((3, 3, 0, 4), (3, 4, 4, 4), (2, 1, 4, 4), (3, 2, 4, 4), (4, 3, 3, 4))
        matrix = MisrepMatrix(rows)
        assert seat_cost((0, 1, 2, 3), matrix, 3) is None
        assert balanced_solution((0, 1, 2, 3), matrix, Objective.MINIMAX, 3) is None
        assert seat_cost((0, 1, 2, 3), matrix, 4) == 10

    def test_a_voter_without_an_entry_is_infeasible(self):
        matrix = MisrepMatrix(((0, 1), (2, 2)))
        assert seat_cost((0, 1), matrix, 1) is None
        assert seat_cost((0, 1), matrix) == 2

"""Voter-to-committee assignment: argmin maps, balanced flows, oracles."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proprep import assignment
from proprep.assignment import (
    assign_cc,
    balanced_assignment,
    balanced_cost,
    balanced_value,
    transport,
)
from proprep.core import (
    ApprovalMisrep,
    BordaMisrep,
    BudgetExceededError,
    Election,
    ExplicitMisrep,
    MisrepMatrix,
    Objective,
    balanced_loads,
    build_misrep,
    check_m_criterion,
    evaluate,
)
from proprep.generators import random_prefix_approvals

from conftest import ranked
from oracles import enumerate_balanced_assignments


def borda(election):
    return build_misrep(election, BordaMisrep())


def random_election(rng: random.Random, m: int, n: int) -> Election:
    names = tuple(f"c{i}" for i in range(m))
    votes = tuple(
        tuple(rng.sample(range(m), m)) for _ in range(n)
    )
    return Election(names, votes)


def brute_force_transport(loads, costs, amount):
    """Cheapest owner map by trying every owner (or -1) for every right node."""
    choices = [
        [-1] + [i for i in range(len(loads)) if costs[i][r] is not None]
        for r in range(len(costs[0]))
    ]
    best = None
    for owner in itertools.product(*choices):
        served = [owner.count(i) for i in range(len(loads))]
        if sum(served) != amount or not all(
            low <= count <= high for count, (low, high) in zip(served, loads)
        ):
            continue
        cost = sum(costs[i][r] for r, i in enumerate(owner) if i >= 0)
        if best is None or cost < best:
            best = cost
    return best


class TestTransport:
    def test_matches_brute_force_on_random_tables(self):
        rng = random.Random(2718)
        infeasible = 0
        for _ in range(300):
            left, right = rng.randint(1, 3), rng.randint(1, 5)
            costs = [
                [None if rng.random() < 0.3 else rng.randint(0, 6) for _ in range(right)]
                for _ in range(left)
            ]
            loads = []
            for _ in range(left):
                low = rng.randint(0, 2)
                loads.append((low, rng.randint(low, 3)))
            amount = rng.randint(0, right)
            expected = brute_force_transport(loads, costs, amount)
            result = transport(loads, costs, amount)
            if expected is None:
                infeasible += 1
                assert result is None
                continue
            total, owner = result
            assert total == expected
            assert len(owner) == right
            assert sum(costs[i][r] for r, i in enumerate(owner) if i >= 0) == total
            for i, (low, high) in enumerate(loads):
                assert low <= owner.count(i) <= high
        assert infeasible > 0

    def test_infeasible_when_a_load_cannot_be_met(self):
        # Left node 0 must send two units but reaches only one right node.
        assert transport([(2, 2)], [[1, None, None]], 2) is None
        assert brute_force_transport([(2, 2)], [[1, None, None]], 2) is None

    def test_owner_marks_unserved_right_nodes(self):
        total, owner = transport([(0, 1), (0, 1)], [[5, 1, None], [2, None, 0]], 2)
        assert (total, owner) == (1, [-1, 0, 1])

    def test_witnesses_are_pinned(self):
        # Partition enumeration's block matchings follow transport's
        # tie-breaks, so its exact (cost, owner) on tie-heavy tables is fixed
        # by this digest.
        rng = random.Random(1402)
        digest = hashlib.sha256()
        infeasible = with_lows = 0
        for trial in range(500):
            top = 1 if trial % 2 else 3
            left, right = rng.randint(1, 4), rng.randint(2, 8)
            costs = [
                [None if rng.random() < 0.15 else rng.randint(0, top) for _ in range(right)]
                for _ in range(left)
            ]
            loads = []
            for _ in range(left):
                low = rng.choice((0, 0, 1, 2))
                loads.append((low, rng.randint(low, 4)))
            least = sum(low for low, _ in loads)
            most = min(right, sum(high for _, high in loads))
            if trial % 4 == 0 or least > most:
                amount = rng.randint(0, right)
            else:
                amount = rng.randint(least, most)
            result = transport(loads, costs, amount)
            infeasible += result is None
            with_lows += result is not None and least > 0
            digest.update(repr(result).encode())
        assert (infeasible, with_lows) == (95, 282)
        assert digest.hexdigest() == (
            "39bc1f976976671f8b78bca4518702710c7e83c6fdeda455787790e79cea1011"
        )


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


class TestMonroeAssignments:
    def test_sum_on_skewed_profile(self, profile_6v4c):
        matrix = borda(profile_6v4c)
        cost, witness = balanced_assignment((0, 1, 2), matrix)
        assert cost == 2
        assert check_m_criterion(witness, 6, 3)
        assert evaluate(matrix, witness.mapping, Objective.SUM) == 2

    def test_minimax_zero_feasible_with_distinct_tops(self, profile_3v4c):
        matrix = borda(profile_3v4c)
        found = balanced_assignment((0, 1, 2), matrix, 0)
        assert found is not None
        assert found[1].mapping == (0, 1, 2)

    def test_minimax_zero_infeasible_without_top(self, profile_6v4c):
        matrix = borda(profile_6v4c)
        assert balanced_assignment((0, 1, 3), matrix, 0) is None

    def test_minimax_max_value_always_feasible(self, profile_6v4c):
        matrix = borda(profile_6v4c)
        found = balanced_assignment((0, 1, 3), matrix, matrix.max_value())
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
            cost, witness = balanced_assignment(winners, matrix)
            assert cost == best_sum
            assert check_m_criterion(witness, n, k)
            value = balanced_value(winners, matrix, Objective.MINIMAX)
            assert value == best_max
            _, witness = balanced_assignment(winners, matrix, value)
            assert check_m_criterion(witness, n, k)

    def test_minimax_bound_search_is_tight(self, profile_6v4c):
        matrix = borda(profile_6v4c)
        value = balanced_value((0, 1, 2), matrix, Objective.MINIMAX)
        assert value == 1
        _, witness = balanced_assignment((0, 1, 2), matrix, value)
        assert evaluate(matrix, witness.mapping, Objective.MINIMAX) == 1
        assert balanced_assignment((0, 1, 2), matrix, value - 1) is None

    def test_minimax_value_is_the_first_feasible_table_value(self, monkeypatch):
        # The bisection starts at the committee's CC minimax value; its
        # answer is that of a scan over every table value with the flow.
        probed = []
        scorer = assignment.balanced_cost

        def recorded(winners, matrix, bound=None):
            probed.append(bound)
            return scorer(winners, matrix, bound)

        monkeypatch.setattr(assignment, "balanced_cost", recorded)
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
                bound
                for bound in entries
                if balanced_assignment(winners, matrix, bound) is not None
            )
            probed.clear()
            assert balanced_value(winners, matrix, Objective.MINIMAX) == expected
            nearest = assign_cc(winners, matrix).mapping
            assert min(probed) >= evaluate(matrix, nearest, Objective.MINIMAX)


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


def transport_seating(winners, matrix, bound):
    """``transport``'s (cost, owner) with winners on the left and voters on the right."""
    low, high, _ = balanced_loads(matrix.n, len(winners))
    costs = [
        [row[w] if bound is None or row[w] <= bound else None for row in matrix.rows]
        for w in winners
    ]
    return transport([(low, high)] * len(winners), costs, matrix.n)


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
            flow = transport_seating(winners, matrix, bound)
            expected = None if flow is None else flow[0]
            assert balanced_cost(winners, matrix, bound) == expected
            if matrix.n <= 8:
                assert expected == brute[bound]

    @settings(max_examples=200, deadline=None)
    @given(committee_tables())
    def test_minimax_bound_within_a_limit(self, table):
        matrix, winners = table
        entries = sorted({x for row in matrix.rows for x in row})
        value = next(
            b for b in entries if balanced_assignment(winners, matrix, b) is not None
        )
        assert balanced_value(winners, matrix, Objective.MINIMAX) == value
        for limit in range(-1, max(max(row) for row in matrix.rows) + 2):
            expected = value if value <= limit else None
            assert balanced_value(winners, matrix, Objective.MINIMAX, limit) == expected

    @settings(max_examples=200, deadline=None)
    @given(committee_tables())
    def test_sum_value_within_a_limit(self, table):
        matrix, winners = table
        value = balanced_cost(winners, matrix)
        assert balanced_value(winners, matrix, Objective.SUM) == value
        for limit in (-1, 0, value - 1, value, value + 1):
            expected = value if value <= limit else None
            assert balanced_value(winners, matrix, Objective.SUM, limit) == expected

    @settings(max_examples=300, deadline=None)
    @given(monroe_tables())
    def test_witness_is_a_cheapest_balanced_seating(self, table):
        # The witness is `balanced_cost`'s own seating; `transport`, a
        # separate min-cost flow, checks that it exists exactly when a flow
        # does and that it costs what the cheapest flow costs.
        matrix, winners = table
        for bound in [None, *matrix.distinct_values()]:
            flow = transport_seating(winners, matrix, bound)
            found = balanced_assignment(winners, matrix, bound)
            assert (found is None) == (flow is None)
            if found is None:
                assert balanced_cost(winners, matrix, bound) is None
                continue
            cost, witness = found
            assert witness.winner_set == winners
            assert check_m_criterion(witness, matrix.n, len(winners))
            entries = [matrix.rows[v][w] for v, w in enumerate(witness.mapping)]
            assert bound is None or max(entries) <= bound
            assert cost == sum(entries) == flow[0]
            assert cost == balanced_cost(winners, matrix, bound)

    def test_a_winner_below_its_floor_is_infeasible(self):
        # Every voter has an entry within 3, but winner 3 has none, so it
        # cannot get its one voter.
        rows = ((3, 3, 0, 4), (3, 4, 4, 4), (2, 1, 4, 4), (3, 2, 4, 4), (4, 3, 3, 4))
        matrix = MisrepMatrix(rows)
        assert balanced_cost((0, 1, 2, 3), matrix, 3) is None
        assert balanced_assignment((0, 1, 2, 3), matrix, 3) is None
        assert balanced_cost((0, 1, 2, 3), matrix, 4) == 10

    def test_a_voter_without_an_entry_is_infeasible(self):
        matrix = MisrepMatrix(((0, 1), (2, 2)))
        assert balanced_cost((0, 1), matrix, 1) is None
        assert balanced_cost((0, 1), matrix) == 2

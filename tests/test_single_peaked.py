"""Tests for axis recognition and the single-peaked fast solvers."""

from __future__ import annotations

import itertools
import random
import sys
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_under_tail, instance_for, ranked, time_limit
from oracles import check_compatible
from proprep import solvers, solving
from proprep.cli import main
from proprep.core import (
    BordaMisrep,
    BudgetExceededError,
    Election,
    MisrepMatrix,
    Objective,
    Rule,
    build_misrep,
    pad_committee,
)
from proprep.fileio import parse_instance
from proprep.single_peaked import (
    AxisRows,
    DPStats,
    _scan_interval,
    axis_savings,
    check_single_troughed,
    detect_axis,
    sample_single_peaked_election,
    solve_cc_minimax_sp,
    solve_cc_sum_sp,
)
from proprep.solvers import SolverBudget, solve_subset_enum


def compatible_by_triples(vote, axis):
    """Reference check: no rank bump over any axis triple."""
    rank = {c: r for r, c in enumerate(vote)}
    values = [rank[c] for c in axis]
    m = len(values)
    for j in range(1, m - 1):
        for i in range(j):
            for t in range(j + 1, m):
                if values[i] < values[j] > values[t]:
                    return False
    return True


def axis_exists_by_brute_force(election):
    return any(
        all(check_compatible(vote, axis) for vote in election.votes)
        for axis in itertools.permutations(range(election.m))
    )


@st.composite
def axis_tables(draw, valleys_only=True):
    """A small table laid out on a random axis, with its election.

    Rows read along the axis are valleys with plateaus, tied troughs and
    all-equal rows; unless `valleys_only`, some rows are arbitrary.  The
    votes rank candidates by value, lowest index first among ties.
    """
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 7))
    top = draw(st.sampled_from([0, 1, 2, 6]))
    value = st.integers(0, top)
    axis = tuple(draw(st.permutations(range(m))))
    rows = []
    for _ in range(n):
        shape = draw(st.sampled_from(
            ["valley", "valley", "flat"] + ([] if valleys_only else ["any"])
        ))
        if shape == "any":
            along = draw(st.lists(value, min_size=m, max_size=m))
        elif shape == "flat":
            along = [draw(value)] * m
        else:
            trough = draw(st.integers(0, m - 1))
            falling = sorted(draw(st.lists(value, min_size=trough, max_size=trough)))
            rising = sorted(draw(st.lists(
                value, min_size=m - 1 - trough, max_size=m - 1 - trough
            )))
            low = draw(st.integers(0, min(falling[:1] + rising[:1] + [top])))
            along = falling[::-1] + [low] + rising
        row = [0] * m
        for position, candidate in enumerate(axis):
            row[candidate] = along[position]
        rows.append(tuple(row))
    votes = tuple(
        tuple(sorted(range(m), key=lambda c, row=row: (row[c], c))) for row in rows
    )
    election = Election(tuple(f"c{i}" for i in range(m)), votes)
    return election, MisrepMatrix(tuple(rows)), axis


def savings_by_definition(matrix, axis):
    """The O(n m^2) totals and saving table, entry by entry."""
    along = [[row[c] for c in axis] for row in matrix.rows]
    totals = [sum(values[i] for values in along) for i in range(len(axis))]
    saving = [
        [sum(max(0, values[p] - values[i]) for values in along) for p in range(i)]
        for i in range(len(axis))
    ]
    return totals, saving


def greedy_by_definition(instance, axis):
    """The minimax decision from a linear scan of each row, voter by voter."""
    intervals = []
    for v, row in enumerate(instance.matrix.rows):
        interval = _scan_interval(v, [row[c] for c in axis], instance.bound)
        if interval is None:
            return None
        left, right = interval
        intervals.append((right, left, v))
    intervals.sort()
    stabs = []
    for right, left, _ in intervals:
        if not stabs or left > stabs[-1]:
            stabs.append(right)
    if len(stabs) > instance.k:
        return None
    return pad_committee((axis[i] for i in stabs), instance.k, instance.matrix.m)


def outcome(call):
    """What a call returns, or the message of the `ValueError` it raises."""
    try:
        return call()
    except ValueError as error:
        return f"ValueError: {error}"


def random_election(rng, num_candidates, num_voters):
    votes = []
    for _ in range(num_voters):
        order = list(range(num_candidates))
        rng.shuffle(order)
        votes.append(tuple(order))
    names = tuple(f"c{i}" for i in range(num_candidates))
    return ranked(" ".join(names), *(
        " ".join(names[c] for c in vote) for vote in votes
    ))


class TestCheckCompatible:
    def test_descending_then_ascending_vote_passes(self):
        assert check_compatible((1, 2, 3, 0), (0, 1, 2, 3))

    def test_vote_jumping_across_the_axis_fails(self):
        assert not check_compatible((0, 2, 1, 3), (0, 1, 2, 3))

    def test_axis_order_itself_is_compatible(self):
        assert check_compatible((0, 1, 2, 3), (0, 1, 2, 3))
        assert check_compatible((3, 2, 1, 0), (0, 1, 2, 3))

    def test_two_candidates_always_compatible(self):
        assert check_compatible((0, 1), (0, 1))
        assert check_compatible((1, 0), (0, 1))

    def test_mismatched_candidate_sets_are_rejected(self):
        with pytest.raises(ValueError, match="same candidates"):
            check_compatible((0, 1), (0, 1, 2))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_triple_reference(self, data):
        m = data.draw(st.integers(2, 6))
        vote = tuple(data.draw(st.permutations(range(m))))
        axis = tuple(data.draw(st.permutations(range(m))))
        assert check_compatible(vote, axis) == compatible_by_triples(vote, axis)


# Near-single-peaked profiles over the first m letters, one string per vote,
# with the axis the backtracking search returned for each before axis
# detection became a single outside-in pass.  The comment names the options
# that pass keeps: the second pair option (the smaller index at the right
# end), a single candidate at the right end, both, or neither ("plain").
RECORDED_AXES = [
    (("febcgda", "ecbgfda"), None),
    (("dacb", "bdca", "adcb", "cbda"), None),
    (("edcbaf", "afbecd"), None),
    (("ceagfbd", "fdbecag"), None),
    (("ebdac", "bedca", "cadbe", "cadbe"), None),
    (("cdegbfa", "decgbfa", "afbgecd", "bfgecda"), None),
    (("gbedfca", "gbedfca", "bgdfeca", "dgbfeca"), "acebgdf"),  # plain
    (("cdbae", "cdbea"), "abdce"),  # plain
    (("dbeac", "dbeac", "eabdc"), "caebd"),  # pair
    (("cdabe", "ebacd", "ebacd"), "dcabe"),  # pair
    (("badec", "ceabd", "ceabd"), "ceabd"),  # pair
    (("dcefab", "cdefab", "fadbce"), "bafdce"),  # pair
    (("gdcafbe", "fbgdcae", "acdegfb", "acdgfbe"), "bfgdcae"),  # pair
    (("cafdegb", "agbcfde"), "bgacfde"),  # both
    (("dcaebf", "cdaebf", "acebfd", "acdebf"), "dcaebf"),  # both
    (("adfcbe", "bdafce"), "cfadbe"),  # both
    (("dfaegcb", "adegfcb", "fdaegcb"), "bcfdaeg"),  # both
    (("acbed", "acdbe"), "dcabe"),  # single
    (("caebd", "ecbda"), "acebd"),  # single
    (("abcd", "bcda"), "abcd"),  # single
    (("cabd", "cbda"), "acbd"),  # single
    (("abfcdge", "cfbdgea", "cfbdgae", "abfcdge"), "abfcdge"),  # single
]


class TestDetectAxis:
    def test_valley_profile_yields_index_axis(self, profile_3v4c):
        assert detect_axis(profile_3v4c) == (0, 1, 2, 3)

    def test_condorcet_cycle_has_no_axis(self):
        election = ranked("a b c", "a b c", "b c a", "c a b")
        assert detect_axis(election) is None

    def test_single_voter_always_has_an_axis(self):
        election = ranked("a b c d e", "c e a d b")
        axis = detect_axis(election)
        assert axis is not None
        assert check_compatible(election.votes[0], axis)

    def test_single_candidate(self):
        assert detect_axis(ranked("a", "a", "a")) == (0,)

    def test_orientation_is_canonical(self):
        election = ranked("a b c", "c b a", "b c a")
        axis = detect_axis(election)
        assert axis is not None
        assert axis[0] < axis[-1]

    def test_returned_axis_fits_every_vote(self):
        rng = random.Random(7)
        for _ in range(40):
            election, _ = sample_single_peaked_election(
                rng, rng.randrange(2, 7), rng.randrange(1, 6)
            )
            axis = detect_axis(election)
            assert axis is not None
            assert all(check_compatible(vote, axis) for vote in election.votes)
            assert axis[0] < axis[-1]

    def test_agrees_with_brute_force_on_random_profiles(self):
        rng = random.Random(11)
        for _ in range(120):
            election = random_election(
                rng, rng.randrange(2, 6), rng.randrange(1, 5)
            )
            found = detect_axis(election)
            if found is None:
                assert not axis_exists_by_brute_force(election)
            else:
                assert all(
                    check_compatible(vote, found) for vote in election.votes
                )

    @pytest.mark.parametrize("votes, expected", RECORDED_AXES)
    def test_returns_the_recorded_axis(self, votes, expected):
        election = ranked(" ".join(sorted(votes[0])), *(" ".join(v) for v in votes))
        axis = detect_axis(election)
        names = None if axis is None else "".join(election.candidates[c] for c in axis)
        assert names == expected

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 6).flatmap(
        lambda m: st.lists(st.permutations(range(m)), min_size=1, max_size=4)
    ))
    def test_none_exactly_when_no_permutation_fits(self, votes):
        election = Election(tuple(f"c{i}" for i in range(len(votes[0]))), tuple(
            tuple(vote) for vote in votes
        ))
        axis = detect_axis(election)
        if axis is None:
            assert not axis_exists_by_brute_force(election)
        else:
            assert all(check_compatible(vote, axis) for vote in election.votes)
            assert axis[0] < axis[-1]

    def test_runs_without_recursion(self):
        names = " ".join(f"c{i}" for i in range(1200))
        election = ranked(names, names)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            axis = detect_axis(election)
        finally:
            sys.setrecursionlimit(limit)
        assert axis is not None
        assert check_compatible(election.votes[0], axis)

    def test_cycle_under_a_long_tail_has_no_axis(self):
        election = cycle_under_tail(40)
        assert election.m == 43
        with time_limit(5):
            assert detect_axis(election) is None


class TestSingleTroughed:
    def test_borda_rows_on_their_axis(self, profile_3v4c):
        matrix = build_misrep(profile_3v4c, BordaMisrep())
        assert check_single_troughed(matrix, (0, 1, 2, 3))

    def test_bumpy_row_fails(self):
        matrix = MisrepMatrix(((1, 0, 1, 0),))
        assert not check_single_troughed(matrix, (0, 1, 2, 3))

    def test_contiguous_zero_block_passes(self):
        matrix = MisrepMatrix(((1, 0, 0, 1), (0, 1, 1, 1)))
        assert check_single_troughed(matrix, (0, 1, 2, 3))

    def test_split_zero_block_fails(self):
        matrix = MisrepMatrix(((0, 1, 0),))
        assert not check_single_troughed(matrix, (0, 1, 2))

    def test_plateaus_at_the_bottom_are_fine(self):
        matrix = MisrepMatrix(((3, 1, 1, 2),))
        assert check_single_troughed(matrix, (0, 1, 2, 3))

    @pytest.mark.parametrize("axis", [(0, 1, 2), (0, 0, 0, 0), (0, 1, 2, 9)])
    def test_rejects_an_axis_that_is_not_a_permutation(self, axis):
        matrix = MisrepMatrix(((0, 1, 2, 3), (3, 2, 1, 0)))
        with pytest.raises(ValueError, match="permutation"):
            check_single_troughed(matrix, axis)

    def test_mirror_axis_gives_the_same_answer(self):
        rng = random.Random(23)
        for _ in range(30):
            m = rng.randrange(2, 6)
            rows = tuple(
                tuple(rng.randrange(4) for _ in range(m)) for _ in range(3)
            )
            matrix = MisrepMatrix(rows)
            axis = list(range(m))
            rng.shuffle(axis)
            assert check_single_troughed(matrix, tuple(axis)) == (
                check_single_troughed(matrix, tuple(reversed(axis)))
            )


class TestRepresentationInterval:
    def test_prefix_of_the_axis(self, profile_3v4c):
        matrix = build_misrep(profile_3v4c, BordaMisrep())
        assert AxisRows(matrix, (0, 1, 2, 3)).interval(0, 1) == (0, 1)

    def test_middle_of_the_axis(self, profile_3v4c):
        matrix = build_misrep(profile_3v4c, BordaMisrep())
        assert AxisRows(matrix, (0, 1, 2, 3)).interval(1, 1) == (1, 2)

    def test_generous_bound_spans_everything(self, profile_3v4c):
        matrix = build_misrep(profile_3v4c, BordaMisrep())
        assert AxisRows(matrix, (0, 1, 2, 3)).interval(2, 3) == (0, 3)

    def test_no_candidate_within_bound(self):
        matrix = MisrepMatrix(((2, 3, 2),))
        assert AxisRows(matrix, (0, 1, 2)).interval(0, 1) is None

    def test_gap_raises(self):
        matrix = MisrepMatrix(((0, 2, 0),))
        with pytest.raises(ValueError, match="not contiguous"):
            AxisRows(matrix, (0, 1, 2)).interval(0, 0)


class TestAxisRows:
    def test_valley_intervals_by_bisection(self):
        matrix = MisrepMatrix(((4, 2, 2, 0, 0, 1, 3),))
        rows = AxisRows(matrix, tuple(range(7)))
        assert [rows.interval(0, bound) for bound in range(-1, 5)] == [
            None, (3, 4), (3, 5), (1, 5), (1, 6), (0, 6),
        ]

    def test_gap_raises_like_representation_interval(self):
        matrix = MisrepMatrix(((0, 1, 2), (0, 2, 0)))
        rows = AxisRows(matrix, (0, 1, 2))
        assert rows.interval(0, 0) == (0, 0)
        with pytest.raises(ValueError, match="voter 1: .* not contiguous"):
            rows.interval(1, 0)
        assert rows.interval(1, 2) == (0, 2)

    @settings(max_examples=300, deadline=None)
    @given(axis_tables(valleys_only=False))
    def test_matches_representation_interval_at_every_value(self, table):
        _, matrix, axis = table
        rows = AxisRows(matrix, axis)
        bounds = {-1, matrix.max_value() + 1, *matrix.distinct_values()}
        for bound in sorted(bounds):
            for v in range(matrix.n):
                along = [matrix.rows[v][c] for c in axis]
                expected = outcome(lambda: _scan_interval(v, along, bound))
                assert outcome(lambda: rows.interval(v, bound)) == expected


class TestSumDP:
    def test_single_seat(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.SUM, k=1)
        solution = solve_cc_sum_sp(instance, AxisRows(instance.matrix, (0, 1, 2, 3)))
        assert solution.objective_value == 2

    def test_two_seats(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.SUM, k=2)
        solution = solve_cc_sum_sp(instance, AxisRows(instance.matrix, (0, 1, 2, 3)))
        assert solution.objective_value == 1

    def test_three_seats_cover_every_top(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.SUM, k=3)
        solution = solve_cc_sum_sp(instance, AxisRows(instance.matrix, (0, 1, 2, 3)))
        assert solution.objective_value == 0
        assert solution.assignment.winner_set == (0, 1, 2)

    def test_committee_of_all_candidates_costs_nothing(self):
        election = ranked("a b c", "a b c", "b a c", "c b a")
        instance = instance_for(election, Rule.CC, Objective.SUM, k=3)
        solution = solve_cc_sum_sp(instance, AxisRows(instance.matrix, (0, 1, 2)))
        assert solution.objective_value == 0

    def test_rejects_wrong_rule_or_objective(self, profile_3v4c):
        bad_rule = instance_for(profile_3v4c, Rule.MONROE, Objective.SUM, k=2)
        with pytest.raises(ValueError, match="sum objective"):
            solve_cc_sum_sp(bad_rule, AxisRows(bad_rule.matrix, (0, 1, 2, 3)))
        bad_objective = instance_for(
            profile_3v4c, Rule.CC, Objective.MINIMAX, k=2
        )
        with pytest.raises(ValueError, match="sum objective"):
            solve_cc_sum_sp(bad_objective, AxisRows(bad_objective.matrix, (0, 1, 2, 3)))

    def test_rejects_bumpy_matrix(self):
        election = ranked("a b c d", "a b c d")
        matrix = MisrepMatrix(((1, 0, 1, 0),))
        instance = instance_for(
            election, Rule.CC, Objective.SUM, k=1, matrix=matrix
        )
        with pytest.raises(ValueError, match="single-troughed"):
            solve_cc_sum_sp(instance, AxisRows(instance.matrix, (0, 1, 2, 3)))

    def test_rejects_bad_axis(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.SUM, k=2)
        with pytest.raises(ValueError, match="permutation"):
            solve_cc_sum_sp(instance, AxisRows(instance.matrix, (0, 1, 2)))

    def test_matches_enumeration_on_random_instances(self):
        rng = random.Random(101)
        for _ in range(60):
            m = rng.randrange(2, 7)
            n = rng.randrange(1, 7)
            election, axis = sample_single_peaked_election(rng, m, n)
            k = rng.randrange(1, min(m, n) + 1)
            instance = instance_for(election, Rule.CC, Objective.SUM, k=k)
            fast = solve_cc_sum_sp(instance, AxisRows(instance.matrix, axis))
            oracle = solve_subset_enum(instance)
            assert fast.objective_value == oracle.objective_value

    def test_mirror_axis_gives_the_same_value(self):
        rng = random.Random(103)
        for _ in range(20):
            election, axis = sample_single_peaked_election(rng, 5, 4)
            instance = instance_for(election, Rule.CC, Objective.SUM, k=2)
            forward = solve_cc_sum_sp(instance, AxisRows(instance.matrix, axis))
            reverse = AxisRows(instance.matrix, tuple(reversed(axis)))
            backward = solve_cc_sum_sp(instance, reverse)
            assert forward.objective_value == backward.objective_value

    def test_counts_table_work_within_quadratic_budget(self):
        # 2nm covers reading the table and the sweep's cut moves and cut
        # entries, k m^2 the saving entries and the DP transitions.  With
        # k <= n and m >= 2 the bound never exceeds 2 n m^2.
        rng = random.Random(107)
        for _ in range(25):
            m = rng.randrange(2, 8)
            n = rng.randrange(1, 8)
            election, axis = sample_single_peaked_election(rng, m, n)
            k = rng.randrange(1, min(m, n) + 1)
            instance = instance_for(election, Rule.CC, Objective.SUM, k=k)
            stats = DPStats()
            solve_cc_sum_sp(instance, AxisRows(instance.matrix, axis), stats=stats)
            assert stats.cell_updates <= 2 * n * m + k * m * m

    def test_table_work_grows_with_nm_not_nm_squared(self):
        m, n, k = 40, 200, 4
        election, axis = sample_single_peaked_election(random.Random(139), m, n)
        instance = instance_for(election, Rule.CC, Objective.SUM, k=k)
        stats = DPStats()
        solve_cc_sum_sp(instance, AxisRows(instance.matrix, axis), stats=stats)
        assert stats.cell_updates <= 2 * n * m + k * m * m  # 22 400; n m^2 is 320 000

    @settings(max_examples=300, deadline=None)
    @given(axis_tables())
    def test_savings_match_their_definition(self, table):
        _, matrix, axis = table
        rows = AxisRows(matrix, axis)
        assert axis_savings(rows) == savings_by_definition(matrix, axis)

    @settings(max_examples=200, deadline=None)
    @given(axis_tables(), st.data())
    def test_explicit_valley_tables_match_enumeration(self, table, data):
        election, matrix, axis = table
        # k = m whenever there are as many voters as candidates.
        k = data.draw(st.sampled_from([1, min(matrix.m, matrix.n)]))
        instance = instance_for(election, Rule.CC, Objective.SUM, k=k, matrix=matrix)
        fast = solve_cc_sum_sp(instance, AxisRows(instance.matrix, axis))
        assert fast.objective_value == solve_subset_enum(instance).objective_value

    def test_rejects_a_bumpy_row_after_valleys(self):
        matrix = MisrepMatrix(((0, 1, 2), (2, 1, 0), (1, 0, 1), (1, 2, 1)))
        with pytest.raises(ValueError, match="single-troughed"):
            axis_savings(AxisRows(matrix, (0, 1, 2)))

    def test_reads_the_clock_once_per_sweep_step_and_column(self, monkeypatch):
        # The fake clock counts its reads: one when the budget is made, one
        # per savings sweep step (m) and one per table column (k - 1).  With
        # the budget spent, the solve stops at the first of them.
        m, n, k = 9, 12, 4
        election, axis = sample_single_peaked_election(random.Random(211), m, n)
        instance = instance_for(election, Rule.CC, Objective.SUM, k=k)
        rows = AxisRows(instance.matrix, axis)
        reads = []

        def clock():
            reads.append(None)
            return 0.0

        monkeypatch.setattr(solvers, "time", SimpleNamespace(monotonic=clock))
        solve_cc_sum_sp(instance, rows, budget=SolverBudget(max_seconds=1.0))
        assert len(reads) == 1 + m + (k - 1)
        reads.clear()
        budget = SolverBudget(max_seconds=-1.0)
        with pytest.raises(BudgetExceededError):
            solve_cc_sum_sp(instance, rows, budget=budget)
        assert len(reads) == 2

    def test_stops_at_its_budget_on_a_large_table(self, tmp_path):
        # Unbudgeted, this 600 x 600 file takes seconds in the O(k m^2)
        # table; the solve must stop within one column of half a second.
        path = tmp_path / "sp600.elect"
        argv = ["single-peaked", "--m", "600", "--n", "600", "--k", "300"]
        assert main(["gen", *argv, "--seed", "1", "--out", str(path)]) == 0
        instance = parse_instance(path.read_text())
        budget = SolverBudget(max_seconds=0.5)
        with pytest.raises(BudgetExceededError):
            solving.solve(instance, "auto", budget)
        assert time.monotonic() - budget.started < 0.6


class TestMinimaxGreedy:
    def test_single_seat_within_one(self, profile_3v4c):
        instance = instance_for(
            profile_3v4c, Rule.CC, Objective.MINIMAX, k=1, bound=1
        )
        rows = AxisRows(instance.matrix, (0, 1, 2, 3))
        solution = solve_cc_minimax_sp(instance, rows)
        assert solution is not None
        assert solution.assignment.winner_set == (1,)
        assert solution.objective_value <= 1

    def test_two_perfect_seats_are_impossible(self, profile_3v4c):
        instance = instance_for(
            profile_3v4c, Rule.CC, Objective.MINIMAX, k=2, bound=0
        )
        rows = AxisRows(instance.matrix, (0, 1, 2, 3))
        assert solve_cc_minimax_sp(instance, rows) is None

    def test_three_perfect_seats_exist(self, profile_3v4c):
        instance = instance_for(
            profile_3v4c, Rule.CC, Objective.MINIMAX, k=3, bound=0
        )
        rows = AxisRows(instance.matrix, (0, 1, 2, 3))
        solution = solve_cc_minimax_sp(instance, rows)
        assert solution is not None
        assert solution.assignment.winner_set == (0, 1, 2)
        assert solution.objective_value == 0

    def test_loose_bound_is_always_feasible(self, profile_3v4c):
        instance = instance_for(
            profile_3v4c, Rule.CC, Objective.MINIMAX, k=1, bound=3
        )
        rows = AxisRows(instance.matrix, (0, 1, 2, 3))
        solution = solve_cc_minimax_sp(instance, rows)
        assert solution is not None

    def test_voter_with_nothing_in_range(self):
        election = ranked("a b c", "a b c", "c b a")
        matrix = MisrepMatrix(((0, 1, 2), (2, 2, 2)))
        instance = instance_for(
            election, Rule.CC, Objective.MINIMAX, k=2, bound=1, matrix=matrix
        )
        rows = AxisRows(instance.matrix, (0, 1, 2))
        assert solve_cc_minimax_sp(instance, rows) is None

    def test_rejects_wrong_objective(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.SUM, k=2)
        with pytest.raises(ValueError, match="minimax"):
            solve_cc_minimax_sp(instance, AxisRows(instance.matrix, (0, 1, 2, 3)))

    def test_decision_matches_enumeration_optimum(self):
        rng = random.Random(109)
        for _ in range(60):
            m = rng.randrange(2, 7)
            n = rng.randrange(1, 7)
            election, axis = sample_single_peaked_election(rng, m, n)
            k = rng.randrange(1, min(m, n) + 1)
            bound = rng.randrange(0, m)
            instance = instance_for(
                election, Rule.CC, Objective.MINIMAX, k=k, bound=bound
            )
            optimum = solve_subset_enum(instance).objective_value
            witness = solve_cc_minimax_sp(instance, AxisRows(instance.matrix, axis))
            if optimum <= bound:
                assert witness is not None
                assert witness.objective_value <= bound
            else:
                assert witness is None

    @settings(max_examples=300, deadline=None)
    @given(axis_tables(valleys_only=False), st.data())
    def test_prepared_rows_decide_like_the_definition(self, table, data):
        election, matrix, axis = table
        k = data.draw(st.integers(1, min(matrix.m, matrix.n)))
        rows = AxisRows(matrix, axis)
        for bound in matrix.distinct_values():
            instance = instance_for(
                election, Rule.CC, Objective.MINIMAX, k=k, bound=bound,
                matrix=matrix,
            )
            expected = outcome(lambda: greedy_by_definition(instance, axis))
            found = outcome(lambda: solve_cc_minimax_sp(instance, rows))
            if found is not None and not isinstance(found, str):
                found = found.assignment.winner_set
            assert found == expected

    def test_mirror_axis_gives_the_same_decision(self):
        rng = random.Random(113)
        for _ in range(20):
            election, axis = sample_single_peaked_election(rng, 5, 4)
            instance = instance_for(
                election, Rule.CC, Objective.MINIMAX, k=2, bound=1
            )
            forward = solve_cc_minimax_sp(instance, AxisRows(instance.matrix, axis))
            reverse = AxisRows(instance.matrix, tuple(reversed(axis)))
            backward = solve_cc_minimax_sp(instance, reverse)
            assert (forward is None) == (backward is None)


class TestSampler:
    def test_votes_are_compatible_with_the_reported_axis(self):
        rng = random.Random(127)
        for _ in range(30):
            election, axis = sample_single_peaked_election(
                rng, rng.randrange(1, 8), rng.randrange(1, 6)
            )
            assert sorted(axis) == list(range(election.m))
            assert all(check_compatible(vote, axis) for vote in election.votes)

    def test_borda_matrix_is_troughed_on_the_axis(self):
        rng = random.Random(131)
        for _ in range(20):
            election, axis = sample_single_peaked_election(rng, 6, 4)
            matrix = build_misrep(election, BordaMisrep())
            assert check_single_troughed(matrix, axis)

"""Domain types, table construction, and verification checks."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from proprep.core import (
    ApprovalMisrep,
    Assignment,
    MisrepMatrix,
    BordaMisrep,
    CandidateError,
    Election,
    ExplicitMisrep,
    Objective,
    ProblemInstance,
    Rule,
    Solution,
    VoterError,
    balanced_loads,
    build_misrep,
    check_m_criterion,
    evaluate,
    first_feasible,
    pad_committee,
    verify_solution,
)

from conftest import instance_for, ranked, threshold


@st.composite
def elections(draw, max_candidates: int = 6, max_voters: int = 6) -> Election:
    m = draw(st.integers(1, max_candidates))
    n = draw(st.integers(1, max_voters))
    names = tuple(f"c{i}" for i in range(m))
    votes = tuple(
        tuple(draw(st.permutations(range(m)))) for _ in range(n)
    )
    return Election(names, votes)


class TestElection:
    def test_rejects_non_permutation_vote(self):
        with pytest.raises(ValueError, match="permutation"):
            Election(("a", "b"), ((0, 0),))

    def test_rejects_short_vote(self):
        with pytest.raises(ValueError, match="permutation"):
            Election(("a", "b"), ((0,),))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            Election(("a", "a"), ((0, 1),))

    def test_rejects_whitespace_and_reserved_names(self):
        with pytest.raises(ValueError):
            Election(("a b",), ((0,),))
        with pytest.raises(ValueError):
            Election(("-",), ((0,),))
        with pytest.raises(ValueError):
            Election(("#x",), ((0,),))

    def test_errors_carry_the_index_they_blame(self):
        with pytest.raises(CandidateError) as caught:
            Election(("a", "b", "a"), ((0, 1, 2),))
        assert caught.value.candidate == 2
        assert str(caught.value) == "duplicate candidate name 'a'"
        with pytest.raises(CandidateError) as caught:
            Election(("a", "-", "#c"), ((0, 1, 2),))
        assert caught.value.candidate == 1
        with pytest.raises(VoterError) as caught:
            Election(("a", "b"), ((0, 1), (1, 0), (1, 1), (0,)))
        assert caught.value.voter == 2

    def test_positions_follow_votes(self):
        election = ranked("a b c", "c a b")
        assert election._positions[0] == (1, 2, 0)


class TestBuildMisrep:
    def test_positional_rows_match_hand_values(self, profile_3v4c):
        matrix = build_misrep(profile_3v4c, BordaMisrep())
        assert matrix.rows == (
            (0, 1, 2, 3),
            (3, 0, 1, 2),
            (2, 1, 0, 3),
        )

    @given(elections())
    def test_positional_rows_are_rank_permutations(self, election):
        matrix = build_misrep(election, BordaMisrep())
        for v, vote in enumerate(election.votes):
            assert sorted(matrix.rows[v]) == list(range(election.m))
            for rank, candidate in enumerate(vote):
                assert matrix.rows[v][candidate] == rank

    def test_approval_zero_one(self):
        election = ranked("a b c", "b a c", "c b a")
        matrix = build_misrep(election, ApprovalMisrep(((1,), (2, 1))))
        assert matrix.rows == ((1, 0, 1), (1, 0, 0))

    def test_approval_must_be_ranking_prefix(self):
        election = ranked("a b c", "b a c")
        with pytest.raises(ValueError, match="prefix"):
            build_misrep(election, ApprovalMisrep(((0,),)))

    def test_empty_approval_set_is_allowed(self):
        election = ranked("a b", "a b")
        matrix = build_misrep(election, ApprovalMisrep(((),)))
        assert matrix.rows == ((1, 1),)

    def test_explicit_rationals_scaled_to_integers(self):
        election = ranked("a b", "a b", "b a")
        spec = ExplicitMisrep(
            ((Fraction(1, 2), Fraction(3, 4)), (Fraction(1, 3), 0))
        )
        matrix = build_misrep(election, spec)
        # Common denominator 12.
        assert matrix.rows == ((6, 9), (4, 0))

    def test_explicit_monotonicity_violation_names_voter_and_pair(self):
        election = ranked("a b", "a b")
        with pytest.raises(ValueError, match=r"voter 0.*'a' and 'b'"):
            build_misrep(election, ExplicitMisrep(((2, 1),)))

    def test_explicit_rejects_negative(self):
        election = ranked("a b", "a b")
        with pytest.raises(ValueError, match=">= 0"):
            build_misrep(election, ExplicitMisrep(((-1, 0),)))

    def test_threshold_dichotomizes(self, profile_3v4c):
        matrix = build_misrep(profile_3v4c, BordaMisrep())
        cut = threshold(matrix, 1)
        assert cut.rows == ((0, 0, 1, 1), (1, 0, 0, 1), (1, 0, 0, 1))


class TestEvaluate:
    def test_sum_and_minimax(self, profile_3v4c):
        matrix = build_misrep(profile_3v4c, BordaMisrep())
        mapping = (0, 2, 2)
        assert evaluate(matrix, mapping, Objective.SUM) == 1
        assert evaluate(matrix, mapping, Objective.MINIMAX) == 1
        everyone_last = (3, 3, 3)
        assert evaluate(matrix, everyone_last, Objective.SUM) == 8
        assert evaluate(matrix, everyone_last, Objective.MINIMAX) == 3

    @given(elections(), st.data())
    def test_minimax_never_exceeds_sum(self, election, data):
        matrix = build_misrep(election, BordaMisrep())
        mapping = tuple(
            data.draw(st.integers(0, election.m - 1))
            for _ in range(election.n)
        )
        assert evaluate(matrix, mapping, Objective.MINIMAX) <= evaluate(
            matrix, mapping, Objective.SUM
        )


class TestBalance:
    def test_balanced_loads_split(self):
        assert balanced_loads(7, 3) == (2, 3, 1)
        assert balanced_loads(6, 3) == (2, 2, 0)
        assert balanced_loads(2, 1) == (2, 2, 0)

    def test_check_m_criterion_accepts_forced_split(self):
        assignment = Assignment((0, 1, 2), (0, 0, 0, 1, 1, 2, 2))
        assert check_m_criterion(assignment, 7, 3)

    def test_check_m_criterion_rejects_lopsided(self):
        assignment = Assignment((0, 1), (0, 0, 0, 1))
        assert not check_m_criterion(assignment, 4, 2)

    def test_check_m_criterion_rejects_wrong_size(self):
        assignment = Assignment((0, 1), (0, 1))
        assert not check_m_criterion(assignment, 2, 1)


class TestProblemInstance:
    def test_committee_size_must_fit(self, profile_3v4c):
        with pytest.raises(ValueError, match="committee size"):
            instance_for(profile_3v4c, Rule.CC, Objective.SUM, k=4)

    def test_negative_bound_rejected(self, profile_3v4c):
        with pytest.raises(ValueError, match="bound"):
            instance_for(profile_3v4c, Rule.CC, Objective.SUM, k=1, bound=-1)


class TestVerifySolution:
    def test_good_solution_passes_all_checks(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.SUM, 2, bound=1)
        solution = Solution(Assignment((0, 1), (0, 1, 1)), 1, False)
        report = verify_solution(instance, solution)
        assert report.ok
        assert {check.name for check in report.checks} == {
            "winner-set",
            "mapping",
            "objective-value",
            "bound",
        }

    def test_wrong_value_is_flagged(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.SUM, 2, bound=9)
        solution = Solution(Assignment((0, 1), (0, 1, 1)), 0, False)
        report = verify_solution(instance, solution)
        failing = [check.name for check in report.checks if not check.passed]
        assert failing == ["objective-value"]

    def test_monroe_balance_checked(self, profile_6v4c):
        instance = instance_for(profile_6v4c, Rule.MONROE, Objective.SUM, 3, bound=9)
        lopsided = Solution(
            Assignment((0, 1, 2), (0, 0, 0, 0, 2, 2)), 0, True
        )
        report = verify_solution(instance, lopsided)
        failing = [check.name for check in report.checks if not check.passed]
        assert failing == ["balance"]

    def test_bound_violation_reported(self, profile_3v4c):
        instance = instance_for(profile_3v4c, Rule.CC, Objective.SUM, 1, bound=1)
        solution = Solution(Assignment((3,), (3, 3, 3)), 8, False)
        report = verify_solution(instance, solution)
        assert not report.ok
        by_name = {check.name: check.passed for check in report.checks}
        assert by_name["objective-value"]
        assert not by_name["bound"]


TWO_VOTERS = ranked("a b c", "a b c", "b c a")
MALFORMED = {
    "election-without-candidates": (
        lambda: Election((), ()), "election needs at least one candidate"
    ),
    "election-without-voters": (
        lambda: Election(("a",), ()), "election needs at least one voter"
    ),
    "one-approval-set-too-few": (
        lambda: build_misrep(TWO_VOTERS, ApprovalMisrep(((0,),))),
        "one approval set per voter required",
    ),
    "one-table-row-too-few": (
        lambda: build_misrep(TWO_VOTERS, ExplicitMisrep(((0, 1, 2),))),
        "one table row per voter required",
    ),
    "table-of-the-wrong-shape": (
        lambda: ProblemInstance(
            TWO_VOTERS, MisrepMatrix(((0, 1), (1, 0))), Rule.CC, Objective.SUM, 1, 0
        ),
        "table shape does not match the election",
    ),
    "assignment-without-winners": (
        lambda: Assignment((), ()), "winner set must not be empty"
    ),
    "committee-that-cannot-be-padded": (
        lambda: pad_committee([0], 3, 2), "cannot pad committee to size k"
    ),
    "short-mapping": (
        lambda: evaluate(MisrepMatrix(((0, 1), (1, 0))), (0,), Objective.SUM),
        "mapping must cover every voter exactly once",
    ),
}


@pytest.mark.parametrize("build, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_rejected_with_its_message(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_unknown_misrepresentation_spec_is_a_type_error():
    with pytest.raises(TypeError) as caught:
        build_misrep(TWO_VOTERS, "borda")
    assert str(caught.value) == "unknown misrepresentation spec 'borda'"


class TestFirstFeasible:
    @pytest.mark.parametrize("length", [1, 2, 3, 7, 8, 9, 33])
    def test_finds_the_first_feasible_point_within_the_attempt_bound(self, length):
        points = [10 * i for i in range(length)]
        for first in range(length):
            attempted = []

            def attempt(point):
                attempted.append(point)
                return f"ok {point}" if point >= points[first] else None

            assert first_feasible(points, attempt) == (points[first], f"ok {points[first]}")
            assert len(attempted) <= length.bit_length()

    def test_nothing_feasible(self):
        attempted = []

        def never(point):
            attempted.append(point)
            return None

        assert first_feasible(range(9), never) is None
        assert len(attempted) <= 4

    def test_empty_points(self):
        assert first_feasible([], lambda point: point) is None

    @pytest.mark.parametrize("points", [range(3, 10**20, 7), range(10**20, 0, -3)])
    def test_a_range_longer_than_sys_maxsize(self, points):
        # len() rejects these ranges; indexing them works.
        length = (points[-1] - points[0]) // points.step + 1
        first = 10**18
        attempted = []

        def attempt(point):
            attempted.append(point)
            return "ok" if points.index(point) >= first else None

        assert first_feasible(points, attempt) == (points[first], "ok")
        assert len(attempted) <= length.bit_length()

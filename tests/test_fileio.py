"""Parsing and rendering of the instance and solution text formats."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from conftest import instance_for, ranked
from proprep.core import (
    ApprovalMisrep,
    Assignment,
    BordaMisrep,
    Election,
    ExplicitMisrep,
    Objective,
    ProblemInstance,
    Rule,
    Solution,
    build_misrep,
)
from proprep.fileio import (
    ParseError,
    parse_instance,
    parse_solution,
    render_instance,
    render_solution,
    worst_bound,
)

BASIC = """\
proprep v1
4 3 1 - cc sum borda
c1
c2
c3
c4
c1 c2 c3 c4
c2 c3 c4 c1
c3 c2 c1 c4
"""

APPROVAL = """\
proprep v1
3 2 1 0 monroe sum approval
a
b
c
a b c
c b a
#approve
a b
-
"""

EXPLICIT = """\
proprep v1
3 2 1 2 monroe sum explicit
a
b
c
a b c
c b a
#matrix
0 1/2 1
3 1/2 0
"""


def lines_replaced(text: str, line: int, replacement: str) -> str:
    parts = text.splitlines()
    parts[line - 1] = replacement
    return "\n".join(parts) + "\n"


def error_for(text: str) -> ParseError:
    with pytest.raises(ParseError) as caught:
        parse_instance(text)
    return caught.value


# A bad field in the header line, and the message that names it.
HEADER_ERRORS = {
    "x 3 1 - cc sum borda": "candidate count must be an integer, got 'x'",
    "4 3 0 - cc sum borda": "winner count must be >= 1, got 0",
    "4 3 1 -2 cc sum borda": "bound must be >= 0, got -2",
    "4 3 1 x cc sum borda": "bound must be an integer or '-', got 'x'",
    "4 3 1 - veto sum borda": "unknown rule 'veto'",
    "4 3 1 - cc median borda": "unknown objective 'median'",
    "4 3 1 - cc sum plurality": "unknown misrepresentation kind 'plurality'",
}


class TestParseInstance:
    def test_borda_header_and_votes(self):
        instance = parse_instance(BASIC)
        election = instance.election
        assert election.candidates == ("c1", "c2", "c3", "c4")
        assert election.votes[1] == (1, 2, 3, 0)
        assert (instance.rule, instance.objective) == (Rule.CC, Objective.SUM)
        assert instance.k == 1
        assert instance.matrix.rows[2] == (2, 1, 0, 3)

    def test_unbounded_marker_parses_to_the_worst_value(self):
        instance = parse_instance(BASIC)
        assert instance.bound == worst_bound(instance.matrix, Objective.SUM) == 9

    def test_blank_lines_and_comments_are_skipped(self):
        text = "# circulated by mail\n\nproprep v1\n#\n" + BASIC[len("proprep v1\n") :]
        assert parse_instance(text) == parse_instance(BASIC)

    def test_approval_block_rows(self):
        instance = parse_instance(APPROVAL)
        assert instance.matrix.rows == ((0, 0, 1), (1, 1, 1))

    def test_explicit_block_scales_fractions_and_the_bound(self):
        instance = parse_instance(EXPLICIT)
        assert instance.matrix.rows == ((0, 1, 2), (6, 1, 0))
        assert instance.bound == 4

    def test_bad_magic(self):
        error = error_for(lines_replaced(BASIC, 1, "propreP v2"))
        assert error.line == 1

    def test_short_header(self):
        error = error_for(lines_replaced(BASIC, 2, "4 3 1 -"))
        assert error.line == 2
        assert "7 fields" in str(error)

    @pytest.mark.parametrize("header", HEADER_ERRORS)
    def test_bad_header_fields(self, header):
        error = error_for(lines_replaced(BASIC, 2, header))
        assert error.line == 2
        assert str(error) == f"line 2: {HEADER_ERRORS[header]}"

    def test_reserved_candidate_name(self):
        assert error_for(lines_replaced(BASIC, 3, "-")).line == 3

    def test_duplicate_candidate_name(self):
        error = error_for(lines_replaced(BASIC, 4, "c1"))
        assert error.line == 4
        assert "duplicate" in str(error)

    def test_unknown_candidate_in_vote(self):
        error = error_for(lines_replaced(BASIC, 8, "c2 c3 c4 c9"))
        assert error.line == 8
        assert "unknown candidate 'c9'" in str(error)

    def test_vote_that_is_not_a_permutation(self):
        error = error_for(lines_replaced(BASIC, 8, "c2 c3 c4 c4"))
        assert error.line == 8
        assert "rank all 4" in str(error)

    def test_vote_errors_are_reported_in_file_order(self):
        bad_permutation, bad_name = "c2 c3 c4 c4", "c2 c3 c4 c9"
        text = lines_replaced(lines_replaced(BASIC, 8, bad_permutation), 9, bad_name)
        error = error_for(text)
        assert (error.line, "rank all 4" in str(error)) == (8, True)
        text = lines_replaced(lines_replaced(BASIC, 8, bad_name), 9, bad_permutation)
        error = error_for(text)
        assert (error.line, "unknown candidate 'c9'" in str(error)) == (8, True)

    def test_name_errors_come_before_vote_errors(self):
        text = lines_replaced(BASIC, 5, "#c3")
        broken_vote = lines_replaced(text, 7, "c1 c1 c1 c1")
        cut_short = "\n".join(text.splitlines()[:7]) + "\n"
        spaced_name = lines_replaced(text, 6, "c 4")
        for text in (broken_vote, cut_short, spaced_name):
            error = error_for(text)
            assert str(error) == "line 5: reserved candidate name '#c3'"

    def test_truncated_file(self):
        text = "\n".join(BASIC.splitlines()[:6]) + "\n"
        error = error_for(text)
        assert "unexpected end of file" in str(error)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1: unexpected end of file, expected the format tag"),
            (
                "\n".join(BASIC.splitlines()[:2]) + "\n",
                "line 2: unexpected end of file, expected a candidate name",
            ),
        ],
        ids=["empty", "header-only"],
    )
    def test_file_ending_early_names_what_it_expected(self, text, message):
        assert str(error_for(text)) == message

    def test_trailing_garbage(self):
        error = error_for(BASIC + "c1 beats everyone\n")
        assert error.line == 10
        assert "unexpected extra content" in str(error)

    def test_comment_lines_still_count_for_error_positions(self):
        text = lines_replaced(
            "# archived ballot\n" + BASIC, 9, "c2 c3 c4 c4"
        )
        assert error_for(text).line == 9

    def test_instance_validation_blames_the_header(self):
        error = error_for(lines_replaced(BASIC, 2, "4 3 5 - cc sum borda"))
        assert error.line == 2

    def test_non_prefix_approval(self):
        error = error_for(lines_replaced(APPROVAL, 9, "b"))
        assert error.line == 9
        assert "prefix" in str(error)

    def test_duplicate_approval(self):
        error = error_for(lines_replaced(APPROVAL, 9, "a a"))
        assert error.line == 9

    def test_missing_approval_block_marker(self):
        error = error_for(lines_replaced(APPROVAL, 8, "#approves"))
        assert error.line == 8

    def test_matrix_row_with_wrong_arity(self):
        error = error_for(lines_replaced(EXPLICIT, 9, "0 1"))
        assert error.line == 9
        assert "3 entries" in str(error)

    def test_matrix_negative_entry(self):
        error = error_for(lines_replaced(EXPLICIT, 9, "0 -1/2 1"))
        assert error.line == 9
        assert "negative" in str(error)

    def test_matrix_bad_token(self):
        error = error_for(lines_replaced(EXPLICIT, 9, "1 1/2 zero"))
        assert error.line == 9

    def test_matrix_row_against_the_vote_order(self):
        error = error_for(lines_replaced(EXPLICIT, 9, "0 2 1"))
        assert error.line == 9
        assert "monotone" in str(error)


REPEATED = """\
proprep v1
3 4 1 - monroe sum approval
a
b
c
a b c
a b c
c b a
a b c
#approve
a
a
c b
a
"""

REPEATED_TABLE = """\
proprep v1
3 3 1 - cc sum explicit
a
b
c
a b c
a b c
a b c
#matrix
0 1/2 1
0 1/2 1
0 1/2 1
"""


def cut_after(text: str, line: int) -> str:
    return "\n".join(text.splitlines()[:line]) + "\n"


class TestBlocksAndRepeats:
    """Each block is read at once, and equal lines are parsed once."""

    def test_equal_lines_share_one_object(self):
        instance = parse_instance(REPEATED)
        votes, rows = instance.election.votes, instance.matrix.rows
        assert votes[0] is votes[1] is votes[3] and votes[2] == (2, 1, 0)
        assert rows[0] is rows[1] is rows[3] and rows[2] == (1, 0, 0)
        positions = instance.election._positions
        assert positions[0] is positions[1] is positions[3]
        table = parse_instance(REPEATED_TABLE).matrix.rows
        assert table[0] is table[1] is table[2] == (0, 1, 2)

    @pytest.mark.parametrize(
        "text, line, missing",
        [
            (REPEATED, 7, "the vote of voter 2"),
            (REPEATED, 5, "the vote of voter 0"),
            (REPEATED, 12, "the approvals of voter 2"),
            (REPEATED, 10, "the approvals of voter 0"),
            (REPEATED_TABLE, 10, "the table row of voter 1"),
        ],
    )
    def test_a_block_cut_short_names_the_first_missing_voter(self, text, line, missing):
        expected = f"line {line}: unexpected end of file, expected {missing}"
        assert str(error_for(cut_after(text, line))) == expected
        # Trailing comments and blank lines do not move the reported line.
        assert str(error_for(cut_after(text, line) + "\n# the end\n")) == expected

    def test_a_bad_line_cut_short_is_reported_before_the_end_of_file(self):
        text = cut_after(lines_replaced(REPEATED, 12, "a x"), 13)
        assert str(error_for(text)) == "line 12: unknown candidate 'x'"

    @pytest.mark.parametrize(
        "line, replacement, message",
        [
            (7, "a b x", "unknown candidate 'x'"),
            (7, "a a b", "vote of voter 1 must rank all 3 candidates once"),
            (12, "a x", "unknown candidate 'x'"),
            (12, "b", "voter 1: approval set is not a prefix of the ranking"),
            (12, "a a", "voter 1: approves a candidate twice"),
        ],
    )
    def test_a_repeated_bad_line_is_blamed_on_its_first_voter(
        self, line, replacement, message
    ):
        text = REPEATED
        for repeat in (line, line + 2):
            text = lines_replaced(text, repeat, replacement)
        assert str(error_for(text)) == f"line {line}: {message}"

    def test_a_shared_line_is_checked_against_each_vote_it_comes_with(self):
        # Voters 0 and 2 approve the same line, a prefix of voter 0's vote
        # only; voters 0 and 2 also give the same table row.
        text = lines_replaced(REPEATED, 8, "b c a")
        text = lines_replaced(lines_replaced(text, 11, "a"), 13, "a")
        expected = "line 13: voter 2: approval set is not a prefix of the ranking"
        assert str(error_for(text)) == expected
        table = lines_replaced(REPEATED_TABLE, 8, "c b a")
        error = str(error_for(table))
        assert error.startswith("line 12: voter 2: row is not monotone along the vote")

    @pytest.mark.parametrize(
        "replacement, message",
        [
            ("0 1/2 x", "bad table entry 'x'"),
            ("0 -1 1", "voter 1: negative table entry -1, must be >= 0"),
            ("1 0 2", "voter 1: row is not monotone along the vote"),
        ],
    )
    def test_a_repeated_bad_row_is_blamed_on_its_first_voter(
        self, replacement, message
    ):
        text = REPEATED_TABLE
        for repeat in (11, 12):
            text = lines_replaced(text, repeat, replacement)
        assert str(error_for(text)).startswith(f"line 11: {message}")


class TestRenderInstance:
    def test_borda_round_trip(self):
        instance = parse_instance(BASIC)
        assert parse_instance(render_instance(instance)) == instance

    def test_unbounded_bound_renders_as_dash(self):
        header = render_instance(parse_instance(BASIC)).splitlines()[1]
        assert header.split()[3] == "-"

    def test_finite_bound_round_trip(self):
        election = ranked("a b c", "a b c", "b c a")
        instance = instance_for(election, Rule.CC, Objective.MINIMAX, 2, bound=1)
        text = render_instance(instance)
        assert text.splitlines()[1].split()[3] == "1"
        assert parse_instance(text) == instance

    def test_approval_round_trip_with_empty_set(self):
        instance = parse_instance(APPROVAL)
        text = render_instance(instance)
        assert "#approve" in text and "\n-\n" in text
        assert parse_instance(text) == instance

    def test_explicit_round_trip_is_integer(self):
        instance = parse_instance(EXPLICIT)
        text = render_instance(instance)
        assert "#matrix" in text and "/" not in text.split("#matrix")[1]
        assert parse_instance(text) == instance

    def test_zero_one_tables_render_as_approval(self):
        election = ranked("a b c", "b a c", "c a b")
        matrix = build_misrep(election, ExplicitMisrep(((0, 0, 1), (1, 1, 0))))
        instance = ProblemInstance(
            election, matrix, Rule.MONROE, Objective.SUM, 1, 1
        )
        text = render_instance(instance)
        assert "#approve" in text
        assert parse_instance(text) == instance

    @pytest.mark.parametrize("votes", [("a", "a"), ("a b", "b a", "a b")])
    def test_borda_wins_over_approval_on_one_or_two_candidates(self, votes):
        # Each voter approving just their top choice gives the Borda table.
        election = ranked(*votes)
        instance = instance_for(election, Rule.MONROE, Objective.SUM, 1)
        text = render_instance(instance)
        assert text.splitlines()[1].split()[6] == "borda"
        assert parse_instance(text) == instance


@st.composite
def round_trip_instances(draw):
    num_candidates = draw(st.integers(1, 5))
    num_voters = draw(st.integers(1, 5))
    votes = tuple(
        tuple(draw(st.permutations(range(num_candidates)))) for _ in range(num_voters)
    )
    election = Election(
        tuple(f"c{i + 1}" for i in range(num_candidates)), votes
    )
    if draw(st.booleans()):
        matrix = build_misrep(election, BordaMisrep())
    else:
        approvals = tuple(
            vote[: draw(st.integers(0, num_candidates))] for vote in votes
        )
        matrix = build_misrep(election, ApprovalMisrep(approvals))
    rule = draw(st.sampled_from(list(Rule)))
    objective = draw(st.sampled_from(list(Objective)))
    k = draw(st.integers(1, min(num_candidates, num_voters)))
    bound = draw(st.one_of(st.none(), st.integers(0, 25)))
    if bound is None:
        bound = worst_bound(matrix, objective)
    return ProblemInstance(election, matrix, rule, objective, k, bound)


@given(round_trip_instances())
def test_rendering_then_parsing_reproduces_the_instance(instance):
    assert parse_instance(render_instance(instance)) == instance


class TestSolutionFormat:
    @pytest.fixture
    def election(self):
        return ranked("a b c", "a b c", "b a c", "c b a")

    @pytest.fixture
    def solution(self):
        return Solution(Assignment((0, 2), (0, 0, 2)), 1, False)

    def test_round_trip(self, election, solution):
        text = render_solution(solution, election, solver="subset-enum")
        parsed, solver = parse_solution(text, election)
        assert parsed == solution
        assert solver == "subset-enum"

    def test_solver_line_is_optional(self, election, solution):
        text = render_solution(solution, election)
        assert "solver" not in text
        assert parse_solution(text, election) == (solution, None)

    def test_bad_magic(self, election):
        with pytest.raises(ParseError) as caught:
            parse_solution("solution v1\n", election)
        assert caught.value.line == 1

    def test_unknown_key(self, election, solution):
        text = render_solution(solution, election) + "quality excellent\n"
        with pytest.raises(ParseError, match="unknown key"):
            parse_solution(text, election)

    def test_duplicate_key(self, election, solution):
        text = render_solution(solution, election) + "value 1\n"
        with pytest.raises(ParseError, match="duplicate key"):
            parse_solution(text, election)

    def test_missing_key(self, election, solution):
        text = render_solution(solution, election).replace("m-criterion false\n", "")
        with pytest.raises(ParseError, match="missing key 'm-criterion'"):
            parse_solution(text, election)

    def test_bad_value(self, election, solution):
        text = render_solution(solution, election).replace("value 1", "value one")
        with pytest.raises(ParseError, match="integer"):
            parse_solution(text, election)

    def test_bad_flag(self, election, solution):
        text = render_solution(solution, election).replace(
            "m-criterion false", "m-criterion maybe"
        )
        with pytest.raises(ParseError, match="true or false"):
            parse_solution(text, election)

    def test_unknown_winner_name(self, election, solution):
        text = render_solution(solution, election).replace(
            "winners a c", "winners a z"
        )
        with pytest.raises(ParseError, match="unknown candidate 'z'"):
            parse_solution(text, election)

    def test_assignment_length_mismatch(self, election, solution):
        text = render_solution(solution, election).replace(
            "assignment a a c", "assignment a a"
        )
        with pytest.raises(ParseError, match="expected 3"):
            parse_solution(text, election)

    def test_mapping_outside_the_winner_set(self, election, solution):
        text = render_solution(solution, election).replace(
            "assignment a a c", "assignment a b c"
        )
        with pytest.raises(ParseError, match="non-winner"):
            parse_solution(text, election)

    def test_unsorted_winners(self, election, solution):
        text = render_solution(solution, election).replace(
            "winners a c", "winners c a"
        )
        with pytest.raises(ParseError, match="sorted"):
            parse_solution(text, election)

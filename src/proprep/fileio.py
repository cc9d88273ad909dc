"""Plain-text formats for instances and solutions.

Election files carry the version tag ``proprep v1``::

    proprep v1
    <m> <n> <k> <R> <rule> <objective> <misrep>
    ... m candidate-name lines ...
    ... n vote lines: candidate names, most preferred first ...
    #approve        (only when misrep = approval)
    ... n lines of approved names, "-" for an empty set ...
    #matrix         (only when misrep = explicit)
    ... n lines of m nonnegative integers or fractions like 3/2 ...

``rule`` is ``cc`` or ``monroe``; ``objective`` is ``sum`` or ``minimax``;
``misrep`` is ``borda`` (no block), ``approval``, or ``explicit``.  ``R``
is a nonnegative integer bound, or ``-`` for "unbounded", which parses to
the worst value the objective can reach on the table, so it never rules
out a solution.  Fractional table entries are brought to integers by their
least common denominator, and the bound scales with them, which preserves
the decision exactly.  Blank lines are skipped, as are comment lines: a
bare ``#`` or ``#`` followed by a space.

Solution files carry the version tag ``proprep-solution v1`` and one
``key value`` pair per line: an optional ``solver`` name, the claimed
``value``, the ``m-criterion`` flag, the ``winners`` by name, and the
``assignment`` naming every voter's representative in voter order.

The vote, approval and table blocks are read one slice each, and each
distinct line text in a block is parsed once, so voters with equal lines
share one vote, approval set or table row object, which :mod:`proprep.core`
then checks and builds on once.  Parsers raise :class:`ParseError`, whose
message starts with the 1-based line number; an error on a repeated line
names its first line.  Rendering is deterministic, and parsing a rendered text
reproduces the instance or solution exactly; an instance whose bound
equals the worst reachable value renders its bound as ``-``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Callable, Optional, TypeVar, Union

from .core import (
    ApprovalMisrep,
    Assignment,
    BordaMisrep,
    CandidateError,
    Election,
    ExplicitMisrep,
    MisrepMatrix,
    MisrepSpec,
    Objective,
    ProblemInstance,
    Rule,
    Solution,
    VoterError,
    build_misrep,
    table_scale,
)

FORMAT_TAG = "proprep v1"
SOLUTION_TAG = "proprep-solution v1"

_RULES = {rule.value: rule for rule in Rule}
_OBJECTIVES = {objective.value: objective for objective in Objective}
_KINDS = ("borda", "approval", "explicit")

_ZERO_ONE = frozenset((0, 1))
Parsed = TypeVar("Parsed")


class ParseError(ValueError):
    """A malformed line in an instance or solution text."""

    def __init__(self, line: int, message: str) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}")


def worst_bound(matrix: MisrepMatrix, objective: Objective) -> int:
    """The largest value the objective can take on any assignment."""
    if objective is Objective.SUM:
        return sum(max(row) for row in matrix.rows)
    return matrix.max_value()


def _meaningful_lines(text: str) -> list[tuple[int, str]]:
    kept = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line == "#" or line.startswith("# "):
            continue
        kept.append((number, line))
    return kept


class _Cursor:
    def __init__(self, text: str) -> None:
        self.lines = _meaningful_lines(text)
        self.at = 0

    def ended(self, expecting: str) -> ParseError:
        last = self.lines[-1][0] if self.lines else 1
        return ParseError(last, f"unexpected end of file, expected {expecting}")

    def take(self, expecting: str) -> tuple[int, str]:
        if self.at >= len(self.lines):
            raise self.ended(expecting)
        pair = self.lines[self.at]
        self.at += 1
        return pair

    def expect(self, marker: str) -> None:
        number, line = self.take(f"the {marker} block")
        if line != marker:
            raise ParseError(number, f"expected {marker!r}, got {line!r}")

    def block(
        self, count: int, what: str, parse: Callable[[int, str], Parsed]
    ) -> tuple[list[tuple[int, str]], tuple[Parsed, ...], Optional[ParseError]]:
        """The next ``count`` lines, each parsed, and the error if fewer are left.

        ``parse(number, text)`` runs once per distinct text, in file order,
        so an error names the first line that has it, and equal lines share
        one result object.  A file that ends first gives the error `take`
        raises for the first voter without a line (``what`` of voter i),
        returned so that the lines read can be checked first.
        """
        lines = self.lines[self.at : self.at + count]
        self.at += len(lines)
        parsed: dict[str, Parsed] = {}
        for number, text in lines:
            if text not in parsed:
                parsed[text] = parse(number, text)
        results = tuple(map(parsed.__getitem__, map(itemgetter(1), lines)))
        if len(lines) < count:
            return lines, results, self.ended(f"{what} of voter {len(lines)}")
        return lines, results, None

    def done(self) -> None:
        if self.at < len(self.lines):
            number, line = self.lines[self.at]
            raise ParseError(number, f"unexpected extra content {line!r}")


def _parse_positive(token: str, what: str, number: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(number, f"{what} must be an integer, got {token!r}") from None
    if value < 1:
        raise ParseError(number, f"{what} must be >= 1, got {value}")
    return value


def _candidate_indices(
    tokens: list[str], by_name: dict[str, int], number: int
) -> tuple[int, ...]:
    try:
        return tuple(map(by_name.__getitem__, tokens))
    except KeyError as error:
        raise ParseError(number, f"unknown candidate {error.args[0]!r}") from None


def _table_row(number: int, line: str) -> tuple[Union[int, Fraction], ...]:
    entries = []
    for token in line.split():
        try:
            entry = Fraction(token)
        except (ValueError, ZeroDivisionError):
            raise ParseError(number, f"bad table entry {token!r}") from None
        entries.append(entry if entry.denominator > 1 else int(entry))
    return tuple(entries)


def parse_instance(text: str) -> ProblemInstance:
    """Parse election-file text into a validated problem instance."""
    cursor = _Cursor(text)
    number, line = cursor.take("the format tag")
    if line != FORMAT_TAG:
        raise ParseError(number, f"expected {FORMAT_TAG!r}, got {line!r}")
    header_number, header = cursor.take("the header")
    fields = header.split()
    if len(fields) != 7:
        raise ParseError(
            header_number,
            "header needs 7 fields: m n k R rule objective misrep",
        )
    m = _parse_positive(fields[0], "candidate count", header_number)
    n = _parse_positive(fields[1], "voter count", header_number)
    k = _parse_positive(fields[2], "winner count", header_number)
    if fields[3] != "-":
        try:
            bound: Optional[int] = int(fields[3])
        except ValueError:
            raise ParseError(
                header_number, f"bound must be an integer or '-', got {fields[3]!r}"
            ) from None
        if bound < 0:
            raise ParseError(header_number, f"bound must be >= 0, got {bound}")
    else:
        bound = None
    if fields[4] not in _RULES:
        raise ParseError(header_number, f"unknown rule {fields[4]!r}")
    if fields[5] not in _OBJECTIVES:
        raise ParseError(header_number, f"unknown objective {fields[5]!r}")
    if fields[6] not in _KINDS:
        raise ParseError(header_number, f"unknown misrepresentation kind {fields[6]!r}")
    rule, objective, kind = _RULES[fields[4]], _OBJECTIVES[fields[5]], fields[6]

    names: list[str] = []
    name_numbers: list[int] = []
    cut_short: Optional[ParseError] = None
    try:
        for _ in range(m):
            number, line = cursor.take("a candidate name")
            tokens = line.split()
            if len(tokens) != 1:
                raise ParseError(number, "candidate name must be a single token")
            names.append(tokens[0])
            name_numbers.append(number)
    except ParseError as error:
        if not names:
            raise
        cut_short = error
    # The election checks what was read before any line that failed, so
    # the first error in file order is reported.  An unknown name resolves
    # to None, which no permutation holds.
    by_name = {name: index for index, name in enumerate(names)}
    vote_lines, votes, missing = cursor.block(
        n, "the vote", lambda _, line: tuple(map(by_name.get, line.split()))
    )
    try:
        election = Election(tuple(names), votes or (tuple(range(len(names))),))
    except CandidateError as error:
        raise ParseError(name_numbers[error.candidate], str(error)) from None
    except VoterError as error:
        number, line = vote_lines[error.voter]
        _candidate_indices(line.split(), by_name, number)  # an unknown name
        raise ParseError(
            number, f"vote of voter {error.voter} must rank all {m} candidates once"
        ) from None
    if cut_short or missing:
        raise cut_short or missing

    block: list[tuple[int, str]] = []
    spec: MisrepSpec
    if kind == "borda":
        spec = BordaMisrep()
    elif kind == "approval":
        cursor.expect("#approve")
        block, approvals, missing = cursor.block(
            n,
            "the approvals",
            lambda number, line: _candidate_indices(
                [] if line == "-" else line.split(), by_name, number
            ),
        )
        spec = ApprovalMisrep(approvals)
    else:
        cursor.expect("#matrix")
        block, rows, missing = cursor.block(n, "the table row", _table_row)
        # The bound is in the units of the fractional table, so it scales
        # along when build_misrep brings the table to integers.
        if bound is not None:
            bound *= table_scale(rows)
        spec = ExplicitMisrep(rows)
    if missing:
        raise missing
    cursor.done()
    try:
        matrix = build_misrep(election, spec)
    except VoterError as error:
        raise ParseError(block[error.voter][0], str(error)) from None

    if bound is None:
        bound = worst_bound(matrix, objective)
    try:
        return ProblemInstance(election, matrix, rule, objective, k, bound)
    except ValueError as error:
        raise ParseError(header_number, str(error)) from None


def _detect_kind(instance: ProblemInstance) -> tuple[str, tuple[tuple[int, ...], ...]]:
    election, matrix = instance.election, instance.matrix
    approvals: Optional[list[tuple[int, ...]]] = []
    for vote, row in zip(election.votes, matrix.rows):
        # An approval row is 0/1 and its zeros are a prefix of the vote.
        approved = vote[: row.count(0)]
        if not _ZERO_ONE.issuperset(row) or any([row[c] for c in approved]):
            approvals = None
            break
        approvals.append(approved)
    # A Borda row holds every value 0..m-1, so only with m <= 2 can a table
    # be both approval-shaped and Borda; Borda wins there.
    if approvals is None or election.m <= 2:
        if matrix == build_misrep(election, BordaMisrep()):
            return "borda", ()
    if approvals is None:
        return "explicit", ()
    return "approval", tuple(approvals)


def render_instance(instance: ProblemInstance) -> str:
    """Serialize an instance; parsing the result reproduces it exactly."""
    election, matrix = instance.election, instance.matrix
    kind, approvals = _detect_kind(instance)
    bound = (
        "-"
        if instance.bound == worst_bound(matrix, instance.objective)
        else str(instance.bound)
    )
    lines = [
        FORMAT_TAG,
        f"{election.m} {election.n} {instance.k} {bound} "
        f"{instance.rule.value} {instance.objective.value} {kind}",
    ]
    names = election.candidates
    lines.extend(names)
    for vote in election.votes:
        lines.append(" ".join([names[c] for c in vote]))
    if kind == "approval":
        lines.append("#approve")
        for approved in approvals:
            lines.append(" ".join([names[c] for c in approved]) if approved else "-")
    elif kind == "explicit":
        lines.append("#matrix")
        for row in matrix.rows:
            lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def parse_solution(text: str, election: Election) -> tuple[Solution, Optional[str]]:
    """Parse solution-file text against the election it talks about.

    Returns the solution together with the optional recorded solver name.
    """
    cursor = _Cursor(text)
    number, line = cursor.take("the format tag")
    if line != SOLUTION_TAG:
        raise ParseError(number, f"expected {SOLUTION_TAG!r}, got {line!r}")
    by_name = {name: c for c, name in enumerate(election.candidates)}
    seen: dict[str, tuple[int, str]] = {}
    while cursor.at < len(cursor.lines):
        number, line = cursor.take("a key-value line")
        key, _, rest = line.partition(" ")
        if key not in ("solver", "value", "m-criterion", "winners", "assignment"):
            raise ParseError(number, f"unknown key {key!r}")
        if key in seen:
            raise ParseError(number, f"duplicate key {key!r}")
        seen[key] = (number, rest.strip())
    for key in ("value", "m-criterion", "winners", "assignment"):
        if key not in seen:
            last = cursor.lines[-1][0] if cursor.lines else 1
            raise ParseError(last, f"missing key {key!r}")
    number, rest = seen["value"]
    try:
        value = int(rest)
    except ValueError:
        raise ParseError(number, f"value must be an integer, got {rest!r}") from None
    number, rest = seen["m-criterion"]
    if rest not in ("true", "false"):
        raise ParseError(number, f"m-criterion must be true or false, got {rest!r}")
    balanced = rest == "true"
    number, rest = seen["winners"]
    winners = _candidate_indices(rest.split(), by_name, number)
    winners_number = number
    number, rest = seen["assignment"]
    mapping = _candidate_indices(rest.split(), by_name, number)
    if len(mapping) != election.n:
        raise ParseError(
            number, f"assignment names {len(mapping)} voters, expected {election.n}"
        )
    try:
        assignment = Assignment(winners, mapping)
    except ValueError as error:
        raise ParseError(winners_number, str(error)) from None
    solver = seen["solver"][1] if "solver" in seen else None
    return Solution(assignment, value, balanced), solver


def render_solution(
    solution: Solution, election: Election, solver: Optional[str] = None
) -> str:
    """Serialize a solution record; stdout-stable and machine-parsable."""
    lines = [SOLUTION_TAG]
    if solver is not None:
        lines.append(f"solver {solver}")
    lines.append(f"value {solution.objective_value}")
    lines.append(f"m-criterion {'true' if solution.m_criterion_satisfied else 'false'}")
    lines.append(
        "winners "
        + " ".join(election.candidates[c] for c in solution.assignment.winner_set)
    )
    lines.append(
        "assignment "
        + " ".join(election.candidates[c] for c in solution.assignment.mapping)
    )
    return "\n".join(lines) + "\n"

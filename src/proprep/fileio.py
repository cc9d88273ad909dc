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

Parsers raise :class:`ParseError`, whose message starts with the 1-based
line number.  Rendering is deterministic, and parsing a rendered text
reproduces the instance or solution exactly; an instance whose bound
equals the worst reachable value renders its bound as ``-``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

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

    def take(self, expecting: str) -> tuple[int, str]:
        if self.at >= len(self.lines):
            last = self.lines[-1][0] if self.lines else 1
            raise ParseError(last, f"unexpected end of file, expected {expecting}")
        pair = self.lines[self.at]
        self.at += 1
        return pair

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
    vote_lines: list[tuple[int, str]] = []
    cut_short: Optional[ParseError] = None
    try:
        for _ in range(m):
            number, line = cursor.take("a candidate name")
            tokens = line.split()
            if len(tokens) != 1:
                raise ParseError(number, "candidate name must be a single token")
            names.append(tokens[0])
            name_numbers.append(number)
        for voter in range(n):
            vote_lines.append(cursor.take(f"the vote of voter {voter}"))
    except ParseError as error:
        if not names:
            raise
        cut_short = error
    # The election checks what was read before any line that failed, so
    # the first error in file order is reported.  An unknown name resolves
    # to None, which no permutation holds.
    by_name = {name: index for index, name in enumerate(names)}
    votes = tuple(tuple(map(by_name.get, line.split())) for _, line in vote_lines)
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
    if cut_short is not None:
        raise cut_short

    # The line each voter's approval set or table row came from.
    row_numbers: list[int] = []
    spec: MisrepSpec
    if kind == "borda":
        spec = BordaMisrep()
    elif kind == "approval":
        number, line = cursor.take("the #approve block")
        if line != "#approve":
            raise ParseError(number, f"expected '#approve', got {line!r}")
        approvals: list[tuple[int, ...]] = []
        for voter in range(n):
            number, line = cursor.take(f"the approvals of voter {voter}")
            row_numbers.append(number)
            tokens = [] if line == "-" else line.split()
            approvals.append(_candidate_indices(tokens, by_name, number))
        spec = ApprovalMisrep(tuple(approvals))
    else:
        number, line = cursor.take("the #matrix block")
        if line != "#matrix":
            raise ParseError(number, f"expected '#matrix', got {line!r}")
        rows: list[tuple[Union[int, Fraction], ...]] = []
        for voter in range(n):
            number, line = cursor.take(f"the table row of voter {voter}")
            row_numbers.append(number)
            tokens = line.split()
            entries = []
            for token in tokens:
                try:
                    entry = Fraction(token)
                except (ValueError, ZeroDivisionError):
                    raise ParseError(
                        number, f"bad table entry {token!r}"
                    ) from None
                entries.append(entry if entry.denominator > 1 else int(entry))
            rows.append(tuple(entries))
        # The bound is in the units of the fractional table, so it scales
        # along when build_misrep brings the table to integers.
        if bound is not None:
            bound *= table_scale(rows)
        spec = ExplicitMisrep(tuple(rows))
    cursor.done()
    try:
        matrix = build_misrep(election, spec)
    except VoterError as error:
        raise ParseError(row_numbers[error.voter], str(error)) from None

    if bound is None:
        bound = worst_bound(matrix, objective)
    try:
        return ProblemInstance(election, matrix, rule, objective, k, bound)
    except ValueError as error:
        raise ParseError(header_number, str(error)) from None


def _detect_kind(instance: ProblemInstance) -> tuple[str, tuple[tuple[int, ...], ...]]:
    election, matrix = instance.election, instance.matrix
    if matrix == build_misrep(election, BordaMisrep()):
        return "borda", ()
    approvals = []
    for v, row in enumerate(matrix.rows):
        if any(x not in (0, 1) for x in row):
            return "explicit", ()
        approved = tuple(c for c in election.votes[v] if row[c] == 0)
        if set(approved) != set(election.votes[v][: len(approved)]):
            return "explicit", ()
        approvals.append(approved)
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
    lines.extend(election.candidates)
    for vote in election.votes:
        lines.append(" ".join(election.candidates[c] for c in vote))
    if kind == "approval":
        lines.append("#approve")
        for approved in approvals:
            if approved:
                lines.append(" ".join(election.candidates[c] for c in approved))
            else:
                lines.append("-")
    elif kind == "explicit":
        lines.append("#matrix")
        for row in matrix.rows:
            lines.append(" ".join(str(x) for x in row))
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

"""Core types for committee selection under misrepresentation.

An election is a list of candidates together with one strict preference order
per voter.  A misrepresentation table assigns every (voter, candidate) pair a
nonnegative integer saying how badly the candidate represents the voter; rows
must never decrease along the voter's preference order, so a candidate ranked
higher is never a worse representative.  Tables are exact integers throughout:
rational inputs to explicit tables are scaled by the least common multiple of
their denominators at ingestion, which preserves optimal committees and scales
objective values by a known constant.

Two rules are supported.  Under the best-representative rule (``Rule.CC``) a
committee is scored by giving every voter her best committee member, and
committee members are allowed to represent nobody.  Under the balanced rule
(``Rule.MONROE``) every committee member must represent between floor(n/k) and
ceil(n/k) voters, with exactly ``n mod k`` members carrying the larger load.

Tie-breaking is deterministic everywhere: among winner sets of equal value
the lexicographically smallest sorted index sequence wins, and within a fixed
committee each voter is mapped to her best winner with the lowest candidate
index.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, TypeVar, Union

Point = TypeVar("Point")
Result = TypeVar("Result")


class BudgetExceededError(RuntimeError):
    """An enumeration or search guard tripped; raise the budget to proceed."""


class VoterError(ValueError):
    """A validation error blamed on one voter, whose index is ``voter``."""

    def __init__(self, voter: int, message: str) -> None:
        self.voter = voter
        super().__init__(f"voter {voter}: {message}")


class CandidateError(ValueError):
    """A validation error blamed on one candidate, whose index is ``candidate``."""

    def __init__(self, candidate: int, message: str) -> None:
        self.candidate = candidate
        super().__init__(message)


class Rule(str, enum.Enum):
    """Committee evaluation rule."""

    CC = "cc"
    MONROE = "monroe"


class Objective(str, enum.Enum):
    """Aggregate applied to per-voter misrepresentation values."""

    SUM = "sum"
    MINIMAX = "minimax"


def _inverse(vote: Sequence[int]) -> tuple[int, ...]:
    """Each candidate's rank in a vote, by candidate index."""
    positions = [0] * len(vote)
    for rank, candidate in enumerate(vote):
        positions[candidate] = rank
    return tuple(positions)


@dataclass(frozen=True)
class Election:
    """Candidate names plus one strict ranking per voter.

    ``votes[v]`` lists candidate indices in decreasing preference, so
    ``votes[v][0]`` is voter ``v``'s favourite.  Every vote must be a
    permutation of ``range(m)``.
    """

    candidates: tuple[str, ...]
    votes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        """Validate names, then votes, each in index order.

        The first bad name raises :class:`CandidateError` and the first bad
        vote :class:`VoterError`, so a parser can blame the line it read.
        """
        if not self.candidates:
            raise ValueError("election needs at least one candidate")
        if not self.votes:
            raise ValueError("election needs at least one voter")
        seen = set()
        for index, name in enumerate(self.candidates):
            if not name or any(ch.isspace() for ch in name):
                raise CandidateError(index, f"bad candidate name {name!r}")
            if name.startswith("#") or name == "-":
                raise CandidateError(index, f"reserved candidate name {name!r}")
            if name in seen:
                raise CandidateError(index, f"duplicate candidate name {name!r}")
            seen.add(name)
        m = len(self.candidates)
        full = frozenset(range(m))
        for voter, vote in enumerate(self.votes):
            if len(vote) != m or frozenset(vote) != full:
                raise VoterError(voter, "vote is not a permutation")
        object.__setattr__(
            self, "_positions", tuple(map(_inverse, self.votes))
        )

    @property
    def m(self) -> int:
        return len(self.candidates)

    @property
    def n(self) -> int:
        return len(self.votes)


@dataclass(frozen=True)
class BordaMisrep:
    """Positional misrepresentation: rank 0 costs 0, rank j costs j."""


@dataclass(frozen=True)
class ApprovalMisrep:
    """Dichotomous misrepresentation: approved costs 0, anything else 1.

    ``approved[v]`` holds the candidate indices voter ``v`` approves.  Each
    approval set must be a prefix of the voter's ranking, otherwise the
    resulting row would rank an approved candidate below a disapproved one
    and break row monotonicity.  Empty approval sets are allowed.
    """

    approved: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ExplicitMisrep:
    """A full table of nonnegative integers or rationals, one row per voter."""

    rows: tuple[tuple[Union[int, Fraction], ...], ...]


MisrepSpec = Union[BordaMisrep, ApprovalMisrep, ExplicitMisrep]


@dataclass(frozen=True)
class MisrepMatrix:
    """Validated integer misrepresentation table, one row per voter."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.rows[0])

    def max_value(self) -> int:
        return max(max(row) for row in self.rows)

    def distinct_values(self) -> tuple[int, ...]:
        """All values appearing anywhere in the table, ascending."""
        return tuple(sorted({x for row in self.rows for x in row}))


def table_scale(rows: Iterable[Iterable[Union[int, Fraction]]]) -> int:
    """Least common denominator of a rational table's entries."""
    return math.lcm(*(Fraction(x).denominator for row in rows for x in row))


def build_misrep(election: Election, spec: MisrepSpec) -> MisrepMatrix:
    """Construct and validate the misrepresentation table for an election.

    A faulty voter (duplicate or non-prefix approvals, a table row of the
    wrong length, a negative entry, a row ranking some pair against the
    voter's preference order) raises :class:`VoterError`, whose message
    names the voter and, for monotonicity, the candidate pair; a missing
    approval set or table row raises ``ValueError``.
    """
    if isinstance(spec, BordaMisrep):
        return MisrepMatrix(election._positions)
    if isinstance(spec, ApprovalMisrep):
        if len(spec.approved) != election.n:
            raise ValueError("one approval set per voter required")
        rows = []
        for v, approved in enumerate(spec.approved):
            approved_set = frozenset(approved)
            if len(approved_set) != len(approved):
                raise VoterError(v, "approves a candidate twice")
            prefix = frozenset(election.votes[v][: len(approved_set)])
            if approved_set != prefix:
                raise VoterError(v, "approval set is not a prefix of the ranking")
            rows.append(
                tuple(0 if c in approved_set else 1 for c in range(election.m))
            )
        return MisrepMatrix(tuple(rows))
    if isinstance(spec, ExplicitMisrep):
        if len(spec.rows) != election.n:
            raise ValueError("one table row per voter required")
        for v, row in enumerate(spec.rows):
            if len(row) != election.m:
                raise VoterError(v, f"row needs {election.m} entries, got {len(row)}")
            for x in row:
                if x < 0:
                    raise VoterError(v, f"negative table entry {x}, must be >= 0")
        scale = table_scale(spec.rows)
        rows = tuple(
            tuple(int(x * scale) for x in row) for row in spec.rows
        )
        for v, vote in enumerate(election.votes):
            for better, worse in zip(vote, vote[1:]):
                if rows[v][better] > rows[v][worse]:
                    raise VoterError(
                        v,
                        "row is not monotone along the vote: candidates "
                        f"{election.candidates[better]!r} and "
                        f"{election.candidates[worse]!r} are out of order",
                    )
        return MisrepMatrix(rows)
    raise TypeError(f"unknown misrepresentation spec {spec!r}")


@dataclass(frozen=True)
class ProblemInstance:
    """One committee-selection question: election, table, rule, bound."""

    election: Election
    matrix: MisrepMatrix
    rule: Rule
    objective: Objective
    k: int
    bound: int

    def __post_init__(self) -> None:
        if self.matrix.n != self.election.n or self.matrix.m != self.election.m:
            raise ValueError("table shape does not match the election")
        if not 1 <= self.k <= min(self.election.m, self.election.n):
            raise ValueError(
                f"committee size {self.k} outside 1..min(m, n)="
                f"{min(self.election.m, self.election.n)}"
            )
        if self.bound < 0:
            raise ValueError("bound must be >= 0")


@dataclass(frozen=True)
class Assignment:
    """A committee plus a voter-to-winner map.

    ``winner_set`` is sorted and duplicate-free; every mapped candidate must
    be a winner.  Winners without voters are permitted (they occur under
    ``Rule.CC``); under ``Rule.MONROE`` the balance check rules them out.
    """

    winner_set: tuple[int, ...]
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.winner_set:
            raise ValueError("winner set must not be empty")
        if tuple(sorted(set(self.winner_set))) != self.winner_set:
            raise ValueError("winner set must be sorted and duplicate-free")
        winners = frozenset(self.winner_set)
        for voter, candidate in enumerate(self.mapping):
            if candidate not in winners:
                raise ValueError(
                    f"voter {voter} is mapped to non-winner {candidate}"
                )

    def loads(self) -> tuple[int, ...]:
        """Number of represented voters per winner, aligned with winner_set."""
        counts = {w: 0 for w in self.winner_set}
        for candidate in self.mapping:
            counts[candidate] += 1
        return tuple(counts[w] for w in self.winner_set)


@dataclass(frozen=True)
class Solution:
    """A scored assignment as returned by the solvers."""

    assignment: Assignment
    objective_value: int
    m_criterion_satisfied: bool


def balanced_loads(n: int, k: int) -> tuple[int, int, int]:
    """Per-winner load bounds under the balanced rule.

    Returns ``(floor(n/k), ceil(n/k), n mod k)``; exactly ``n mod k`` winners
    carry the larger load, the remaining ``k - n mod k`` the smaller one.
    """
    return n // k, -(-n // k), n % k


def pad_committee(winners: Iterable[int], k: int, m: int) -> tuple[int, ...]:
    """Extend a winner set to exactly k members, sorted.

    Extra seats go to the smallest-index candidates not already chosen;
    under the evaluation rules used here extra committee members can only
    help, never hurt.
    """
    chosen = set(winners)
    for c in range(m):
        if len(chosen) >= k:
            break
        chosen.add(c)
    if len(chosen) != k:
        raise ValueError("cannot pad committee to size k")
    return tuple(sorted(chosen))


def first_feasible(
    points: Sequence[Point], attempt: Callable[[Point], Optional[Result]]
) -> Optional[tuple[Point, Result]]:
    """The first point at which ``attempt`` succeeds, with what it returned.

    ``attempt`` returns None where it fails, and feasibility must be
    monotone along ``points``: failures first, then successes.  Bisection
    makes at most floor(log2 len(points)) + 1 attempts.  Returns None when
    no point is feasible, including when ``points`` is empty.
    """
    if isinstance(points, range):  # len() rejects one longer than sys.maxsize
        lo, hi = 0, (points[-1] - points[0]) // points.step if points else -1
    else:
        lo, hi = 0, len(points) - 1
    found: Optional[tuple[Point, Result]] = None
    while lo <= hi:
        mid = (lo + hi) // 2
        result = attempt(points[mid])
        if result is not None:
            found = (points[mid], result)
            hi = mid - 1
        else:
            lo = mid + 1
    return found


def evaluate(
    matrix: MisrepMatrix, mapping: tuple[int, ...], objective: Objective
) -> int:
    """Aggregate misrepresentation of a voter-to-candidate map."""
    if len(mapping) != matrix.n:
        raise ValueError("mapping must cover every voter exactly once")
    per_voter = (matrix.rows[v][c] for v, c in enumerate(mapping))
    if objective is Objective.SUM:
        return sum(per_voter)
    return max(per_voter)


def check_m_criterion(assignment: Assignment, n: int, k: int) -> bool:
    """True iff the committee has size k and loads are balanced.

    Balanced means every winner represents between floor(n/k) and ceil(n/k)
    voters; the count split (exactly ``n mod k`` winners at the ceiling) is
    then forced by arithmetic.
    """
    if len(assignment.winner_set) != k or len(assignment.mapping) != n:
        return False
    low, high, _ = balanced_loads(n, k)
    return all(low <= load <= high for load in assignment.loads())


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of re-deriving a solution's claims from scratch."""

    checks: tuple[VerifyCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)


def verify_solution(instance: ProblemInstance, solution: Solution) -> VerifyReport:
    """Re-derive every claim a solution makes and report each check.

    Checks: committee size and range, map validity, objective value
    recomputation, compliance with the instance bound, and (balanced rule
    only) the load balance flag.
    """
    checks = []
    winners = solution.assignment.winner_set
    size_ok = len(winners) == instance.k and all(
        0 <= w < instance.election.m for w in winners
    )
    checks.append(
        VerifyCheck(
            "winner-set",
            size_ok,
            f"{len(winners)} winners, expected {instance.k}",
        )
    )
    mapping = solution.assignment.mapping
    map_ok = len(mapping) == instance.election.n
    checks.append(
        VerifyCheck(
            "mapping",
            map_ok,
            f"{len(mapping)} voters mapped, expected {instance.election.n}",
        )
    )
    if map_ok:
        value = evaluate(instance.matrix, mapping, instance.objective)
        checks.append(
            VerifyCheck(
                "objective-value",
                value == solution.objective_value,
                f"recomputed {value}, claimed {solution.objective_value}",
            )
        )
        checks.append(
            VerifyCheck(
                "bound",
                value <= instance.bound,
                f"value {value} vs bound {instance.bound}",
            )
        )
    if instance.rule is Rule.MONROE:
        balanced = check_m_criterion(
            solution.assignment, instance.election.n, instance.k
        )
        checks.append(
            VerifyCheck(
                "balance",
                balanced and solution.m_criterion_satisfied,
                f"balanced={balanced}, flagged={solution.m_criterion_satisfied}",
            )
        )
    return VerifyReport(tuple(checks))

"""Exact solvers for proportional-representation committee selection.

Two families live here.  The enumeration solvers (`solve_subset_enum`,
`solve_partition_enum`) try every committee or every voter partition and are
the reference oracles for everything else.  Subset enumeration walks the
committees depth-first in lexicographic order, sharing each prefix's
per-voter minima, which `PackedColumns` packs into one int with a
byte-aligned field per voter so that each step runs at C speed, and prunes
every prefix whose best-representative bound cannot win, which needs no
flow; under the balanced rule it then scores the committees left by value
alone, in bound order until the next one can no longer win, and assigns
voters only to the committee it returns.  Partition enumeration matches
every admissible partition.  The remaining solvers are decision procedures:
given the bound stored on the instance they either produce a witness
solution meeting it or report that none exists by returning ``None``; one
function serves each solver name under every objective, so
`solve_cc_branch_rk` is the one branching solver.  The bound search that
turns a decision procedure into an optimizer, and the table of named
solvers, live in :mod:`proprep.solving`.

No solver here seats voters itself: committees are scored by value with
``assignment.balanced_value``, and every committee a solver settles on
becomes a solution through ``assignment.committee_solution``, the one
committee scorer, whose Monroe witnesses come from the value scorer's
seating.  ``assignment.transport`` matches partition blocks: partition
enumeration calls it to match voter blocks to candidates, bisecting over
bottleneck values with ``core.first_feasible`` under minimax.

All solvers are pure functions of their arguments.
"""

from __future__ import annotations

import heapq
import itertools
import math
import struct
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .assignment import balanced_value, committee_solution, transport
from .core import (
    Assignment,
    BudgetExceededError,
    MisrepMatrix,
    Objective,
    ProblemInstance,
    Rule,
    Solution,
    balanced_loads,
    check_m_criterion,
    evaluate,
    first_feasible,
    pad_committee,
)


@dataclass(frozen=True)
class SolverBudget:
    """Resource caps for the exhaustive solvers.

    A solver never silently degrades to a heuristic: it either finishes
    within these caps or raises `BudgetExceededError`.  The wall clock
    starts when the budget is made (``dataclasses.replace`` makes a new
    one), so every solver call handed the same budget, and every probe of
    a bound search, spends one ``max_seconds``.
    """

    max_subset_candidates: int = 20
    max_partition_voters: int = 9
    max_constant_bound: int = 3
    max_seconds: Optional[float] = None
    # A lambda, so a clock patched onto this module's `time` is read.
    started: float = field(
        default_factory=lambda: time.monotonic(), init=False, compare=False, repr=False
    )

    def check(self) -> None:
        """Raise `BudgetExceededError` once ``max_seconds`` have passed."""
        if (
            self.max_seconds is not None
            and time.monotonic() - self.started > self.max_seconds
        ):
            raise BudgetExceededError("wall-clock budget exhausted")


DEFAULT_BUDGET = SolverBudget()


@dataclass
class SearchStats:
    """Mutable counters filled in by the branching solver.

    `leaf_calls` counts recursive calls that return without branching
    further; it is the quantity bounded by the search-tree analysis.
    """

    leaf_calls: int = 0


# Native array formats by item size: 1, 2, 4 and 8 bytes.
_NATIVE_FORMATS = {struct.calcsize(code): code for code in "BHIQ"}
# The walk reads the clock after about this many voter entries folded, and
# at least every 1024 nodes.
_ENTRIES_PER_CHECK = 1 << 16


class PackedColumns:
    """Columns of per-voter table entries, each packed into one int.

    Voter v's entry is field v, bytes v*b .. v*b+b-1 of the int's byte
    string in native order.  The field width b is 1, 2, 4 or 8 bytes, or
    wider, the least that holds the table's largest entry below the field's
    top bit, so every entry x has 0 <= x < 2**(w-1), where w = 8b.  `unit`
    has a 1 at the bottom of every field and `high` = unit << (w-1) its top
    bit.  This is broadword arithmetic (Lamport, CACM 1975): each step below
    is a few operations on whole ints, which run at C speed.

    Pointwise minimum: in field v, (a | high) - b computes
    2**(w-1) + a_v - b_v, which lies in 1 .. 2**w - 1, so no field borrows
    from the next, and its top bit is set exactly when a_v >= b_v.  With d
    those top bits, d - (d >> (w-1)) sets every bit below each of them, so
    a ^ ((a ^ b) & mask) takes b_v where a_v >= b_v and a_v elsewhere;
    the top bits of a ^ b are all 0, so the mask needs none.

    Sum and largest entry: ``to_bytes`` lays the fields out in memory, and a
    ``memoryview`` cast to the native format of the field width reads them
    as integers; fields wider than 8 bytes are read by slices.

    Threshold test: adding (2**(w-1) - 1 - limit) * unit, for
    -1 <= limit < 2**(w-1), sends field v to x_v + 2**(w-1) - 1 - limit,
    again below 2**w, whose top bit is set exactly when x_v > limit.  A
    higher limit flags no field, as the addend 0 does.
    """

    def __init__(self, n: int, largest: int) -> None:
        bits = largest.bit_length() + 1
        self.width = next((b for b in (1, 2, 4, 8) if 8 * b >= bits), -(-bits // 8))
        self.size = n * self.width
        self.shift = 8 * self.width - 1
        self.format = _NATIVE_FORMATS.get(self.width)
        self.unit = self.pack([1] * n)
        self.high = self.unit << self.shift

    def pack(self, values: Iterable[int]) -> int:
        """One field per value, in voter order."""
        if self.format is not None:
            return int.from_bytes(array(self.format, values), sys.byteorder)
        width = self.width
        data = b"".join(x.to_bytes(width, sys.byteorder) for x in values)
        return int.from_bytes(data, sys.byteorder)

    def fields(self, packed: int) -> Sequence[int]:
        """The values packed into `packed`, in voter order."""
        data = packed.to_bytes(self.size, sys.byteorder)
        if self.width == 1:
            return data  # bytes iterate as ints, faster than a memoryview
        if self.format is not None:
            return memoryview(data).cast(self.format)
        width = self.width
        return [
            int.from_bytes(data[i : i + width], sys.byteorder)
            for i in range(0, self.size, width)
        ]

    def min(self, a: int, b: int) -> int:
        """The pointwise minimum of `a` and `b`."""
        d = ((a | self.high) - b) & self.high
        return a ^ ((a ^ b) & (d - (d >> self.shift)))

    def over(self, limit: float) -> int:
        """The addend that flags, in `high`, each field above `limit` >= -1."""
        top = (1 << self.shift) - 1
        return (top - min(limit, top)) * self.unit


@dataclass(frozen=True)
class _PackedPool:
    """What every walk over a candidate pool folds, packed once."""

    pool: Sequence[int]
    n: int
    packed: PackedColumns
    columns: list[int]  # each pool column, packed
    suffix: list[int]  # suffix[j]: each voter's best entry among pool[j:]
    top: int  # each voter's largest entry, above every column's


def _pack_pool(matrix: MisrepMatrix, pool: Sequence[int]) -> _PackedPool:
    """Pack the columns of `pool` and their suffix minima."""
    packed = PackedColumns(matrix.n, matrix.max_value())
    table = list(zip(*matrix.rows))
    columns = [packed.pack(table[c]) for c in pool]
    suffix = columns[:]
    for j in range(len(pool) - 2, -1, -1):
        suffix[j] = packed.min(columns[j], suffix[j + 1])
    top = packed.pack(map(max, matrix.rows))
    return _PackedPool(pool, matrix.n, packed, columns, suffix, top)


def _committee_walk(
    packing: _PackedPool,
    k: int,
    objective: Objective,
    budget: SolverBudget,
    limit: float,
    leaf: Callable[[int, tuple[int, ...]], float],
) -> None:
    """Visit size-k committees of the packed pool depth-first, lexicographically.

    Each node carries its prefix's per-voter minima, packed into one int by
    `PackedColumns`, and extends them by one candidate's packed column.  A
    child at pool position `j` is bounded by the CC value of its parent's
    prefix plus every candidate in `pool[j:]`, a lower bound on every
    committee below it; the bound never falls as `j` grows, so the first
    child above `limit` ends the loop over its siblings.  A last seat is
    scored directly, which costs what its bound would.  Under minimax both
    tests are one threshold test, and a committee's largest entry is read
    only once it passes.  Every committee with CC value <= `limit` is
    passed to `leaf` with that value, and `leaf` returns the limit for the
    rest of the walk.  The clock is read about every `_ENTRIES_PER_CHECK`
    voter entries, and at least every 1024 nodes.
    """
    pool, packed = packing.pool, packing.packed
    columns, suffix = packing.columns, packing.suffix
    fold, fields, high = packed.min, packed.fields, packed.high
    over = packed.over(limit)
    every = max(1, min(1024, _ENTRIES_PER_CHECK // packing.n))
    nodes = 0

    if objective is Objective.SUM:

        def score(minima: int) -> Optional[int]:
            value = sum(fields(minima))
            return value if value <= limit else None

        def pruned(minima: int) -> bool:
            return sum(fields(minima)) > limit

    else:

        def score(minima: int) -> Optional[int]:
            return None if (minima + over) & high else max(fields(minima))

        def pruned(minima: int) -> bool:
            return (minima + over) & high != 0

    def extend(start: int, prefix: tuple[int, ...], minima: int) -> None:
        nonlocal limit, over, nodes
        seats = k - len(prefix)
        for j in range(start, len(pool) - seats + 1):
            if nodes % every == 0:
                budget.check()
            nodes += 1
            if seats == 1:
                value = score(fold(minima, columns[j]))
                if value is not None:
                    after = leaf(value, prefix + (pool[j],))
                    if after != limit:
                        limit, over = after, packed.over(after)
            elif pruned(fold(minima, suffix[j])):
                return
            else:
                extend(j + 1, prefix + (pool[j],), fold(minima, columns[j]))

    extend(0, (), packing.top)


def solve_subset_enum(
    instance: ProblemInstance,
    budget: SolverBudget = DEFAULT_BUDGET,
    candidate_pool: Optional[Sequence[int]] = None,
) -> Solution:
    """Optimal solution by trying every size-k committee.

    `candidate_pool` restricts the search to committees drawn from the given
    distinct candidate indices.  This is the reference oracle for the whole
    package.

    Committees are walked depth-first in lexicographic order, sharing each
    prefix's per-voter minima, and a prefix is pruned once the CC value of
    the prefix plus every candidate left is above the limit.  Under the
    CC rule that walk is the whole solver: the limit is one below the best
    value so far and only a strictly smaller value replaces it, so ties go
    to the lexicographically smallest committee.  A committee's CC value is
    a lower bound on its Monroe value (the same assignment with load limits
    added), so under Monroe the CC-optimal committee is scored first and
    its value U becomes the limit of a second walk that collects every
    committee with CC value <= U.  Those are scored in ascending `(bound,
    committee)` order until the next pair is above the best `(value,
    committee)` pair so far; every committee not scored has value >= bound,
    so the answer is the plain minimum over all pairs.  Every committee,
    the CC-optimal one included, is scored by value alone, a collected
    minimax value only once the committee is known to beat the best pair;
    only the committee returned is assigned voters, once.  Memory holds two
    packed columns per pool candidate, packed once and shared by both walks,
    and, under Monroe, the collected pairs.
    """
    m = instance.matrix.m
    pool = sorted(range(m) if candidate_pool is None else candidate_pool)
    if len(set(pool)) != len(pool) or any(not 0 <= c < m for c in pool):
        raise ValueError(
            f"candidate pool must hold distinct indices in 0..{m - 1}, got {pool}"
        )
    if len(pool) > budget.max_subset_candidates:
        raise BudgetExceededError(
            f"subset enumeration over {len(pool)} candidates exceeds the "
            f"budget cap of {budget.max_subset_candidates}"
        )
    if len(pool) < instance.k:
        raise ValueError("candidate pool smaller than the committee size")
    matrix, objective, k = instance.matrix, instance.objective, instance.k
    found: list[tuple[int, ...]] = []

    def keep_strictly_better(value: int, committee: tuple[int, ...]) -> int:
        found[:] = [committee]
        return value - 1  # table entries are integers

    packing = _pack_pool(matrix, pool)
    _committee_walk(packing, k, objective, budget, math.inf, keep_strictly_better)
    if instance.rule is Rule.CC:
        return committee_solution(instance, found[0])
    best = (balanced_value(found[0], matrix, objective), found[0])
    bounded: list[tuple[int, tuple[int, ...]]] = []

    def collect(value: int, committee: tuple[int, ...]) -> int:
        if committee != best[1]:
            bounded.append((value, committee))
        return best[0]

    _committee_walk(packing, k, objective, budget, best[0], collect)
    heapq.heapify(bounded)
    while bounded and bounded[0] <= best:
        budget.check()
        _, committee = heapq.heappop(bounded)
        # Only a value <= limit makes (value, committee) beat the best pair.
        limit = best[0] if committee < best[1] else best[0] - 1
        value = balanced_value(committee, matrix, objective, limit)
        if value is not None:
            best = (value, committee)
    return committee_solution(instance, best[1])


def _partitions(n: int, max_blocks: int) -> Iterator[list[list[int]]]:
    """All set partitions of range(n) into at most max_blocks blocks.

    Blocks are ordered by their smallest member, so the enumeration order is
    deterministic.
    """
    blocks: list[list[int]] = []

    def extend(v: int) -> Iterator[list[list[int]]]:
        if v == n:
            yield blocks
            return
        for block in blocks:
            block.append(v)
            yield from extend(v + 1)
            block.pop()
        if len(blocks) < max_blocks:
            blocks.append([v])
            yield from extend(v + 1)
            blocks.pop()

    yield from extend(0)


def _match_blocks(
    blocks: Sequence[Sequence[int]], matrix: MisrepMatrix, objective: Objective
) -> tuple[int, list[int]]:
    """Matching of blocks to distinct candidates at the least objective value.

    A block costs the sum of its voters' entries for a candidate under sum
    and their largest entry under minimax; the matching minimizes the total
    under sum and the largest block cost under minimax.  Returns that value
    and each candidate's block index, or -1.
    """
    combine = sum if objective is Objective.SUM else max
    costs = [
        [combine(matrix.rows[v][c] for v in block) for c in range(matrix.m)]
        for block in blocks
    ]
    loads = [(0, 1)] * len(blocks)
    if objective is Objective.SUM:
        result = transport(loads, costs, len(blocks))
        assert result is not None, "matching blocks to candidates cannot fail when b <= m"
        return result

    def matching_at(limit: int) -> Optional[list[int]]:
        # Every pair within the limit costs 0, not its bottleneck: among
        # several matchings at the optimum, the committee chosen for a
        # partition (and so the tie-break between partitions) is the one
        # `transport` finds on this zero-cost network.
        zeroed = [[0 if x <= limit else None for x in row] for row in costs]
        result = transport(loads, zeroed, len(blocks))
        return None if result is None else result[1]

    values = sorted({x for row in costs for x in row})
    found = first_feasible(values, matching_at)
    assert found is not None, "matching always exists at the largest cost"
    return found


def solve_partition_enum(
    instance: ProblemInstance, budget: SolverBudget = DEFAULT_BUDGET
) -> Solution:
    """Optimal solution by trying every admissible partition of the voters.

    Each partition block is served by a single committee member; distinct
    blocks get distinct members via a matching.  The load-balanced rule only
    admits partitions into exactly k blocks with balanced sizes; the
    unconstrained rule admits any partition into at most k blocks, since
    unused seats can be filled arbitrarily.
    """
    matrix, k = instance.matrix, instance.k
    n = matrix.n
    if n > budget.max_partition_voters:
        raise BudgetExceededError(
            f"partition enumeration over {n} voters exceeds the budget cap "
            f"of {budget.max_partition_voters}"
        )
    if instance.rule is Rule.MONROE:
        low, high, at_high = balanced_loads(n, k)
        required_sizes = sorted([high] * at_high + [low] * (k - at_high))

    best: Optional[tuple[int, tuple[int, ...], tuple[int, ...]]] = None
    for blocks in _partitions(n, k):
        budget.check()
        if instance.rule is Rule.MONROE:
            if len(blocks) != k or sorted(len(b) for b in blocks) != required_sizes:
                continue
        value, owner = _match_blocks(blocks, matrix, instance.objective)
        mapping = [0] * n
        for c, i in enumerate(owner):
            if i >= 0:
                for v in blocks[i]:
                    mapping[v] = c
        committee = pad_committee(mapping, k, matrix.m)
        entry = (value, committee, tuple(mapping))
        if best is None or entry[:2] < best[:2]:
            best = entry
    assert best is not None
    value, committee, mapping = best
    assignment = Assignment(committee, mapping)
    return Solution(assignment, value, check_m_criterion(assignment, n, k))


def _check_sparsity(matrix: MisrepMatrix, bound: int) -> None:
    for v, row in enumerate(matrix.rows):
        cheap = sum(1 for x in row if x <= bound)
        if cheap > bound + 1:
            raise ValueError(
                f"voter {v} has {cheap} candidates within bound {bound}; the "
                "branching solver needs at most bound+1 (use solve_subset_enum)"
            )


def solve_cc_branch_rk(
    instance: ProblemInstance,
    budget: SolverBudget = DEFAULT_BUDGET,
    stats: Optional[SearchStats] = None,
) -> Optional[Solution]:
    """Decision procedure for the unconstrained rule, either objective.

    Searches for a committee within the instance bound by branching on how
    the first uncovered voter is served.  Under sum every branch spends
    that voter's entry from the bound, and voters a chosen candidate serves
    at 0 are covered.  Under minimax each chosen candidate absorbs every
    voter it serves within the bound, and the committee allowance shrinks
    by one per choice.  Requires each voter to have at most bound+1
    candidates within the bound (rank-based tables always satisfy this).
    """
    if instance.rule is not Rule.CC:
        raise ValueError("branching solver handles the unconstrained rule")
    matrix, k, bound = instance.matrix, instance.k, instance.bound
    _check_sparsity(matrix, bound)
    rows = matrix.rows
    stats = SearchStats() if stats is None else stats

    def branch_sum(
        remaining: tuple[int, ...], left: int, chosen: frozenset[int]
    ) -> Optional[frozenset[int]]:
        budget.check()
        if left < 0 or len(chosen) > k:
            stats.leaf_calls += 1
            return None
        if not remaining or (
            chosen and sum(min(rows[w][c] for c in chosen) for w in remaining) <= left
        ):
            stats.leaf_calls += 1
            return chosen
        v, rest = remaining[0], remaining[1:]
        recursed = False
        for c in range(matrix.m):
            if rows[v][c] > left:
                continue
            recursed = True
            survivors = tuple(w for w in rest if rows[w][c] != 0)
            found = branch_sum(survivors, left - rows[v][c], chosen | {c})
            if found is not None:
                return found
        if not recursed:
            stats.leaf_calls += 1
        return None

    def branch_minimax(
        remaining: tuple[int, ...], seats: int, chosen: frozenset[int]
    ) -> Optional[frozenset[int]]:
        budget.check()
        if not remaining:
            stats.leaf_calls += 1
            return chosen
        if seats == 0:
            stats.leaf_calls += 1
            return None
        v = remaining[0]
        recursed = False
        for c in range(matrix.m):
            if rows[v][c] > bound:
                continue
            recursed = True
            survivors = tuple(w for w in remaining if rows[w][c] > bound)
            found = branch_minimax(survivors, seats - 1, chosen | {c})
            if found is not None:
                return found
        if not recursed:
            stats.leaf_calls += 1
        return None

    voters = tuple(range(matrix.n))
    if instance.objective is Objective.SUM:
        chosen = branch_sum(voters, bound, frozenset())
    else:
        chosen = branch_minimax(voters, k, frozenset())
    if chosen is None:
        return None
    solution = committee_solution(instance, pad_committee(chosen, k, matrix.m))
    assert solution.objective_value <= bound
    return solution


def _unique_value_candidates(matrix: MisrepMatrix, bound: int) -> list[dict[int, int]]:
    """Per voter, the candidate realizing each value in 0..bound, if unique.

    Raises if a voter has no zero-cost candidate or several candidates tied
    at the same value within the bound.
    """
    tables: list[dict[int, int]] = []
    for v, row in enumerate(matrix.rows):
        table: dict[int, int] = {}
        for c, x in enumerate(row):
            if x > bound:
                continue
            if x in table:
                raise ValueError(
                    f"voter {v} has two candidates at value {x}; the constant-bound "
                    "solver needs at most one candidate per voter per value"
                )
            table[x] = c
        if 0 not in table:
            raise ValueError(f"voter {v} has no zero-cost candidate")
        tables.append(table)
    return tables


def solve_constantR(
    instance: ProblemInstance, budget: SolverBudget = DEFAULT_BUDGET
) -> Optional[Solution]:
    """Decision procedure for the sum objective with a small bound.

    At most `bound` voters can be served at nonzero cost, so it enumerates
    which voters those are and at what cost each is served; everyone else is
    pinned to their zero-cost candidate.  Works for both rules.
    """
    if instance.objective is not Objective.SUM:
        raise ValueError("constant-bound solver handles the sum objective")
    matrix, k, bound = instance.matrix, instance.k, instance.bound
    if bound > budget.max_constant_bound:
        raise BudgetExceededError(
            f"bound {bound} exceeds the constant-bound cap of {budget.max_constant_bound}"
        )
    tables = _unique_value_candidates(matrix, bound)
    n = matrix.n

    def try_assignment(mapping: list[int]) -> Optional[Solution]:
        committee = sorted(set(mapping))
        if instance.rule is Rule.CC:
            if len(committee) > k:
                return None
            padded = pad_committee(committee, k, matrix.m)
            return committee_solution(instance, padded)
        if len(committee) != k:
            return None
        assignment = Assignment(tuple(committee), tuple(mapping))
        if not check_m_criterion(assignment, n, k):
            return None
        return Solution(assignment, evaluate(matrix, tuple(mapping), Objective.SUM), True)

    pinned = [tables[v][0] for v in range(n)]
    for size in range(0, min(bound, n) + 1):
        for voters in itertools.combinations(range(n), size):
            budget.check()
            for values in itertools.product(range(1, bound + 1), repeat=size):
                if sum(values) > bound:
                    continue
                mapping = list(pinned)
                feasible = True
                for v, value in zip(voters, values):
                    c = tables[v].get(value)
                    if c is None:
                        feasible = False
                        break
                    mapping[v] = c
                if not feasible:
                    continue
                solution = try_assignment(mapping)
                if solution is not None and solution.objective_value <= bound:
                    return solution
    return None


def _require_rank_matrix(matrix: MisrepMatrix) -> None:
    expected = list(range(matrix.m))
    for v, row in enumerate(matrix.rows):
        if sorted(row) != expected:
            raise ValueError(
                f"voter {v}: this solver needs rank-based misrepresentation rows"
            )


def solve_m_mw_rk(
    instance: ProblemInstance, budget: SolverBudget = DEFAULT_BUDGET
) -> Optional[Solution]:
    """Decision procedure for the load-balanced rule, either objective.

    With few voters, n <= (bound+1)k, partition enumeration is already
    cheap.  With many, committees are enumerated over the candidates that
    can win within the bound.  Under sum that is the candidates some voter
    ranks first, and there can be at most bound + k of them.  Under minimax
    every committee member must serve a full load of floor(n/k) voters
    within the bound, so only candidates within the bound of that many
    voters can win.
    """
    return m_mw_rk_decider(budget)(instance)


def m_mw_rk_decider(
    budget: SolverBudget,
) -> Callable[[ProblemInstance], Optional[Solution]]:
    """`solve_m_mw_rk` for the probes of one bound search.

    Neither enumeration it runs reads the bound, so the decider keeps the
    optimum of partition enumeration, and of subset enumeration over each
    candidate pool, and runs each once however many bounds are probed.  The
    probes must differ from each other only in their bound.
    """
    optima: dict[Optional[tuple[int, ...]], Solution] = {}

    def decide(instance: ProblemInstance) -> Optional[Solution]:
        if instance.rule is not Rule.MONROE:
            raise ValueError("this solver handles the load-balanced rule")
        matrix, k, bound = instance.matrix, instance.k, instance.bound
        _require_rank_matrix(matrix)
        pool: Optional[tuple[int, ...]] = None  # partition enumeration
        if matrix.n > (bound + 1) * k:
            if instance.objective is Objective.SUM:
                pool = tuple(sorted({row.index(0) for row in matrix.rows}))
                if len(pool) > bound + k:
                    return None
            else:
                low, _, _ = balanced_loads(matrix.n, k)
                pool = tuple(
                    c
                    for c in range(matrix.m)
                    if sum(1 for row in matrix.rows if row[c] <= bound) >= low
                )
            if len(pool) < k:
                return None
        if pool not in optima:
            optima[pool] = (
                solve_partition_enum(instance, budget)
                if pool is None
                else solve_subset_enum(instance, budget, candidate_pool=pool)
            )
        solution = optima[pool]
        return solution if solution.objective_value <= bound else None

    return decide


def solve_minimax_R0(instance: ProblemInstance) -> Optional[Solution]:
    """Minimax decision at bound zero: every voter must get a zero-cost winner.

    Rank-based rows have exactly one zero per voter, so the assignment is
    forced; all that remains is counting the forced winners and, for the
    load-balanced rule, checking their loads.
    """
    if instance.objective is not Objective.MINIMAX:
        raise ValueError("this solver handles the minimax objective")
    if instance.bound != 0:
        raise ValueError("this solver decides only the bound-zero case")
    matrix, k = instance.matrix, instance.k
    for v, row in enumerate(matrix.rows):
        if row.count(0) != 1:
            raise ValueError(f"voter {v}: exactly one zero-cost candidate required")
    tops = tuple(row.index(0) for row in matrix.rows)
    forced = sorted(set(tops))
    if instance.rule is Rule.CC:
        if len(forced) > k:
            return None
        return committee_solution(instance, pad_committee(forced, k, matrix.m))
    if len(forced) != k:
        return None
    assignment = Assignment(tuple(forced), tops)
    if not check_m_criterion(assignment, matrix.n, k):
        return None
    return Solution(assignment, 0, True)

"""Assigning voters to a fixed committee.

Under the best-representative rule each voter simply gets her cheapest
committee member (ties to the lowest candidate index), which is optimal for
both objectives and may leave committee members without voters.  Under the
balanced rule the optimal assignment is a minimum-cost flow in which every
winner must receive between floor(n/k) and ceil(n/k) voters; the minimax
variant restricts the flow to entries within the bound, asks only for
feasibility, and finds a committee's value as the first feasible bound at or
above its best-representative minimax value.  That value comes from
``cc_value``, whose one caller is ``monroe_minimax_value``; subset
enumeration in :mod:`proprep.solvers` keeps per-voter minima of its own.

``transport`` is the one bipartite flow network in the package: left nodes
with load ranges, right nodes taking one unit each, optional costs between.
Balanced assignments use it with winners on the left and voters on the
right; partition enumeration in :mod:`proprep.solvers` uses it to match
voter blocks to candidates.

``enumerate_balanced_assignments`` is the independent oracle against which
the flow-based routines are tested; it is deliberately naive and guarded.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .core import (
    Assignment,
    BudgetExceededError,
    MisrepMatrix,
    Objective,
    Solution,
    balanced_loads,
    first_feasible,
)
from .flows import feasible_min_cost


def assign_cc(winner_set: tuple[int, ...], matrix: MisrepMatrix) -> Assignment:
    """Map every voter to her best winner, ties to the lowest index."""
    winners = tuple(sorted(winner_set))
    mapping = []
    for row in matrix.rows:
        best = winners[0]
        for w in winners[1:]:
            if row[w] < row[best]:
                best = w
        mapping.append(best)
    return Assignment(winners, tuple(mapping))


def cc_value(
    matrix: MisrepMatrix, winner_set: tuple[int, ...], objective: Objective
) -> int:
    """Committee value under the best-representative rule, without the map."""
    per_voter = (min(row[w] for w in winner_set) for row in matrix.rows)
    if objective is Objective.SUM:
        return sum(per_voter)
    return max(per_voter)


def transport(
    loads: Sequence[tuple[int, int]],
    costs: Sequence[Sequence[Optional[int]]],
    amount: int,
) -> Optional[tuple[int, list[int]]]:
    """Cheapest way to send ``amount`` units from left to right nodes.

    Left node ``i`` sends between ``loads[i][0]`` and ``loads[i][1]`` units.
    Each right node ``r`` takes at most one unit, from a left node ``i``
    with ``costs[i][r]`` not None, at that cost.  Returns ``(total_cost,
    owner)``, where ``owner[r]`` is the left node serving ``r`` or -1, or
    None when no such flow exists.  The network's arcs run source to left,
    left to right row by row, then right to sink; the flow engine's
    tie-breaks between equally cheap flows follow that order.
    """
    left, right = len(loads), len(costs[0])
    sink = 1 + left + right
    arcs = [(0, 1 + i, low, high, 0) for i, (low, high) in enumerate(loads)]
    pairs = []
    for i, row in enumerate(costs):
        for r, cost in enumerate(row):
            if cost is not None:
                arcs.append((1 + i, 1 + left + r, 0, 1, cost))
                pairs.append((i, r))
    arcs.extend((1 + left + r, sink, 0, 1, 0) for r in range(right))
    result = feasible_min_cost(sink + 1, arcs, 0, sink, amount)
    if result is None:
        return None
    total, flows = result
    owner = [-1] * right
    for (i, r), flow in zip(pairs, flows[left:]):
        if flow:
            owner[r] = i
    return total, owner


def _balanced_assignment(
    winners: tuple[int, ...], matrix: MisrepMatrix, bound: Optional[int]
) -> Optional[tuple[int, Assignment]]:
    """Cheapest balanced assignment using only entries within the bound."""
    low, high, _ = balanced_loads(matrix.n, len(winners))
    costs = [
        [
            row[w] if bound is None or row[w] <= bound else None
            for row in matrix.rows
        ]
        for w in winners
    ]
    result = transport([(low, high)] * len(winners), costs, matrix.n)
    if result is None:
        return None
    cost, owner = result
    return cost, Assignment(winners, tuple(winners[i] for i in owner))


def assign_monroe_sum(
    winner_set: tuple[int, ...], matrix: MisrepMatrix
) -> Solution:
    """Cheapest balanced assignment of all voters to the given committee."""
    result = _balanced_assignment(tuple(sorted(winner_set)), matrix, None)
    if result is None:
        raise ValueError("balanced assignment infeasible; need k <= n")
    cost, assignment = result
    return Solution(assignment, cost, True)


def assign_monroe_minimax(
    winner_set: tuple[int, ...], matrix: MisrepMatrix, bound: int
) -> Assignment | None:
    """A balanced assignment whose every entry is within the bound, if any."""
    result = _balanced_assignment(tuple(sorted(winner_set)), matrix, bound)
    return None if result is None else result[1]


def monroe_minimax_value(
    matrix: MisrepMatrix, winner_set: tuple[int, ...]
) -> tuple[int, Assignment]:
    """Smallest bound admitting a balanced assignment for this committee.

    No bound below the committee's best-representative minimax value can
    serve every voter, so the bisection starts at that value.
    """
    floor = cc_value(matrix, winner_set, Objective.MINIMAX)
    entries = {row[w] for row in matrix.rows for w in winner_set}
    values = sorted(x for x in entries if x >= floor)
    found = first_feasible(
        values, lambda bound: assign_monroe_minimax(winner_set, matrix, bound)
    )
    assert found is not None, "maximal bound is always feasible when k <= n"
    return found


def enumerate_balanced_assignments(
    winner_set: tuple[int, ...], n: int
) -> Iterator[tuple[int, ...]]:
    """Yield every balanced voter-to-winner map, voters in index order.

    Oracle helper: exponential in n, guarded at n <= 10.
    """
    if n > 10:
        raise BudgetExceededError(
            f"balanced-assignment enumeration capped at n <= 10, got {n}"
        )
    winners = tuple(sorted(winner_set))
    low, high, _ = balanced_loads(n, len(winners))
    mapping = [-1] * n
    taken = {w: 0 for w in winners}

    def generate(voter: int) -> Iterator[tuple[int, ...]]:
        if voter == n:
            yield tuple(mapping)
            return
        left = n - voter
        for w in winners:
            if taken[w] >= high:
                continue
            # Prune branches that can no longer fill every winner to `low`.
            shortfall = sum(max(0, low - taken[x]) for x in winners)
            if taken[w] < low:
                shortfall -= 1
            if shortfall > left - 1:
                continue
            mapping[voter] = w
            taken[w] += 1
            yield from generate(voter + 1)
            taken[w] -= 1
        mapping[voter] = -1

    yield from generate(0)

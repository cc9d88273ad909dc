"""Assigning voters to a fixed committee.

Under the best-representative rule each voter simply gets her cheapest
committee member (ties to the lowest candidate index), which is optimal for
both objectives and may leave committee members without voters.  Under the
balanced rule the optimal assignment is a minimum-cost flow in which every
winner must receive between floor(n/k) and ceil(n/k) voters; the minimax
variant restricts the flow to entries within the bound, asks only for
feasibility, and finds a committee's value as the first feasible bound at or
above its best-representative minimax value (``cc_value``).

Values and witnesses come from two places.  ``balanced_cost`` is the value
scorer: successive shortest paths on the k winner nodes, with no flow
network and no witness; ``monroe_minimax_bound`` bisects with it, and
subset enumeration in :mod:`proprep.solvers` scores every committee it
tries with these two.  ``transport`` builds every witness: it is the one
bipartite flow network in the package, with left nodes taking load ranges,
right nodes taking one unit each, and optional costs between.  Balanced
assignments use it with winners on the left and voters on the right;
partition enumeration in :mod:`proprep.solvers` uses it to match voter
blocks to candidates.  Its tie-breaks fix which witness is printed.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .core import (
    Assignment,
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


def balanced_cost(
    winners: Sequence[int], matrix: MisrepMatrix, bound: Optional[int] = None
) -> Optional[int]:
    """Cost of the cheapest balanced assignment using only entries within the bound.

    Returns None when no balanced assignment uses only such entries.  This
    is the value ``_balanced_assignment`` finds, without its witness and
    without a general flow network: successive shortest paths on the k
    winner nodes and a sink.  Voters are inserted one at a time, each along
    a cheapest path that starts at one of its entries, where the arc from
    winner w to w' costs the cheapest move of one of w's voters to w'.  The
    first floor(n/k) voters at a winner cost ``-big`` on its arc to the
    sink, and ``big`` exceeds every assignment's cost, so a cheapest flow
    fills as many floors as it can before it weighs any entry; a winner
    left below its floor means no balanced assignment exists.  Dijkstra
    runs on reduced costs, which no arc makes negative: the sink's
    potential starts at ``-big`` and the winners' at 0.  Its start labels,
    a new voter's entries less the winners' potentials, may be negative,
    which Dijkstra allows.  Costs and potentials are exact integers;
    ``math.inf`` only marks a winner not reached yet.
    """
    k, n = len(winners), matrix.n
    low, high, _ = balanced_loads(n, k)
    costs = [[row[w] for w in winners] for row in matrix.rows]
    if bound is None:
        options = [list(enumerate(entries)) for entries in costs]
        top = max(map(max, costs))
    else:
        options = [
            [(i, x) for i, x in enumerate(entries) if x <= bound] for entries in costs
        ]
        if not all(options):
            return None
        top = bound
    big = n * top + 1
    potential = [0] * k
    sink = -big
    members: list[list[int]] = [[] for _ in range(k)]
    unreached = math.inf
    for voter, allowed in enumerate(options):
        dist = [unreached] * k
        came = [-1] * k  # the winner the moved voter leaves, -1 for `voter`
        moved = [voter] * k
        for i, x in allowed:
            dist[i] = x - potential[i]
        settled = [False] * k
        reach, last = unreached, -1
        while True:
            i, d = -1, reach
            for j in range(k):
                if dist[j] < d and not settled[j]:
                    i, d = j, dist[j]
            if i < 0:
                break
            settled[i] = True
            load = len(members[i])
            if load < high:
                through = d + (-big if load < low else 0) + potential[i] - sink
                if through < reach:
                    reach, last = through, i
                    if reach <= d:  # no path through i's voters is shorter
                        break
            for u in members[i]:
                base = d + potential[i] - costs[u][i]
                for j, x in options[u]:
                    if not settled[j]:
                        step = base + x - potential[j]
                        if step < dist[j]:
                            dist[j], came[j], moved[j] = step, i, u
        if last < 0:
            return None
        potential = [p + (d if d < reach else reach) for p, d in zip(potential, dist)]
        sink += reach
        j = last
        while True:
            members[j].append(moved[j])
            i = came[j]
            if i < 0:
                break
            members[i].remove(moved[j])
            j = i
    if any(len(held) < low for held in members):
        return None
    return sum(costs[u][i] for i, held in enumerate(members) for u in held)


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


def monroe_minimax_bound(
    winner_set: Sequence[int], matrix: MisrepMatrix, limit: Optional[int] = None
) -> Optional[int]:
    """Smallest bound admitting a balanced assignment, or None if above `limit`.

    No bound below the committee's best-representative minimax value can
    serve every voter, so the bisection starts at that value.  With a
    limit, one test at the limit comes first, and the bisection runs only
    below it when that test passes.
    """
    floor = cc_value(matrix, winner_set, Objective.MINIMAX)
    if limit is not None and (
        floor > limit or balanced_cost(winner_set, matrix, limit) is None
    ):
        return None
    entries = {row[w] for row in matrix.rows for w in winner_set}
    values = sorted(
        x for x in entries if x >= floor and (limit is None or x < limit)
    )
    found = first_feasible(values, lambda bound: balanced_cost(winner_set, matrix, bound))
    if found is not None:
        return found[0]
    assert limit is not None, "maximal bound is always feasible when k <= n"
    return limit


def monroe_minimax_value(
    matrix: MisrepMatrix, winner_set: tuple[int, ...]
) -> tuple[int, Assignment]:
    """Smallest bound admitting a balanced assignment, with one such assignment.

    The bound comes from ``monroe_minimax_bound``; the witness is built
    once, by ``transport`` at that bound.
    """
    bound = monroe_minimax_bound(winner_set, matrix)
    assert bound is not None
    witness = assign_monroe_minimax(winner_set, matrix, bound)
    assert witness is not None
    return bound, witness

"""Assigning voters to a fixed committee.

Under the best-representative rule each voter simply gets her cheapest
committee member (ties to the lowest candidate index), which is optimal for
both objectives and may leave committee members without voters.  Under the
balanced rule the optimal assignment is a minimum-cost flow in which every
winner must receive between floor(n/k) and ceil(n/k) voters; the minimax
variant restricts the flow to entries within the bound, asks only for
feasibility, and finds a committee's value as the first feasible bound at or
above its best-representative minimax value.

Values and witnesses come from one place.  ``_seat`` is successive
shortest paths on the k winner nodes, with no flow network; it seats every
voter, and its tie-breaks fix which Monroe witness is printed.
``balanced_cost`` is the value scorer and returns only its cost;
``balanced_assignment`` returns its seating as the witness.
``balanced_value`` is the one place that decides how a committee's
balanced-rule value is found under each objective: the cost itself under
sum, a bisection over bounds with it under minimax; subset enumeration in
:mod:`proprep.solvers` scores every committee it tries with it.
``transport`` matches partition blocks: partition enumeration in
:mod:`proprep.solvers` calls it to match voter blocks to candidates.  It is
a min-cost flow on its own bipartite residual network, with left nodes
taking load ranges, right nodes taking one unit each, and optional costs
between.  ``committee_solution`` is the one committee scorer: a solver that
settles on a committee, not an assignment, gets its ``Solution`` there.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional, Sequence

from .core import (
    Assignment,
    MisrepMatrix,
    Objective,
    ProblemInstance,
    Rule,
    Solution,
    balanced_loads,
    check_m_criterion,
    evaluate,
    first_feasible,
)


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


def transport(
    loads: Sequence[tuple[int, int]],
    costs: Sequence[Sequence[Optional[int]]],
    amount: int,
) -> Optional[tuple[int, list[int]]]:
    """Cheapest way to send ``amount`` units from left to right nodes.

    Left node ``i`` sends between ``loads[i][0]`` and ``loads[i][1]`` units.
    Each right node ``r`` takes at most one unit, from a left node ``i``
    with ``costs[i][r]`` not None, at that cost (which must be >= 0).
    Returns ``(total_cost, owner)``, where ``owner[r]`` is the left node
    serving ``r`` or -1, or None when no such flow exists.

    This is successive shortest paths: Dijkstra with node potentials, valid
    because every cost is nonnegative, finds each cheapest augmenting path
    in the residual network.  The network's arcs run source to left, left
    to right row by row, then right to sink; ties between equally cheap
    flows follow that order.  Lower bounds are removed the usual way: a
    super source supplies each left node its low, the source's balance
    (``amount`` less the lows) is settled with the super source or the
    super sink, and the sink owes ``amount`` to the super sink; a flow
    exists when the super source can send everything it supplies.
    """
    left, right = len(loads), len(costs[0])
    sink = 1 + left + right
    start, end = sink + 1, sink + 2  # the super source and super sink
    adjacent: list[list[int]] = [[] for _ in range(sink + 3)]
    head: list[int] = []  # arc a runs into head[a]; a ^ 1 is its residual twin
    room: list[int] = []
    price: list[int] = []

    def add(tail: int, to: int, capacity: int, cost: int) -> None:
        adjacent[tail].append(len(head))
        adjacent[to].append(len(head) + 1)
        head.extend((to, tail))
        room.extend((capacity, 0))
        price.extend((cost, -cost))

    for i, (low, high) in enumerate(loads):
        if not 0 <= low <= high:
            raise ValueError("need 0 <= low <= high")
        add(0, 1 + i, high - low, 0)
    pairs = []
    for i, row in enumerate(costs):
        for r, cost in enumerate(row):
            if cost is not None:
                if cost < 0:
                    raise ValueError("costs must be >= 0")
                pairs.append((i, r, len(head)))
                add(1 + i, 1 + left + r, 1, cost)
    for r in range(right):
        add(1 + left + r, sink, 1, 0)
    spare = amount - sum(low for low, _ in loads)
    if spare > 0:
        add(start, 0, spare, 0)
    elif spare < 0:
        add(0, end, -spare, 0)
    for i, (low, _) in enumerate(loads):
        if low:
            add(start, 1 + i, low, 0)
    add(sink, end, amount, 0)
    supply = sum(room[arc] for arc in adjacent[start])
    pushed = 0
    potential = [0] * len(adjacent)
    while pushed < supply:
        dist = [math.inf] * len(adjacent)
        via = [-1] * len(adjacent)
        dist[start] = 0
        heap = [(0, start)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            for arc in adjacent[node]:
                if room[arc] > 0:
                    other = head[arc]
                    reduced = d + price[arc] + potential[node] - potential[other]
                    if reduced < dist[other]:
                        dist[other] = reduced
                        via[other] = arc
                        heapq.heappush(heap, (reduced, other))
        if dist[end] == math.inf:
            return None
        potential = [p + d if d < math.inf else p for p, d in zip(potential, dist)]
        path = []
        node = end
        while node != start:
            arc = via[node]
            path.append(arc)
            node = head[arc ^ 1]
        step = min(room[arc] for arc in path)
        for arc in path:
            room[arc] -= step
            room[arc ^ 1] += step
        pushed += step
    owner = [-1] * right
    for i, r, arc in pairs:
        if room[arc ^ 1]:
            owner[r] = i
    return sum(costs[i][r] for r, i in enumerate(owner) if i >= 0), owner


def _seat(
    winners: Sequence[int], matrix: MisrepMatrix, bound: Optional[int]
) -> Optional[tuple[int, list[list[int]]]]:
    """The cheapest balanced assignment using only entries within the bound.

    Returns ``(cost, members)``, where ``members[i]`` lists the voters
    seated at ``winners[i]``, or None when no balanced assignment uses only
    such entries.  This is successive shortest paths on the k winner nodes
    and a sink, with no flow network.  Voters are inserted one at a time,
    each along a cheapest path that starts at one of its entries, where the
    arc from winner w to w' costs the cheapest move of one of w's voters to
    w'.  The first floor(n/k) voters at a winner cost ``-big`` on its arc to
    the sink, and ``big`` exceeds every assignment's cost, so a cheapest
    flow fills as many floors as it can before it weighs any entry; a
    winner left below its floor means no balanced assignment exists.
    Dijkstra runs on reduced costs, which no arc makes negative: the sink's
    potential starts at ``-big`` and the winners' at 0.  Its start labels,
    a new voter's entries less the winners' potentials, may be negative,
    which Dijkstra allows.  Costs and potentials are exact integers;
    ``math.inf`` only marks a winner not reached yet.  Its tie-breaks fix
    which Monroe witness is printed.
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
    return sum(costs[u][i] for i, held in enumerate(members) for u in held), members


def balanced_cost(
    winners: Sequence[int], matrix: MisrepMatrix, bound: Optional[int] = None
) -> Optional[int]:
    """Cost of the cheapest balanced assignment using only entries within the bound.

    Returns None when no balanced assignment uses only such entries.  This
    is the value ``balanced_assignment`` finds, without its witness.
    """
    seated = _seat(winners, matrix, bound)
    return None if seated is None else seated[0]


def balanced_assignment(
    winners: tuple[int, ...], matrix: MisrepMatrix, bound: Optional[int] = None
) -> Optional[tuple[int, Assignment]]:
    """Cheapest balanced assignment using only entries within the bound.

    ``winners`` is sorted.  Returns ``(cost, assignment)``, or None when no
    balanced assignment uses only such entries.  The witness is the seating
    that ``balanced_cost`` finds.
    """
    seated = _seat(winners, matrix, bound)
    if seated is None:
        return None
    cost, members = seated
    mapping = [-1] * matrix.n
    for w, held in zip(winners, members):
        for voter in held:
            mapping[voter] = w
    return cost, Assignment(winners, tuple(mapping))


def balanced_value(
    winners: Sequence[int],
    matrix: MisrepMatrix,
    objective: Objective,
    limit: Optional[int] = None,
) -> Optional[int]:
    """A committee's value under the balanced rule, or None if above `limit`.

    Only the value is found, never a witness.  Under sum it is
    ``balanced_cost``'s.  Under minimax it is the smallest bound admitting
    a balanced assignment.  No bound below the committee's
    best-representative minimax value can serve every voter, so the
    bisection starts at that value.  With a limit, one test at the limit
    comes first, and the bisection runs only below it when that test
    passes.
    """
    if objective is Objective.SUM:
        value = balanced_cost(winners, matrix)
        assert value is not None, "a balanced assignment exists when k <= n"
        return value if limit is None or value <= limit else None
    floor = max(min(row[w] for w in winners) for row in matrix.rows)
    if limit is not None and (
        floor > limit or balanced_cost(winners, matrix, limit) is None
    ):
        return None
    entries = {row[w] for row in matrix.rows for w in winners}
    values = sorted(
        x for x in entries if x >= floor and (limit is None or x < limit)
    )
    found = first_feasible(values, lambda bound: balanced_cost(winners, matrix, bound))
    if found is not None:
        return found[0]
    assert limit is not None, "maximal bound is always feasible when k <= n"
    return limit


def committee_solution(instance: ProblemInstance, winners: Sequence[int]) -> Solution:
    """Build the best solution for a fixed committee under the instance's rule."""
    matrix = instance.matrix
    winners = tuple(sorted(winners))
    if instance.rule is Rule.CC:
        assignment = assign_cc(winners, matrix)
        value = evaluate(matrix, assignment.mapping, instance.objective)
        balanced = check_m_criterion(assignment, matrix.n, instance.k)
        return Solution(assignment, value, balanced)
    bound = None
    if instance.objective is Objective.MINIMAX:
        bound = balanced_value(winners, matrix, instance.objective)
    found = balanced_assignment(winners, matrix, bound)
    assert found is not None, "a balanced assignment exists when k <= n"
    cost, assignment = found
    return Solution(assignment, cost if bound is None else bound, True)

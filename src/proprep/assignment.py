"""Assigning voters to a fixed committee.

Under the best-representative rule each voter simply gets her cheapest
committee member (ties to the lowest candidate index), which is optimal for
both objectives and may leave committee members without voters.  Under the
balanced rule the optimal assignment is a minimum-cost flow in which every
winner must receive between floor(n/k) and ceil(n/k) voters; the minimax
variant restricts the flow to entries within the bound, asks only for
feasibility, and finds a committee's value as the first feasible bound at or
above its best-representative minimax value.

Values and witnesses come from one run.  ``_seat`` is successive shortest
paths on the k winner nodes, with no flow network; it is the library's one
seating routine, and its tie-breaks fix which Monroe witness is printed.
``balanced_solution`` is the one place that decides how a committee's
balanced-rule value is found under each objective: one seating under sum,
a bisection over bounds under minimax.  The seating at the value is the
witness, so no committee is seated again once it is scored; subset
enumeration in :mod:`proprep.solvers` scores every committee it tries with
it and returns the best one's solution as it stands.  Partition
enumeration matches voter blocks to candidates with it too: a table with
one row per block and every candidate a winner.  ``committee_solution`` is
the one committee scorer: a solver that settles on a committee, not an
assignment, gets its ``Solution`` there.
"""

from __future__ import annotations

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


def balanced_solution(
    winners: tuple[int, ...],
    matrix: MisrepMatrix,
    objective: Objective,
    limit: Optional[int] = None,
) -> Optional[Solution]:
    """A committee's solution under the balanced rule, or None if above `limit`.

    ``winners`` is sorted and may outnumber the voters, as when partition
    enumeration matches blocks to candidates: the loads are then 0..1, and
    a seating still exists.  The witness is the seating ``_seat`` finds at
    the value's own bound, no bound under sum, the value under minimax, so
    a committee is seated once for its value and its witness together.
    Under minimax the value is the smallest bound admitting a balanced
    assignment.  No bound below the committee's best-representative
    minimax value can serve every voter, so the bisection starts at that
    value.  With a limit, one test at the limit comes first, and the
    bisection runs only below it when that test passes.
    """
    if objective is Objective.SUM:
        seated = _seat(winners, matrix, None)
        assert seated is not None, "a balanced assignment exists without a bound"
        value, members = seated
        if limit is not None and value > limit:
            return None
    else:
        floor = max(min(row[w] for w in winners) for row in matrix.rows)
        if limit is not None:
            seated = None if floor > limit else _seat(winners, matrix, limit)
            if seated is None:
                return None
            value, members = limit, seated[1]
        entries = {row[w] for row in matrix.rows for w in winners}
        values = sorted(
            x for x in entries if x >= floor and (limit is None or x < limit)
        )
        found = first_feasible(values, lambda bound: _seat(winners, matrix, bound))
        if found is not None:
            value, members = found[0], found[1][1]
        assert found or limit is not None, "the largest entry admits a seating"
    mapping = [-1] * matrix.n
    for w, held in zip(winners, members):
        for voter in held:
            mapping[voter] = w
    return Solution(Assignment(winners, tuple(mapping)), value, True)


def committee_solution(instance: ProblemInstance, winners: Sequence[int]) -> Solution:
    """Build the best solution for a fixed committee under the instance's rule."""
    matrix = instance.matrix
    winners = tuple(sorted(winners))
    if instance.rule is Rule.CC:
        assignment = assign_cc(winners, matrix)
        value = evaluate(matrix, assignment.mapping, instance.objective)
        balanced = check_m_criterion(assignment, matrix.n, instance.k)
        return Solution(assignment, value, balanced)
    solution = balanced_solution(winners, matrix, instance.objective)
    assert solution is not None, "a balanced assignment exists when k <= n"
    return solution

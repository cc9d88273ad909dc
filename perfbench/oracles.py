"""Reference answers computed without the program under test.

Everything here reads the instance text itself and solves it by methods
written for the benchmark:

* exhaustive committee search; for Monroe committees an own balanced
  assignment (a Hungarian assignment over load slots for general sums, a
  max-flow over voter types for minimax and 0/1 sums), visiting committees
  in order of their CC value, which is a lower bound on the Monroe value;
* for single-peaked CC instances, where enumeration is out of reach, an own
  dynamic program (sum) and an own threshold sweep (minimax), plus
  single-swap and disjoint-interval certificates;
* brute-force deciders for the hitting-set and exact-cover questions the
  reduction instances encode.
"""

from __future__ import annotations

import bisect
import itertools
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

_BIG = 10**12


@dataclass(frozen=True)
class Instance:
    """An instance file as the benchmark reads it; ``rows[v][c]`` is the table."""

    names: tuple[str, ...]
    votes: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[int, ...], ...]
    k: int
    bound: int
    rule: str
    objective: str

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.names)

    def aggregate(self, values) -> int:
        return sum(values) if self.objective == "sum" else max(values)


@dataclass(frozen=True)
class Witness:
    """A solution record as the benchmark reads it."""

    solver: Optional[str]
    value: int
    balanced: bool
    winners: tuple[int, ...]
    mapping: tuple[int, ...]


def _content_lines(text: str) -> list[str]:
    lines = (line.strip() for line in text.splitlines())
    return [line for line in lines if line and line != "#" and not line.startswith("# ")]


def read_instance(text: str) -> Instance:
    lines = _content_lines(text)
    if lines[0] != "proprep v1":
        raise ValueError("not a proprep v1 instance")
    m, n, k, bound_token, rule, objective, kind = lines[1].split()
    m, n, k = int(m), int(n), int(k)
    names = tuple(lines[2 : 2 + m])
    index = {name: c for c, name in enumerate(names)}
    votes = tuple(
        tuple(index[token] for token in line.split()) for line in lines[2 + m : 2 + m + n]
    )
    rest = lines[2 + m + n :]
    scale = 1
    if kind == "borda":
        rows = []
        for vote in votes:
            row = [0] * m
            for rank, c in enumerate(vote):
                row[c] = rank
            rows.append(tuple(row))
    elif kind == "approval":
        if rest[0] != "#approve":
            raise ValueError("missing #approve block")
        rows = []
        for line in rest[1 : 1 + n]:
            approved = set() if line == "-" else {index[token] for token in line.split()}
            rows.append(tuple(0 if c in approved else 1 for c in range(m)))
    elif kind == "explicit":
        if rest[0] != "#matrix":
            raise ValueError("missing #matrix block")
        entries = [[Fraction(token) for token in line.split()] for line in rest[1 : 1 + n]]
        for row in entries:
            for x in row:
                scale = lcm(scale, x.denominator)
        rows = [tuple(int(x * scale) for x in row) for row in entries]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    rows = tuple(rows)
    if bound_token == "-":
        bound = (
            sum(max(row) for row in rows)
            if objective == "sum"
            else max(max(row) for row in rows)
        )
    else:
        bound = int(bound_token) * scale
    return Instance(names, votes, rows, k, bound, rule, objective)


def read_solution(text: str, names: Sequence[str]) -> Witness:
    lines = _content_lines(text)
    if lines[0] != "proprep-solution v1":
        raise ValueError("not a proprep-solution v1 record")
    fields = dict(line.partition(" ")[::2] for line in lines[1:])
    index = {name: c for c, name in enumerate(names)}
    return Witness(
        solver=fields.get("solver"),
        value=int(fields["value"]),
        balanced=fields["m-criterion"] == "true",
        winners=tuple(index[token] for token in fields["winners"].split()),
        mapping=tuple(index[token] for token in fields["assignment"].split()),
    )


def _columns(inst: Instance) -> list[list[int]]:
    return [list(column) for column in zip(*inst.rows)]


def _cc_per_voter(columns: Sequence[Sequence[int]], committee: Sequence[int]):
    if len(committee) == 1:
        return columns[committee[0]]
    return map(min, *(columns[c] for c in committee))


# ---------------------------------------------------------------- CC rule


def cc_optimum(inst: Instance) -> tuple[int, tuple[int, ...]]:
    """Exhaustive CC search: the optimum and its lexicographically first committee."""
    columns = _columns(inst)
    best: Optional[tuple[int, tuple[int, ...]]] = None
    for committee in itertools.combinations(range(inst.m), inst.k):
        value = inst.aggregate(_cc_per_voter(columns, committee))
        if best is None or value < best[0]:
            best = (value, committee)
    assert best is not None
    return best


# ---------------------------------------------------------------- Monroe rule


def hungarian(cost: Sequence[Sequence[int]]) -> int:
    """Minimum total cost of a perfect assignment in a square matrix."""
    size = len(cost)
    u = [0] * (size + 1)
    v = [0] * (size + 1)
    match = [0] * (size + 1)
    way = [0] * (size + 1)
    for i in range(1, size + 1):
        match[0] = i
        j0 = 0
        minv = [_BIG * 4] * (size + 1)
        used = [False] * (size + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            row = cost[i0 - 1]
            ui0 = u[i0]
            delta, j1 = _BIG * 4, 0
            for j in range(1, size + 1):
                if not used[j]:
                    current = row[j - 1] - ui0 - v[j]
                    if current < minv[j]:
                        minv[j] = current
                        way[j] = j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(size + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return -v[0]


def _monroe_sum_by_slots(inst: Instance, committee: Sequence[int]) -> int:
    """Cheapest balanced assignment as a square assignment over load slots.

    Each winner offers floor(n/k) mandatory slots and, when n mod k > 0, one
    optional slot.  k - (n mod k) dummy voters may take optional slots only,
    so exactly n mod k winners end up carrying the larger load.
    """
    n, k = inst.n, len(committee)
    low, extra = divmod(n, k)
    slots = [w for w in committee for _ in range(low)]
    optional = list(committee) if extra else []
    matrix = [[row[w] for w in slots] + [row[w] for w in optional] for row in inst.rows]
    dummies = k - extra if extra else 0
    matrix += [[_BIG] * len(slots) + [0] * len(optional) for _ in range(dummies)]
    value = hungarian(matrix)
    if value >= _BIG:
        raise AssertionError("slot construction must admit a perfect assignment")
    return value


def _max_flow(capacity: list[list[int]], source: int, sink: int) -> int:
    """Edmonds-Karp on a dense capacity matrix (modified in place)."""
    size = len(capacity)
    total = 0
    while True:
        parent = [-1] * size
        parent[source] = source
        queue = deque([source])
        while queue and parent[sink] == -1:
            node = queue.popleft()
            for nxt in range(size):
                if parent[nxt] == -1 and capacity[node][nxt] > 0:
                    parent[nxt] = node
                    queue.append(nxt)
        if parent[sink] == -1:
            return total
        push, node = _BIG, sink
        while node != source:
            push = min(push, capacity[parent[node]][node])
            node = parent[node]
        node = sink
        while node != source:
            capacity[parent[node]][node] -= push
            capacity[node][parent[node]] += push
            node = parent[node]
        total += push


def balanced_placement(inst: Instance, committee: Sequence[int], limit: int) -> int:
    """Most voters a balanced assignment can give a winner within ``limit``.

    Voters with the same set of acceptable winners are merged into one node.
    Every winner takes up to floor(n/k) voters, plus one through a shared
    bonus node that admits n mod k voters; since capacities total n, any
    such placement extends to a balanced assignment of everyone.
    """
    n, k = inst.n, len(committee)
    low, extra = divmod(n, k)
    types = Counter(
        tuple(i for i, w in enumerate(committee) if row[w] <= limit) for row in inst.rows
    )
    types.pop((), None)
    kinds = list(types)
    source, first_winner = 0, 1 + len(kinds)
    bonus, sink = first_winner + k, first_winner + k + 1
    capacity = [[0] * (sink + 1) for _ in range(sink + 1)]
    for t, accepted in enumerate(kinds, start=1):
        capacity[source][t] = types[accepted]
        for i in accepted:
            capacity[t][first_winner + i] = types[accepted]
    for i in range(k):
        capacity[first_winner + i][sink] = low
        capacity[first_winner + i][bonus] = 1 if extra else 0
    capacity[bonus][sink] = extra
    return _max_flow(capacity, source, sink)


def monroe_value(inst: Instance, committee: Sequence[int]) -> int:
    """Optimal balanced-assignment value of one committee."""
    n = inst.n
    if inst.objective == "minimax":
        values = sorted({inst.rows[v][w] for v in range(n) for w in committee})
        lo, hi = 0, len(values) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if balanced_placement(inst, committee, values[mid]) == n:
                hi = mid
            else:
                lo = mid + 1
        return values[lo]
    if all(inst.rows[v][w] in (0, 1) for v in range(n) for w in committee):
        return n - balanced_placement(inst, committee, 0)
    return _monroe_sum_by_slots(inst, committee)


@dataclass(frozen=True)
class EnumAnswer:
    """Exhaustive optimum, its first committee, and the CC-bound tally.

    ``useful`` counts committees whose CC value is at most the optimum: the
    only ones a CC-bounded search would still have to score exactly.
    """

    value: int
    committee: tuple[int, ...]
    useful: int
    committees: int


def monroe_optimum(inst: Instance) -> EnumAnswer:
    columns = _columns(inst)
    ranked = sorted(
        (inst.aggregate(_cc_per_voter(columns, committee)), committee)
        for committee in itertools.combinations(range(inst.m), inst.k)
    )
    best: Optional[tuple[int, tuple[int, ...]]] = None
    for bound, committee in ranked:
        if best is not None and bound > best[0]:
            break
        candidate = (monroe_value(inst, committee), committee)
        if best is None or candidate < best:
            best = candidate
    assert best is not None
    useful = sum(1 for bound, _ in ranked if bound <= best[0])
    return EnumAnswer(best[0], best[1], useful, len(ranked))


def enum_optimum(inst: Instance) -> EnumAnswer:
    if inst.rule == "monroe":
        return monroe_optimum(inst)
    value, committee = cc_optimum(inst)
    return EnumAnswer(value, committee, 0, 0)


# ---------------------------------------------------------------- single-peaked CC


def axis_problem(inst: Instance, axis: Sequence[int]) -> Optional[str]:
    """Why ``axis`` is not a societal axis of the profile, or None if it is.

    Every prefix of every vote must be a contiguous run of the axis.
    """
    if sorted(axis) != list(range(inst.m)):
        return "axis is not a permutation of the candidates"
    position = {c: i for i, c in enumerate(axis)}
    for v, vote in enumerate(inst.votes):
        lo = hi = position[vote[0]]
        for c in vote[1:]:
            p = position[c]
            if p == lo - 1:
                lo = p
            elif p == hi + 1:
                hi = p
            else:
                return f"vote of voter {v} is not single-peaked on the axis"
    return None


class AxisIntervals:
    """Per-voter acceptance intervals on an axis at any threshold.

    Rows never decrease along a vote, so the candidates within a threshold
    form a prefix of the vote, and on a valid axis that prefix is a run of
    positions given by running minima and maxima.
    """

    def __init__(self, inst: Instance, axis: Sequence[int]):
        position = {c: i for i, c in enumerate(axis)}
        self.values = []
        self.lows = []
        self.highs = []
        for vote, row in zip(inst.votes, inst.rows):
            along = [position[c] for c in vote]
            self.values.append([row[c] for c in vote])
            self.lows.append(list(itertools.accumulate(along, min)))
            self.highs.append(list(itertools.accumulate(along, max)))

    def at(self, limit: int) -> Optional[list[tuple[int, int]]]:
        """Intervals within ``limit``, or None when some voter accepts nobody."""
        spans = []
        for values, lows, highs in zip(self.values, self.lows, self.highs):
            length = bisect.bisect_right(values, limit)
            if length == 0:
                return None
            spans.append((lows[length - 1], highs[length - 1]))
        return spans


def disjoint_intervals(spans: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """A largest set of pairwise-disjoint intervals (earliest-end greedy).

    Its size equals the fewest points that stab every interval.
    """
    chosen: list[tuple[int, int]] = []
    for left, right in sorted(spans, key=lambda span: (span[1], span[0])):
        if not chosen or left > chosen[-1][1]:
            chosen.append((left, right))
    return chosen


def sp_minimax_optimum(inst: Instance, intervals: AxisIntervals) -> int:
    """Smallest table value at which k axis points can stab every interval."""
    values = sorted({x for row in inst.rows for x in row})
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        spans = intervals.at(values[mid])
        if spans is not None and len(disjoint_intervals(spans)) <= inst.k:
            hi = mid
        else:
            lo = mid + 1
    return values[lo]


def minimax_lower_certificate(
    inst: Instance, intervals: AxisIntervals, value: int
) -> Optional[str]:
    """Why no committee beats ``value``, or None when that cannot be shown.

    At the next lower table value either some voter accepts nobody, or
    k + 1 pairwise-disjoint acceptance intervals need k + 1 distinct winners.
    """
    lower = [x for x in {x for row in inst.rows for x in row} if x < value]
    if not lower:
        return f"{value} is the smallest table value"
    below = max(lower)
    spans = intervals.at(below)
    if spans is None:
        return f"some voter accepts nobody at {below}"
    chosen = disjoint_intervals(spans)
    ordered = all(a[1] < b[0] for a, b in zip(chosen, chosen[1:]))
    if ordered and len(chosen) >= inst.k + 1:
        return f"{len(chosen)} disjoint intervals at {below}"
    return None


def sp_sum_optimum(inst: Instance, axis: Sequence[int]) -> int:
    """CC sum optimum on an axis by a dynamic program over rightmost winners.

    With valley-shaped rows, adding a winner at axis position i to a
    committee whose rightmost winner is p < i changes only voters who
    prefer i to p, each by exactly their difference, so
    best[j][i] = min over p < i of best[j-1][p] - sum(col_p) + sum(min(col_p, col_i)).
    """
    columns = [[row[c] for row in inst.rows] for c in axis]
    totals = [sum(column) for column in columns]
    m, k = inst.m, inst.k
    kept = [
        [sum(map(min, columns[p], columns[i])) - totals[p] for p in range(i)]
        for i in range(m)
    ]
    best = totals[:]
    for j in range(2, k + 1):
        nxt = [_BIG] * m
        for i in range(j - 1, m):
            nxt[i] = min(best[p] + kept[i][p] for p in range(j - 2, i))
        best = nxt
    return min(best[k - 1 :])


def improving_swap(
    inst: Instance, committee: Sequence[int], value: int
) -> Optional[tuple[int, int, int]]:
    """A (winner out, candidate in, new value) beating ``value`` under CC, if any."""
    columns = _columns(inst)
    chosen = set(committee)
    for out in committee:
        others = [c for c in committee if c != out]
        base = list(_cc_per_voter(columns, others)) if others else None
        for c in range(inst.m):
            if c in chosen:
                continue
            per_voter = columns[c] if base is None else map(min, base, columns[c])
            swapped = inst.aggregate(per_voter)
            if swapped < value:
                return out, c, swapped
    return None


# ---------------------------------------------------------------- covering side


def hitting_set_exists(universe: int, family, budget: int) -> bool:
    members = [frozenset(s) for s in family]
    return any(
        all(frozenset(choice) & s for s in members)
        for size in range(min(budget, universe) + 1)
        for choice in itertools.combinations(range(universe), size)
    )


def exact_cover_exists(elements: int, sets) -> bool:
    everything = frozenset(range(elements))
    return any(
        frozenset(itertools.chain.from_iterable(picks)) == everything
        for picks in itertools.combinations(sets, elements // 3)
    )

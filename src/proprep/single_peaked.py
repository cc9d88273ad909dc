"""Single-peaked profiles: recognition, axis utilities, and fast solvers.

A profile is single-peaked when the candidates can be laid out on a line (an
axis) so that every voter's preference rises to a single most-liked point and
falls afterwards.  Equivalently, every voter's misrepresentation values read
along the axis form a valley: they never rise and then fall again.  That
valley shape is what makes the two solvers here fast: sublevel sets are
contiguous intervals, and committees decompose along the axis.

Axes are plain tuples of candidate indices in line order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .assignment import assign_cc
from .core import (
    Election,
    MisrepMatrix,
    Objective,
    ProblemInstance,
    Rule,
    Solution,
    check_m_criterion,
    evaluate,
    pad_committee,
)


@dataclass(frozen=True)
class RepresentationInterval:
    """Contiguous axis range of candidates a voter accepts within a bound."""

    voter: int
    left: int
    right: int

    def __contains__(self, position: int) -> bool:
        return self.left <= position <= self.right


@dataclass
class DPStats:
    """Mutable counter for the table-filling work of `solve_cc_sum_sp`."""

    cell_updates: int = 0


def check_compatible(vote: Sequence[int], axis: Sequence[int]) -> bool:
    """Is this ranking single-peaked with respect to the axis?

    Linear-time test: reading the voter's ranks along the axis must descend
    strictly to the top choice and then ascend strictly.
    """
    if sorted(vote) != sorted(axis):
        raise ValueError("vote and axis must cover the same candidates")
    rank = {c: r for r, c in enumerate(vote)}
    values = [rank[c] for c in axis]
    trough = values.index(0)
    descending = all(values[i] > values[i + 1] for i in range(trough))
    ascending = all(values[i] < values[i + 1] for i in range(trough, len(values) - 1))
    return descending and ascending


def detect_axis(election: Election) -> Optional[tuple[int, ...]]:
    """Find an axis all votes are single-peaked on, or None if there is none.

    Builds the axis from the outside in.  At every step, each voter's worst
    remaining candidate must sit at one of the two open ends, which leaves at
    most two placements to try; a per-voter replay of the elimination order
    prunes wrong choices early and certifies the completed axis.

    Of the two mirror orientations, the one whose first candidate has the
    smaller index is returned.
    """
    m, n = election.m, election.n
    if m == 1:
        return (0,)
    peel = [tuple(reversed(vote)) for vote in election.votes]
    slot_of = [-1] * m
    axis = [-1] * m

    def advance(state: list[tuple[int, int]]) -> bool:
        """Replay each voter's worst-first elimination over the placed slots.

        A voter consumes her next-worst candidate only while it sits at the
        current outermost unconsumed slot on either side; a placed candidate
        stuck in the interior proves the partial axis wrong.
        """
        for v in range(n):
            taken_left, taken_right = state[v]
            while taken_left + taken_right < m:
                slot = slot_of[peel[v][taken_left + taken_right]]
                if slot == -1:
                    break
                if slot == taken_left:
                    taken_left += 1
                elif slot == m - 1 - taken_right:
                    taken_right += 1
                else:
                    return False
            state[v] = (taken_left, taken_right)
        return True

    def search(lo: int, hi: int, state: list[tuple[int, int]]) -> bool:
        if lo > hi:
            return True
        frontier = {
            peel[v][state[v][0] + state[v][1]] for v in range(n)
        }
        if len(frontier) > 2 or (len(frontier) == 2 and lo == hi):
            return False
        if len(frontier) == 2:
            x, y = sorted(frontier)
            options = [((x, lo), (y, hi)), ((y, lo), (x, hi))]
        elif lo == hi:
            options = [(((frontier.pop()), lo),)]
        else:
            x = frontier.pop()
            options = [((x, lo),), ((x, hi),)]
        for placements in options:
            for candidate, slot in placements:
                slot_of[candidate] = slot
                axis[slot] = candidate
            trial = state[:]
            if advance(trial):
                new_lo = lo + sum(1 for _, s in placements if s == lo)
                new_hi = hi - sum(1 for _, s in placements if s == hi)
                if search(new_lo, new_hi, trial):
                    return True
            for candidate, slot in placements:
                slot_of[candidate] = -1
                axis[slot] = -1
        return False

    if not search(0, m - 1, [(0, 0)] * n):
        return None
    found = tuple(axis)
    if found[-1] < found[0]:
        found = tuple(reversed(found))
    return found


def check_single_troughed(matrix: MisrepMatrix, axis: Sequence[int]) -> bool:
    """True when no voter's values rise and then fall again along the axis.

    Formally: for axis positions i < j < k, r(v,c_i) < r(v,c_j) implies
    r(v,c_j) <= r(v,c_k).  Checked in O(nm) with prefix and suffix minima.
    """
    for row in matrix.rows:
        values = [row[c] for c in axis]
        lowest_ahead = values[:]
        for i in range(len(values) - 2, -1, -1):
            lowest_ahead[i] = min(values[i], lowest_ahead[i + 1])
        lowest_behind = values[0]
        for j in range(1, len(values) - 1):
            if lowest_behind < values[j] and lowest_ahead[j + 1] < values[j]:
                return False
            lowest_behind = min(lowest_behind, values[j])
    return True


def representation_interval(
    voter: int, matrix: MisrepMatrix, axis: Sequence[int], bound: int
) -> Optional[RepresentationInterval]:
    """Axis positions where the voter's misrepresentation is within the bound.

    Returns None when no candidate qualifies.  Raises if the qualifying
    positions are not contiguous, which means the matrix is not
    single-troughed on this axis.
    """
    positions = [i for i, c in enumerate(axis) if matrix.rows[voter][c] <= bound]
    if not positions:
        return None
    left, right = positions[0], positions[-1]
    if len(positions) != right - left + 1:
        raise ValueError(
            f"voter {voter}: candidates within bound {bound} are not contiguous "
            "on the axis; the matrix is not single-troughed"
        )
    return RepresentationInterval(voter, left, right)


def _require_permutation(matrix: MisrepMatrix, axis: Sequence[int]) -> None:
    if sorted(axis) != list(range(matrix.m)):
        raise ValueError("axis must be a permutation of the candidate indices")


def solve_cc_sum_sp(
    instance: ProblemInstance,
    axis: Sequence[int],
    stats: Optional[DPStats] = None,
) -> Solution:
    """Optimal sum-objective committee for the unconstrained rule on an axis.

    Dynamic program over axis positions: z[i][j] is the best total when j
    candidates are chosen and the rightmost is at axis position i.  Extending
    a committee rightward with position i improves exactly the voters whose
    valley lies toward i, and their saving against the previous rightmost
    choice p is d[p][i].  Runs in O(n m^2).
    """
    if instance.rule is not Rule.CC or instance.objective is not Objective.SUM:
        raise ValueError("this solver handles the unconstrained rule, sum objective")
    matrix, k = instance.matrix, instance.k
    _require_permutation(matrix, axis)
    if not check_single_troughed(matrix, axis):
        raise ValueError("matrix is not single-troughed on this axis")
    m, n = matrix.m, matrix.n
    columns = [tuple(matrix.rows[v][c] for v in range(n)) for c in axis]

    def tick(amount: int) -> None:
        if stats is not None:
            stats.cell_updates += amount

    saving = [[0] * m for _ in range(m)]
    for p in range(m):
        for i in range(p + 1, m):
            saving[p][i] = sum(
                hi - lo for hi, lo in zip(columns[p], columns[i]) if hi > lo
            )
            tick(n)

    unset = None
    z = [[unset] * (k + 1) for _ in range(m)]
    parent = [[-1] * (k + 1) for _ in range(m)]
    for i in range(m):
        z[i][1] = sum(columns[i])
        tick(n)
    for j in range(2, k + 1):
        for i in range(j - 1, m):
            best, best_p = unset, -1
            for p in range(j - 2, i):
                value = z[p][j - 1] - saving[p][i]
                tick(1)
                if best is unset or value < best:
                    best, best_p = value, p
            z[i][j] = best
            parent[i][j] = best_p

    final = min(range(k - 1, m), key=lambda i: (z[i][k], i))
    positions = [final]
    for j in range(k, 1, -1):
        positions.append(parent[positions[-1]][j])
    committee = tuple(sorted(axis[i] for i in positions))
    assignment = assign_cc(committee, matrix)
    value = evaluate(matrix, assignment.mapping, Objective.SUM)
    assert value == z[final][k], "table value must match the reconstructed committee"
    return Solution(assignment, value, check_m_criterion(assignment, n, k))


def solve_cc_minimax_sp(
    instance: ProblemInstance, axis: Sequence[int]
) -> Optional[Solution]:
    """Minimax decision for the unconstrained rule on an axis.

    Each voter accepts a contiguous interval of axis positions within the
    instance bound; a committee meets the bound exactly when its positions
    stab every interval.  The fewest stabs come from the classic sweep:
    repeatedly stab the right endpoint of the earliest-ending interval not
    yet covered.  Feasible when that needs at most k stabs.

    Only the intervals at this one bound need to be contiguous, so the
    matrix is not checked for single-troughedness as a whole; a voter whose
    accepted positions have a gap raises `ValueError`.
    """
    if instance.rule is not Rule.CC or instance.objective is not Objective.MINIMAX:
        raise ValueError("this solver handles the unconstrained rule, minimax objective")
    matrix, k, bound = instance.matrix, instance.k, instance.bound
    _require_permutation(matrix, axis)
    intervals = []
    for v in range(matrix.n):
        interval = representation_interval(v, matrix, axis, bound)
        if interval is None:
            return None
        intervals.append(interval)
    intervals.sort(key=lambda iv: (iv.right, iv.left, iv.voter))
    stabs: list[int] = []
    for interval in intervals:
        if not stabs or interval.left > stabs[-1]:
            stabs.append(interval.right)
    if len(stabs) > k:
        return None
    committee = pad_committee((axis[i] for i in stabs), k, matrix.m)
    assignment = assign_cc(committee, matrix)
    value = evaluate(matrix, assignment.mapping, Objective.MINIMAX)
    assert value <= bound
    return Solution(assignment, value, check_m_criterion(assignment, matrix.n, k))


def sample_single_peaked_election(
    rng: random.Random, num_candidates: int, num_voters: int
) -> tuple[Election, tuple[int, ...]]:
    """Random election guaranteed single-peaked; returns it with its axis.

    Votes grow outward from a random peak on a random axis, appending the
    nearer unused neighbor on a coin flip, which reaches every compatible
    ranking.
    """
    axis = list(range(num_candidates))
    rng.shuffle(axis)
    votes = []
    for _ in range(num_voters):
        peak = rng.randrange(num_candidates)
        left, right = peak - 1, peak + 1
        order = [axis[peak]]
        while len(order) < num_candidates:
            if left < 0:
                pick_right = True
            elif right >= num_candidates:
                pick_right = False
            else:
                pick_right = rng.random() < 0.5
            if pick_right:
                order.append(axis[right])
                right += 1
            else:
                order.append(axis[left])
                left -= 1
        votes.append(tuple(order))
    names = tuple(f"c{i}" for i in range(num_candidates))
    return Election(names, tuple(votes)), tuple(axis)

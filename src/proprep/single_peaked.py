"""Single-peaked profiles: recognition, axis utilities, and fast solvers.

A profile is single-peaked when the candidates can be laid out on a line (an
axis) so that every voter's preference rises to a single most-liked point and
falls afterwards.  Equivalently, every voter's misrepresentation values read
along the axis form a valley: they never rise and then fall again.  That
valley shape is what makes the two solvers here fast: sublevel sets are
contiguous intervals, and committees decompose along the axis.

`detect_axis` returns an axis as a tuple of candidate indices in line order;
the solvers take it as `AxisRows`, the only reading of a table along an axis.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import ge, itemgetter, le, neg
from typing import Optional, Sequence

from .assignment import committee_solution
from .core import (
    Election,
    MisrepMatrix,
    Objective,
    ProblemInstance,
    Rule,
    Solution,
    pad_committee,
)
from .solvers import DEFAULT_BUDGET, SolverBudget


@dataclass
class DPStats:
    """Mutable counter for the table-filling work of `solve_cc_sum_sp`."""

    cell_updates: int = 0


def detect_axis(election: Election) -> Optional[tuple[int, ...]]:
    """Find an axis all votes are single-peaked on, or None if there is none.

    Builds the axis from the outside in, one step per pass of a single loop
    over the open slots ``lo..hi``, and never undoes a step.  Each voter's
    worst unconsumed candidate (the frontier) must take one of the two open
    ends, which leaves at most two options per step: for two frontier
    candidates, the smaller index at ``lo`` or at ``hi``; for one, ``lo`` or
    ``hi``.  The first option that a per-voter replay of the elimination
    order accepts is kept (Escoffier, Lang, Öztürk, ECAI 2008).  Keeping it
    is safe, because an exhaustive search would return the same axis:

    - every completion of a partial axis puts the frontier at ``lo``/``hi``,
      so the options are the only placements;
    - the replay rejects only partial axes that no completion extends;
    - if both options pass the replay, every voter has consumed every placed
      candidate, so any completion's middle can be mirrored, and the first
      option extends whenever the second does.

    Each step costs O(n) plus the replay, which advances each voter at most
    m times overall.  Of the two mirror orientations, the one whose first
    candidate has the smaller index is returned.
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

    lo, hi, state = 0, m - 1, [(0, 0)] * n
    while lo <= hi:
        frontier = sorted({peel[v][sum(state[v])] for v in range(n)})
        if len(frontier) > 2 or (len(frontier) == 2 and lo == hi):
            return None
        x, y = frontier[0], frontier[-1]
        if x == y:
            options = [((x, lo),), ((x, hi),)]
        else:
            options = [((x, lo), (y, hi)), ((y, lo), (x, hi))]
        for placements in options:
            for candidate, slot in placements:
                slot_of[candidate], axis[slot] = slot, candidate
            trial = state[:]
            if advance(trial):
                break
            for candidate, slot in placements:
                slot_of[candidate], axis[slot] = -1, -1
        else:
            return None
        state = trial
        lo += sum(1 for _, s in placements if s == lo)
        hi -= sum(1 for _, s in placements if s == hi)
    found = tuple(axis)
    return found if found[0] < found[-1] else found[::-1]


def _trough(values: Sequence[int]) -> int:
    """First minimum position of a valley row, or -1 for any other row.

    A row is a valley when it never rises and then falls again, which is the
    same as never rising up to its first minimum and never falling after it.
    """
    trough = values.index(min(values))
    if all(map(ge, values[:trough], values[1 : trough + 1])) and all(
        map(le, values[trough:-1], values[trough + 1 :])
    ):
        return trough
    return -1


def _scan_interval(
    voter: int, values: Sequence[int], bound: int
) -> Optional[tuple[int, int]]:
    """First and last axis position within the bound, by a linear scan."""
    positions = [i for i, x in enumerate(values) if x <= bound]
    if not positions:
        return None
    left, right = positions[0], positions[-1]
    if len(positions) != right - left + 1:
        raise ValueError(
            f"voter {voter}: candidates within bound {bound} are not contiguous "
            "on the axis; the matrix is not single-troughed"
        )
    return left, right


class AxisRows:
    """A ``matrix`` read along an ``axis``: the form an axis takes in the solvers.

    Every voter's row read along the axis (``values``) and its first minimum
    position when it is a valley, or -1 (``troughs``), are computed on first
    use: each row is read at most once however many solvers and bounds use
    it, and not at all by a solver that turns the instance down first.  A
    valley row's positions within a bound are found by bisection on its two
    monotone sides, in O(log m); any other row is scanned.  Raises
    `ValueError` when the axis is not a permutation of the candidates.
    """

    def __init__(self, matrix: MisrepMatrix, axis: Sequence[int]) -> None:
        if sorted(axis) != list(range(matrix.m)):
            raise ValueError("axis must be a permutation of the candidate indices")
        self.matrix = matrix
        self.axis = tuple(axis)

    @cached_property
    def values(self) -> list[tuple[int, ...]]:
        axis = self.axis
        read = itemgetter(*axis) if len(axis) > 1 else lambda row: (row[axis[0]],)
        return [read(row) for row in self.matrix.rows]

    @cached_property
    def troughs(self) -> list[int]:
        return [_trough(values) for values in self.values]

    def interval(self, voter: int, bound: int) -> Optional[tuple[int, int]]:
        """First and last position within the bound, or None; `ValueError` on a gap."""
        values, trough = self.values[voter], self.troughs[voter]
        if trough < 0:
            return _scan_interval(voter, values, bound)
        if values[trough] > bound:
            return None
        left = bisect_left(values, -bound, 0, trough, key=neg)
        return left, bisect_right(values, bound, trough) - 1


def check_single_troughed(matrix: MisrepMatrix, axis: Sequence[int]) -> bool:
    """True when no voter's values rise and then fall again along the axis.

    Formally: for axis positions i < j < k, r(v,c_i) < r(v,c_j) implies
    r(v,c_j) <= r(v,c_k).  Checked in O(nm): each row read along the axis
    (`AxisRows`) must not rise up to its first minimum and must not fall
    after it.  Raises `ValueError` when the axis is not a permutation of the
    candidates.
    """
    return -1 not in AxisRows(matrix, axis).troughs


def axis_savings(
    rows: AxisRows,
    stats: Optional[DPStats] = None,
    budget: SolverBudget = DEFAULT_BUDGET,
) -> tuple[list[int], list[list[int]]]:
    """Column totals and savings of a single-troughed table read along an axis.

    With a_v voter v's row read along the axis, ``totals[i]`` is the sum of
    a_v[i] over all voters, and ``saving[i][p]`` for p < i is the sum of
    max(0, a_v[p] - a_v[i]).  Raises `ValueError` when the table is not
    single-troughed on the axis.

    Filled in O(nm + m^2) by one left-to-right sweep over i, with the
    voters split by their trough t_v (first minimum):

    * t_v >= i: p and i both lie on the falling side, so v saves exactly
      a_v[p] - a_v[i]; column sums over the voters with t_v >= i give all p
      at once.
    * t_v <= p: both lie on the rising side, and v saves nothing.
    * p < t_v < i: v saves a_v[p] - a_v[i] for p below a cut q_v(i), the
      first position with a_v[p] <= a_v[i].  The cut only moves left as i
      grows, so each voter's cut moves at most t_v times in all.

    `stats` counts the table entries read, the cut moves, the cut entries
    and the saving entries.  The budget's clock is checked once per sweep
    step.
    """
    m = rows.matrix.m
    by_trough: list[list[tuple[int, ...]]] = [[] for _ in range(m)]
    for values, trough in zip(rows.values, rows.troughs):
        if trough < 0:
            raise ValueError("matrix is not single-troughed on this axis")
        by_trough[trough].append(values)
    trough_sums = [
        [sum(column) for column in zip(*rows)] if rows else None
        for rows in by_trough
    ]
    totals = [
        sum(column) for column in zip(*(sums for sums in trough_sums if sums))
    ]
    work = rows.matrix.n * m

    # ahead[c]: column c summed over the voters with trough >= i.
    # crossing[p]: a_v[p] summed over the voters with trough < i and p < q_v(i).
    # active: [a_v, q_v(i)] for the voters with trough < i and q_v(i) > 0.
    saving: list[list[int]] = []
    ahead = totals[:]
    crossing = [0] * m
    active: list[list] = []
    for i in range(m):
        budget.check()
        left = i - 1
        if i and trough_sums[left] is not None:
            done = trough_sums[left]
            ahead = [x - y for x, y in zip(ahead, done)]
            for p in range(left):
                crossing[p] += done[p]
            if left:
                active.extend([values, left] for values in by_trough[left])
        # cut[q]: a_v[i] summed over the active voters whose cut is at q.
        cut = [0] * (i + 1)
        kept = []
        for entry in active:
            values, q = entry
            x = values[i]
            while q and values[q - 1] <= x:
                q -= 1
                crossing[q] -= values[q]
                work += 1
            if q:
                cut[q] += x
                entry[1] = q
                kept.append(entry)
        active = kept
        work += len(kept) + i
        row = [0] * i
        beyond, base = 0, ahead[i]
        for p in range(i - 1, -1, -1):
            beyond += cut[p + 1]
            row[p] = ahead[p] - base + crossing[p] - beyond
        saving.append(row)
    if stats is not None:
        stats.cell_updates += work
    return totals, saving


def solve_cc_sum_sp(
    instance: ProblemInstance,
    rows: AxisRows,
    stats: Optional[DPStats] = None,
    budget: SolverBudget = DEFAULT_BUDGET,
) -> Solution:
    """Optimal sum-objective committee for the unconstrained rule on an axis.

    `rows` is the instance's table read along the axis.  Dynamic program
    over axis positions: z[i][j] is the best total when j candidates are
    chosen and the rightmost is at axis position i.  Adding position i to
    the right of a committee whose rightmost choice is p improves exactly
    the voters whose values fall from p to i, by saving[i][p]
    (`axis_savings`); on a single-troughed table no member left of p serves
    them better.  The savings take O(nm + m^2) and the table O(k m^2);
    `stats` counts both.  The budget's clock is checked once per sweep step
    of the savings and once per column j of the table, so the solve stops
    with `BudgetExceededError` about one column past ``max_seconds``.
    """
    if instance.rule is not Rule.CC or instance.objective is not Objective.SUM:
        raise ValueError("this solver handles the unconstrained rule, sum objective")
    m, k = instance.matrix.m, instance.k
    totals, saving = axis_savings(rows, stats, budget)

    unset = None
    z = [[unset] * (k + 1) for _ in range(m)]
    parent = [[-1] * (k + 1) for _ in range(m)]
    for i in range(m):
        z[i][1] = totals[i]
    work = 0
    for j in range(2, k + 1):
        budget.check()
        for i in range(j - 1, m):
            best, best_p = unset, -1
            gains = saving[i]
            for p in range(j - 2, i):
                value = z[p][j - 1] - gains[p]
                if best is unset or value < best:
                    best, best_p = value, p
            work += i - j + 2
            z[i][j] = best
            parent[i][j] = best_p
    if stats is not None:
        stats.cell_updates += work

    final = min(range(k - 1, m), key=lambda i: (z[i][k], i))
    positions = [final]
    for j in range(k, 1, -1):
        positions.append(parent[positions[-1]][j])
    solution = committee_solution(instance, [rows.axis[i] for i in positions])
    assert solution.objective_value == z[final][k], (
        "table value must match the reconstructed committee"
    )
    return solution


def solve_cc_minimax_sp(
    instance: ProblemInstance, rows: AxisRows
) -> Optional[Solution]:
    """Minimax decision for the unconstrained rule on an axis.

    Each voter accepts a contiguous interval of axis positions within the
    instance bound; a committee meets the bound exactly when its positions
    stab every interval.  The fewest stabs come from the classic sweep:
    repeatedly stab the right endpoint of the earliest-ending interval not
    yet covered.  Feasible when that needs at most k stabs.  `rows` is the
    instance's table read along the axis, which a bound search reads once
    and passes to every probe; a probe takes O(n log m + m) when every row
    is a valley.

    Only the intervals at this one bound need to be contiguous, so the
    matrix is not checked for single-troughedness as a whole; a voter whose
    accepted positions have a gap raises `ValueError`.  Voters are read in
    index order, so the first voter with no interval or with a gap decides.
    """
    if instance.rule is not Rule.CC or instance.objective is not Objective.MINIMAX:
        raise ValueError("this solver handles the unconstrained rule, minimax objective")
    matrix, k, bound = instance.matrix, instance.k, instance.bound
    m = matrix.m
    # The sweep over intervals sorted by right end stabs at r exactly when
    # some interval ending at r starts after the last stab.
    latest_left = [-1] * m
    for v in range(matrix.n):
        interval = rows.interval(v, bound)
        if interval is None:
            return None
        left, right = interval
        if left > latest_left[right]:
            latest_left[right] = left
    stabs: list[int] = []
    for right, left in enumerate(latest_left):
        if left >= 0 and (not stabs or left > stabs[-1]):
            stabs.append(right)
    if len(stabs) > k:
        return None
    committee = pad_committee((rows.axis[i] for i in stabs), k, m)
    solution = committee_solution(instance, committee)
    assert solution.objective_value <= bound
    return solution


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

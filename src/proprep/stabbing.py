"""Capacitated interval stabbing and the balanced rule solved on top of it.

The combinatorial core: given horizontal integer intervals and vertical lines
at coordinates 1..m, pick at most k lines and assign each covered interval to
a line passing through it, maximizing the number of covered intervals.  The
capacities are balanced: with n targets overall, (n mod k) chosen lines may
take ceil(n/k) intervals and the rest floor(n/k).

The solver is a dynamic program over table entries keyed by (lowest coverable
interval, anchor line, right edge of the line range, remaining full/lean line
budgets, remaining anchor capacity).  Each entry assumes the anchor is the
leftmost useful chosen line and that the keyed interval gets covered; the
update either assigns it to the anchor (continuing or retiring the anchor) or
to a line further right, which splits the range into independent halves.

Continuing the anchor, the left half of a split and the right half on its new
line each read the entry of the first later interval anchored at a line
within a range, that is, containing the line and ending inside it.  No
maximum over the later anchored intervals is needed: for a fixed range,
budgets and anchor capacity, entries never increase along those intervals in
index order.  Take a best cover for a later anchored interval q and an
earlier one p.  Put p on the anchor x1, which p contains; if the anchor was
full, drop one of its intervals.  p is now the lowest covered interval, and
the count has not fallen.  So the first later anchored interval's entry is
the best of them, and the earliest among equals.  Retiring the anchor, or the
right half's new line, reads the best entry that opens a fresh line within a
range; that maximum is shared, as a suffix maximum over the intervals that
end in the range in index order, stored in its own table, so an option costs
one lookup instead of a scan over the intervals, and entries with other
budgets or anchors read the same one.  The anchor capacity is capped by c,
the number of intervals from the keyed one on that contain the anchor and end
inside the range.  The anchor can take no other interval, so a capacity above
c never binds, and entries that differ only above c share one table entry.

No option of an entry (i, x1, x2) covers more than the later intervals that
end in [x1, x2], and an option replaces the best so far only when strictly
better, so once the best reaches that count the entry stops; the suffix
maxima stop the same way once no later position can do better.  These cuts
change no value and no choice.  An instance whose intervals all span every
line builds no table at all: it is answered directly in O(n), with the
cover the table's tie-breaks give, consecutive blocks of intervals in index
order on lines 1, 2, ..., full lines first.

The tables are filled top-down from the best first line by
`solvers.run_nodes`, the runner every generator search shares, which keeps
the open entries on an explicit stack rather than recursing, so the depth of
the instance is not bounded by the interpreter's stack; it reads the
wall-clock budget as entries are opened.  Choices are recorded so a witness
cover can be replayed, not just counted, and ties go to the first option in
the order the update lists them.

The balanced (fixed-load) committee rule on a single-peaked profile takes one
path through the solver, `_axis_cover`: candidates become lines at their
axis positions and each voter becomes the interval of candidates within a
bound.  The covered lines, padded to k winners, then seat the voters the
cover left out.  Under the sum objective on 0/1 misrepresentation the bound
is 0 and the most intervals covered give the least total misrepresentation;
under minimax the instance bound is met exactly when every interval is
covered.  Voters that share a row object share its interval: each distinct
row's interval at a bound is found once per call, at its first voter
(`AxisRows.first`), and the 0/1 check reads each distinct row once.  The
table itself is still keyed by voter.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

from .core import (
    Assignment,
    Objective,
    ProblemInstance,
    Rule,
    Solution,
    balanced_loads,
    check_m_criterion,
    distinct,
    evaluate,
    pad_committee,
)
from .single_peaked import AxisRows
from .solvers import DEFAULT_BUDGET, SolverBudget, run_nodes


@dataclass(frozen=True)
class StabbingInstance:
    """Intervals to cover, lines at 1..num_lines, and balanced capacities.

    The capacities are ``balanced_loads(num_targets, k)``; ``num_targets``
    may exceed the interval count when some targets produced no interval but
    still occupy capacity.
    """

    intervals: tuple[tuple[int, int], ...]
    num_lines: int
    k: int
    num_targets: int

    def __post_init__(self) -> None:
        if self.num_lines < 1:
            raise ValueError("need at least one line")
        if not 1 <= self.k <= self.num_lines:
            raise ValueError("k must be between 1 and the number of lines")
        if self.num_targets < len(self.intervals):
            raise ValueError("num_targets cannot be below the interval count")
        previous_left = 1
        for left, right in self.intervals:
            if not 1 <= left <= right <= self.num_lines:
                raise ValueError(f"interval [{left}, {right}] out of range")
            if left < previous_left:
                raise ValueError("intervals must be sorted by left endpoint")
            previous_left = left


@dataclass(frozen=True)
class StabbingCover:
    """Chosen lines with the interval indices assigned to each."""

    assigned: tuple[tuple[int, tuple[int, ...]], ...]


def validate_cover(instance: StabbingInstance, cover: StabbingCover) -> None:
    """Raise unless the cover respects containment and balanced capacities."""
    if len(cover.assigned) > instance.k:
        raise ValueError("cover uses more lines than allowed")
    low, high, full = balanced_loads(instance.num_targets, instance.k)
    seen_ids: set[int] = set()
    at_high = 0
    for line, ids in cover.assigned:
        if not 1 <= line <= instance.num_lines:
            raise ValueError(f"line {line} out of range")
        for idx in ids:
            left, right = instance.intervals[idx]
            if not left <= line <= right:
                raise ValueError(f"interval {idx} does not contain line {line}")
            if idx in seen_ids:
                raise ValueError(f"interval {idx} assigned twice")
            seen_ids.add(idx)
        if len(ids) > high:
            raise ValueError(f"line {line} overloaded")
        if len(ids) == high > low:
            at_high += 1
    if at_high > full:
        raise ValueError("too many lines at the higher capacity")


class _BalancedTable:
    """The DP tables of `solve_max_bal_1rs` and the nodes that fill them.

    ``entries`` maps ``(i, x1, x2, full, lean, b)`` to ``(value, choice)``,
    with the capacity ``b`` capped as the module docstring describes.
    ``tails[xf, x2, p, full, lean]`` holds ``(value, entry key)``, the best
    entry that opens a fresh line ``x`` with ``xf < x <= x2`` on an interval
    from position ``p`` on of ``ending(xf, x2)``, spending a full or a lean
    line; it is a suffix maximum over those intervals in index order, and
    ties go to the earliest interval.

    Every node is a search node of `solvers.run_nodes`: it yields
    ``(node, table, key)`` for each dependency missing from its table, is
    sent that dependency's value, and returns its own value, which the
    runner stores in the table named with it.
    """

    def __init__(self, instance: StabbingInstance):
        self.intervals = instance.intervals
        self.lo, self.hi, _ = balanced_loads(instance.num_targets, instance.k)
        self.entries: dict[tuple, tuple[int, tuple]] = {}
        self.tails: dict[tuple, tuple[int, Optional[tuple]]] = {}
        self._anchored: dict[tuple[int, int], list[int]] = {}
        self._ending: dict[tuple[int, int], list[int]] = {}
        self._layouts: dict[tuple[int, int, int], tuple] = {}

    def anchored(self, x1: int, x2: int) -> list[int]:
        """Intervals j with left_j <= x1 <= right_j <= x2, in index order."""
        found = self._anchored.get((x1, x2))
        if found is None:
            found = self._anchored[x1, x2] = [
                j
                for j, (left, right) in enumerate(self.intervals)
                if left <= x1 <= right <= x2
            ]
        return found

    def ending(self, xf: int, x2: int) -> list[int]:
        """Intervals j with xf < right_j <= x2, in index order."""
        found = self._ending.get((xf, x2))
        if found is None:
            found = self._ending[xf, x2] = [
                j for j, (_, right) in enumerate(self.intervals) if xf < right <= x2
            ]
        return found

    def opens(self, full: int, lean: int) -> bool:
        """Whether the budgets allow a fresh line of either class."""
        return full >= 1 or (lean >= 1 and self.lo >= 1)

    def layout(self, i: int, x1: int, x2: int) -> tuple:
        """Where the ranges an entry (i, x1, x2) reads start after interval i.

        Returns ``(chain_next, chain_room, retire_at, reach, splits)``: the
        first later interval anchored in [x1, x2] (None if there is none)
        and the count of later ones, the position of the later intervals
        ending in (x1, x2] (None if there are none), the count of later
        intervals ending in [x1, x2], which bounds what any option covers,
        and per split line x the first later interval and count for
        [x1, x - 1] (left) and [x, x2] (right) and the position for
        (x, x2] (tail).  Entries that differ only in their budgets and
        capacity share one layout.
        """
        key = (i, x1, x2)
        found = self._layouts.get(key)
        if found is not None:
            return found

        def after(members: list[int]) -> tuple[Optional[int], int]:
            at = bisect_right(members, i)
            room = len(members) - at
            return (members[at] if room else None), room

        def tail_after(xf: int) -> Optional[int]:
            ends = self.ending(xf, x2)
            at = bisect_right(ends, i)
            return at if at < len(ends) else None

        splits = tuple(
            (
                x,
                *after(self.anchored(x1, x - 1)),
                *after(self.anchored(x, x2)),
                tail_after(x),
            )
            for x in range(x1 + 1, self.intervals[i][1] + 1)
        )
        reach = after(self.ending(x1 - 1, x2))[1]
        found = (*after(self.anchored(x1, x2)), tail_after(x1), reach, splits)
        self._layouts[key] = found
        return found

    def entry(self, key: tuple):
        """Most intervals coverable from entry ``key``, with its choice."""
        i, x1, x2, full, lean, b = key
        entries, tails = self.entries, self.tails
        hi, lo = self.hi, self.lo
        chain_next, chain_room, retire_at, reach, splits = self.layout(i, x1, x2)
        best, choice = 0, ("anchor", None)
        if b > 1 and chain_room:
            # The anchor takes this interval and stays open for the next
            # lowest-indexed covered interval, which must contain it.
            sub = (chain_next, x1, x2, full, lean, min(b - 1, chain_room))
            # `best` is still 0 and every entry is at least 1: no `if` needed.
            best = (entries.get(sub) or (yield self.entry, entries, sub))[0]
            choice = ("chain", sub)
        # Every option covers only later intervals ending in [x1, x2], so
        # once one covers all of them no later option is strictly better.
        if best == reach:
            return best + 1, choice
        # The anchor takes this interval and retires; coverage continues on a
        # fresh line strictly to the right.
        if retire_at is not None and self.opens(full, lean):
            sub = (x1, x2, retire_at, full, lean)
            value, rest = tails.get(sub) or (yield self.tail, tails, sub)
            if value > best:
                best, choice = value, ("retire", rest)
                if best == reach:
                    return best + 1, choice
        # Some line x right of the anchor takes this interval.  Intervals
        # ending left of x stay with the anchor's side; the rest move right.
        for x, left_next, left_room, right_next, right_room, tail_at in splits:
            for full_left in range(full + 1):
                for lean_left in range(lean + 1):
                    full_right = full - full_left
                    lean_right = lean - lean_left
                    if full_right + lean_right < 1:
                        continue
                    best_left, left_key = 0, None
                    if left_room:
                        left_key = (
                            left_next, x1, x - 1, full_left, lean_left,
                            min(b, left_room),
                        )
                        best_left = (
                            entries.get(left_key)
                            or (yield self.entry, entries, left_key)
                        )[0]
                    spends = []
                    if full_right >= 1:
                        spends.append((full_right - 1, lean_right, hi - 1))
                    if lean_right >= 1 and lo >= 1:
                        spends.append((full_right, lean_right - 1, lo - 1))
                    for full_rest, lean_rest, b_rest in spends:
                        best_right, right_key = 0, None
                        if b_rest >= 1 and right_room:
                            right_key = (
                                right_next, x, x2, full_rest, lean_rest,
                                min(b_rest, right_room),
                            )
                            best_right = (
                                entries.get(right_key)
                                or (yield self.entry, entries, right_key)
                            )[0]
                        if tail_at is not None and self.opens(full_rest, lean_rest):
                            sub = (x, x2, tail_at, full_rest, lean_rest)
                            value, rest = (
                                tails.get(sub) or (yield self.tail, tails, sub)
                            )
                            if value > best_right:
                                best_right, right_key = value, rest
                        if best_left + best_right > best:
                            best = best_left + best_right
                            choice = ("split", x, left_key, right_key)
                            if best == reach:
                                return best + 1, choice
        return best + 1, choice

    def tail(self, key: tuple):
        """The best fresh line on this position's interval, then later ones."""
        xf, x2, at, full, lean = key
        entries = self.entries
        ends = self.ending(xf, x2)
        j = ends[at]
        left, right = self.intervals[j]
        # An entry from this position on covers at most the intervals of
        # `ends` from here on.
        most = len(ends) - at
        best, best_key = 0, None
        for x in range(max(left, xf + 1), right + 1):
            if best == most:
                break
            # Interval j anchors line x, whose capacity is capped by the
            # intervals from j on that line x could take.
            span = self.anchored(x, x2)
            room = len(span) - bisect_left(span, j)
            fresh = []
            if full >= 1:
                fresh.append((j, x, x2, full - 1, lean, min(self.hi, room)))
            if lean >= 1 and self.lo >= 1:
                fresh.append((j, x, x2, full, lean - 1, min(self.lo, room)))
            for sub in fresh:
                value = (entries.get(sub) or (yield self.entry, entries, sub))[0]
                if value > best:
                    best, best_key = value, sub
        if best < most - 1:
            later = (xf, x2, at + 1, full, lean)
            rest = self.tails.get(later) or (yield self.tail, self.tails, later)
            if rest[0] > best:
                return rest
        return best, best_key

    def replay(self, key: tuple) -> list[tuple[int, int]]:
        """The (interval, line) placements of an entry's witness."""
        placements = []
        todo = [key]
        while todo:
            key = todo.pop()
            i, x1 = key[0], key[1]
            choice = self.entries[key][1]
            if choice[0] == "split":
                _, x, left_key, right_key = choice
                placements.append((i, x))
                todo.extend(sub for sub in (right_key, left_key) if sub is not None)
            else:
                placements.append((i, x1))
                if choice[1] is not None:
                    todo.append(choice[1])
        return placements


def _table_cover(
    instance: StabbingInstance, budget: SolverBudget
) -> tuple[int, StabbingCover]:
    """Fill the tables of a nonempty instance and replay the best cover."""
    table = _BalancedTable(instance)
    # Every interval ends in (0, num_lines], so the top tail ranges over all
    # of them; with an interval to cover, k >= 1 seats always open a line.
    full = balanced_loads(instance.num_targets, instance.k)[2]
    top = (0, instance.num_lines, 0, full, instance.k - full)
    covered, top_key = run_nodes(table.tail, table.tails, top, budget)
    placements = table.replay(top_key)
    assert len(placements) == covered
    by_line: dict[int, list[int]] = {}
    for idx, line in placements:
        by_line.setdefault(line, []).append(idx)
    cover = StabbingCover(
        tuple(
            (line, tuple(sorted(ids)))
            for line, ids in sorted(by_line.items())
        )
    )
    return covered, cover


def _block_cover(instance: StabbingInstance) -> StabbingCover:
    """The table's cover when every interval spans every line.

    The table chains before it retires and retires before it splits, opens
    full lines before lean ones and keeps the first of equal options, so
    line 1 takes the first block of intervals in index order, line 2 the
    next, and so on: the first ``n mod k`` lines a block of ``ceil(n/k)``,
    then blocks of ``floor(n/k)``, with n the target count.
    """
    low, high, full = balanced_loads(instance.num_targets, instance.k)
    count = len(instance.intervals)
    assigned = []
    start, line = 0, 1
    while start < count:
        stop = min(start + (high if line <= full else low), count)
        assigned.append((line, tuple(range(start, stop))))
        start, line = stop, line + 1
    return StabbingCover(tuple(assigned))


def solve_max_bal_1rs(
    instance: StabbingInstance, budget: SolverBudget = DEFAULT_BUDGET
) -> tuple[int, StabbingCover]:
    """Maximum coverage under balanced capacities, with a witness cover.

    Fills the tables described in the module docstring top-down from the
    best first line, then replays the stored choices into a cover.  An
    instance whose intervals all span every line is answered directly in
    O(n), with the cover the table would give.  Raises `BudgetExceededError`
    once ``budget.max_seconds`` have passed since the budget was made, which
    may be before this call.
    """
    intervals = instance.intervals
    if not intervals:
        return 0, StabbingCover(())
    if intervals.count((1, instance.num_lines)) == len(intervals):
        # The capacities sum to num_targets >= n, so every interval is covered.
        budget.check()
        covered, cover = len(intervals), _block_cover(instance)
    else:
        covered, cover = _table_cover(instance, budget)
    validate_cover(instance, cover)
    return covered, cover


def _axis_cover(
    problem: ProblemInstance, rows: AxisRows, bound: int, budget: SolverBudget
) -> Optional[tuple[int, Solution]]:
    """How many voters a best cover within the bound places, and the solution.

    Each voter becomes the 1-based interval of axis positions within the
    bound; the intervals are sorted by left end, ties in voter order, which
    the table's tie-breaks follow.  Under minimax a voter with no candidate
    within the bound makes the bound unreachable: None, before the table is
    filled.  Voters are read in index order, so under minimax the first
    voter with no interval or with a gap decides.  The covered lines, padded
    to k with the smallest unused candidates, are the winners; those
    carrying the most voters take the higher load, and the voters left out
    fill the free seats in voter order.  The solution is scored under the
    instance's objective.  `rows` is the instance's table read along the
    axis.
    """
    matrix, k, axis = problem.matrix, problem.k, rows.axis
    n = matrix.n
    spans = []
    found: list[Optional[tuple[int, int]]] = [None] * n  # by first voter
    for v, first in enumerate(rows.first):
        interval = found[first] if first < v else rows.interval(v, bound)
        if interval is not None:
            found[v] = interval
            spans.append((interval[0] + 1, interval[1] + 1, v))
        elif problem.objective is Objective.MINIMAX:
            return None
    spans.sort(key=lambda span: span[0])
    stabbing = StabbingInstance(
        tuple((left, right) for left, right, _ in spans), matrix.m, k, n
    )
    covered, cover = solve_max_bal_1rs(stabbing, budget)
    winners = pad_committee(
        (axis[line - 1] for line, _ in cover.assigned), k, matrix.m
    )
    mapping: list[Optional[int]] = [None] * n
    load = dict.fromkeys(winners, 0)
    for line, ids in cover.assigned:
        candidate = axis[line - 1]
        load[candidate] = len(ids)
        for idx in ids:
            mapping[spans[idx][2]] = candidate
    low, high, at_high = balanced_loads(n, k)
    by_load = sorted(winners, key=lambda w: (-load[w], w))
    target = {w: high if rank < at_high else low for rank, w in enumerate(by_load)}
    spare = iter([v for v in range(n) if mapping[v] is None])
    for winner in winners:
        for _ in range(target[winner] - load[winner]):
            mapping[next(spare)] = winner
    assert next(spare, None) is None
    assignment = Assignment(winners, tuple(mapping))
    balanced = check_m_criterion(assignment, n, k)
    assert balanced
    value = evaluate(matrix, assignment.mapping, problem.objective)
    return covered, Solution(assignment, value, balanced)


def solve_monroe_sum_sp(
    problem: ProblemInstance, rows: AxisRows, budget: SolverBudget = DEFAULT_BUDGET
) -> Solution:
    """Optimal balanced-rule sum committee (0/1 values, contiguous on axis)."""
    if problem.objective is not Objective.SUM:
        raise ValueError("this pipeline handles the sum objective")
    if problem.rule is not Rule.MONROE:
        raise ValueError("this reduction handles the balanced rule")
    if any(x not in (0, 1) for row in distinct(problem.matrix.rows) for x in row):
        raise ValueError("misrepresentation values must all be 0 or 1")
    covered, solution = _axis_cover(problem, rows, 0, budget)
    assert solution.objective_value == problem.matrix.n - covered
    return solution


def solve_minimax_m_mw_sp(
    problem: ProblemInstance, rows: AxisRows, budget: SolverBudget = DEFAULT_BUDGET
) -> Optional[Solution]:
    """Balanced-rule minimax decision on an axis at the instance bound.

    Thresholding at the bound turns each voter into the interval of
    candidates within reach; the bound is met exactly when every interval
    can be covered.  `rows` is the instance's table read along the axis,
    which a bound search reads once and passes to every probe.
    """
    if problem.rule is not Rule.MONROE or problem.objective is not Objective.MINIMAX:
        raise ValueError("this solver handles the balanced rule, minimax objective")
    found = _axis_cover(problem, rows, problem.bound, budget)
    if found is None or found[0] < problem.matrix.n:
        return None
    solution = found[1]
    assert solution.objective_value <= problem.bound
    return solution

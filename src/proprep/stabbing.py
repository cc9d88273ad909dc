"""Capacitated interval stabbing and the balanced-rule pipeline built on it.

The combinatorial core: given horizontal integer intervals and vertical lines
at coordinates 1..m, pick at most k lines and assign each covered interval to
a line passing through it, maximizing the number of covered intervals.  The
capacities are balanced: with n targets overall, (n mod k) chosen lines may
take ceil(n/k) intervals and the rest floor(n/k).

For the balanced (fixed-load) committee rule on a single-peaked profile with
0/1 misrepresentation, candidates become lines on the axis and each voter
becomes the interval of candidates she approves; maximizing covered intervals
minimizes the total misrepresentation, and requiring full coverage decides
the minimax question after thresholding.

The solver is a dynamic program over table entries keyed by (lowest coverable
interval, anchor line, right edge of the line range, remaining full/lean line
budgets, remaining anchor capacity).  Each entry assumes the anchor is the
leftmost useful chosen line and that the keyed interval gets covered; the
update either assigns it to the anchor (continuing or retiring the anchor) or
to a line further right, which splits the range into independent halves.
Choices are recorded so a witness cover can be replayed, not just counted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

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
    pad_committee,
)
from .flows import feasible_min_cost
from .single_peaked import representation_interval


@dataclass(frozen=True)
class StabbingInstance:
    """Intervals to cover, lines at 1..num_lines, and balanced capacities.

    ``num_targets`` is the capacity base: it may exceed the interval count
    when some targets produced no interval but still occupy capacity.
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

    @property
    def cap_high(self) -> int:
        return -(-self.num_targets // self.k)

    @property
    def cap_low(self) -> int:
        return self.num_targets // self.k

    @property
    def full_lines(self) -> int:
        """How many chosen lines may carry cap_high intervals."""
        return self.num_targets % self.k

    @property
    def lean_lines(self) -> int:
        return self.k - self.full_lines


@dataclass(frozen=True)
class StabbingCover:
    """Chosen lines with the interval indices assigned to each."""

    assigned: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def lines(self) -> tuple[int, ...]:
        return tuple(line for line, _ in self.assigned)

    @property
    def covered_count(self) -> int:
        return sum(len(ids) for _, ids in self.assigned)


def validate_cover(instance: StabbingInstance, cover: StabbingCover) -> None:
    """Raise unless the cover respects containment and balanced capacities."""
    if len(cover.assigned) > instance.k:
        raise ValueError("cover uses more lines than allowed")
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
        if len(ids) > instance.cap_high:
            raise ValueError(f"line {line} overloaded")
        if len(ids) == instance.cap_high and instance.cap_high > instance.cap_low:
            at_high += 1
    if at_high > instance.full_lines:
        raise ValueError("too many lines at the higher capacity")


def solve_max_bal_1rs(instance: StabbingInstance) -> tuple[int, StabbingCover]:
    """Maximum coverage under balanced capacities, with a witness cover.

    Dynamic program over (interval, anchor, right edge, budgets, capacity)
    entries as described in the module docstring; every stored entry keeps
    the choice that achieved it, and the witness is replayed from those.
    """
    intervals = instance.intervals
    count_intervals = len(intervals)
    if count_intervals == 0:
        return 0, StabbingCover(())
    hi, lo = instance.cap_high, instance.cap_low
    table: dict[tuple, tuple[int, tuple]] = {}

    def tail_over(candidates, x_from, x2, full_budget, lean_budget):
        """Best entry starting a fresh line strictly right of x_from.

        The fresh line anchors one of the candidate intervals and consumes a
        full or lean capacity class.  Returns (value, entry key or None).
        """
        best, best_key = 0, None
        for j in candidates:
            left_j, right_j = intervals[j]
            for x in range(max(left_j, x_from + 1), min(right_j, x2) + 1):
                if full_budget >= 1:
                    key = (j, x, x2, full_budget - 1, lean_budget, hi)
                    value = entry(*key)
                    if value > best:
                        best, best_key = value, key
                if lean_budget >= 1 and lo >= 1:
                    key = (j, x, x2, full_budget, lean_budget - 1, lo)
                    value = entry(*key)
                    if value > best:
                        best, best_key = value, key
        return best, best_key

    def entry(i, x1, x2, full_budget, lean_budget, b):
        key = (i, x1, x2, full_budget, lean_budget, b)
        cached = table.get(key)
        if cached is not None:
            return cached[0]
        right_i = intervals[i][1]
        best, choice = 0, ("anchor",)
        if b > 1:
            # The anchor takes this interval and stays open for the next
            # lowest-indexed covered interval, which must contain it.
            for j in range(i + 1, count_intervals):
                left_j, right_j = intervals[j]
                if left_j <= x1 <= right_j and right_j <= x2:
                    sub = (j, x1, x2, full_budget, lean_budget, b - 1)
                    value = entry(*sub)
                    if value > best:
                        best, choice = value, ("chain", sub)
        # The anchor takes this interval and retires; coverage continues on a
        # fresh line strictly to the right.
        rest = [
            j
            for j in range(i + 1, count_intervals)
            if x1 <= intervals[j][1] <= x2
        ]
        value, sub = tail_over(rest, x1, x2, full_budget, lean_budget)
        if value > best:
            best, choice = value, ("retire", sub)
        # Some line x right of the anchor takes this interval.  Intervals
        # ending left of x stay with the anchor's side; the rest move right.
        for x in range(x1 + 1, right_i + 1):
            left_js = [
                j
                for j in range(i + 1, count_intervals)
                if x1 <= intervals[j][1] < x
            ]
            right_js = [
                j
                for j in range(i + 1, count_intervals)
                if x <= intervals[j][1] <= x2
            ]
            for full_left in range(full_budget + 1):
                for lean_left in range(lean_budget + 1):
                    full_right = full_budget - full_left
                    lean_right = lean_budget - lean_left
                    if full_right + lean_right < 1:
                        continue
                    best_left, left_key = 0, None
                    for j in left_js:
                        if intervals[j][0] <= x1:
                            sub = (j, x1, x - 1, full_left, lean_left, b)
                            value = entry(*sub)
                            if value > best_left:
                                best_left, left_key = value, sub
                    for takes_full in (True, False):
                        if takes_full:
                            if full_right < 1:
                                continue
                            spent = (full_right - 1, lean_right, hi - 1)
                        else:
                            if lean_right < 1 or lo < 1:
                                continue
                            spent = (full_right, lean_right - 1, lo - 1)
                        full_rest, lean_rest, b_rest = spent
                        best_right, right_key = 0, None
                        if b_rest >= 1:
                            for j in right_js:
                                if intervals[j][0] <= x:
                                    sub = (j, x, x2, full_rest, lean_rest, b_rest)
                                    value = entry(*sub)
                                    if value > best_right:
                                        best_right, right_key = value, sub
                        value, sub = tail_over(right_js, x, x2, full_rest, lean_rest)
                        if value > best_right:
                            best_right, right_key = value, sub
                        if best_left + best_right > best:
                            best = best_left + best_right
                            choice = ("split", x, left_key, right_key)
        table[key] = (best + 1, choice)
        return best + 1

    covered, top_key = tail_over(
        range(count_intervals), 0, instance.num_lines,
        instance.full_lines, instance.lean_lines,
    )
    if top_key is None:
        return 0, StabbingCover(())

    def replay(key) -> list[tuple[int, int]]:
        i, x1 = key[0], key[1]
        choice = table[key][1]
        kind = choice[0]
        if kind == "anchor":
            return [(i, x1)]
        if kind in ("chain", "retire"):
            placed = [(i, x1)]
            if choice[1] is not None:
                placed.extend(replay(choice[1]))
            return placed
        _, x, left_key, right_key = choice
        placed = [(i, x)]
        if left_key is not None:
            placed.extend(replay(left_key))
        if right_key is not None:
            placed.extend(replay(right_key))
        return placed

    placements = replay(top_key)
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
    validate_cover(instance, cover)
    return covered, cover


def brute_force_stabbing(instance: StabbingInstance) -> int:
    """Exhaustive maximum coverage; the oracle the solver is tested against.

    Tries every subset of at most k lines and finds the best capacity-
    respecting assignment by a small flow: intervals either route through a
    containing chosen line (free) or bypass to the sink at cost 1, each line
    forwards up to cap_low plus at most one bonus unit, and the bonus pool is
    capped by how many lines may run at cap_high.
    """
    if len(instance.intervals) > 8 or instance.num_lines > 6:
        raise BudgetExceededError(
            "brute-force stabbing is limited to 8 intervals and 6 lines"
        )
    count = len(instance.intervals)
    if count == 0:
        return 0
    hi, lo = instance.cap_high, instance.cap_low
    bonus_each = hi - lo
    best = 0
    for size in range(1, instance.k + 1):
        for lines in itertools.combinations(range(1, instance.num_lines + 1), size):
            source = 0
            first_line = count + 1
            bonus = first_line + size
            sink = bonus + 1
            arcs = []
            for idx, (left, right) in enumerate(instance.intervals):
                arcs.append((source, 1 + idx, 0, 1, 0))
                arcs.append((1 + idx, sink, 0, 1, 1))
                for pos, line in enumerate(lines):
                    if left <= line <= right:
                        arcs.append((1 + idx, first_line + pos, 0, 1, 0))
            for pos in range(size):
                arcs.append((first_line + pos, sink, 0, lo, 0))
                arcs.append((first_line + pos, bonus, 0, bonus_each, 0))
            arcs.append((bonus, sink, 0, instance.full_lines * bonus_each, 0))
            result = feasible_min_cost(sink + 1, arcs, source, sink, count)
            assert result is not None, "bypass arcs make every amount feasible"
            best = max(best, count - result[0])
    return best


def normalize_cover(
    instance: StabbingInstance, cover: StabbingCover
) -> StabbingCover:
    """Swap assignments until earlier lines carry earlier intervals.

    Whenever a line carries an interval that reaches over an earlier chosen
    line carrying a later interval that also reaches the line, the two
    intervals trade places.  Coverage counts and per-line loads never change.
    """
    assigned = {line: set(ids) for line, ids in cover.assigned}
    lines = sorted(assigned)
    intervals = instance.intervals

    def find_swap():
        for line in lines:
            for idx in assigned[line]:
                for earlier in lines:
                    if not intervals[idx][0] <= earlier < line:
                        continue
                    for other in assigned[earlier]:
                        if other > idx and intervals[other][1] >= line:
                            return line, idx, earlier, other
        return None

    while (found := find_swap()) is not None:
        line, idx, earlier, other = found
        assigned[line].remove(idx)
        assigned[earlier].remove(other)
        assigned[line].add(other)
        assigned[earlier].add(idx)
    result = StabbingCover(
        tuple((line, tuple(sorted(assigned[line]))) for line in lines)
    )
    validate_cover(instance, result)
    assert result.covered_count == cover.covered_count
    return result


@dataclass(frozen=True)
class MonroeStabbingReduction:
    """A balanced-rule question rephrased as interval stabbing.

    One line per candidate at its axis position (1-based); one interval per
    voter spanning the candidates she accepts.  Voters accepting nobody get
    no interval; they pay 1 whoever represents them and are listed here so
    the assignment step can seat them.
    """

    problem: ProblemInstance
    axis: tuple[int, ...]
    stabbing: StabbingInstance
    interval_voters: tuple[int, ...]
    unplaceable_voters: tuple[int, ...]


def _reduction(
    problem: ProblemInstance, axis, bound: int
) -> MonroeStabbingReduction:
    """Each voter as the 1-based axis interval of candidates within the bound."""
    matrix = problem.matrix
    if sorted(axis) != list(range(matrix.m)):
        raise ValueError("axis must be a permutation of the candidate indices")
    spans, unplaceable = [], []
    for v in range(matrix.n):
        interval = representation_interval(v, matrix, axis, bound)
        if interval is None:
            unplaceable.append(v)
        else:
            spans.append((interval.left + 1, interval.right + 1, v))
    spans.sort(key=lambda span: span[0])
    stabbing = StabbingInstance(
        intervals=tuple((left, right) for left, right, _ in spans),
        num_lines=matrix.m,
        k=problem.k,
        num_targets=matrix.n,
    )
    return MonroeStabbingReduction(
        problem=problem,
        axis=tuple(axis),
        stabbing=stabbing,
        interval_voters=tuple(v for _, _, v in spans),
        unplaceable_voters=tuple(unplaceable),
    )


def reduce_m_mw_sp(
    problem: ProblemInstance, axis
) -> MonroeStabbingReduction:
    """Rephrase a balanced-rule sum question with 0/1 misrepresentation."""
    if problem.rule is not Rule.MONROE:
        raise ValueError("this reduction handles the balanced rule")
    for row in problem.matrix.rows:
        if any(x not in (0, 1) for x in row):
            raise ValueError("misrepresentation values must all be 0 or 1")
    return _reduction(problem, axis, 0)


def _seat_cover(
    reduction: MonroeStabbingReduction, cover: StabbingCover
) -> tuple[tuple[int, ...], list[Optional[int]]]:
    """The cover's lines as a committee padded to k, and each voter's line.

    Voters whose interval the cover leaves out map to None.
    """
    problem = reduction.problem
    mapping: list[Optional[int]] = [None] * problem.matrix.n
    for line, ids in cover.assigned:
        candidate = reduction.axis[line - 1]
        for idx in ids:
            mapping[reduction.interval_voters[idx]] = candidate
    winners = pad_committee(
        (reduction.axis[line - 1] for line, _ in cover.assigned),
        problem.k,
        problem.matrix.m,
    )
    return winners, mapping


def complete_assignment(
    reduction: MonroeStabbingReduction, cover: StabbingCover
) -> Solution:
    """Turn a cover into a full balanced committee assignment.

    Pads the chosen lines to k winners with the smallest unused candidates,
    then seats uncovered voters into the remaining capacity so that exactly
    (n mod k) winners carry the higher load.  Total capacity equals n, so
    the distribution always works out.
    """
    validate_cover(reduction.stabbing, cover)
    problem = reduction.problem
    matrix, k = problem.matrix, problem.k
    n = matrix.n
    winners, mapping = _seat_cover(reduction, cover)
    load = {w: 0 for w in winners}
    for candidate in mapping:
        if candidate is not None:
            load[candidate] += 1
    low, high, at_high = balanced_loads(n, k)
    by_load = sorted(winners, key=lambda w: (-load[w], w))
    target = {w: high if rank < at_high else low for rank, w in enumerate(by_load)}
    spare = [v for v in range(n) if mapping[v] is None]
    for winner in winners:
        while load[winner] < target[winner]:
            mapping[spare.pop(0)] = winner
            load[winner] += 1
    assert not spare
    final = tuple(mapping)
    assignment = Assignment(tuple(winners), final)
    value = evaluate(matrix, final, Objective.SUM)
    assert value == n - cover.covered_count
    balanced = check_m_criterion(assignment, n, k)
    assert balanced
    return Solution(assignment, value, balanced)


def solve_monroe_sum_sp(problem: ProblemInstance, axis) -> Solution:
    """Optimal balanced-rule sum committee (0/1 values, contiguous on axis)."""
    if problem.objective is not Objective.SUM:
        raise ValueError("this pipeline handles the sum objective")
    reduction = reduce_m_mw_sp(problem, axis)
    _, cover = solve_max_bal_1rs(reduction.stabbing)
    return complete_assignment(reduction, cover)


def solve_minimax_m_mw_sp(
    problem: ProblemInstance, axis
) -> Optional[Solution]:
    """Balanced-rule minimax decision on an axis at the instance bound.

    Thresholding at the bound turns each voter into the interval of
    candidates within reach; the bound is met exactly when every interval
    can be covered, which forces exactly k fully balanced lines.
    """
    if problem.rule is not Rule.MONROE or problem.objective is not Objective.MINIMAX:
        raise ValueError("this solver handles the balanced rule, minimax objective")
    reduction = _reduction(problem, axis, problem.bound)
    if reduction.unplaceable_voters:
        return None
    covered, cover = solve_max_bal_1rs(reduction.stabbing)
    matrix, k = problem.matrix, problem.k
    n = matrix.n
    if covered < n:
        return None
    assert len(cover.assigned) == k, "full coverage needs every seat"
    winners, mapping = _seat_cover(reduction, cover)
    final = tuple(mapping)
    assignment = Assignment(winners, final)
    value = evaluate(matrix, final, Objective.MINIMAX)
    assert value <= problem.bound
    balanced = check_m_criterion(assignment, n, k)
    assert balanced
    return Solution(assignment, value, balanced)

"""Naive reference methods that only the tests call.

The exhaustive ones are guarded by a size cap; the library's routines are
tested against them.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from proprep.assignment import transport
from proprep.core import BudgetExceededError, balanced_loads
from proprep.hardness import HittingSetInstance, RX3CInstance
from proprep.stabbing import StabbingInstance


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


def brute_hitting_set(hs: HittingSetInstance) -> bool:
    """Exhaustive decision for small hitting-set instances."""
    if hs.universe_size > 12:
        raise BudgetExceededError(
            f"exhaustive hitting-set search over {hs.universe_size} elements "
            "exceeds the cap of 12"
        )
    members = [frozenset(s) for s in hs.family]
    for size in range(min(hs.budget, hs.universe_size) + 1):
        for choice in itertools.combinations(range(hs.universe_size), size):
            chosen = frozenset(choice)
            if all(chosen & s for s in members):
                return True
    return False


def brute_exact_3_cover(rx3c: RX3CInstance) -> bool:
    """Exhaustive decision for small exact-cover instances."""
    if rx3c.num_elements > 9:
        raise BudgetExceededError(
            f"exhaustive cover search over {rx3c.num_elements} elements "
            "exceeds the cap of 9"
        )
    everything = frozenset(range(rx3c.num_elements))
    for picks in itertools.combinations(rx3c.sets, rx3c.num_elements // 3):
        if frozenset(itertools.chain.from_iterable(picks)) == everything:
            return True
    return False


def brute_force_stabbing(instance: StabbingInstance) -> int:
    """Exhaustive maximum coverage; the oracle the solver is tested against.

    Tries every subset of at most k lines and every choice of which of them
    take the higher of the `balanced_loads` (as many as may: more capacity
    never covers fewer), and finds the best capacity-respecting assignment
    with ``transport``.  Each interval goes to a containing chosen line for
    free or to a bypass node at cost 1, so the cost counts the intervals
    left uncovered.
    """
    if len(instance.intervals) > 8 or instance.num_lines > 6:
        raise BudgetExceededError(
            "brute-force stabbing is limited to 8 intervals and 6 lines"
        )
    count = len(instance.intervals)
    if count == 0:
        return 0
    low, high, at_high = balanced_loads(instance.num_targets, instance.k)
    best = 0
    for size in range(1, instance.k + 1):
        for lines in itertools.combinations(range(1, instance.num_lines + 1), size):
            costs = [
                [0 if left <= line <= right else None for left, right in instance.intervals]
                for line in lines
            ] + [[1] * count]
            for full in itertools.combinations(range(size), min(at_high, size)):
                loads = [(0, high if pos in full else low) for pos in range(size)]
                result = transport(loads + [(0, count)], costs, count)
                assert result is not None, "the bypass node takes every interval"
                best = max(best, count - result[0])
    return best

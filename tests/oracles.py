"""Naive reference methods that only the tests call.

Each one is exponential and guarded; the library's routines are tested
against them.
"""

from __future__ import annotations

from typing import Iterator

from proprep.core import BudgetExceededError, balanced_loads


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

"""Naive reference methods that only the tests call.

The exhaustive ones are guarded by a size cap; the library's routines are
tested against them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import sys
from typing import Callable, Iterable, Iterator, Optional, Sequence

from proprep import single_peaked, solvers
from proprep.core import BudgetExceededError, ProblemInstance, balanced_loads
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


@contextlib.contextmanager
def count_leaves() -> Iterator[list]:
    """Collect the key of every search node that returns without a child.

    Inside the block `solvers.run_nodes` runs each node through a wrapper
    that passes every yield and send through to the real node, so the
    search runs as before; a node that returns before yielding is a leaf
    of the search tree.  The list holds the leaves' keys in visiting order.
    """
    real, leaves = solvers.run_nodes, []

    def counted(node: Callable) -> Callable:
        def wrapped(key):
            frame, sent, leaf = node(key), None, True
            while True:
                try:
                    child, table, child_key = frame.send(sent)
                except StopIteration as done:
                    if leaf:
                        leaves.append(key)
                    return done.value
                leaf = False
                sent = yield counted(child), table, child_key

        return wrapped

    solvers.run_nodes = lambda node, table, key, budget: real(
        counted(node), table, key, budget
    )
    try:
        yield leaves
    finally:
        solvers.run_nodes = real


@contextlib.contextmanager
def count_lines(
    functions: Sequence[Callable], statements: Sequence[str]
) -> Iterator[dict[str, int]]:
    """Count how often each statement runs inside the block.

    Each statement must be the stripped text of exactly one source line of
    the functions, so a rewrite that drops or changes a counted line fails
    here instead of counting 0.  Inside the block a `sys.settrace` tracer
    follows only the functions' own frames (not nested code such as
    lambdas), and the previous tracer is restored afterwards.  The dict
    maps each statement to its count.
    """
    lines = {}
    for statement in statements:
        found = [
            (function.__code__, function.__code__.co_firstlineno + offset)
            for function in functions
            for offset, line in enumerate(inspect.getsource(function).splitlines())
            if line.strip() == statement
        ]
        assert len(found) == 1, f"{statement!r} is on {len(found)} source lines"
        lines[found[0]] = statement
    codes = {code for code, _ in lines}
    counts = dict.fromkeys(statements, 0)

    def local(frame, event, _):
        if event == "line" and (frame.f_code, frame.f_lineno) in lines:
            counts[lines[frame.f_code, frame.f_lineno]] += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, *_: local if frame.f_code in codes else None)
    try:
        yield counts
    finally:
        sys.settrace(previous)


# The steps of `single_peaked.solve_cc_sum_sp` beyond reading the table: the
# sweep's cut moves, cut entries and saving entries, and the DP transitions.
SP_DP_STEPS = (
    "crossing[q] -= values[q]",
    "kept.append(entry)",
    "row[p] = ahead[p] - base + crossing[p] - beyond",
    "value = z[p][j - 1] - gains[p]",
)


def sp_dp_work(instance: ProblemInstance, axis: Sequence[int]) -> int:
    """The work of an sp-dp solve on an axis: n m table reads plus its steps.

    The savings sweep takes O(nm + m^2) of it and the table O(k m^2).
    """
    functions = (single_peaked.axis_savings, single_peaked.solve_cc_sum_sp)
    with count_lines(functions, SP_DP_STEPS) as counts:
        rows = single_peaked.AxisRows(instance.matrix, axis)
        single_peaked.solve_cc_sum_sp(instance, rows)
    return instance.matrix.n * instance.matrix.m + sum(counts.values())


def cheapest_seating(
    costs: Sequence[Sequence[Optional[int]]], loads: Sequence[tuple[int, int]]
) -> Optional[int]:
    """Least total cost of seating every row at a column, or None if none exists.

    Row r may sit at column c when ``costs[r][c]`` is not None, at that
    cost, and column c must seat between ``loads[c][0]`` and
    ``loads[c][1]`` rows.  Rows are seated in order, so the load vector
    names the row seated next and the search is memoized on it alone.
    """

    @functools.cache
    def least(taken: tuple[int, ...]) -> Optional[int]:
        row = sum(taken)
        if row == len(costs):
            return 0 if all(low <= t for t, (low, _) in zip(taken, loads)) else None
        best = None
        for c, cost in enumerate(costs[row]):
            if cost is not None and taken[c] < loads[c][1]:
                rest = least(taken[:c] + (taken[c] + 1,) + taken[c + 1 :])
                if rest is not None and (best is None or cost + rest < best):
                    best = cost + rest
        return best

    return least((0,) * len(loads))


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


def first_axis_by_search(votes: Sequence[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """The first axis a full outside-in search finds, or None if there is none.

    Fills the open slots ``lo..hi`` from both ends.  At each depth every
    voter's worst unplaced candidate is found from scratch; on any axis a
    voter's worst among the candidates of ``lo..hi`` sits at ``lo`` or
    ``hi``, so these candidates (at most two, one when ``lo == hi``) are
    the only placements.  For two, the smaller index goes at ``lo`` first,
    then at ``hi``; for one, ``lo`` then ``hi``.  Every option is searched
    to full depth before the next is tried, and a complete axis counts
    only when `check_compatible` accepts it for every vote.  Returned with
    ``axis[0] < axis[-1]``.  Exponential in the number of candidates.
    """
    m = len(votes[0])
    axis = [-1] * m

    def search(lo: int, hi: int) -> Optional[tuple[int, ...]]:
        if lo > hi:
            found = tuple(axis)
            return found if all(check_compatible(v, found) for v in votes) else None
        placed = set(axis)
        frontier = sorted(
            {next(c for c in reversed(v) if c not in placed) for v in votes}
        )
        if len(frontier) > 2 or (len(frontier) == 2 and lo == hi):
            return None
        x, y = frontier[0], frontier[-1]
        if x == y:
            options = [((x, lo),), ((x, hi),)]
        else:
            options = [((x, lo), (y, hi)), ((y, lo), (x, hi))]
        for placements in options:
            for candidate, slot in placements:
                axis[slot] = candidate
            found = search(
                lo + sum(1 for _, s in placements if s == lo),
                hi - sum(1 for _, s in placements if s == hi),
            )
            for _, slot in placements:
                axis[slot] = -1
            if found is not None:
                return found
        return None

    found = search(0, m - 1)
    if found is None or found[0] < found[-1]:
        return found
    return found[::-1]


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
    never covers fewer), and finds the best capacity-respecting seating
    with ``cheapest_seating``.  Each interval sits at a containing chosen
    line for free or at a bypass column at cost 1, so the cost counts the
    intervals left uncovered.
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
                [0 if left <= line <= right else None for line in lines] + [1]
                for left, right in instance.intervals
            ]
            for full in itertools.combinations(range(size), min(at_high, size)):
                loads = [(0, high if pos in full else low) for pos in range(size)]
                uncovered = cheapest_seating(costs, loads + [(0, count)])
                assert uncovered is not None, "the bypass column takes every interval"
                best = max(best, count - uncovered)
    return best


def walk_by_lists(
    rows: Sequence[Sequence[int]],
    pool: Sequence[int],
    k: int,
    combine: Callable[[Iterable[int]], int],
    limit: float,
    leaf: Callable[[int, tuple[int, ...]], float],
) -> int:
    """The committee walk's visits, with plain per-voter lists.

    Prefixes grow depth-first in lexicographic order from each voter's
    largest entry.  A child at pool position j ends its siblings' loop when
    its prefix plus all of pool[j:] is above `limit` under `combine` (sum
    or max); a last seat goes to `leaf` when its committee is within the
    limit, and `leaf` returns the new limit.  Every last seat is tried, so
    this folds every leaf.  Returns the number of nodes visited: every child
    tried, the one that ends its loop and every last seat included.
    """
    columns = [[row[c] for row in rows] for c in pool]
    suffix = [list(map(min, columns[-1], *columns[j:])) for j in range(len(pool))]
    nodes = 0

    def extend(start: int, prefix: tuple[int, ...], minima: list[int]) -> None:
        nonlocal limit, nodes
        seats = k - len(prefix)
        for j in range(start, len(pool) - seats + 1):
            nodes += 1
            child = list(map(min, minima, columns[j]))
            if seats == 1:
                if combine(child) <= limit:
                    limit = leaf(combine(child), prefix + (pool[j],))
            elif combine(map(min, minima, suffix[j])) > limit:
                return
            else:
                extend(j + 1, prefix + (pool[j],), child)

    extend(0, (), [max(row) for row in rows])
    return nodes

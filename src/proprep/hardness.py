"""Instance generators that reduce covering problems to committee selection.

Each generator maps a small covering question (hitting set, vertex cover on
a low-degree graph, exact cover by 3-sets) to a committee-selection problem
whose optimum answers the original question.  The constructions serve two
purposes: they produce benchmark families that are provably hard to scale,
and they give end-to-end correctness checks, because the covering side is
easy to decide exhaustively at small sizes.  Tests confirm the round trip:
a cover of the requested size exists exactly when the generated election
clears its misrepresentation bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ApprovalMisrep,
    BordaMisrep,
    BudgetExceededError,
    Election,
    ExplicitMisrep,
    Objective,
    ProblemInstance,
    Rule,
    build_misrep,
)
from .single_peaked import check_single_troughed


@dataclass(frozen=True)
class HittingSetInstance:
    """Ground set ``0..universe_size-1``, a family of subsets, and a budget.

    The question: is there a set of at most ``budget`` elements that meets
    every member of ``family``?  Each set is a tuple of strictly increasing
    element indices; repeated sets in the family are allowed.
    """

    universe_size: int
    family: tuple[tuple[int, ...], ...]
    budget: int

    def __post_init__(self) -> None:
        if self.universe_size < 1:
            raise ValueError("universe must have at least one element")
        if not self.family:
            raise ValueError("family must contain at least one set")
        for index, members in enumerate(self.family):
            if not members:
                raise ValueError(f"set {index} is empty")
            if any(not 0 <= u < self.universe_size for u in members):
                raise ValueError(
                    f"set {index} mentions an element outside the universe"
                )
            if tuple(sorted(set(members))) != tuple(members):
                raise ValueError(
                    f"set {index} must list distinct elements in increasing order"
                )
        if self.budget < 0:
            raise ValueError("budget must be >= 0")


@dataclass(frozen=True)
class RX3CInstance:
    """Exact-cover input: 3-element sets, every element in exactly three.

    ``num_elements`` must be a positive multiple of 3, which forces the
    family to hold exactly ``num_elements`` sets (three slots per set and
    three occurrences per element).  The question: do ``num_elements / 3``
    pairwise disjoint sets cover every element?
    """

    num_elements: int
    sets: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        n = self.num_elements
        if n < 3 or n % 3:
            raise ValueError("element count must be a positive multiple of 3")
        if len(self.sets) != n:
            raise ValueError(
                f"a family with triple occurrences has exactly {n} sets, "
                f"got {len(self.sets)}"
            )
        counts = [0] * n
        for index, members in enumerate(self.sets):
            if len(members) != 3 or tuple(sorted(set(members))) != tuple(members):
                raise ValueError(
                    f"set {index} must list three distinct elements "
                    "in increasing order"
                )
            if any(not 0 <= e < n for e in members):
                raise ValueError(
                    f"set {index} mentions an element outside the ground set"
                )
            for e in members:
                counts[e] += 1
        for e, count in enumerate(counts):
            if count != 3:
                raise ValueError(
                    f"element {e} occurs {count} times, expected exactly 3"
                )


def gen_hs_approval(
    hs: HittingSetInstance,
    k: int,
    rule: Rule = Rule.MONROE,
    objective: Objective = Objective.SUM,
) -> ProblemInstance:
    """Election whose optimum is 0 exactly when k elements hit every set.

    One candidate per universe element.  Each set becomes a voter who
    approves precisely its members, and every set brings ``k - 1`` dummy
    voters approving all candidates, so the balanced rule can fill every
    committee load for free.  The construction works under either rule and
    either objective, always at bound 0: a zero-cost committee must give
    each set voter an approved winner, which is a hitting set, and any
    hitting set extends to such a committee.
    """
    if not 1 <= k <= hs.universe_size:
        raise ValueError("winner count must lie between 1 and the universe size")
    m = hs.universe_size
    votes: list[tuple[int, ...]] = []
    approvals: list[tuple[int, ...]] = []
    for members in hs.family:
        chosen = frozenset(members)
        votes.append(tuple(members) + tuple(c for c in range(m) if c not in chosen))
        approvals.append(tuple(members))
    everyone = tuple(range(m))
    for _ in range(len(hs.family) * (k - 1)):
        votes.append(everyone)
        approvals.append(everyone)
    election = Election(tuple(f"u{c + 1}" for c in range(m)), tuple(votes))
    matrix = build_misrep(election, ApprovalMisrep(tuple(approvals)))
    return ProblemInstance(election, matrix, rule, objective, k, bound=0)


def gen_hs_borda(
    hs: HittingSetInstance,
    k: int,
    rule: Rule = Rule.MONROE,
    objective: Objective = Objective.SUM,
) -> ProblemInstance:
    """Positional reduction from hitting set, using private blocker blocks.

    With n sets and m elements, write z := n * m * k.  Every one of the
    n set voters and n * (k - 1) dummy voters owns a private block of z
    consecutive blocker candidates, ranked immediately after the
    candidates the voter finds acceptable (her set members, or all of
    ``C_U`` for a dummy); everyone else's blockers sit at the very bottom.
    A k-element hitting set exists exactly when the sum objective can stay
    within n * m * k, or the minimax objective within m - 1.  Blocker
    blocks multiply quickly (n * k blocks of z candidates each), so sizes
    are capped at n, m, k <= 4.
    """
    n = len(hs.family)
    m = hs.universe_size
    if not 1 <= k <= m:
        raise ValueError("winner count must lie between 1 and the universe size")
    if n > 4 or m > 4 or k > 4:
        raise BudgetExceededError(
            f"blocker reduction with n={n}, m={m}, k={k} exceeds the caps "
            "n, m, k <= 4"
        )
    z = n * m * k
    groups = n * k

    def block(group: int) -> range:
        start = m + group * z
        return range(start, start + z)

    def foreign_blockers(own: int) -> list[int]:
        return [b for g in range(groups) if g != own for b in block(g)]

    votes: list[tuple[int, ...]] = []
    for i, members in enumerate(hs.family):
        chosen = frozenset(members)
        outside = [c for c in range(m) if c not in chosen]
        votes.append((*members, *block(i), *outside, *foreign_blockers(i)))
    for d in range(n * (k - 1)):
        votes.append((*range(m), *block(n + d), *foreign_blockers(n + d)))
    names = [f"u{c + 1}" for c in range(m)]
    names += [f"b{g + 1}_{x + 1}" for g in range(groups) for x in range(z)]
    election = Election(tuple(names), tuple(votes))
    matrix = build_misrep(election, BordaMisrep())
    bound = z if objective is Objective.SUM else m - 1
    return ProblemInstance(election, matrix, rule, objective, k, bound)


def gen_vc_minimax(
    edge_sets: tuple[tuple[int, int], ...],
    k: int,
    bound: int,
    rule: Rule = Rule.CC,
) -> ProblemInstance:
    """Worst-voter reduction from vertex cover on low-degree graphs.

    Voters are the 2-element edge sets and candidates the vertices.  At
    bound 1 each voter scores 0 and 1 on her endpoints and 2, 3, ... on the
    remaining candidates in index order.  For a larger bound every voter
    additionally owns ``bound - 1`` private padding candidates ranked above
    her endpoints, while all other voters rank them beyond position
    ``bound``.  A committee of k vertices keeps every voter within the
    bound exactly when k vertices touch every edge.  The objective is
    always minimax; the rule is selectable.
    """
    if not edge_sets:
        raise ValueError("need at least one edge")
    degree: dict[int, int] = {}
    for index, edge in enumerate(edge_sets):
        if len(edge) != 2 or not 0 <= edge[0] < edge[1]:
            raise ValueError(
                f"set {index} must be two distinct vertices in increasing order"
            )
        for v in edge:
            degree[v] = degree.get(v, 0) + 1
    for v in sorted(degree):
        if degree[v] > 3:
            raise ValueError(f"vertex {v} appears in {degree[v]} sets, at most 3 allowed")
    if bound < 1:
        raise ValueError("misrepresentation bound must be >= 1")
    num_vertices = max(degree) + 1
    pads = bound - 1
    total = num_vertices + len(edge_sets) * pads

    def pad_block(voter: int) -> range:
        start = num_vertices + voter * pads
        return range(start, start + pads)

    votes: list[tuple[int, ...]] = []
    for i, (a, b) in enumerate(edge_sets):
        mine = frozenset(pad_block(i)) | {a, b}
        rest = [c for c in range(total) if c not in mine]
        votes.append((*pad_block(i), a, b, *rest))
    names = [f"x{v + 1}" for v in range(num_vertices)]
    names += [
        f"p{i + 1}_{j + 1}"
        for i in range(len(edge_sets))
        for j in range(pads)
    ]
    election = Election(tuple(names), tuple(votes))
    matrix = build_misrep(election, BordaMisrep())
    return ProblemInstance(election, matrix, rule, Objective.MINIMAX, k, bound)


def gen_rx3c_monroe(rx3c: RX3CInstance) -> tuple[ProblemInstance, tuple[int, ...]]:
    """Single-troughed balanced-rule election from an exact-cover question.

    Candidates are the sets (``s1..sn``) followed by the elements
    (``e1..en``), and that left-to-right order is the returned societal
    axis.  Every element brings four voters: three occurrence voters, one
    per set containing it, plus one fan voter happy with the element
    candidate alone.  With ``k = 4n/3`` winners every winner seats exactly
    three voters, and the sum optimum reaches ``2 * n**2`` exactly when
    ``n/3`` disjoint sets cover everything.

    Writing indices 1-based: occurrence voter x of element i scores 0 on
    the set holding the x-th occurrence of that element, 1 on every other
    set candidate, ``i + z - 1`` on each element candidate ``z <= i``, and
    ``2 * n**2 + 1`` beyond; fan voter i scores 0 on element i and
    ``2 * n**2 + 1`` everywhere else.  Occurrence voters come first, in
    (element, occurrence) order, then the fan voters.
    """
    n = rx3c.num_elements
    num_sets = len(rx3c.sets)
    total = num_sets + n
    big = 2 * n * n + 1
    occurrence: list[list[int]] = [[] for _ in range(n)]
    for j, members in enumerate(rx3c.sets):
        for e in members:
            occurrence[e].append(j)
    rows: list[tuple[int, ...]] = []
    for e in range(n):
        for x in range(3):
            row = [0 if occurrence[e][x] == j else 1 for j in range(num_sets)]
            row += [e + z + 1 if z <= e else big for z in range(n)]
            rows.append(tuple(row))
    for e in range(n):
        row = [big] * total
        row[num_sets + e] = 0
        rows.append(tuple(row))
    votes = tuple(
        tuple(sorted(range(total), key=lambda c: (row[c], c))) for row in rows
    )
    names = [f"s{j + 1}" for j in range(num_sets)]
    names += [f"e{e + 1}" for e in range(n)]
    election = Election(tuple(names), votes)
    matrix = build_misrep(election, ExplicitMisrep(tuple(rows)))
    axis = tuple(range(total))
    assert check_single_troughed(matrix, axis), (
        "generated table must be single-troughed on the set-then-element axis"
    )
    problem = ProblemInstance(
        election, matrix, Rule.MONROE, Objective.SUM, n // 3 + n, bound=2 * n * n
    )
    return problem, axis

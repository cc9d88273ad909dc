"""Voters who share ballot objects get the answers of voters who do not.

Parsing makes equal lines one object, and every pass that depends only on
a ballot runs once per distinct object.  A copy of the parsed instance in
which every vote and every row is a fresh tuple shares nothing, and it
must give identical results everywhere.
"""

from __future__ import annotations

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from proprep import solving
from proprep.core import (
    ApprovalMisrep,
    BordaMisrep,
    BudgetExceededError,
    Election,
    ExplicitMisrep,
    MisrepMatrix,
    Objective,
    ProblemInstance,
    Rule,
    build_misrep,
)
from proprep.fileio import parse_instance, render_instance, worst_bound
from proprep.generators import random_election, random_prefix_approvals
from proprep.single_peaked import AxisRows, detect_axis, sample_single_peaked_election
from proprep.solvers import SolverBudget


def objects(items) -> int:
    return len({id(item) for item in items})


def fresh(instance: ProblemInstance) -> ProblemInstance:
    """The same instance with every vote and every row a new tuple."""
    votes = tuple(tuple(list(vote)) for vote in instance.election.votes)
    rows = tuple(tuple(list(row)) for row in instance.matrix.rows)
    election = Election(instance.election.candidates, votes)
    return dataclasses.replace(instance, election=election, matrix=MisrepMatrix(rows))


def outcome(call):
    try:
        return call()
    except (ValueError, BudgetExceededError) as error:
        return type(error).__name__, str(error)


def repeated_ballots(rng: random.Random) -> ProblemInstance:
    """A small parsed instance in which several voters share a ballot."""
    m, n = rng.randint(2, 4), rng.randint(6, 12)
    if rng.random() < 0.6:
        sampled, _ = sample_single_peaked_election(rng, m, n)
    else:
        sampled = random_election(rng, m, n)
    approvals = list(random_prefix_approvals(rng, sampled))
    votes = list(sampled.votes)
    # Copies of earlier ballots, so that every profile repeats one.
    for v in rng.sample(range(1, n), n // 3):
        earlier = rng.randrange(v)
        votes[v], approvals[v] = votes[earlier], approvals[earlier]
    election = Election(sampled.candidates, tuple(votes))
    table = rng.choice(("borda", "approval", "explicit"))
    if table == "borda":
        spec = BordaMisrep()
    elif table == "approval":
        spec = ApprovalMisrep(tuple(approvals))
    else:
        spec = ExplicitMisrep(
            tuple(tuple(2 * rank for rank in row) for row in election._positions)
        )
    matrix = build_misrep(election, spec)
    objective = rng.choice((Objective.SUM, Objective.MINIMAX))
    k = rng.randint(1, min(3, m))
    instance = ProblemInstance(
        election,
        matrix,
        rng.choice((Rule.CC, Rule.MONROE)),
        objective,
        k,
        worst_bound(matrix, objective),
    )
    return parse_instance(render_instance(instance))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_shared_ballots_give_the_answers_of_fresh_ones(seed):
    parsed = repeated_ballots(random.Random(seed))
    copy = fresh(parsed)
    n = parsed.election.n
    assert objects(parsed.election.votes) < n and objects(parsed.matrix.rows) < n
    assert objects(copy.election.votes) == objects(copy.matrix.rows) == n
    assert copy == parsed

    axis = detect_axis(parsed.election)
    assert detect_axis(copy.election) == axis
    if axis is not None:
        shared_rows, fresh_rows = AxisRows(parsed.matrix, axis), AxisRows(copy.matrix, axis)
        assert shared_rows.values == fresh_rows.values
        assert shared_rows.troughs == fresh_rows.troughs
    for name in solving.SOLVER_NAMES:
        assert outcome(lambda: solving.solve(parsed, name, SolverBudget())) == outcome(
            lambda: solving.solve(copy, name, SolverBudget())
        ), name

"""Shared fixtures and small builders for the test suite."""

from __future__ import annotations

import contextlib
import signal

import pytest

from proprep.core import (
    BordaMisrep,
    Election,
    MisrepMatrix,
    Objective,
    ProblemInstance,
    Rule,
    build_misrep,
)


def ranked(candidates: str, *votes: str) -> Election:
    """Build an election from space-separated name strings.

    ``ranked("a b c", "b a c", ...)`` declares candidates in index order and
    one vote per extra argument, names in decreasing preference.
    """
    names = tuple(candidates.split())
    index = {name: i for i, name in enumerate(names)}
    return Election(
        names,
        tuple(tuple(index[name] for name in vote.split()) for vote in votes),
    )


def cycle_under_tail(tail: int) -> Election:
    """Three voters over a Condorcet cycle on a, b, c, all ending in t0..t{tail-1}.

    No axis exists, but every shared tail candidate fits either end of a
    partial axis, so a search that backtracks tries both ends for each.
    """
    core = ("a b c", "b c a", "c a b")
    names = " ".join(f"t{i}" for i in range(tail))
    return ranked("a b c " + names, *(f"{votes} {names}" for votes in core))


@contextlib.contextmanager
def time_limit(seconds: int):
    """Fail the test, rather than hang, if the block runs past ``seconds``."""

    def expire(signum, frame):
        pytest.fail(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def threshold(matrix: MisrepMatrix, bound: int) -> MisrepMatrix:
    """Dichotomize: entries at most ``bound`` become 0, the rest 1."""
    return MisrepMatrix(tuple(tuple(int(x > bound) for x in row) for row in matrix.rows))


def instance_for(
    election: Election,
    rule: Rule,
    objective: Objective,
    k: int,
    bound: int = 0,
    matrix: MisrepMatrix | None = None,
) -> ProblemInstance:
    if matrix is None:
        matrix = build_misrep(election, BordaMisrep())
    return ProblemInstance(election, matrix, rule, objective, k, bound)


@pytest.fixture
def profile_3v4c() -> Election:
    """Three voters over c1..c4; single-peaked along the index order."""
    return ranked(
        "c1 c2 c3 c4",
        "c1 c2 c3 c4",
        "c2 c3 c4 c1",
        "c3 c2 c1 c4",
    )


@pytest.fixture
def profile_6v4c() -> Election:
    """Four a-leaning voters and two c-leaning voters over a..d."""
    return ranked(
        "a b c d",
        "a b c d",
        "a b c d",
        "a b c d",
        "a b c d",
        "c b a d",
        "c b a d",
    )

"""Pinned command-line answers over a small fixed corpus.

Every ``--solver`` name runs on every file, and ``bench`` runs over the
whole directory; stdout and exit codes must match ``data/golden.json``
exactly (bench timings aside).  The corpus covers every solver, skipped
and budget-skipped bench rows, an infeasible bound and an election without
an axis, so a change to solver dispatch that alters any answer, solver
line or tie-break shows up here.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from proprep import cli

GOLDEN = Path(__file__).parent / "data" / "golden.json"

FIG1 = """\
proprep v1
4 3 1 - cc sum borda
c1
c2
c3
c4
c1 c2 c3 c4
c2 c3 c4 c1
c3 c2 c1 c4
"""

BALANCED6 = """\
proprep v1
4 6 3 - monroe sum borda
a
b
c
d
a b c d
a b c d
a b c d
a b c d
c b a d
c b a d
"""

NOT_SINGLE_PEAKED = """\
proprep v1
3 3 1 - cc sum borda
a
b
c
a b c
b c a
c a b
"""

# File name -> instance text, or the arguments of the `gen` call writing it.
CORPUS = {
    "balanced6.elect": BALANCED6,
    "fig1.elect": FIG1,
    "fig1-bound0.elect": FIG1.replace("4 3 1 -", "4 3 1 0"),
    "not-sp.elect": NOT_SINGLE_PEAKED,
    "random-m21-budget.elect": ["random", "--m", "21", "--n", "4", "--k", "2",
                                "--seed", "5"],
    "random-n12.elect": ["random", "--m", "5", "--n", "12", "--k", "2",
                         "--seed", "6"],
    "random-monroe-minimax.elect": ["random", "--m", "5", "--n", "8", "--k", "2",
                                    "--rule", "monroe", "--objective", "minimax",
                                    "--seed", "4"],
    "sp-cc-minimax.elect": ["single-peaked", "--m", "5", "--n", "6", "--k", "2",
                            "--objective", "minimax", "--seed", "3"],
    "sp-cc-minimax-bound0.elect": ["single-peaked", "--m", "4", "--n", "5",
                                   "--k", "3", "--objective", "minimax",
                                   "--bound", "0", "--seed", "1"],
    "sp-monroe-approval-sum.elect": ["single-peaked", "--m", "4", "--n", "6",
                                     "--k", "2", "--rule", "monroe",
                                     "--misrep", "approval", "--seed", "2"],
    "sp-monroe-approval-minimax.elect": ["single-peaked", "--m", "4", "--n", "6",
                                         "--k", "2", "--rule", "monroe",
                                         "--misrep", "approval",
                                         "--objective", "minimax", "--seed", "2"],
    "vc-minimax.elect": ["vc-minimax", "--edge", "0,1", "--edge", "1,2",
                         "--k", "1", "--bound", "1"],
    "hs-approval.elect": ["hs-approval", "--universe", "3", "--set", "0,1",
                          "--set", "1,2", "--k", "1"],
}

SOLVER_NAMES = (
    "auto", "subset-enum", "partition-enum", "branch-rk", "constant-r",
    "monroe-rk", "minimax-r0", "sp-dp", "sp-greedy", "sp-stab",
)


def write_corpus(directory: Path) -> None:
    for name, source in CORPUS.items():
        path = directory / name
        if isinstance(source, str):
            path.write_text(source)
        else:
            assert cli.main(["gen", *source, "--out", str(path)]) == 0


def run(capsys, *argv: str) -> list:
    code = cli.main(list(argv))
    return [code, capsys.readouterr().out]


def strip_timings(bench_stdout: str) -> str:
    return re.sub(r" [0-9.]+ms$", "", bench_stdout, flags=re.MULTILINE)


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_solver_on_every_file(tmp_path, capsys, expected):
    write_corpus(tmp_path)
    for name in CORPUS:
        for solver in SOLVER_NAMES:
            found = run(capsys, "solve", str(tmp_path / name), "--solver", solver)
            assert found == expected["solve"][name][solver], (name, solver)


def test_bench_rows(tmp_path, capsys, expected):
    write_corpus(tmp_path)
    code, out = run(capsys, "bench", str(tmp_path))
    assert [code, strip_timings(out)] == expected["bench"]


def test_corpus_covers_what_it_claims(expected):
    answered = {
        solver
        for by_solver in expected["solve"].values()
        for solver, (code, _) in by_solver.items()
        if code == 0
    }
    assert answered == set(SOLVER_NAMES)
    assert any(code == 1 for by_solver in expected["solve"].values()
               for code, _ in by_solver.values())
    bench = expected["bench"][1]
    assert " skipped (budget: " in bench
    assert re.search(r" skipped \((?!budget)", bench)
    assert " infeasible" in bench

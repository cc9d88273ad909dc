"""End-to-end coverage of the command-line front end.

Every test drives ``main`` directly with an argv list and asserts on exit
codes and captured streams, the same surface a shell user sees.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import itertools
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_under_tail, instance_for, time_limit
import proprep
from proprep import cli, core, single_peaked, solvers, solving, stabbing
from proprep.cli import build_parser, main
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
    verify_solution,
)
from proprep.fileio import parse_instance, render_instance, worst_bound
from proprep.generators import random_election, random_prefix_approvals
from proprep.solvers import (
    DEFAULT_BUDGET,
    solve_cc_branch_rk,
    solve_m_mw_rk,
    solve_subset_enum,
)
from proprep.solving import SOLVERS

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


# 1500 voters who rank c1 c2 c3 and approve all three, one Monroe seat.
ALL_APPROVE = (
    "proprep v1\n3 1500 1 - monroe sum approval\nc1\nc2\nc3\n"
    + "c1 c2 c3\n" * 1500
    + "#approve\n"
    + "c1 c2 c3\n" * 1500
)

# Its worst sum bound, 2 * 10**19, is past sys.maxsize.
HUGE_ENTRIES = """\
proprep v1
2 2 1 - cc sum explicit
a
b
a b
b a
#matrix
0 10000000000000000000
10000000000000000000 0
"""


@pytest.fixture
def write(tmp_path):
    def _write(name: str, text: str) -> str:
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def run_cli(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_value(out: str) -> int:
    for line in out.splitlines():
        if line.startswith("value "):
            return int(line.split()[1])
    raise AssertionError(f"no value line in {out!r}")


class TestSolve:
    def test_single_peaked_sum_instances_route_to_the_dp(self, write, capsys):
        code, out, err = run_cli(capsys, "solve", write("f.elect", FIG1))
        assert code == 0
        assert "solver sp-dp" in out
        assert "value 2" in out
        assert "winners c2" in out
        assert "wall-time-ms" in err

    def test_balanced_rule_worked_example(self, write, capsys):
        code, out, _ = run_cli(capsys, "solve", write("b.elect", BALANCED6))
        assert code == 0
        assert "value 2" in out
        assert "winners a b c" in out
        assert "m-criterion true" in out

    @pytest.mark.parametrize("solver", ["subset-enum", "partition-enum", "monroe-rk"])
    def test_named_solvers_agree_on_the_worked_example(self, write, capsys, solver):
        path = write("b.elect", BALANCED6)
        code, out, _ = run_cli(capsys, "solve", path, "--solver", solver)
        assert code == 0
        assert record_value(out) == 2
        assert f"solver {solver}" in out

    def test_bound_override_can_make_it_infeasible(self, write, capsys):
        path = write("b.elect", BALANCED6)
        code, out, err = run_cli(capsys, "solve", path, "--R", "1")
        assert code == 1
        assert out == ""
        assert "infeasible" in err and "<= 1" in err

    def test_unbounded_override_restores_feasibility(self, write, capsys):
        text = BALANCED6.replace("4 6 3 -", "4 6 3 1")
        path = write("b.elect", text)
        assert run_cli(capsys, "solve", path)[0] == 1
        code, out, _ = run_cli(capsys, "solve", path, "--R", "-")
        assert code == 0
        assert record_value(out) == 2

    def test_zero_bound_minimax_decision(self, write, capsys):
        text = FIG1.replace("4 3 1 - cc sum", "4 3 1 0 cc minimax")
        path = write("r0.elect", text)
        code, _, err = run_cli(capsys, "solve", path, "--solver", "minimax-r0")
        assert code == 1
        assert "infeasible" in err
        code, out, _ = run_cli(
            capsys, "solve", path, "--solver", "minimax-r0", "--k", "3"
        )
        assert code == 0
        assert record_value(out) == 0

    def test_branch_and_constant_solvers_on_the_sum_objective(self, write, capsys):
        path = write("f.elect", FIG1)
        for solver in ("branch-rk", "constant-r"):
            code, out, _ = run_cli(capsys, "solve", path, "--solver", solver)
            assert code == 0, solver
            assert record_value(out) == 2

    def test_forced_sp_solver_without_an_axis(self, write, capsys):
        path = write("n.elect", NOT_SINGLE_PEAKED)
        code, _, err = run_cli(capsys, "solve", path, "--solver", "sp-dp")
        assert code == 2
        assert "not single-peaked" in err

    def test_parse_errors_name_the_file_and_line(self, write, capsys):
        path = write("bad.elect", FIG1.replace("c2 c3 c4 c1", "c2 c3 c4 c2"))
        code, out, err = run_cli(capsys, "solve", path)
        assert code == 2
        assert out == ""
        assert "bad.elect" in err and "line 8" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "/no/such/file.elect")
        assert code == 2
        assert "file.elect" in err

    def test_rejected_flag_value(self, write, capsys):
        path = write("f.elect", FIG1)
        assert run_cli(capsys, "solve", path, "--solver", "quantum")[0] == 2
        assert run_cli(capsys, "solve", path, "--k", "9")[0] == 2
        assert run_cli(capsys, "solve", path, "--R", "x")[0] == 2

    def test_budget_exhaustion_exits_3(self, write, capsys):
        election = random_election(random.Random(1), 25, 4)
        matrix = build_misrep(election, BordaMisrep())
        instance = ProblemInstance(
            election, matrix, Rule.CC, Objective.SUM, 2,
            worst_bound(matrix, Objective.SUM),
        )
        path = write("big.elect", render_instance(instance))
        code, _, err = run_cli(capsys, "solve", path, "--solver", "subset-enum")
        assert code == 3
        assert "budget" in err and "--budget-" in err
        code, out, _ = run_cli(
            capsys, "solve", path, "--solver", "subset-enum",
            "--budget-subset-candidates", "25",
        )
        assert code == 0

    @pytest.mark.parametrize(
        "solver, code",
        [
            ("subset-enum", 0),
            ("branch-rk", 0),
            ("constant-r", 3),  # its bound cap
            ("monroe-rk", 2),  # wrong rule
            ("sp-greedy", 2),  # wrong objective
        ],
    )
    def test_sum_bounds_past_sys_maxsize(self, write, capsys, solver, code):
        path = write("huge.elect", HUGE_ENTRIES)
        result, out, err = run_cli(capsys, "solve", path, "--solver", solver)
        assert result == code, err
        if code == 0:
            assert record_value(out) == 10**19
        else:
            assert out == ""

    @pytest.mark.parametrize("solver", ["subset-enum", "auto"])
    def test_zero_seconds_stop_monroe_enumeration(self, tmp_path, capsys, solver):
        path = str(tmp_path / "monroe.elect")
        assert main([
            "gen", "random", "--m", "9", "--n", "24", "--k", "3", "--rule", "monroe",
            "--out", path,
        ]) == 0
        capsys.readouterr()
        code, out, err = run_cli(
            capsys, "solve", path, "--solver", solver, "--budget-seconds", "0"
        )
        assert (code, out) == (3, "")
        assert err.splitlines()[0] == "budget exceeded: wall-clock budget exhausted"

    def test_zero_seconds_stop_cc_enumeration(self, tmp_path, capsys):
        path = str(tmp_path / "cc.elect")
        assert main([
            "gen", "random", "--m", "16", "--n", "40", "--k", "4", "--rule", "cc",
            "--out", path,
        ]) == 0
        capsys.readouterr()
        code, out, err = run_cli(
            capsys, "solve", path, "--solver", "subset-enum", "--budget-seconds", "0"
        )
        assert (code, out) == (3, "")
        lines = err.splitlines()
        assert lines[0] == "budget exceeded: wall-clock budget exhausted"
        assert sum(line.startswith("budget exceeded:") for line in lines) == 1

    def test_zero_seconds_stop_the_stabbing_dp(self, tmp_path, capsys):
        path = str(tmp_path / "stab.elect")
        assert main([
            "gen", "single-peaked", "--m", "6", "--n", "24", "--k", "2",
            "--rule", "monroe", "--misrep", "approval", "--seed", "1",
            "--out", path,
        ]) == 0
        capsys.readouterr()
        code, out, err = run_cli(
            capsys, "solve", path, "--solver", "sp-stab", "--budget-seconds", "0"
        )
        assert (code, out) == (3, "")
        lines = err.splitlines()
        assert lines[0] == "budget exceeded: wall-clock budget exhausted"
        assert sum(line.startswith("budget exceeded:") for line in lines) == 1

    @pytest.mark.parametrize(
        "objective, solver",
        [("sum", "sp-dp"), ("sum", "auto"), ("minimax", "sp-greedy"), ("minimax", "auto")],
    )
    def test_zero_seconds_stop_the_single_peaked_cc_solvers(
        self, tmp_path, capsys, objective, solver
    ):
        path = str(tmp_path / "sp.elect")
        assert main([
            "gen", "single-peaked", "--m", "60", "--n", "1000", "--k", "4",
            "--objective", objective, "--seed", "1", "--out", path,
        ]) == 0
        capsys.readouterr()
        code, out, err = run_cli(
            capsys, "solve", path, "--solver", solver, "--budget-seconds", "0"
        )
        assert (code, out) == (3, "")
        lines = err.splitlines()
        assert lines[0] == "budget exceeded: wall-clock budget exhausted"
        assert sum(line.startswith("budget exceeded:") for line in lines) == 1

    @pytest.mark.parametrize("spent, answered", [(2.0, False), (0.5, True)])
    def test_auto_solvers_share_one_deadline(
        self, tmp_path, capsys, monkeypatch, spent, answered
    ):
        # C(20, 10) committees cost more than the stabbing table's key
        # space, so auto tries sp-stab first.
        path = str(tmp_path / "stab.elect")
        assert main([
            "gen", "single-peaked", "--m", "20", "--n", "20", "--k", "10",
            "--rule", "monroe", "--misrep", "approval", "--seed", "1",
            "--out", path,
        ]) == 0
        capsys.readouterr()
        clock = [100.0]
        monkeypatch.setattr(time, "monotonic", lambda: clock[0])

        def stabbing_that_runs_out(instance, axis, budget):
            clock[0] += spent
            raise BudgetExceededError("wall-clock budget exhausted")

        monkeypatch.setattr(solving, "solve_monroe_sum_sp", stabbing_that_runs_out)
        enumerations = counting(monkeypatch, solving, "solve_subset_enum")
        code, out, err = run_cli(capsys, "solve", path, "--budget-seconds", "1.5")
        if answered:
            assert code == 0 and "solver subset-enum" in out
            # subset-enum gets the solve's own budget, whose clock started
            # at 100.0, so its 1.5 s run out at 101.5.
            ((_, budget),) = enumerations
            clock[0] = 101.4
            budget.check()
            clock[0] = 101.6
            with pytest.raises(BudgetExceededError):
                budget.check()
        else:
            assert (code, out, enumerations) == (3, "", [])
            lines = err.splitlines()
            assert lines[0] == "budget exceeded: wall-clock budget exhausted"
            assert sum(line.startswith("budget exceeded:") for line in lines) == 1

    def test_bound_probes_share_one_deadline(self, tmp_path, capsys, monkeypatch):
        # Each branch-rk probe takes 0.4 s on a fake clock; the bound search
        # needs a dozen, so a 1 s budget runs out on the third.
        path = str(tmp_path / "cc.elect")
        assert main([
            "gen", "random", "--m", "12", "--n", "14", "--k", "3", "--seed", "1",
            "--out", path,
        ]) == 0
        capsys.readouterr()
        clock = [100.0]
        monkeypatch.setattr(time, "monotonic", lambda: clock[0])
        probes = []
        original = solving.solve_cc_branch_rk

        def slow_probe(instance, budget):
            probes.append(instance.bound)
            clock[0] += 0.4
            return original(instance, budget)

        monkeypatch.setattr(solving, "solve_cc_branch_rk", slow_probe)
        code, out, err = run_cli(
            capsys, "solve", path, "--solver", "branch-rk", "--budget-seconds", "1.0"
        )
        assert (code, out) == (3, "")
        assert len(probes) <= 3
        lines = err.splitlines()
        assert lines[0] == "budget exceeded: wall-clock budget exhausted"
        assert sum(line.startswith("budget exceeded:") for line in lines) == 1

    @pytest.mark.parametrize("command", ["solve", "bench"])
    @pytest.mark.parametrize("seconds", ["nan", "-1"])
    def test_budget_seconds_must_be_nonnegative(
        self, tmp_path, capsys, command, seconds
    ):
        (tmp_path / "fig.elect").write_text(FIG1)
        target = str(tmp_path / "fig.elect" if command == "solve" else tmp_path)
        code, out, err = run_cli(capsys, command, target, "--budget-seconds", seconds)
        assert (code, out) == (2, "")
        assert err == "--budget-seconds must be a nonnegative number\n"

    @pytest.mark.parametrize("command", ["solve", "bench"])
    @pytest.mark.parametrize(
        "flag",
        [
            "--budget-subset-candidates",
            "--budget-partition-voters",
            "--budget-constant-bound",
        ],
    )
    def test_integer_budget_caps_must_be_nonnegative(
        self, tmp_path, capsys, command, flag
    ):
        (tmp_path / "fig.elect").write_text(FIG1)
        target = str(tmp_path / "fig.elect" if command == "solve" else tmp_path)
        code, out, err = run_cli(capsys, command, target, flag, "-1")
        assert (code, out, err) == (2, "", f"{flag} must be a nonnegative integer\n")
        assert run_cli(capsys, command, target, flag, "0")[0] != 2  # zero is a cap

    def test_all_approve_profile_deeper_than_the_stack_is_answered(
        self, write, capsys
    ):
        # 1499 voters approving all three candidates and one approving c2
        # and c3, which keeps the stabbing table: it chains 1500 intervals
        # on one line, past the interpreter's default stack.
        text = (
            "proprep v1\n3 1500 1 - monroe sum approval\nc1\nc2\nc3\n"
            + "c1 c2 c3\n" * 1499
            + "c2 c3 c1\n"
            + "#approve\n"
            + "c1 c2 c3\n" * 1499
            + "c2 c3\n"
        )
        instance_path = write("all-approve.elect", text)
        code, out, err = run_cli(
            capsys, "solve", instance_path, "--solver", "sp-stab"
        )
        assert code == 0, err
        assert "solver sp-stab" in out.splitlines()
        assert record_value(out) == 0
        solution_path = write("all-approve.sol", out)
        code, out, _ = run_cli(capsys, "verify", instance_path, solution_path)
        assert code == 0
        # auto enumerates the three committees instead of filling the table.
        code, out, err = run_cli(capsys, "solve", instance_path)
        assert code == 0, err
        assert record_value(out) == 0
        solution_path = write("all-approve-auto.sol", out)
        code, out, _ = run_cli(capsys, "verify", instance_path, solution_path)
        assert code == 0

    def test_zero_seconds_stop_the_all_approve_profile(self, write, capsys):
        # The stabbing instance spans the whole axis and is answered without
        # a table, but still not past the budget.
        instance_path = write("all-approve.elect", ALL_APPROVE)
        code, out, err = run_cli(
            capsys, "solve", instance_path, "--budget-seconds", "0"
        )
        assert (code, out) == (3, "")
        assert err.splitlines()[0] == "budget exceeded: wall-clock budget exhausted"

    def test_one_voter_over_1200_candidates_is_answered(self, write, capsys):
        # Axis detection places candidates in a loop, so an axis as long as
        # this one needs no stack depth.
        names = [f"c{i}" for i in range(1200)]
        text = "proprep v1\n1200 1 1 - cc sum borda\n" + "\n".join(names) + "\n"
        instance_path = write("long-axis.elect", text + " ".join(names) + "\n")
        code, out, err = run_cli(capsys, "solve", instance_path)
        assert code == 0, err
        solution_path = write("long-axis.sol", out)
        code, out, _ = run_cli(capsys, "verify", instance_path, solution_path)
        assert code == 0
        assert "all checks passed" in out

    def test_monroe_witness_over_2000_voters_is_answered(self, tmp_path, capsys):
        # The witness is the value scorer's seating, so seating 2000 voters
        # costs one `_seat` run, not one Dijkstra per voter.
        # Seating reads no clock, so the budget alone would not catch a slow
        # witness: the wall time is checked against it too.
        instance_path = str(tmp_path / "n2000.elect")
        argv = ["random", "--m", "20", "--n", "2000", "--k", "2", "--rule", "monroe"]
        assert main(["gen", *argv, "--seed", "1", "--out", instance_path]) == 0
        capsys.readouterr()
        started = time.perf_counter()
        code, out, err = run_cli(
            capsys, "solve", instance_path, "--budget-seconds", "2"
        )
        assert time.perf_counter() - started < 2
        assert code == 0, err
        solution_path = str(tmp_path / "n2000.sol")
        Path(solution_path).write_text(out)
        code, out, _ = run_cli(capsys, "verify", instance_path, solution_path)
        assert code == 0
        assert "all checks passed" in out

    def test_zero_seconds_stop_minimax_r0(self, tmp_path, capsys, monkeypatch):
        # Three Borda voters with three seats always meet bound 0, so only
        # the clock can stop the solve.  Each read of the patched clock is
        # 1 s later.
        path = str(tmp_path / "r0.elect")
        assert main([
            "gen", "random", "--m", "25", "--n", "3", "--k", "3",
            "--objective", "minimax", "--bound", "0", "--seed", "1",
            "--out", path,
        ]) == 0
        capsys.readouterr()
        assert run_cli(capsys, "solve", path, "--solver", "minimax-r0")[0] == 0
        reads = []
        clock = SimpleNamespace(monotonic=lambda: reads.append(1) or len(reads))
        monkeypatch.setattr(solvers, "time", clock)
        code, out, err = run_cli(
            capsys, "solve", path, "--solver", "minimax-r0", "--budget-seconds", "0"
        )
        assert (code, out) == (3, "")
        lines = err.splitlines()
        assert lines[0] == "budget exceeded: wall-clock budget exhausted"
        assert sum(line.startswith("budget exceeded:") for line in lines) == 1

    def test_partition_enum_at_a_raised_cap_ends_on_the_clock(
        self, tmp_path, capsys, monkeypatch
    ):
        # A partition of 1500 voters is 1500 search nodes deep; they wait on
        # the runner's list, not on the interpreter's stack, so the clock
        # ends the search.  Each read of the patched clock is 1 s later.
        path = str(tmp_path / "n1500.elect")
        assert main([
            "gen", "random", "--m", "3", "--n", "1500", "--k", "2",
            "--rule", "monroe", "--seed", "1", "--out", path,
        ]) == 0
        capsys.readouterr()
        reads = []
        clock = SimpleNamespace(monotonic=lambda: reads.append(1) or len(reads))
        monkeypatch.setattr(solvers, "time", clock)
        code, out, err = run_cli(
            capsys, "solve", path, "--solver", "partition-enum",
            "--budget-partition-voters", "3000", "--budget-seconds", "5",
        )
        assert (code, out) == (3, "")
        assert err.splitlines()[0] == "budget exceeded: wall-clock budget exhausted"

    def test_auto_matches_enumeration_on_small_instances(self, write, capsys):
        cases = itertools.product(
            [0, 1, 2], list(Rule), list(Objective), ["borda", "approval"]
        )
        for seed, rule, objective, kind in cases:
            rng = random.Random(seed)
            election = random_election(rng, 5, 4)
            if kind == "borda":
                matrix = build_misrep(election, BordaMisrep())
            else:
                matrix = build_misrep(
                    election, ApprovalMisrep(random_prefix_approvals(rng, election))
                )
            instance = ProblemInstance(
                election, matrix, rule, objective, 2,
                worst_bound(matrix, objective),
            )
            path = write(f"{seed}{rule.value}{objective.value}{kind}.elect",
                         render_instance(instance))
            code, out, _ = run_cli(capsys, "solve", path)
            assert code == 0
            auto_value = record_value(out)
            code, out, _ = run_cli(capsys, "solve", path, "--solver", "subset-enum")
            assert code == 0
            assert record_value(out) == auto_value

    def test_stdout_is_byte_stable(self, write, capsys):
        path = write("f.elect", FIG1)
        first = run_cli(capsys, "solve", path)
        second = run_cli(capsys, "solve", path)
        assert first[1] == second[1]

    def test_solve_output_passes_verification(self, write, capsys):
        instance_path = write("b.elect", BALANCED6)
        code, out, _ = run_cli(capsys, "solve", instance_path)
        assert code == 0
        solution_path = write("b.sol", out)
        code, out, _ = run_cli(capsys, "verify", instance_path, solution_path)
        assert code == 0
        assert "all checks passed" in out

    @pytest.mark.parametrize(
        "flags, code, value",
        [
            (("--rule", "cc"), 0, 0),
            (("--objective", "minimax"), 0, 1),
            (("--rule", "cc", "--objective", "minimax", "--R", "0"), 0, 0),
            (("--objective", "minimax", "--R", "0"), 1, None),
        ],
    )
    def test_rule_and_objective_overrides(self, write, capsys, flags, code, value):
        # The file says monroe sum, k=3, whose value is 2.
        path = write("b.elect", BALANCED6)
        found, out, err = run_cli(capsys, "solve", path, *flags)
        assert found == code
        if value is None:
            assert out == ""
            assert "infeasible: no outcome has value <= 0 (monroe, minimax, k=3)" in err
        else:
            assert record_value(out) == value

    @pytest.mark.parametrize("seed, code", [(1, 0), (2, 1)])
    def test_auto_reaches_minimax_r0(self, tmp_path, capsys, seed, code):
        # CC minimax at bound 0 on a profile with no axis: every solver auto
        # tries before minimax-r0 passes on it.
        path = str(tmp_path / "r0.elect")
        assert run_cli(
            capsys, "gen", "random", "--m", "6", "--n", "8", "--k", "4",
            "--rule", "cc", "--objective", "minimax", "--bound", "0",
            "--seed", str(seed), "--out", path,
        )[0] == 0
        assert run_cli(capsys, "detect-axis", path)[0] == 1
        found, out, err = run_cli(capsys, "solve", path)
        assert found == code
        if code == 1:
            assert out == ""
            assert "infeasible: no outcome has value <= 0 (cc, minimax, k=4)" in err
            return
        assert "solver minimax-r0" in out
        assert record_value(out) == 0
        solution_path = str(tmp_path / "r0.sol")
        Path(solution_path).write_text(out)
        assert run_cli(capsys, "verify", path, solution_path)[0] == 0


class TestDetectAxis:
    def test_prints_the_axis(self, write, capsys):
        code, out, _ = run_cli(capsys, "detect-axis", write("f.elect", FIG1))
        assert code == 0
        assert out == "c1 c2 c3 c4\n"

    def test_reports_elections_without_an_axis(self, write, capsys):
        path = write("n.elect", NOT_SINGLE_PEAKED)
        code, out, _ = run_cli(capsys, "detect-axis", path)
        assert code == 1
        assert out == "not single-peaked\n"

    def test_single_candidate_is_trivially_on_an_axis(self, write, capsys):
        text = "proprep v1\n1 1 1 - cc sum borda\nsolo\nsolo\n"
        code, out, _ = run_cli(capsys, "detect-axis", write("s.elect", text))
        assert code == 0
        assert out == "solo\n"

    def test_cycle_under_a_long_tail_is_rejected_without_search(self, write, capsys):
        instance = instance_for(cycle_under_tail(40), Rule.CC, Objective.SUM, 1)
        path = write("cycle.elect", render_instance(instance))
        with time_limit(5):
            code, out, _ = run_cli(capsys, "detect-axis", path)
        assert (code, out) == (1, "not single-peaked\n")


# Each family's needed and rejected flags, in the order they are checked;
# written out here rather than read from `cli.GEN_FAMILIES`, so that a typo
# in the table fails.
GEN_NEEDED = {
    "random": ("m", "n", "k"),
    "single-peaked": ("m", "n", "k"),
    "hs-approval": ("universe", "set", "k"),
    "hs-borda": ("universe", "set", "k"),
    "vc-minimax": ("edge", "k"),
    "rx3c-monroe": ("n",),
}
GEN_REJECTED = {
    "random": ("universe", "set", "edge"),
    "single-peaked": ("universe", "set", "edge"),
    "hs-approval": ("m", "n", "misrep", "bound", "edge"),
    "hs-borda": ("m", "n", "misrep", "bound", "edge"),
    "vc-minimax": ("m", "n", "universe", "set", "misrep"),
    "rx3c-monroe": ("m", "k", "bound", "rule", "objective", "misrep", "universe", "edge"),
}
GEN_FLAGS = {
    "m": ["--m", "3"],
    "n": ["--n", "3"],
    "k": ["--k", "1"],
    "seed": ["--seed", "4"],
    "rule": ["--rule", "monroe"],
    "objective": ["--objective", "minimax"],
    "misrep": ["--misrep", "approval"],
    "bound": ["--bound", "1"],
    "universe": ["--universe", "3"],
    "set": ["--set", "0,1,2"] * 3,
    "edge": ["--edge", "0,1", "--edge", "1,2"],
}


def gen_argv(flags) -> list[str]:
    return [token for flag in flags for token in GEN_FLAGS[flag]]


class TestGen:
    def test_fixed_seed_is_byte_identical(self, capsys):
        argv = ("gen", "single-peaked", "--m", "5", "--n", "6", "--k", "2",
                "--seed", "7")
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv)

    def test_different_seeds_differ(self, capsys):
        base = ("gen", "random", "--m", "4", "--n", "6", "--k", "2", "--seed")
        assert run_cli(capsys, *base, "0")[1] != run_cli(capsys, *base, "1")[1]

    def test_random_family_defaults(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "random", "--m", "4", "--n", "5", "--k", "2"
        )
        assert code == 0
        instance = parse_instance(out)
        assert (instance.election.m, instance.election.n, instance.k) == (4, 5, 2)
        assert (instance.rule, instance.objective) == (Rule.CC, Objective.SUM)
        assert instance.election.candidates == ("c1", "c2", "c3", "c4")

    def test_approval_tables_get_a_block(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "random", "--m", "4", "--n", "5", "--k", "2",
            "--misrep", "approval", "--rule", "monroe",
        )
        assert code == 0
        assert "#approve" in out
        assert parse_instance(out).rule is Rule.MONROE

    def test_single_peaked_family_is_single_peaked(self, capsys):
        from proprep.single_peaked import detect_axis

        code, out, _ = run_cli(
            capsys, "gen", "single-peaked", "--m", "6", "--n", "5", "--k", "2"
        )
        assert code == 0
        instance = parse_instance(out)
        assert detect_axis(instance.election) is not None
        assert instance.election.candidates[0] == "c1"

    def test_single_peaked_family_builds_one_election(self, capsys, monkeypatch):
        # The votes of `sample_single_peaked_election`, from the same draws,
        # go straight into the election named c1.., which is built once.
        built = counting(monkeypatch, core.Election, "__post_init__")
        code, out, _ = run_cli(
            capsys, "gen", "single-peaked", "--m", "6", "--n", "40", "--k", "2",
            "--seed", "3",
        )
        assert code == 0 and len(built) == 1
        sampled, _ = single_peaked.sample_single_peaked_election(random.Random(3), 6, 40)
        assert parse_instance(out).election.votes == sampled.votes

    def test_approval_instances_are_written_without_ranking(self, capsys, monkeypatch):
        # Only a Borda table needs the ranks, and an approval-shaped table
        # over more than two candidates is never one.
        ranked_votes = counting(monkeypatch, core, "_inverse")
        code, out, _ = run_cli(
            capsys, "gen", "single-peaked", "--m", "6", "--n", "200", "--k", "2",
            "--rule", "monroe", "--misrep", "approval",
        )
        assert code == 0 and "#approve" in out
        assert ranked_votes == []

    def test_exact_cover_family_shape(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "rx3c-monroe", "--n", "3")
        assert code == 0
        instance = parse_instance(out)
        assert (instance.election.m, instance.election.n) == (6, 12)
        assert (instance.k, instance.bound) == (4, 18)
        assert (instance.rule, instance.objective) == (Rule.MONROE, Objective.SUM)
        assert "#matrix" in out

    def test_hitting_set_approval_family_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "hs-approval", "--universe", "3",
            "--set", "0,1", "--set", "1,2", "--k", "1",
        )
        assert code == 0
        instance = parse_instance(out)
        assert (instance.election.m, instance.election.n) == (3, 2)
        assert instance.bound == 0

    def test_hitting_set_positional_family_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "hs-borda", "--universe", "2",
            "--set", "0", "--set", "1", "--k", "1",
        )
        assert code == 0
        instance = parse_instance(out)
        assert (instance.election.m, instance.election.n) == (10, 2)
        assert instance.bound == 4

    def test_vertex_cover_family_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "vc-minimax", "--edge", "0,1", "--k", "1",
            "--bound", "2",
        )
        assert code == 0
        instance = parse_instance(out)
        assert (instance.election.m, instance.election.n) == (3, 1)
        assert instance.bound == 2
        assert instance.objective is Objective.MINIMAX

    def test_out_flag_writes_the_file(self, capsys, tmp_path):
        target = tmp_path / "gen.elect"
        code, out, _ = run_cli(
            capsys, "gen", "random", "--m", "3", "--n", "3", "--k", "1",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert parse_instance(target.read_text()).election.m == 3

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "gen", "random", "--n", "5", "--k", "2")
        assert code == 2
        assert "--m" in err

    def test_inapplicable_flag(self, capsys):
        code, _, err = run_cli(capsys, "gen", "rx3c-monroe", "--n", "3", "--k", "2")
        assert code == 2
        assert "--k" in err and "does not apply" in err

    @pytest.mark.parametrize(
        "family, index",
        [(family, i) for family, flags in GEN_REJECTED.items() for i in range(len(flags))],
    )
    def test_every_rejected_flag_in_order(self, capsys, family, index):
        flag, *later = GEN_REJECTED[family][index:]
        argv = gen_argv(GEN_NEEDED[family] + (flag, *later))
        assert run_cli(capsys, "gen", family, *argv) == (
            2, "", f"--{flag} does not apply to the {family} family\n"
        )

    @pytest.mark.parametrize(
        "family, index",
        [(family, i) for family, flags in GEN_NEEDED.items() for i in range(len(flags))],
    )
    def test_every_needed_flag_in_order(self, capsys, family, index):
        needed = GEN_NEEDED[family]
        flag = needed[index]
        # The flags after the missing one are omitted too, and every
        # rejected flag is given: the first missing needed flag is reported.
        argv = gen_argv(needed[:index] + GEN_REJECTED[family])
        assert run_cli(capsys, "gen", family, *argv) == (
            2, "", f"the {family} family requires --{flag}\n"
        )

    @pytest.mark.parametrize("family", GEN_NEEDED)
    def test_every_other_flag_is_accepted(self, capsys, family):
        others = tuple(
            flag for flag in GEN_FLAGS
            if flag not in GEN_NEEDED[family] + GEN_REJECTED[family]
        )
        argv = gen_argv(GEN_NEEDED[family] + others)
        code, out, err = run_cli(capsys, "gen", family, *argv)
        assert (code, err) == (0, "")
        assert parse_instance(out).election.n > 0

    @pytest.mark.parametrize("text", ["-1", "x", "1.5", "", " -2", "--"])
    def test_bad_bound_values(self, write, capsys, text):
        argv = gen_argv(GEN_NEEDED["random"]) + [f"--bound={text}"]
        assert run_cli(capsys, "gen", "random", *argv) == (
            2, "", "--bound must be a nonnegative integer or '-'\n"
        )
        path = write("f.elect", FIG1)
        assert run_cli(capsys, "solve", path, f"--R={text}") == (
            2, "", "--R must be a nonnegative integer or '-'\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("hs-approval", "--universe", "3", "--set", "1,x", "--k", "1"),
                "--set expects comma-separated integers, got '1,x'",
            ),
            (
                ("vc-minimax", "--edge", "0,1", "--k", "1", "--objective", "sum"),
                "the vc-minimax family always uses the minimax objective",
            ),
            *(
                (
                    (family, "--m", m, "--n", n, "--k", "1"),
                    "error: need at least one candidate and one voter",
                )
                for family in ("random", "single-peaked")
                for m, n in (("0", "3"), ("3", "0"))
            ),
        ],
    )
    def test_bad_family_inputs(self, capsys, argv, message):
        assert run_cli(capsys, "gen", *argv) == (2, "", message + "\n")

    def test_generator_caps_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "gen", "hs-borda", "--universe", "5", "--set", "0", "--k", "1"
        )
        assert code == 3
        assert err.startswith("budget exceeded: ")
        # gen has neither --budget-* caps nor --solver to suggest.
        assert "--budget" not in err
        assert "--solver" not in err


class TestVerify:
    def test_reports_every_check(self, write, capsys):
        instance_path = write("b.elect", BALANCED6)
        _, out, _ = run_cli(capsys, "solve", instance_path)
        solution_path = write("b.sol", out)
        code, out, _ = run_cli(capsys, "verify", instance_path, solution_path)
        assert code == 0
        for name in ("winner-set", "mapping", "objective-value", "bound", "balance"):
            assert f"{name}: pass" in out

    def test_tampered_value_fails(self, write, capsys):
        instance_path = write("b.elect", BALANCED6)
        _, out, _ = run_cli(capsys, "solve", instance_path)
        solution_path = write("b.sol", out.replace("value 2", "value 1"))
        code, out, _ = run_cli(capsys, "verify", instance_path, solution_path)
        assert code == 1
        assert "objective-value: FAIL" in out
        assert "verification failed" in out

    def test_unbalanced_mapping_fails(self, write, capsys):
        instance_path = write("b.elect", BALANCED6)
        record = (
            "proprep-solution v1\n"
            "value 3\n"
            "m-criterion false\n"
            "winners a b c\n"
            "assignment a a a a a b\n"
        )
        code, out, _ = run_cli(capsys, "verify", instance_path, write("u.sol", record))
        assert code == 1
        assert "balance: FAIL" in out

    def test_malformed_solution_names_the_file(self, write, capsys):
        instance_path = write("b.elect", BALANCED6)
        code, _, err = run_cli(
            capsys, "verify", instance_path, write("u.sol", "gibberish\n")
        )
        assert code == 2
        assert "u.sol" in err


def run_quietly(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one run, for tests that cannot take capsys."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def solve_generated(gen: list[str], options: list[str]) -> float:
    """Generate one case, solve it and verify an answer; the solve's seconds.

    The solve must end in exit 0-3, and an exit-0 answer must pass
    ``verify``.
    """
    with tempfile.TemporaryDirectory() as directory:
        instance_path = os.path.join(directory, "case.elect")
        code, _ = run_quietly(["gen", *gen, "--out", instance_path])
        assert code == 0
        start = time.perf_counter()
        code, out = run_quietly(["solve", instance_path, *options])
        elapsed = time.perf_counter() - start
        assert code in (0, 1, 2, 3)
        if code == 0:
            solution_path = os.path.join(directory, "case.sol")
            with open(solution_path, "w") as handle:
                handle.write(out)
            code, out = run_quietly(["verify", instance_path, solution_path])
            assert (code, out.splitlines()[-1]) == (0, "all checks passed")
    return elapsed


class TestAnyRun:
    @settings(max_examples=120, deadline=None)
    @given(
        family=st.sampled_from(["random", "single-peaked"]),
        m=st.integers(1, 6),
        n=st.integers(1, 6),
        seed=st.integers(0, 999),
        rule=st.sampled_from([rule.value for rule in Rule]),
        objective=st.sampled_from([objective.value for objective in Objective]),
        misrep=st.sampled_from(["borda", "approval"]),
        solver=st.sampled_from(("auto",) + tuple(SOLVERS)),
        bound=st.one_of(st.just("-"), st.integers(0, 12).map(str)),
        data=st.data(),
    )
    def test_ends_in_an_exit_code_and_answers_verify(
        self, family, m, n, seed, rule, objective, misrep, solver, bound, data
    ):
        k = data.draw(st.integers(1, min(m, n)), label="k")
        solve_generated(
            [
                family, "--m", str(m), "--n", str(n), "--k", str(k),
                "--seed", str(seed), "--rule", rule, "--objective", objective,
                "--misrep", misrep,
            ],
            ["--solver", solver, "--R", bound],
        )


class TestAnyLargeRun:
    # A size ladder under a small budget: every solver stops at its budget,
    # so each run ends within it plus SLACK, or answers sooner.
    BUDGET, SLACK = 0.2, 0.3

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["random", "single-peaked"]),
        m=st.integers(2, 60),
        n=st.integers(5, 200),
        seed=st.integers(0, 999),
        rule=st.sampled_from([rule.value for rule in Rule]),
        objective=st.sampled_from([objective.value for objective in Objective]),
        misrep=st.sampled_from(["borda", "approval"]),
        solver=st.sampled_from(("auto",) + tuple(SOLVERS)),
        data=st.data(),
    )
    def test_ends_within_the_budget_and_answers_verify(
        self, family, m, n, seed, rule, objective, misrep, solver, data
    ):
        k = data.draw(st.integers(1, min(m, n)), label="k")
        elapsed = solve_generated(
            [
                family, "--m", str(m), "--n", str(n), "--k", str(k),
                "--seed", str(seed), "--rule", rule, "--objective", objective,
                "--misrep", misrep,
            ],
            ["--solver", solver, "--budget-seconds", str(self.BUDGET)],
        )
        assert elapsed < self.BUDGET + self.SLACK


@st.composite
def huge_entry_instances(draw):
    """An explicit table over m, n <= 4 whose entries reach 2**70, each row
    nondecreasing along its voter's ranking."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.one_of(st.integers(0, 3), st.integers(0, 2**70), st.just(2**70))
    votes, rows = [], []
    for _ in range(n):
        vote = draw(st.permutations(range(m)))
        entries = sorted(draw(st.lists(entry, min_size=m, max_size=m)))
        row = [0] * m
        for place, candidate in enumerate(vote):
            row[candidate] = entries[place]
        votes.append(tuple(vote))
        rows.append(tuple(row))
    election = Election(tuple(f"c{i}" for i in range(m)), tuple(votes))
    matrix = build_misrep(election, ExplicitMisrep(tuple(rows)))
    rule = draw(st.sampled_from(list(Rule)))
    objective = draw(st.sampled_from(list(Objective)))
    k = draw(st.integers(1, min(m, n)))
    bound = worst_bound(matrix, objective)
    return ProblemInstance(election, matrix, rule, objective, k, bound)


class TestAnyHugeRun:
    @settings(max_examples=120, deadline=None)
    @given(
        instance=huge_entry_instances(),
        solver=st.sampled_from(("auto",) + tuple(SOLVERS)),
        bound=st.one_of(st.just("-"), st.integers(0, 2**72).map(str)),
    )
    def test_ends_in_an_exit_code_and_answers_verify(self, instance, solver, bound):
        with tempfile.TemporaryDirectory() as directory:
            instance_path = os.path.join(directory, "case.elect")
            with open(instance_path, "w") as handle:
                handle.write(render_instance(instance))
            code, out = run_quietly([
                "solve", instance_path, "--solver", solver, "--R", bound,
                "--budget-seconds", "2",
            ])
            assert code in (0, 1, 2, 3)
            if code == 0:
                solution_path = os.path.join(directory, "case.sol")
                with open(solution_path, "w") as handle:
                    handle.write(out)
                code, out = run_quietly(["verify", instance_path, solution_path])
                assert (code, out.splitlines()[-1]) == (0, "all checks passed")


class TestBench:
    def test_clean_corpus_has_no_disagreements(self, tmp_path, capsys):
        (tmp_path / "a_fig.elect").write_text(FIG1)
        (tmp_path / "b_bal.elect").write_text(BALANCED6)
        (tmp_path / "ignored.txt").write_text("not an instance")
        code, out, err = run_cli(capsys, "bench", str(tmp_path))
        assert code == 0
        assert "disagreement" not in err
        assert "a_fig.elect auto ok value=2" in out
        assert "a_fig.elect subset-enum ok value=2" in out
        assert "a_fig.elect sp-dp ok value=2" in out
        assert "b_bal.elect sp-stab skipped" in out
        assert "ignored.txt" not in out

    def test_rows_come_out_sorted_by_file(self, tmp_path, capsys):
        (tmp_path / "z.elect").write_text(FIG1)
        (tmp_path / "a.elect").write_text(FIG1)
        _, out, _ = run_cli(capsys, "bench", str(tmp_path))
        names = [line.split()[0] for line in out.splitlines()]
        assert names == sorted(names)

    def test_empty_directory(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "bench", str(tmp_path))
        assert code == 0
        assert out == ""

    def test_missing_directory(self, capsys):
        code, _, err = run_cli(capsys, "bench", "/no/such/dir")
        assert code == 2
        assert "not a directory" in err

    def test_unreadable_file_is_named_as_solve_names_it(self, tmp_path, capsys):
        (tmp_path / "d.elect").mkdir()
        path = str(tmp_path / "d.elect")
        solved = run_cli(capsys, "solve", path)
        assert solved == (2, "", f"{path}: Is a directory\n")
        assert run_cli(capsys, "bench", str(tmp_path)) == solved

    def test_oversized_instances_are_skipped_not_fatal(self, tmp_path, capsys):
        rng = random.Random(3)
        election = random_election(rng, 25, 4)
        matrix = build_misrep(election, BordaMisrep())
        instance = ProblemInstance(
            election, matrix, Rule.CC, Objective.SUM, 2,
            worst_bound(matrix, Objective.SUM),
        )
        (tmp_path / "big.elect").write_text(render_instance(instance))
        code, out, _ = run_cli(capsys, "bench", str(tmp_path))
        assert code == 0
        assert "big.elect auto skipped (budget" in out
        assert "big.elect partition-enum ok" in out


    def test_every_row_gets_the_whole_budget(self, tmp_path, capsys, monkeypatch):
        # Both enumerations take 0.6 s on a fake clock: together they pass
        # the 1 s budget, but each row has a clock of its own.
        (tmp_path / "a_fig.elect").write_text(FIG1)
        clock = [100.0]
        monkeypatch.setattr(time, "monotonic", lambda: clock[0])
        for name in ("solve_subset_enum", "solve_partition_enum"):
            original = getattr(solving, name)

            def slow(instance, budget, original=original):
                clock[0] += 0.6
                return original(instance, budget)

            monkeypatch.setattr(solving, name, slow)
        code, out, _ = run_cli(
            capsys, "bench", str(tmp_path), "--budget-seconds", "1.0"
        )
        assert code == 0
        assert "a_fig.elect subset-enum ok value=2" in out
        assert "a_fig.elect partition-enum ok value=2" in out
        assert "skipped" not in out

    def test_every_witness_is_verified(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "a_fig.elect").write_text(FIG1)
        (tmp_path / "b_bal.elect").write_text(BALANCED6)
        verified = counting(monkeypatch, cli, "verify_solution")
        code, out, err = run_cli(capsys, "bench", str(tmp_path))
        assert (code, err) == (0, "")
        assert len(verified) == sum(" ok value=" in line for line in out.splitlines())

    def test_a_wrong_witness_fails_the_bench(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "a_fig.elect").write_text(FIG1)
        original = solving.solve_subset_enum

        def overclaiming(instance, budget):
            solution = original(instance, budget)
            return dataclasses.replace(
                solution, objective_value=solution.objective_value + 1
            )

        monkeypatch.setattr(solving, "solve_subset_enum", overclaiming)
        code, out, err = run_cli(capsys, "bench", str(tmp_path))
        assert code == 1
        assert "a_fig.elect subset-enum ok value=3" in out
        assert "verify failed: a_fig.elect subset-enum: objective-value" in (
            err.splitlines()
        )


def counting(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` with a wrapper that records each call."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestSolverTable:
    def test_solver_choices_are_auto_plus_the_table(self):
        parser = build_parser()
        commands = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        solve = commands.choices["solve"]
        solver = next(action for action in solve._actions if action.dest == "solver")
        assert tuple(solver.choices) == ("auto",) + tuple(
            spec.name for spec in SOLVERS.values()
        )

    def test_bench_looks_for_the_axis_once_per_file(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "a_fig.elect").write_text(FIG1)
        (tmp_path / "b_bal.elect").write_text(BALANCED6)
        (tmp_path / "c_nsp.elect").write_text(NOT_SINGLE_PEAKED)
        calls = counting(monkeypatch, cli, "detect_axis")
        code, out, _ = run_cli(capsys, "bench", str(tmp_path))
        assert code == 0
        assert "a_fig.elect sp-dp ok value=2" in out
        assert len(calls) == 3

    def test_bench_reads_each_row_once_per_file(self, tmp_path, capsys, monkeypatch):
        # FIG1 is a single-peaked cc sum profile of three voters: auto and
        # sp-dp both run on it, and share one reading of its rows.
        (tmp_path / "a_fig.elect").write_text(FIG1)
        reads = counting(monkeypatch, single_peaked, "_trough")
        code, out, _ = run_cli(capsys, "bench", str(tmp_path))
        assert code == 0
        assert "a_fig.elect auto ok value=2" in out
        assert "a_fig.elect sp-dp ok value=2" in out
        assert len(reads) == 3

    def test_solve_looks_for_the_axis_only_when_needed(self, write, capsys, monkeypatch):
        path = write("f.elect", FIG1)
        calls = counting(monkeypatch, solving, "detect_axis")
        for solver, looked in (("auto", 1), ("sp-dp", 1), ("subset-enum", 0)):
            calls.clear()
            code, _, _ = run_cli(capsys, "solve", path, "--solver", solver)
            assert code == 0
            assert len(calls) == looked, solver

    def test_sp_greedy_never_checks_troughedness(self, capsys, monkeypatch):
        code, text, _ = run_cli(
            capsys, "gen", "single-peaked", "--m", "8", "--n", "30", "--k", "2",
            "--objective", "minimax", "--seed", "5",
        )
        assert code == 0
        instance = parse_instance(text)
        calls = counting(monkeypatch, single_peaked, "check_single_troughed")
        probes = counting(monkeypatch, solving, "solve_cc_minimax_sp")
        rows = solving.axis_rows(instance, single_peaked.detect_axis(instance.election))
        name, solution = solving.solve_auto(instance, rows, solving.DEFAULT_BUDGET)
        assert name == "sp-greedy" and solution is not None
        assert len(probes) > 1
        assert len(calls) == 0

    # A small `gen` file that each row suits and answers with a solution.
    ANSWERED = {
        "subset-enum": ["random", "--m", "5", "--n", "4", "--k", "2"],
        "partition-enum": [
            "random", "--m", "4", "--n", "6", "--k", "2", "--rule", "monroe",
        ],
        "branch-rk": ["random", "--m", "5", "--n", "4", "--k", "2"],
        # Four seats hold every voter's top, so the probe at bound 0 answers.
        "constant-r": ["random", "--m", "5", "--n", "4", "--k", "4", "--bound", "3"],
        "monroe-rk": ["random", "--m", "4", "--n", "6", "--k", "2", "--rule", "monroe"],
        "minimax-r0": [
            "random", "--m", "5", "--n", "3", "--k", "3",
            "--objective", "minimax", "--bound", "0",
        ],
        "sp-dp": ["single-peaked", "--m", "6", "--n", "10", "--k", "2"],
        "sp-greedy": [
            "single-peaked", "--m", "6", "--n", "10", "--k", "2", "--objective", "minimax",
        ],
        "sp-stab": [
            "single-peaked", "--m", "6", "--n", "12", "--k", "2",
            "--rule", "monroe", "--misrep", "approval",
        ],
    }

    @pytest.mark.parametrize("name", list(SOLVERS))
    def test_every_solver_stops_once_its_budget_runs_out(
        self, capsys, monkeypatch, name
    ):
        code, text, _ = run_cli(capsys, "gen", *self.ANSWERED[name], "--seed", "1")
        assert code == 0
        instance = parse_instance(text)
        spec = SOLVERS[name]
        axis = single_peaked.detect_axis(instance.election) if spec.axis else None
        rows = solving.axis_rows(instance, axis)
        clock = [100.0]
        monkeypatch.setattr(solvers, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        budget = solvers.SolverBudget(max_seconds=1.0)
        assert spec.why_not(instance, rows, budget) is None
        assert spec.run(instance, rows, budget) is not None
        clock[0] = 102.0
        with pytest.raises(BudgetExceededError, match="wall-clock budget exhausted"):
            spec.run(instance, rows, budget)

    def test_sp_greedy_reads_the_rows_once_per_search(self, capsys, monkeypatch):
        code, text, _ = run_cli(
            capsys, "gen", "single-peaked", "--m", "8", "--n", "30", "--k", "2",
            "--objective", "minimax", "--seed", "5",
        )
        assert code == 0
        instance = parse_instance(text)
        reads = counting(monkeypatch, solving, "AxisRows")
        troughs = counting(monkeypatch, single_peaked, "_trough")
        probes = counting(monkeypatch, solving, "solve_cc_minimax_sp")
        _, solution = solving.solve(instance, "sp-greedy")
        assert solution is not None
        assert len(probes) > 1 and len(reads) == 1
        assert all(args[1] is probes[0][1] for args in probes)
        # Once per distinct row object, and the generated profile repeats rows.
        distinct_rows = len({id(row) for row in instance.matrix.rows})
        assert len(troughs) == distinct_rows < instance.matrix.n

    def test_sp_stab_reads_the_rows_once_per_search(self, capsys, monkeypatch):
        code, text, _ = run_cli(
            capsys, "gen", "single-peaked", "--m", "6", "--n", "24", "--k", "2",
            "--rule", "monroe", "--misrep", "approval", "--objective", "minimax",
            "--seed", "1",
        )
        assert code == 0
        instance = parse_instance(text)
        reads = counting(monkeypatch, solving, "AxisRows")
        troughs = counting(monkeypatch, single_peaked, "_trough")
        probes = counting(monkeypatch, solving, "solve_minimax_m_mw_sp")
        _, solution = solving.solve(instance, "sp-stab")
        assert solution is not None
        assert len(probes) > 1 and len(reads) == 1
        assert all(rows is probes[0][1] for _, rows, _ in probes)
        # Once per distinct row object, and the generated profile repeats rows.
        distinct_rows = len({id(row) for row in instance.matrix.rows})
        assert len(troughs) == distinct_rows < instance.matrix.n

    def test_identical_voters_are_read_once(self, monkeypatch):
        # The all-approve text: 3 candidates, 1500 voters with one ballot.
        names = ("c1", "c2", "c3")
        ranking = " ".join(names) + "\n"
        text = (
            "proprep v1\n3 1500 1 - monroe sum approval\n"
            + "".join(name + "\n" for name in names)
            + ranking * 1500
            + "#approve\n"
            + ranking * 1500
        )
        inverses = counting(monkeypatch, core, "_inverse")
        approval_rows = counting(monkeypatch, core, "_approval_row")
        instance = parse_instance(text)
        assert len(approval_rows) == 1
        assert inverses == []  # only a Borda table reads the ranks
        replayed = []
        distinct = single_peaked.distinct
        monkeypatch.setattr(
            single_peaked,
            "distinct",
            lambda items: replayed.append(len(distinct(items))) or distinct(items),
        )
        assert single_peaked.detect_axis(instance.election) == (0, 1, 2)
        assert replayed == [1]  # the axis search replays one vote
        troughs = counting(monkeypatch, single_peaked, "_trough")
        intervals = counting(monkeypatch, single_peaked.AxisRows, "interval")
        probes = counting(monkeypatch, stabbing, "_axis_cover")
        name, solution = solving.solve(instance, "sp-stab")
        assert (name, solution.objective_value) == ("sp-stab", 0)
        assert len(troughs) == 1
        assert len(probes) == 1 and len(intervals) == len(probes)
        assert inverses == []

    def test_identical_borda_voters_are_ranked_once(self, monkeypatch):
        # The same 1500 voters under a Borda table: their one vote is ranked
        # once, when the table is built, and every voter shares its row.
        ranking = "c1 c2 c3\n"
        text = "proprep v1\n3 1500 1 - monroe sum borda\nc1\nc2\nc3\n" + ranking * 1500
        inverses = counting(monkeypatch, core, "_inverse")
        instance = parse_instance(text)
        assert len(inverses) == 1
        rows = instance.matrix.rows
        assert rows[0] == (0, 1, 2) and all(row is rows[0] for row in rows)

    @pytest.mark.parametrize(
        "rows, answered_by",
        [
            # Feasible at the first probed bound, 0, where every voter's
            # accepted positions are contiguous: sp-greedy answers.
            (((0, 2, 1), (0, 1, 2)), "sp-greedy"),
            # Infeasible at 0; at 1 the first voter accepts positions 0 and 2
            # only, so sp-greedy raises and auto falls through.
            (((0, 2, 1), (2, 1, 0)), "subset-enum"),
        ],
    )
    def test_sp_greedy_on_a_table_that_is_not_single_troughed(self, rows, answered_by):
        election = Election(("a", "b", "c"), ((0, 1, 2), (2, 1, 0)))
        matrix = MisrepMatrix(rows)
        assert not single_peaked.check_single_troughed(matrix, (0, 1, 2))
        instance = ProblemInstance(
            election, matrix, Rule.CC, Objective.MINIMAX, 1, matrix.max_value()
        )
        rows = solving.axis_rows(instance, single_peaked.detect_axis(election))
        name, solution = solving.solve_auto(instance, rows, solving.DEFAULT_BUDGET)
        assert name == answered_by
        assert solution.objective_value == solve_subset_enum(instance).objective_value


def generated_monroe(*flags: str) -> ProblemInstance:
    """A `gen single-peaked --rule monroe` instance with the given flags."""
    code, text = run_quietly(["gen", "single-peaked", "--rule", "monroe", *flags])
    assert code == 0
    return parse_instance(text)


class TestAutoByCost:
    """On single-peaked Monroe profiles auto runs the cheaper estimate first."""

    @pytest.mark.parametrize(
        "flags, answered_by",
        [
            # 56 committees against a table over 500 voters.
            (("--m", "8", "--n", "500", "--k", "3", "--misrep", "approval",
              "--seed", "1"), "subset-enum"),
            # C(20, 10) committees against a table over 20 voters.
            (("--m", "20", "--n", "20", "--k", "10", "--misrep", "approval",
              "--seed", "1"), "sp-stab"),
            (("--m", "16", "--n", "40", "--k", "8", "--objective", "minimax",
              "--seed", "1"), "sp-stab"),
            # A voter approves nobody, so every probe ends before a table:
            # below 1 that voter has no interval, at 1 every interval spans
            # the axis.
            (("--m", "6", "--n", "24", "--k", "2", "--misrep", "approval",
              "--objective", "minimax", "--seed", "1"), "sp-stab"),
            # Every voter approves someone, so the probe at 0 builds a table.
            (("--m", "6", "--n", "24", "--k", "2", "--misrep", "approval",
              "--objective", "minimax", "--seed", "2"), "subset-enum"),
        ],
    )
    def test_auto_names_the_cheaper_solver(self, flags, answered_by):
        instance = generated_monroe(*flags)
        name, solution = solving.solve(instance)
        assert name == answered_by
        assert verify_solution(instance, solution).ok

    def test_all_approve_profile_needs_no_table(self):
        instance = parse_instance(ALL_APPROVE)
        name, solution = solving.solve(instance)
        assert (name, solution.objective_value) == ("sp-stab", 0)

    def test_enumeration_answers_within_the_budget(self, write, capsys):
        # The stabbing table over these 500 voters takes seconds to fill.
        code, text, _ = run_cli(
            capsys, "gen", "single-peaked", "--m", "8", "--n", "500", "--k", "3",
            "--rule", "monroe", "--misrep", "approval", "--seed", "1",
        )
        assert code == 0
        path = write("m8n500.elect", text)
        code, out, err = run_cli(capsys, "solve", path, "--budget-seconds", "2")
        assert code == 0, err
        assert "solver subset-enum" in out.splitlines()
        assert record_value(out) == 77

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(1, 7),
        n=st.integers(1, 12),
        seed=st.integers(0, 999),
        objective=st.sampled_from([objective.value for objective in Objective]),
        misrep=st.sampled_from(["borda", "approval"]),
        data=st.data(),
    )
    def test_auto_matches_enumeration(self, m, n, seed, objective, misrep, data):
        k = data.draw(st.integers(1, min(m, n)), label="k")
        instance = generated_monroe(
            "--m", str(m), "--n", str(n), "--k", str(k), "--seed", str(seed),
            "--objective", objective, "--misrep", misrep,
        )
        _, solution = solving.solve(instance)
        assert solution.objective_value == solve_subset_enum(instance).objective_value
        assert verify_solution(instance, solution).ok


def line_instance(objective: Objective, bound: int) -> ProblemInstance:
    """One voter over 20 candidates with table values 0, 3, ..., 57."""
    names = tuple(f"c{i}" for i in range(20))
    election = Election(names, (tuple(range(20)),))
    matrix = build_misrep(election, ExplicitMisrep((tuple(3 * c for c in range(20)),)))
    return ProblemInstance(election, matrix, Rule.CC, objective, 1, bound)


def run_alone(capsys, *argv: str):
    """`run_cli` on a parser built for this call alone, as a new process would."""
    build_parser.cache_clear()
    return run_cli(capsys, *argv)


class TestSharedParser:
    def test_one_parser_tree_serves_every_call(self, write, tmp_path, capsys, monkeypatch):
        instance = write("fig.elect", FIG1)
        solution = tmp_path / "fig.sol"
        code, out, _ = run_cli(capsys, "solve", instance)
        assert code == 0
        solution.write_text(out)
        build_parser.cache_clear()
        built = counting(monkeypatch, argparse.ArgumentParser, "__init__")
        calls = [
            ["solve", instance],
            ["solve", instance, "--solver", "subset-enum"],
            ["detect-axis", instance],
            ["gen", "random", "--m", "4", "--n", "3", "--k", "2"],
            ["verify", instance, str(solution)],
        ] * 4
        assert [run_cli(capsys, *argv)[0] for argv in calls] == [0] * 20
        assert len(built) == 1 + 5  # the top-level parser and its subcommands

    @pytest.mark.parametrize(
        "first, second",
        [
            (
                ["hs-approval", "--universe", "4", "--set", "0,1", "--set", "2,3", "--k", "2"],
                ["hs-approval", "--universe", "4", "--set", "1,2", "--k", "1"],
            ),
            (
                ["vc-minimax", "--edge", "0,1", "--edge", "1,2", "--k", "1"],
                ["vc-minimax", "--edge", "0,2", "--k", "1"],
            ),
        ],
    )
    def test_repeated_flags_start_empty_on_every_call(self, capsys, first, second):
        alone = [run_alone(capsys, "gen", *argv) for argv in (first, second)]
        assert alone[0][0] == alone[1][0] == 0 and alone[0][1] != alone[1][1]
        build_parser.cache_clear()
        assert [run_cli(capsys, "gen", *argv) for argv in (first, second)] == alone

    @pytest.mark.parametrize(
        "before, code",
        [
            (["solve", "{path}", "--solver", "no-such-solver"], 2),
            (["--help"], 0),
            (["solve", "--help"], 0),
        ],
    )
    def test_an_early_exit_leaves_nothing_behind(self, write, capsys, before, code):
        path = write("fig.elect", FIG1)
        alone = run_alone(capsys, "solve", path)
        assert run_cli(capsys, *(arg.format(path=path) for arg in before))[0] == code
        assert run_cli(capsys, "solve", path)[:2] == alone[:2]

    def test_budget_defaults_survive_an_override(self, write, capsys):
        path = write("fig.elect", FIG1)
        alone = run_alone(capsys, "solve", path, "--solver", "subset-enum")
        code, out, _ = run_cli(
            capsys, "solve", path, "--solver", "subset-enum",
            "--budget-subset-candidates", "1", "--budget-partition-voters", "1",
            "--budget-constant-bound", "0", "--budget-seconds", "5",
        )
        assert (code, out) == (3, "")
        assert run_cli(capsys, "solve", path, "--solver", "subset-enum")[:2] == alone[:2]
        args = build_parser().parse_args(["solve", path])
        assert (
            args.budget_subset_candidates,
            args.budget_partition_voters,
            args.budget_constant_bound,
            args.budget_seconds,
        ) == (
            DEFAULT_BUDGET.max_subset_candidates,
            DEFAULT_BUDGET.max_partition_voters,
            DEFAULT_BUDGET.max_constant_bound,
            DEFAULT_BUDGET.max_seconds,
        )


class TestSearchBound:
    """The bounds the search probes, in order; recorded before it used
    ``first_feasible`` for its refinement."""

    @pytest.mark.parametrize(
        "objective, bound, threshold, probed",
        [
            (Objective.SUM, 100, 0, [0]),
            (Objective.SUM, 100, 3, [0, 1, 2, 3]),
            (Objective.SUM, 100, 4, [0, 1, 2, 3, 4]),
            (Objective.SUM, 100, 5, [0, 1, 2, 3, 4, 8, 6, 5]),
            (Objective.SUM, 100, 37, [0, 1, 2, 3, 4, 8, 16, 32, 64, 48, 40, 36, 38, 37]),
            (
                Objective.SUM, 100, 100,
                [0, 1, 2, 3, 4, 8, 16, 32, 64, 100, 82, 91, 95, 97, 98, 99],
            ),
            (Objective.SUM, 100, 101, [0, 1, 2, 3, 4, 8, 16, 32, 64, 100]),
            (Objective.MINIMAX, 45, 0, [0]),
            (Objective.MINIMAX, 45, 20, [0, 3, 6, 9, 12, 24, 18, 21]),
            (Objective.MINIMAX, 45, 45, [0, 3, 6, 9, 12, 24, 45, 33, 39, 42]),
            (Objective.MINIMAX, 45, 46, [0, 3, 6, 9, 12, 24, 45]),
        ],
    )
    def test_probes_at_a_threshold(self, objective, bound, threshold, probed):
        seen = []

        def decide(instance):
            seen.append(instance.bound)
            return instance.bound if instance.bound >= threshold else None

        result = solving.search_bound(line_instance(objective, bound), decide)
        assert seen == probed
        feasible = [b for b in probed if b >= threshold]
        assert result == (min(feasible) if feasible else None)

    def test_a_sum_bound_past_sys_maxsize(self):
        seen = []

        def decide(instance):
            seen.append(instance.bound)
            return instance.bound if instance.bound >= 10**20 else None

        result = solving.search_bound(line_instance(Objective.SUM, 10**21), decide)
        assert result == 10**20
        assert len(seen) <= 140

    @pytest.mark.parametrize(
        "rule, objective, decide, probed, value",
        [
            (Rule.CC, Objective.SUM, solve_cc_branch_rk, [0, 1, 2, 3, 4, 8, 6, 5], 5),
            (Rule.MONROE, Objective.MINIMAX, solve_m_mw_rk, [0, 1, 2], 2),
        ],
    )
    def test_probes_of_a_decision_procedure(self, rule, objective, decide, probed, value):
        election = random_election(random.Random(5), 6, 12)
        matrix = build_misrep(election, BordaMisrep())
        instance = ProblemInstance(
            election, matrix, rule, objective, 3, worst_bound(matrix, objective)
        )
        seen = []

        def record(probe):
            seen.append(probe.bound)
            return decide(probe)

        assert solving.search_bound(instance, record).objective_value == value
        assert seen == probed


def run_python(*argv: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that finds this checkout's proprep first."""
    path = [str(Path(proprep.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True
    )


class TestImports:
    def test_the_library_does_not_load_the_cli(self):
        result = run_python(
            "-c",
            "import sys, proprep; "
            "print('argparse' in sys.modules, 'proprep.cli' in sys.modules)",
        )
        assert (result.returncode, result.stdout) == (0, "False False\n"), result.stderr

    def test_the_cli_runs_as_a_module_without_warnings(self):
        result = run_python(
            "-W", "error::RuntimeWarning", "-m", "proprep.cli", "--help"
        )
        assert result.returncode == 0, result.stderr

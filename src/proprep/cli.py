"""Command-line front end: solve, detect-axis, gen, verify, bench.

Every subcommand reads and writes the plain-text formats from
:mod:`proprep.fileio`.  ``solve`` answers the decision question carried by
the instance file: it prints a solution record on stdout when some outcome
stays within the instance bound (reporting the best value reachable within
it), and exits 1 when none does.  Timing goes to stderr so stdout stays
byte-stable and pipeable into ``verify``.

Which solver runs is decided in :mod:`proprep.solving`: ``solve`` hands it
the ``--solver`` name, and ``bench`` runs its roster for each file.

Exit codes: 0 success (and feasible), 1 infeasible or failed verification
or not single-peaked, 2 usage and input errors, 3 a resource cap was hit.
`main` returns the code and never raises ``SystemExit``, so it may be
called any number of times in one process; `build_parser` builds the
argument parser on the first call and every later call reuses it.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from . import solving
from .core import (
    ApprovalMisrep,
    BordaMisrep,
    BudgetExceededError,
    Objective,
    ProblemInstance,
    Rule,
    build_misrep,
    verify_solution,
)
from .fileio import (
    ParseError,
    parse_instance,
    parse_solution,
    render_instance,
    render_solution,
    worst_bound,
)
from .generators import random_election, random_prefix_approvals
from .hardness import (
    HittingSetInstance,
    RX3CInstance,
    gen_hs_approval,
    gen_hs_borda,
    gen_rx3c_monroe,
    gen_vc_minimax,
)
from .single_peaked import detect_axis, sample_single_peaked_election
from .solvers import DEFAULT_BUDGET, SolverBudget


class _Failure(Exception):
    """Abort the command with a message on stderr and a fixed exit code."""

    def __init__(self, code: int, message: str) -> None:
        self.code = code
        self.message = message
        super().__init__(message)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as error:
        raise _Failure(2, f"{path}: {error.strerror or error}") from None


def _parse_instance_file(path: str) -> ProblemInstance:
    try:
        return parse_instance(_read_text(path))
    except ParseError as error:
        raise _Failure(2, f"{path}: {error}") from None


def _budget_from(args: argparse.Namespace) -> SolverBudget:
    """A budget from the ``--budget-*`` flags; its clock starts now."""
    seconds = args.budget_seconds
    if seconds is not None and not seconds >= 0:  # NaN compares false
        raise _Failure(2, "--budget-seconds must be a nonnegative number")
    for cap in ("subset_candidates", "partition_voters", "constant_bound"):
        if getattr(args, f"budget_{cap}") < 0:
            flag = "--budget-" + cap.replace("_", "-")
            raise _Failure(2, f"{flag} must be a nonnegative integer")
    return SolverBudget(
        max_subset_candidates=args.budget_subset_candidates,
        max_partition_voters=args.budget_partition_voters,
        max_constant_bound=args.budget_constant_bound,
        max_seconds=args.budget_seconds,
    )


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget-subset-candidates",
        type=int,
        default=DEFAULT_BUDGET.max_subset_candidates,
        help="largest candidate count committee enumeration will attempt",
    )
    parser.add_argument(
        "--budget-partition-voters",
        type=int,
        default=DEFAULT_BUDGET.max_partition_voters,
        help="largest voter count partition enumeration will attempt",
    )
    parser.add_argument(
        "--budget-constant-bound",
        type=int,
        default=DEFAULT_BUDGET.max_constant_bound,
        help="largest bound the constant-r solver will attempt",
    )
    parser.add_argument(
        "--budget-seconds",
        type=float,
        default=DEFAULT_BUDGET.max_seconds,
        help="wall-clock cap per solve, covering every bound probe and every "
        "solver auto tries; under bench, per row (default: none)",
    )


def _apply_overrides(
    instance: ProblemInstance, args: argparse.Namespace
) -> ProblemInstance:
    changes = {}
    if args.rule is not None:
        changes["rule"] = Rule(args.rule)
    if args.objective is not None:
        changes["objective"] = Objective(args.objective)
    if args.k is not None:
        changes["k"] = args.k
    if changes:
        instance = replace(instance, **changes)
    if args.bound is not None:
        value = _parse_bound(args.bound, "R")
        if value is None:
            value = worst_bound(instance.matrix, instance.objective)
        instance = replace(instance, bound=value)
    return instance


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = _apply_overrides(_parse_instance_file(args.path), args)
    budget = _budget_from(args)
    started = time.perf_counter()
    name, solution = solving.solve(instance, args.solver, budget)
    elapsed = (time.perf_counter() - started) * 1000.0
    print(f"wall-time-ms {elapsed:.1f}", file=sys.stderr)
    if solution is None:
        print(
            f"infeasible: no outcome has value <= {instance.bound} "
            f"({instance.rule.value}, {instance.objective.value}, k={instance.k})",
            file=sys.stderr,
        )
        return 1
    sys.stdout.write(render_solution(solution, instance.election, solver=name))
    return 0


def _cmd_detect_axis(args: argparse.Namespace) -> int:
    instance = _parse_instance_file(args.path)
    axis = detect_axis(instance.election)
    if axis is None:
        print("not single-peaked")
        return 1
    print(" ".join(instance.election.candidates[c] for c in axis))
    return 0


def _parse_bound(text: Optional[str], flag: str) -> Optional[int]:
    """The bound given to ``--flag``: None when absent or '-'."""
    if text is None or text == "-":
        return None
    try:
        value = int(text)
    except (TypeError, ValueError):  # argparse reads "--bound=--" as []
        value = -1
    if value < 0:
        raise _Failure(2, f"--{flag} must be a nonnegative integer or '-'")
    return value


def _parse_index_tuple(token: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(sorted(int(part) for part in token.split(",")))
    except ValueError:
        raise _Failure(
            2, f"--{flag} expects comma-separated integers, got {token!r}"
        ) from None
    return values


def _gen_profile(args: argparse.Namespace) -> ProblemInstance:
    """The random and single-peaked families share everything but sampling."""
    rng = random.Random(args.seed)
    if args.family == "random":
        election = random_election(rng, args.m, args.n)
    else:
        election, _ = sample_single_peaked_election(rng, args.m, args.n)
    misrep = args.misrep or "borda"
    if misrep == "borda":
        matrix = build_misrep(election, BordaMisrep())
    else:
        matrix = build_misrep(
            election, ApprovalMisrep(random_prefix_approvals(rng, election))
        )
    rule = Rule(args.rule) if args.rule else Rule.CC
    objective = Objective(args.objective) if args.objective else Objective.SUM
    bound = _parse_bound(args.bound, "bound")
    if bound is None:
        bound = worst_bound(matrix, objective)
    return ProblemInstance(election, matrix, rule, objective, args.k, bound)


def _gen_hitting_set(args: argparse.Namespace) -> ProblemInstance:
    family = tuple(_parse_index_tuple(token, "set") for token in args.set)
    hs = HittingSetInstance(args.universe, family, args.k)
    rule = Rule(args.rule) if args.rule else Rule.MONROE
    objective = Objective(args.objective) if args.objective else Objective.SUM
    if args.family == "hs-approval":
        return gen_hs_approval(hs, args.k, rule, objective)
    return gen_hs_borda(hs, args.k, rule, objective)


def _gen_vertex_cover(args: argparse.Namespace) -> ProblemInstance:
    if args.objective is not None and args.objective != Objective.MINIMAX.value:
        raise _Failure(2, "the vc-minimax family always uses the minimax objective")
    edges = tuple(_parse_index_tuple(token, "edge") for token in args.edge)
    bound = _parse_bound(args.bound, "bound")
    rule = Rule(args.rule) if args.rule else Rule.CC
    return gen_vc_minimax(edges, args.k, 1 if bound is None else bound, rule)


def _gen_exact_cover(args: argparse.Namespace) -> ProblemInstance:
    n = args.n
    if args.set is not None:
        sets = tuple(_parse_index_tuple(token, "set") for token in args.set)
    else:
        # Disjoint consecutive triples, each listed three times: a solvable
        # default whose elements are then scrambled by the seed.
        perm = list(range(n))
        random.Random(args.seed).shuffle(perm)
        sets = tuple(
            tuple(sorted(perm[3 * block + offset] for offset in range(3)))
            for block in range(max(n // 3, 0))
            for _ in range(3)
        )
    instance, _ = gen_rx3c_monroe(RX3CInstance(n, sets))
    return instance


# Each family's builder, the flags it needs and the flags it rejects, both
# checked in the order listed.
GEN_FAMILIES = {
    "random": (_gen_profile, ("m", "n", "k"), ("universe", "set", "edge")),
    "single-peaked": (_gen_profile, ("m", "n", "k"), ("universe", "set", "edge")),
    "hs-approval": (
        _gen_hitting_set,
        ("universe", "set", "k"),
        ("m", "n", "misrep", "bound", "edge"),
    ),
    "hs-borda": (
        _gen_hitting_set,
        ("universe", "set", "k"),
        ("m", "n", "misrep", "bound", "edge"),
    ),
    "vc-minimax": (
        _gen_vertex_cover,
        ("edge", "k"),
        ("m", "n", "universe", "set", "misrep"),
    ),
    "rx3c-monroe": (
        _gen_exact_cover,
        ("n",),
        ("m", "k", "bound", "rule", "objective", "misrep", "universe", "edge"),
    ),
}


def _cmd_gen(args: argparse.Namespace) -> int:
    build, needed, rejected = GEN_FAMILIES[args.family]
    for flag in needed:
        if getattr(args, flag) is None:
            raise _Failure(2, f"the {args.family} family requires --{flag}")
    for flag in rejected:
        if getattr(args, flag) is not None:
            raise _Failure(2, f"--{flag} does not apply to the {args.family} family")
    text = render_instance(build(args))
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    instance = _parse_instance_file(args.instance)
    try:
        solution, _ = parse_solution(_read_text(args.solution), instance.election)
    except ParseError as error:
        raise _Failure(2, f"{args.solution}: {error}") from None
    report = verify_solution(instance, solution)
    for check in report.checks:
        if check.passed:
            print(f"{check.name}: pass")
        else:
            print(f"{check.name}: FAIL ({check.detail})")
    print("all checks passed" if report.ok else "verification failed")
    return 0 if report.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise _Failure(2, f"{args.dir}: not a directory")
    budget = _budget_from(args)
    problems = []
    for path in sorted(directory.glob("*.elect")):
        instance = _parse_instance_file(str(path))
        rows = solving.axis_rows(instance, detect_axis(instance.election))
        outcomes: dict[str, Optional[int]] = {}
        for name, run in solving.bench_roster(instance, rows, budget):
            started = time.perf_counter()
            try:
                # Each row gets its own budget, and so its own clock.
                solution = run(instance, rows, _budget_from(args))
            except BudgetExceededError as error:
                status = f"skipped (budget: {error})"
            except ValueError as error:
                status = f"skipped ({error})"
            else:
                if solution is None:
                    status = "infeasible"
                    outcomes[name] = None
                else:
                    status = f"ok value={solution.objective_value}"
                    outcomes[name] = solution.objective_value
            elapsed = (time.perf_counter() - started) * 1000.0
            print(f"{path.name} {name} {status} {elapsed:.1f}ms")
            if status.startswith("ok"):
                checks = verify_solution(instance, solution).checks
                failed = ", ".join(check.name for check in checks if not check.passed)
                if failed:
                    problems.append(f"verify failed: {path.name} {name}: {failed}")
        if len(set(outcomes.values())) > 1:
            report = ", ".join(
                f"{name}={'infeasible' if value is None else value}"
                for name, value in sorted(outcomes.items())
            )
            problems.append(f"disagreement: {path.name}: {report}")
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every `main` call.

    Parsing keeps no state in it: each call gets a fresh namespace, and
    help and usage text are formatted when printed.  Callers must not
    change the parser they get back.
    """
    parser = argparse.ArgumentParser(
        prog="proprep",
        description="Committee selection by total or worst-case misrepresentation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser(
        "solve", help="solve an instance file and print a solution record"
    )
    solve.add_argument("path", help="instance file")
    solve.add_argument("--solver", choices=solving.SOLVER_NAMES, default="auto")
    solve.add_argument("--rule", choices=[rule.value for rule in Rule])
    solve.add_argument(
        "--objective", choices=[objective.value for objective in Objective]
    )
    solve.add_argument("--k", type=int, help="override the committee size")
    solve.add_argument(
        "--R", dest="bound", help="override the bound (integer, or '-' for unbounded)"
    )
    _add_budget_flags(solve)
    solve.set_defaults(run=_cmd_solve)

    axis = commands.add_parser(
        "detect-axis", help="print a societal axis for the election, if one exists"
    )
    axis.add_argument("path", help="instance file")
    axis.set_defaults(run=_cmd_detect_axis)

    gen = commands.add_parser("gen", help="generate an instance file")
    gen.add_argument("family", choices=GEN_FAMILIES)
    gen.add_argument("--m", type=int, help="number of candidates")
    gen.add_argument("--n", type=int, help="number of voters (elements for rx3c)")
    gen.add_argument("--k", type=int, help="committee size")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--rule", choices=[rule.value for rule in Rule])
    gen.add_argument(
        "--objective", choices=[objective.value for objective in Objective]
    )
    gen.add_argument("--misrep", choices=["borda", "approval"])
    gen.add_argument("--bound", help="decision bound (integer, or '-' for unbounded)")
    gen.add_argument("--universe", type=int, help="ground-set size for hs families")
    gen.add_argument(
        "--set",
        action="append",
        metavar="E1,E2,...",
        help="one set of zero-based element indices; repeatable",
    )
    gen.add_argument(
        "--edge",
        action="append",
        metavar="A,B",
        help="one edge as two zero-based vertex indices; repeatable",
    )
    gen.add_argument("--out", help="write here instead of stdout")
    gen.set_defaults(run=_cmd_gen)

    verify = commands.add_parser(
        "verify", help="check a solution record against its instance"
    )
    verify.add_argument("instance", help="instance file")
    verify.add_argument("solution", help="solution file")
    verify.set_defaults(run=_cmd_verify)

    bench = commands.add_parser(
        "bench", help="run every applicable solver over a directory of instances"
    )
    bench.add_argument("dir", help="directory scanned for *.elect files")
    _add_budget_flags(bench)
    bench.set_defaults(run=_cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        code = exit_.code
        return code if isinstance(code, int) else 0 if code is None else 2
    try:
        return args.run(args)
    except _Failure as failure:
        print(failure.message, file=sys.stderr)
        return failure.code
    except BudgetExceededError as error:
        print(f"budget exceeded: {error}", file=sys.stderr)
        if args.command in ("solve", "bench"):  # the commands with the flags
            print(
                "raise the matching --budget-* cap, pick another --solver, "
                "or shrink the instance",
                file=sys.stderr,
            )
        return 3
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

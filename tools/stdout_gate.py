"""Exit codes and stdout of the CLI on the benchmark corpora, one line per run.

Usage, from the repository root::

    python3 tools/stdout_gate.py --seed 1 --seed 2 --write tools/stdout_gate.txt
    python3 tools/stdout_gate.py --seed 1 --seed 2 --check tools/stdout_gate.txt

For each seed it writes the four ``perfbench`` corpora, kept files included,
with ``perfbench/corpus.py``'s ``build``, and runs through ``proprep.cli.main``,
in this process: ``solve`` under ``auto`` and under every ``--solver`` name,
each with ``--budget-seconds 2`` (`SECONDS`, the budget the record was made
with); ``detect-axis``; ``verify`` on each ``solve`` answer that exited 0; and
``bench`` on each workload directory, also on 2 s, with the timing column
dropped.  Each (file, command) gives one line: the exit code
and the first 16 hex digits of the sha256 of stdout.  A line whose outcome
the wall clock may decide (see `workload_lines`) is marked ``clock``, with
no outcome, and left out of the digests, one per workload and seed, that end
the output.

``--write FILE`` records the lines.  ``--check FILE`` compares them with a
record, skipping the seeds not run and the lines that either side marks
``clock``, names each line and file that differs, and exits 1 if any does.
The verify line of a clock-marked solve is named when this run has one that
exits nonzero, whatever the record says.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpus as corpora  # noqa: E402
from proprep import cli, solving  # noqa: E402

CLOCK = "wall-clock budget exhausted"
SECONDS = 2.0


def run(argv: list[str]) -> tuple[int, str, str, float]:
    """Exit code, stdout, stderr and wall seconds of one `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - started


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def workload_lines(workload: str, seed: int, directory: Path):
    """``(clock, line)`` for every run on one workload's corpus.

    A budgeted run is marked ``clock`` when it ends on an exhausted clock (or
    a bench row is skipped on it) or takes more than a third of the budget,
    near enough to it that another run may end the other way.  Such a
    line carries no outcome.  Its answer is still verified, and the verify
    line appears only when that fails.
    """
    corpus = corpora.build(workload, seed, directory, cli.main)
    budget = ["--budget-seconds", str(SECONDS)]
    answer = directory / "answer.txt"

    def line(name, command, code, stdout, stderr, elapsed, timed=True):
        clock = timed and (
            CLOCK in stdout or (code == 3 and CLOCK in stderr) or elapsed > SECONDS / 3
        )
        key = f"{workload} {seed} {name} {command}"
        return clock, key if clock else f"{key} {code} {digest(stdout)}"

    for item in corpus.solve_order:
        path, name = str(item.path), item.path.relative_to(directory).as_posix()
        for solver in solving.SOLVER_NAMES:
            code, stdout, stderr, elapsed = run(["solve", path, "--solver", solver, *budget])
            clock, text = line(name, f"solve:{solver}", code, stdout, stderr, elapsed)
            yield clock, text
            if code == 0:
                answer.write_text(stdout)
                checked = run(["verify", path, str(answer)])
                if not clock or checked[0] != 0:
                    yield line(name, f"verify:{solver}", *checked, timed=False)
        yield line(name, "detect-axis", *run(["detect-axis", path]), timed=False)
    code, stdout, stderr, elapsed = run(["bench", str(directory), *budget])
    untimed = "".join(row.rsplit(" ", 1)[0] + "\n" for row in stdout.splitlines())
    yield line(".", "bench", code, untimed, stderr, elapsed)


def gate(seeds: list[int]) -> list[str]:
    """The record: every line, then one digest per workload and seed."""
    lines, digests = [], []
    with tempfile.TemporaryDirectory() as scratch:
        for seed in seeds:
            for workload in corpora.WORKLOADS:
                directory = Path(scratch) / f"{workload}-{seed}"
                kept = []
                for clock, text in workload_lines(workload, seed, directory):
                    lines.append(f"clock {text}" if clock else text)
                    if not clock:
                        kept.append(text + "\n")
                digests.append(f"digest {workload} {seed} {digest(''.join(kept))}")
    return lines + digests


def entries(lines: list[str], seeds: set[str]) -> tuple[dict, set]:
    """Outcome by (workload, seed, file, command), and the keys marked clock."""
    outcomes, clocked = {}, set()
    for text in lines:
        fields = text.split()
        clock = fields[0] == "clock"
        if clock:
            fields = fields[1:]
        if fields[0] == "digest" or fields[1] not in seeds:
            continue
        key = tuple(fields[:4])
        outcomes[key] = tuple(fields[4:])
        if clock:
            clocked.add(key)
    return outcomes, clocked


def compare(recorded: list[str], current: list[str], seeds: set[str]) -> list[str]:
    """One message per (file, command) whose outcome differs from the record."""
    before, clocked_before = entries(recorded, seeds)
    after, clocked_after = entries(current, seeds)
    clocked = clocked_before | clocked_after
    problems = []
    for key in sorted(before.keys() | after.keys()):
        if key in clocked or before.get(key) == after.get(key):
            continue
        solve = (*key[:3], key[3].replace("verify:", "solve:"))
        if solve != key and solve in clocked and after.get(key, ("0",))[0] == "0":
            continue
        was, now = (" ".join(side.get(key, ("absent",))) for side in (before, after))
        problems.append(f"differs: {' '.join(key)}: recorded {was}, now {now}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append", help="default: 1")
    action = parser.add_mutually_exclusive_group()
    action.add_argument("--write", metavar="FILE", help="record the lines in FILE")
    action.add_argument("--check", metavar="FILE", help="compare the lines with FILE")
    args = parser.parse_args()
    seeds = args.seed or [1]
    started = time.perf_counter()
    lines = gate(seeds)
    print("\n".join(lines))
    clocked = sum(text.startswith("clock ") for text in lines)
    print(
        f"stdout_gate: {len(lines)} lines, {clocked} decided by the clock, "
        f"{time.perf_counter() - started:.1f} s",
        file=sys.stderr,
    )
    if args.write:
        Path(args.write).write_text("\n".join(lines) + "\n")
    if args.check:
        recorded = Path(args.check).read_text().splitlines()
        problems = compare(recorded, lines, {str(seed) for seed in seeds})
        for problem in problems:
            print(problem, file=sys.stderr)
        files = sorted({" ".join(p.split()[1:4]) for p in problems})
        for name in files:
            print(f"changed: {name}", file=sys.stderr)
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

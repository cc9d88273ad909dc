"""Benchmark of ``proprep solve`` and ``proprep bench`` on seeded corpora.

Usage, from the repository root::

    python3 perfbench/run.py --workload sp-large --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one process each

One workload runs in one process with no threads, one instance at a time
(a closed loop with a single caller).  Whole rounds run for about
``--seconds``.  A round starts with a set-up, which imports ``proprep``
afresh and writes the workload's corpus with ``proprep gen``; then a
``solve --solver auto`` pass goes over every instance through
``proprep.cli.main`` (parse, solve, render), and one ``proprep bench`` over
the workload directory follows.  Times are in reference seconds (see
``speed.py``): wall seconds corrected for the host's speed swings, which a
timer-driven probe samples throughout the rounds.  Set-up and bench times
are medians over rounds; each instance's time is its median over rounds,
``solve_s`` is their sum and ``solve_p50_ms`` their median.  Outputs are
checked against the benchmark's own references after the timed rounds.

With ``--trace 1`` one more round runs with spans around the calls into each
proprep module, the checks run under the same tracer, and the per-layer
metrics are reported instead, with the tracing overhead against the untraced
rounds.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import checks
import corpus as corpora
from checks import Outcome
from spans import LAYER_METRICS, Tracer, instance_key
from speed import Sampler

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("solve_p50_ms", "ms"),
    ("bench_s", "s"),
    ("peak_rss_mb", "MB"),
)
MODULES = ("cli", "core", "fileio", "single_peaked", "solvers", "assignment", "flows", "stabbing")


def import_program() -> SimpleNamespace:
    """Import proprep from scratch, as a new process would."""
    for name in [name for name in sys.modules if name.split(".")[0] == "proprep"]:
        del sys.modules[name]
    importlib.import_module("proprep")
    importlib.import_module("proprep.cli")
    return SimpleNamespace(**{name: sys.modules.get(f"proprep.{name}") for name in MODULES})


def call_cli(program: SimpleNamespace, argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = program.cli.main(argv)
    except Exception as error:  # a crash inside proprep is a failed operation
        return Outcome(None, out.getvalue(), f"{type(error).__name__}: {str(error)[:120]}")
    return Outcome(code, out.getvalue())


Span = tuple  # (start, end) on time.perf_counter


@dataclass
class Round:
    outcomes: list
    calls: list  # one Span per solve call
    solve: Span  # the whole solve pass
    bench: Outcome
    bench_call: Span

    @property
    def failed(self) -> int:
        return sum(outcome.failed for outcome in self.outcomes) + self.bench.failed

    def signature(self) -> tuple:
        """What must repeat exactly from round to round."""
        solves = tuple((o.code, o.stdout, (o.error or "").split(":")[0]) for o in self.outcomes)
        return solves, self.bench.code, tuple(checks.bench_rows(self.bench.stdout))


def run_round(program: SimpleNamespace, corpus: corpora.Corpus) -> Round:
    clock = time.perf_counter
    outcomes, calls = [], []
    pass_started = clock()
    for item in corpus.solve_order:
        started = clock()
        outcomes.append(call_cli(program, ["solve", str(item.path), "--solver", "auto"]))
        calls.append((started, clock()))
    solve = (pass_started, clock())
    started = clock()
    bench = call_cli(program, ["bench", str(corpus.directory)])
    return Round(outcomes, calls, solve, bench, (started, clock()))


def check_outputs(program, corpus, rounds: list) -> tuple[list[str], dict]:
    """Problems found in the rounds' outputs, and the Monroe CC-bound tallies."""
    problems = []
    refs = {}
    for item in corpus.items:
        refs[item.path], found = checks.reference(item, program)
        problems += found
    first = rounds[0]
    for item, outcome in zip(corpus.solve_order, first.outcomes):
        try:
            problems += checks.check_solve(refs[item.path], outcome, program)
        except (ValueError, KeyError, IndexError) as error:  # unreadable output
            problems.append(f"{item.path.name}: output rejected: {error!r}")
    problems += checks.check_bench(corpus, refs, first.bench)
    for number, later in enumerate(rounds[1:], start=2):
        if later.signature() != first.signature():
            problems.append(f"round {number} output differs from round 1")
    useful = {
        instance_key(ref.inst.rule, ref.inst.objective, ref.inst.k, ref.inst.rows): ref.useful
        for ref in refs.values()
        if ref.useful is not None
    }
    return problems, useful


def set_up(args: argparse.Namespace, workdir: Path) -> tuple[SimpleNamespace, corpora.Corpus]:
    """Import proprep afresh and write the workload's corpus."""
    shutil.rmtree(workdir, ignore_errors=True)
    program = import_program()
    return program, corpora.build(args.workload, args.seed, workdir, program.cli.main)


def measure(args: argparse.Namespace, workdir: Path) -> dict:
    # Every round starts with a fresh set-up, so that set-up is sampled across
    # the whole run as the rounds are.  Rounds are whole, and no round starts
    # that would end past --seconds (bar the first).
    clock = time.perf_counter
    rounds, setups, round_walls = [], [], []
    sampler = Sampler()
    with sampler:
        started = clock()
        while not rounds or clock() - started + statistics.median(round_walls) <= args.seconds:
            round_started = clock()
            program, corpus = set_up(args, workdir)
            setups.append((round_started, clock()))
            rounds.append(run_round(program, corpus))
            round_walls.append(clock() - round_started)
            if len(rounds) == 1:
                # Later rounds add only what the earlier imports left behind.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref_s = sampler.reference_seconds
    solve_s = [ref_s(*r.solve) for r in rounds]
    bench_s = [ref_s(*r.bench_call) for r in rounds]
    instance_s = [
        statistics.median(ref_s(*r.calls[i]) for r in rounds) for i in range(len(corpus.solve_order))
    ]

    if args.trace:
        tracer = Tracer()
        tracer.install(program)
        try:
            with sampler:
                traced = run_round(program, corpus)
            problems, useful = check_outputs(program, corpus, rounds + [traced])
        finally:
            tracer.uninstall()
        untraced_s = statistics.median(a + b for a, b in zip(solve_s, bench_s))
        overhead_s = ref_s(*traced.solve) + ref_s(*traced.bench_call) - untraced_s
        values = tracer.metrics(useful, overhead_s, untraced_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
        rounds.append(traced)
    else:
        problems, _ = check_outputs(program, corpus, rounds)
        values = {
            "setup_s": statistics.median(ref_s(*span) for span in setups),
            "solve_s": sum(instance_s),
            "solve_p50_ms": 1000.0 * statistics.median(instance_s),
            "bench_s": statistics.median(bench_s),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    for problem in problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    failures = sorted(
        {f"{item.path.name}: {o.error or f'exit {o.code}'}"
         for r in rounds for item, o in zip(corpus.solve_order, r.outcomes) if o.failed}
    )
    print(
        f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds of "
        f"{len(corpus.solve_order)} solves + 1 bench"
        f"{' (last round traced)' if args.trace else ''}; "
        f"median untraced passes {statistics.median(solve_s):.3f} s solve, "
        f"{statistics.median(bench_s):.3f} s bench (reference seconds); "
        f"{len(sampler.spans)} speed probes, median {1e6 * statistics.median(sampler.spans):.0f} us"
    )
    for index, item in enumerate(corpus.solve_order):
        first = rounds[0].outcomes[index]
        answer = first.error or " ".join(first.stdout.splitlines()[1:3]) or f"exit {first.code}"
        print(f"  {item.path.name:44} {1000.0 * instance_s[index]:9.1f} ms  {answer}")
    for failure in failures:
        print(f"  failed operation: {failure}")
    for name, metric in metrics.items():
        print(f"  {name:44} {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": not problems,
        "attempted": len(rounds) * (len(corpus.solve_order) + 1),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def run_workload(args: argparse.Namespace) -> int:
    source = ROOT / "src"
    if not (source / "proprep" / "__init__.py").is_file():
        print(f"perfbench: proprep sources not found under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    scratch = ROOT / ".perfbench"
    workdir = scratch / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process; prints each result and a summary."""
    summary = []
    for workload in corpora.WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        finished = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stdout.write(finished.stdout)
        sys.stderr.write(finished.stderr)
        if finished.returncode != 0:
            print(f"perfbench: {workload} exited {finished.returncode}", file=sys.stderr)
            return finished.returncode
        summary.append((workload, json.loads(finished.stdout.splitlines()[-1])))
    print()
    for workload, result in summary:
        print(
            f"{workload:12} correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}"
        )
        for name, metric in result["metrics"].items():
            print(f"  {name:44} {metric['value']:.6g} {metric['unit']}")
    return 0 if all(result["correct"] for _, result in summary) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=corpora.WORKLOADS, help="default: all, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())

"""`tools/stdout_gate.py --check`: which recorded lines count as changed."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "stdout_gate.py"
spec = importlib.util.spec_from_file_location("stdout_gate", TOOL)
stdout_gate = importlib.util.module_from_spec(spec)
# The tool puts src/ and perfbench/ first on the path; perfbench/oracles.py
# must not shadow tests/oracles.py for the modules collected after this one.
saved_path = list(sys.path)
spec.loader.exec_module(stdout_gate)
sys.path[:] = saved_path

RECORD = [
    "cc-enum 1 00-a.elect solve:auto 0 aaaa",
    "cc-enum 1 00-a.elect verify:auto 0 bbbb",
    "clock cc-enum 1 00-a.elect solve:branch-rk",
    "sp-large 2 01-b.elect detect-axis 0 cccc",
    "digest cc-enum 1 dddd",
]


def test_a_changed_hash_exit_code_or_missing_line_is_named():
    current = [
        "cc-enum 1 00-a.elect solve:auto 0 ffff",
        "cc-enum 1 00-a.elect verify:auto 1 bbbb",
        "cc-enum 1 00-a.elect detect-axis 1 eeee",
    ]
    assert stdout_gate.compare(RECORD, current, {"1"}) == [
        "differs: cc-enum 1 00-a.elect detect-axis: recorded absent, now 1 eeee",
        "differs: cc-enum 1 00-a.elect solve:auto: recorded 0 aaaa, now 0 ffff",
        "differs: cc-enum 1 00-a.elect verify:auto: recorded 0 bbbb, now 1 bbbb",
    ]


def test_clock_lines_and_seeds_not_run_are_skipped():
    current = [
        "cc-enum 1 00-a.elect solve:auto 0 aaaa",
        "cc-enum 1 00-a.elect verify:auto 0 bbbb",
        # The recorded run ended on the clock; this one answered.
        "cc-enum 1 00-a.elect solve:branch-rk 0 1234",
        "cc-enum 1 00-a.elect verify:branch-rk 0 5678",
    ]
    assert stdout_gate.compare(RECORD, current, {"1"}) == []
    assert stdout_gate.compare(RECORD, current, {"1", "2"}) == [
        "differs: sp-large 2 01-b.elect detect-axis: recorded 0 cccc, now absent",
    ]


def test_a_failing_verify_after_a_clock_solve_is_named():
    current = [
        "cc-enum 1 00-a.elect solve:auto 0 aaaa",
        "cc-enum 1 00-a.elect verify:auto 0 bbbb",
        # Both runs are clock-marked; this one's answer fails verification.
        "clock cc-enum 1 00-a.elect solve:branch-rk",
        "cc-enum 1 00-a.elect verify:branch-rk 1 5678",
    ]
    assert stdout_gate.compare(RECORD, current, {"1"}) == [
        "differs: cc-enum 1 00-a.elect verify:branch-rk: recorded absent, now 1 5678",
    ]

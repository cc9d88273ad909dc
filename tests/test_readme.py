"""The README's examples, run as written.

The ```python blocks run in one namespace, and every line of the form
``expression  # value`` must evaluate to that value.  The ```text
transcripts about ``demo.elect`` are replayed through ``cli.main``: each
``$ proprep ...`` line must print what follows it (``bench`` rows without
their timing column).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from proprep.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(), re.DOTALL)


def transcript() -> list[tuple[str, str]]:
    """(command, expected output) pairs from the blocks that start with ``$``."""
    steps: list[tuple[str, list[str]]] = []
    for block in blocks("text"):
        if not block.startswith("$ "):
            continue
        for line in block.splitlines():
            if line.startswith("$ "):
                steps.append((line[2:], []))
            else:
                steps[-1][1].append(line)
    return [(command, "\n".join(lines).strip("\n") + "\n") for command, lines in steps]


def test_python_examples_state_their_values():
    namespace: dict = {}
    checked = 0
    for block in blocks("python"):
        exec(compile(block, str(README), "exec"), namespace)
        for line in block.splitlines():
            expression, hash_, stated = line.partition("#")
            if hash_ and expression.strip():
                value = eval(expression, namespace)
                assert value == ast.literal_eval(stated.strip()), line
                checked += 1
    assert checked == 4


def run(capsys, command: str) -> str:
    program, *argv = command.split()
    assert program == "proprep", command
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, command
    return out


def test_demo_transcript_replays(tmp_path, capsys, monkeypatch):
    steps = transcript()
    assert [command for command, _ in steps] == [
        "cat demo.elect",
        "proprep solve demo.elect",
        "proprep detect-axis demo.elect",
        "proprep solve demo.elect | proprep verify demo.elect /dev/stdin",
        "proprep bench corpus",
    ]
    monkeypatch.chdir(tmp_path)
    (_, demo), *replayed = steps
    (tmp_path / "demo.elect").write_text(demo)
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "demo.elect").write_text(demo)
    for command, expected in replayed:
        first, _, second = command.partition(" | ")
        out = run(capsys, first)
        if second:
            (tmp_path / "piped.sol").write_text(out)
            out = run(capsys, second.replace("/dev/stdin", "piped.sol"))
        if first.startswith("proprep bench"):
            out, expected = (
                "".join(line.rsplit(" ", 1)[0] + "\n" for line in text.splitlines())
                for text in (out, expected)
            )
        assert out == expected, command


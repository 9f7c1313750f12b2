"""README's examples run: every command line in its "Command line" block exits
0, and every commented line of its "Library" block evaluates to the repr in
its comment."""

import re
import shlex
from pathlib import Path

import pytest

from topograph.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, language: str) -> list:
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(f"```{language}\n(.*?)```", section, re.S).group(1).splitlines()


def _command_lines():
    return [line for line in _block("Command line", "sh") if line.startswith("topograph ")]


COMMANDS = _command_lines()


def test_readme_lists_every_subcommand():
    assert {shlex.split(line, comments=True)[1] for line in COMMANDS} == {
        "mu", "triple", "cohn", "cf", "tree", "verify"}


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line, comments=True)
    assert argv[0] == "topograph"
    assert main(argv[1:]) == 0
    assert capsys.readouterr().err == ""


def test_readme_library_block_shows_what_it_returns():
    namespace, shown = {}, 0
    for line in _block("Library", "python"):
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, namespace)
            continue
        assert repr(eval(code, namespace)) == comment.strip(), line
        shown += 1
    assert shown == 6

"""Every command line in README's "Command line" block runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from topograph.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _command_lines():
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("topograph ")]


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

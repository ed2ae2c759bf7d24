"""The README's library tour and command lines run as written."""

import re
import shlex
from pathlib import Path

import pytest

from isingcorr import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(title):
    return README.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def _code_blocks(text):
    return re.findall(r"```[a-z]*\n(.*?)```", text, flags=re.S)


def test_library_tour_runs():
    (tour,) = _code_blocks(_section("Library tour"))
    exec(compile(tour, "README.md", "exec"), {})


COMMANDS = [line for block in _code_blocks(_section("Command line"))
            for line in block.splitlines() if line.startswith("corr ")]


def test_readme_lists_commands():
    assert len(COMMANDS) >= 6


def _subcommand(line):
    return next(tok for tok in shlex.split(line) if tok in ("table", "verify", "sweep"))


@pytest.mark.parametrize("line", COMMANDS,
                         ids=[f"{i}-{_subcommand(line)}" for i, line in enumerate(COMMANDS)])
def test_command_line_exits_zero(line, capsys, tmp_path, monkeypatch):
    # the config example reads run.cfg from the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("diagonal = true\nalpha2 = 0.5\nN = 1..2\n")
    assert cli.main(shlex.split(line)[1:]) == 0
    capsys.readouterr()

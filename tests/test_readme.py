"""The README's examples run: its >>> session and its command-line block."""

import doctest
import os
import shlex

import pytest

from cyclotope import cli

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def _command_lines():
    """The `cyclotope ...` lines of the first sh block after "## Command line"."""
    with open(README, encoding="utf-8") as readme:
        text = readme.read()
    block = text[text.index("## Command line"):].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("cyclotope ")]


def test_the_library_session_passes_doctest():
    failed, attempted = doctest.testfile(README, module_relative=False)
    assert attempted > 0 and failed == 0


@pytest.mark.parametrize("line", _command_lines())
def test_each_command_line_example_exits_0(capsys, monkeypatch, tmp_path, line):
    monkeypatch.chdir(tmp_path)  # stats --output writes its table here
    assert cli.main(shlex.split(line)[1:]) == 0, capsys.readouterr().err

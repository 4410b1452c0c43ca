"""Every ``python`` block of README.md runs, each in a fresh namespace,
every ``lfso`` command line of its ``sh`` blocks parses, and every flag its
prose names in backticks is a flag of the CLI."""

import re
import shlex
from pathlib import Path

import pytest

from lfso import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT,
                    flags=re.MULTILINE | re.DOTALL)
COMMANDS = [line for block in re.findall(r"^```sh\n(.*?)^```", TEXT,
                                         flags=re.MULTILINE | re.DOTALL)
            for line in block.splitlines() if line.startswith("lfso ")]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_has_command_examples():
    assert COMMANDS


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_parses(line):
    # parsing only: a removed flag, subcommand or choice exits 2 here
    cli.build_parser().parse_args(shlex.split(line)[1:])


def test_prose_names_only_existing_flags():
    prose = re.sub(r"^```.*?^```", "", TEXT, flags=re.MULTILINE | re.DOTALL)
    named = {flag for span in re.findall(r"`([^`\n]+)`", prose)
             for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", span)}
    assert named
    subcommands = cli.build_parser()._subparsers._group_actions[0].choices
    known = {option for sub in subcommands.values()
             for action in sub._actions for option in action.option_strings}
    assert sorted(named - known) == []

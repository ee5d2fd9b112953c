"""The README's command-line section and the shell walkthrough, checked
against the parser of `sphsplines.cli`."""

import argparse
import pathlib
import re
import shlex

import pytest

from sphsplines.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parents[1]

# a whole flag token: `--n` does not match inside `--n-lat`
FLAG = r"(?<![\w-])--[a-z][a-z0-9-]*"


def _parser_names():
    """(subcommands, flags): the subcommand names and every long flag of the
    parser and its subcommands."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = parser._actions + [a for p in sub.choices.values() for a in p._actions]
    return set(sub.choices), {s for a in actions for s in a.option_strings
                              if s.startswith("--")}


def _command_line_section():
    text = (ROOT / "README.md").read_text()
    start = text.index("## Command line")
    end = text.find("\n## ", start)
    return text[start:] if end < 0 else text[start:end]


def test_readme_names_every_subcommand_and_flag():
    section = _command_line_section()
    subcommands, flags = _parser_names()
    assert sorted(c for c in subcommands if "sphsplines %s" % c not in section) == []
    assert sorted(flags - set(re.findall(FLAG, section))) == []


def test_readme_names_only_real_flags():
    _, flags = _parser_names()
    assert sorted(set(re.findall(FLAG, _command_line_section())) - flags) == []


def _walkthrough_commands():
    # the arguments of each `sphsplines ...` line, continuation lines joined
    text = (ROOT / "demos" / "cli_walkthrough.sh").read_text().replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines()
            if line.startswith("sphsplines ")]


def test_walkthrough_has_commands():
    assert len(_walkthrough_commands()) >= 4


@pytest.mark.parametrize("argv", _walkthrough_commands(), ids=" ".join)
def test_walkthrough_command_parses(argv):
    build_parser().parse_args(argv)

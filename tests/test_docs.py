"""The README's key table and flags sentence name exactly what the code accepts."""

import argparse
import re
from pathlib import Path

from covspec.cli import _build_parser
from covspec.config import KEYS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_readme_key_table_names_every_config_key():
    section = README.split("### Config keys", 1)[1].split("\n### ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    named = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(named) == sorted(KEYS)


def test_readme_flags_sentence_names_every_cli_flag():
    sentence = README.split("\nFlags: ", 1)[1].split(". ", 1)[0]
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        flag
        for command in commands.choices.values()
        for action in command._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    assert set(re.findall(r"`(--[a-z-]+)", sentence)) == flags

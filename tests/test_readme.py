"""README's examples name only what spanlab has.

Every `S.<name>` in a python block must resolve on the package and every
`S.<name>(...)` call must bind to its signature; every `spanlab ...` line
in a sh block must parse, and every flag in the command table must belong
to its subcommand. So a removed function, parameter or flag cannot linger
in the documentation.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import re
import shlex
from pathlib import Path

import spanlab as S
from spanlab.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(),
                      re.MULTILINE | re.DOTALL)


def test_every_library_name_in_the_readme_resolves():
    names = {name for block in _blocks("python")
             for name in re.findall(r"\bS\.(\w+)", block)}
    assert len(names) >= 27
    assert sorted(n for n in names if not hasattr(S, n)) == []


def test_every_command_in_the_readme_parses():
    commands = [shlex.split(line)[1:] for block in _blocks("sh")
                for line in block.splitlines() if line.startswith("spanlab ")]
    assert len(commands) >= 6
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).func, argv


def test_every_library_call_in_the_readme_binds():
    calls = [node for block in _blocks("python")
             for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name)
             and node.func.value.id == "S"]
    assert len(calls) >= 30
    for call in calls:
        signature = inspect.signature(getattr(S, call.func.attr))
        # bind placeholders: only the count and the keyword names matter
        signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})


def test_every_flag_in_the_command_table_belongs_to_its_subcommand():
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    rows = re.findall(r"^\| `([\w-]+)([^`]*)` \|", README.read_text(),
                      re.MULTILINE)
    assert sorted(name for name, _ in rows) == sorted(subparsers.choices)
    for name, rest in rows:
        declared = subparsers.choices[name]._option_string_actions
        for flag in re.findall(r"--[\w-]+", rest):
            assert flag in declared, (name, flag)

"""README's examples name only what spanlab has.

Every `S.<name>` in a python block must resolve on the package, and every
`spanlab ...` line in a sh block must parse, so a removed function or flag
cannot linger in the documentation.
"""

from __future__ import annotations

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

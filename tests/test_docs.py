"""The README's commands stay in step with the code."""

import re
import shlex
from pathlib import Path

import pytest

from bipack.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _cli_block():
    """Lines of the first shell block after the README's CLI heading."""
    section = README.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


def test_named_scripts_exist():
    named = set(re.findall(r"scripts/[\w.-]+\.py", README))
    assert named
    assert [p for p in sorted(named) if not (ROOT / p).is_file()] == []


@pytest.mark.parametrize("line", _cli_block())
def test_cli_line_parses(line):
    argv = shlex.split(line)
    assert argv[0] == "bipack"
    args = build_parser().parse_args(argv[1:])
    assert args.command == argv[1]

"""The README's CLI examples parse with the program's own parser."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from tscnet.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_examples() -> list[str]:
    """Each `tscnet ...` line of the fenced block under the README's CLI heading."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", section, re.S | re.M).group(1)
    return [line for line in block.splitlines() if line.startswith("tscnet ")]


@pytest.mark.parametrize("line", cli_examples())
def test_example_parses(line, capsys):
    try:
        build_parser().parse_args(shlex.split(line)[1:])
    except SystemExit:
        pytest.fail(f"README example does not parse: {line}\n{capsys.readouterr().err}")


def test_every_verb_has_an_example():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {shlex.split(line)[1] for line in cli_examples()} == set(sub.choices)

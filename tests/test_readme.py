"""The README's CLI examples parse with the program's own parser, and its
config example with the program's config parser."""

import argparse
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from tscnet.cli import build_parser
from tscnet.pipeline import PipelineConfig, parse_config

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


def config_example() -> str:
    """The fenced block under the README's config heading."""
    section = README.read_text(encoding="utf-8").split("\n## Config file\n", 1)[1]
    return re.search(r"^```\n(.*?)^```$", section, re.S | re.M).group(1)


def test_config_example_parses_to_the_defaults(tmp_path):
    # the README says "the values above are the defaults"
    block = config_example()
    path = tmp_path / "run.cfg"
    path.write_text(block, encoding="utf-8")
    config = parse_config(path)
    listed = re.findall(r"^(\w+) = ", block, re.M)
    optional = re.findall(r"^# (\w+) = ", block, re.M)
    assert set(listed) | set(optional) == {f.name for f in fields(PipelineConfig)}
    for f in fields(PipelineConfig):
        if f.name in listed and f.name != "prices_path":  # the one key without a default
            expected = tmp_path / f.default if isinstance(f.default, Path) else f.default
            assert getattr(config, f.name) == expected, f.name

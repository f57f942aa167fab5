"""README's CLI examples run as documented."""

import re
import shlex
from pathlib import Path

import pytest

from faithfrac.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
CLI_BLOCK = re.search(r"## CLI\n.*?```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
# Lines that read a file or stdin are left out: they need input the README
# does not carry.
EXAMPLES = [
    line
    for line in CLI_BLOCK.splitlines()
    if line.startswith("faithfrac ") and "--input" not in line
]


def test_readme_has_the_cli_examples():
    assert len(EXAMPLES) == 11


@pytest.mark.parametrize("line", EXAMPLES)
def test_readme_cli_example_exits_as_documented(line, capsys):
    command, _, comment = line.partition("#")
    expected = 1 if "exits 1" in comment else 0
    assert main(shlex.split(command)[1:]) == expected
    assert capsys.readouterr().out

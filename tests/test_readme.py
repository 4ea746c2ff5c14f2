import os
import re

import pytest

from driftlab import cli
from driftlab.cli import parse_config

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def fenced_blocks(lang):
    """The body of every ```lang fence in README.md, named by its line."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return [
        pytest.param(m.group(1), id=f"line{text.count(chr(10), 0, m.start()) + 1}")
        for m in re.finditer(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)
    ]


def test_readme_has_a_python_example():
    assert fenced_blocks("python")


def test_readme_has_a_yaml_example():
    assert fenced_blocks("yaml")


@pytest.mark.parametrize("block", fenced_blocks("python"))
def test_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("block", fenced_blocks("yaml"))
def test_yaml_block_parses(block):
    # a config example that uses a removed or misspelt key fails here
    parse_config(block)


def per_command_keys():
    """Each `name:` bullet of README's "Per-command sections" -> the
    backquoted names of its first sentence outside parentheses."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("Per-command sections:\n", 1)[1].split("\n#", 1)[0]
    named = {}
    for m in re.finditer(r"^ *\* `([\w-]+):`(.*?)(?=^ *\* |\Z)", block, re.M | re.S):
        # a parenthesis holds defaults, bounds and choices; its backquoted
        # spans may hold parentheses of their own
        body = re.sub(r"\((?:[^()`]|`[^`]*`)*\)", "", " ".join(m.group(2).split()))
        named[m.group(1)] = set(re.findall(r"`([^`]+)`", re.split(r"\.(?: |$)", body, 1)[0]))
    return named


def test_per_command_sections_name_the_keys_of_each_row():
    named = per_command_keys()
    assert named.pop("check") == {"kind"}
    assert named == {row: set(keys) for row, keys in cli._PARAMS.items()}

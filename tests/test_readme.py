import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def python_blocks():
    """The body of every ```python fence in README.md, named by its line."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return [
        pytest.param(m.group(1), id=f"line{text.count(chr(10), 0, m.start()) + 1}")
        for m in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S)
    ]


def test_readme_has_a_python_example():
    assert python_blocks()


@pytest.mark.parametrize("block", python_blocks())
def test_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})

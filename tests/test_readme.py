"""README's library example runs as written, and its config table is current."""

import re
from pathlib import Path

from maskcompose.config import describe_schema

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "README's Library use section has no python block"
    exec(compile(block.group(1), f"{README}:Library use", "exec"), {})


def test_config_reference_matches_schema():
    section = README.read_text(encoding="utf-8").split("## Config reference", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S)
    assert block is not None, "README's Config reference section has no table block"
    assert block.group(1) == describe_schema() + "\n"

"""README's library example runs as written, its config table is current,
and its Quick start commands name configs that load and echo back."""

import re
import shlex
from pathlib import Path

import pytest

from maskcompose.cli import build_parser
from maskcompose.config import config_lines, describe_schema, load_config, parse_config_text

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))


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


@pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
def test_every_config_loads(path):
    # load only: factorized_exact.cfg's eval alone takes seconds
    load_config(str(path))


@pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
def test_every_config_echo_parses_back(path):
    # the echo that artifacts carry is what a later command compares with
    cfg = load_config(str(path))
    assert parse_config_text("\n".join(config_lines(cfg))) == cfg


def test_quick_start_commands_parse_and_name_a_config():
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    section = section.split("\n## ", 1)[0]
    commands = [
        shlex.split(line)
        for block in re.findall(r"```\n(.*?)```", section, re.S)
        for line in block.splitlines()
        if line.startswith("python -m maskcompose ")
    ]
    assert commands, "README's Quick start has no python -m maskcompose line"
    named = set()
    for argv in commands:
        args = build_parser().parse_args(argv[3:])
        assert (ROOT / args.config).is_file(), " ".join(argv)
        named.add(args.config)
    assert {"configs/ood.cfg", "configs/negation.cfg"} <= named

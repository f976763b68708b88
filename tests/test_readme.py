"""The README's code examples run as written, and its usage blocks match
the parser."""
import argparse
import contextlib
import io
import re
from pathlib import Path

from sqkdsim.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks, "README has no python block"
    for block in blocks:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(block, str(README), "exec"), {})


def test_readme_usage_blocks_list_each_commands_flags():
    """Each ``sqkdsim <command>`` usage block names exactly the flags the
    parser defines for that command, help aside, and every command has one."""
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    blocks = re.findall(r"```\nsqkdsim ([\w-]+)(.*?)```", README.read_text(), re.DOTALL)
    assert sorted(name for name, _ in blocks) == sorted(commands)
    for name, block in blocks:
        defined = {flag for action in commands[name]._actions
                   for flag in action.option_strings} - {"-h", "--help"}
        assert set(re.findall(r"--[\w-]+", block)) == defined, name

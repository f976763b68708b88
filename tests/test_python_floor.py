"""The package's source parses at the Python floor ``pyproject.toml`` declares.

A best-effort grammar check: ``ast.parse`` with ``feature_version`` rejects
much, though not all, syntax newer than the floor, and it cannot see a
library call that the floor's standard library lacks.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_package_parses_at_the_declared_floor():
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                         (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    floor = tuple(int(part) for part in declared.groups())
    assert floor == (3, 10)
    sources = sorted((ROOT / "src" / "sqkdsim").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)

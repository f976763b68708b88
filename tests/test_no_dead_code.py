"""Every name defined in the package is used somewhere, and by the package.

A top-level function, class or module constant of ``src/sqkdsim``, or a
non-dunder method of a top-level class, must be read by code in ``src/``,
``tests/`` or ``bench/`` outside ``sqkdsim/__init__.py``: as a loaded
name, a loaded attribute or an imported name, found with ``ast``, so
docstrings, comments and the strings of ``__all__`` lists do not count,
and re-exports alone do not either.  It must also be read so in ``src/``
alone, or be named in :data:`SRC_ORACLES`: a name only tests use belongs
beside them.  A scan of the syntax trees, so it needs no linter.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sqkdsim"

# Kept in the package though no other package code uses them: the two-pair
# specification of Alice's swaps (acceptance criterion 3), the fixture
# writer the README documents, and a documented exit code.
SRC_ORACLES = ("alice.swap_matrix", "adversary.save_attack", "cli.EXIT_USAGE")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """Every checked name defined in a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield item.name
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and not _is_dunder(target.id):
                yield target.id


def _read_names(path: Path) -> set:
    """Every name the code of a file reads: loaded names (f-string
    expressions included), loaded attributes and imported names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
    return names


def _unused(folders) -> list[str]:
    """``module.name`` of every checked name that no code under ``folders``
    reads."""
    read = set().union(*(_read_names(path)
                         for folder in folders
                         for path in sorted((ROOT / folder).rglob("*.py"))
                         if path != PACKAGE / "__init__.py"
                         and not any(p.startswith(".") for p in path.relative_to(ROOT).parts)))
    return [f"{module.stem}.{name}"
            for module in sorted(PACKAGE.glob("*.py"))
            for name in _definitions(ast.parse(module.read_text()))
            if name not in read]


def test_every_defined_name_is_used():
    unused = _unused(("src", "tests", "bench"))
    assert not unused, f"defined but never used: {unused}"


def test_every_defined_name_is_used_by_the_package():
    unused = _unused(("src",))
    assert [n for n in unused if n not in SRC_ORACLES] == [], "used only outside src/"
    assert [n for n in SRC_ORACLES if n not in unused] == [], "oracle now used in src/"

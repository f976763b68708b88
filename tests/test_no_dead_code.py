"""Every name defined in the package is used somewhere, and by the package.

A top-level function, class or module constant of ``src/sqkdsim``, or a
non-dunder method of a top-level class, must appear as a whole word in
``src/``, ``tests/`` or ``bench/`` outside its own definition line, outside
every ``__all__`` list and outside ``sqkdsim/__init__.py``.  Re-exports
alone do not count as use.  It must also appear so in ``src/`` alone, or
be named in :data:`SRC_ORACLES`: a name only tests use belongs beside
them.  A plain-text scan with ``ast`` and regular expressions, so it needs
no linter.
"""
import ast
import re
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
    """(name, definition line) of every checked name in a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield item.name, item.lineno
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and not _is_dunder(target.id):
                yield target.id, node.lineno


def _searchable_lines(path: Path) -> list[str]:
    """Lines of a file with its ``__all__`` lists blanked out."""
    text = path.read_text()
    lines = text.splitlines()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            for i in range(node.lineno - 1, node.end_lineno):
                lines[i] = ""
    return lines


def _unused(folders) -> list[str]:
    """``module.name`` of every checked name that no file under ``folders``
    uses outside its definition line."""
    corpus = {path: _searchable_lines(path)
              for folder in folders
              for path in sorted((ROOT / folder).rglob("*.py"))
              if path != PACKAGE / "__init__.py"
              and not any(p.startswith(".") for p in path.relative_to(ROOT).parts)}
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text())
        for name, line in _definitions(tree):
            word = re.compile(rf"\b{re.escape(name)}\b")
            used = any(word.search(text)
                       for path, lines in corpus.items()
                       for number, text in enumerate(lines, start=1)
                       if not (path == module and number == line))
            if not used:
                unused.append(f"{module.stem}.{name}")
    return unused


def test_every_defined_name_is_used():
    unused = _unused(("src", "tests", "bench"))
    assert not unused, f"defined but never used: {unused}"


def test_every_defined_name_is_used_by_the_package():
    unused = _unused(("src",))
    assert [n for n in unused if n not in SRC_ORACLES] == [], "used only outside src/"
    assert [n for n in SRC_ORACLES if n not in unused] == [], "oracle now used in src/"

"""Every name defined in the package is used somewhere, and by the package.

A top-level function, class or module constant of ``src/sqkdsim``, or a
non-dunder method of a top-level class, must be read by code in ``src/``,
``tests/`` or ``bench/`` outside ``sqkdsim/__init__.py``, found with
``ast``, so docstrings, comments and the strings of ``__all__`` lists do
not count, and re-exports alone do not either.  A method counts as read
only through a loaded attribute (``x.name``) on something other than a
module the file binds by ``import``, so neither a local variable that
shares its name nor ``np.name`` keeps it alive.  A module-level name counts
through a loaded name or an imported name; outside ``src/`` also through a
loaded attribute (``module.name``).  It must also be read so in ``src/``
alone, or be named in :data:`SRC_ORACLES`: a name only tests use belongs
beside them.  A scan of the syntax trees, so it needs no linter.

The check matches names, not the objects they belong to.  A method still
passes when another object's attribute of the same name is read: the
``validate`` of one class by a call to the ``validate`` of another.

Every name an ``__all__`` exports must also exist, which only a
``from module import *`` would otherwise find.
"""
import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "sqkdsim"

# Kept in the package though no other package code uses them, each with why.
SRC_ORACLES = {
    "alice.swap_matrix": "the two-pair specification of Alice's swaps (acceptance criterion 3)",
    "adversary.save_attack": "the fixture writer the README documents",
    "cli.EXIT_USAGE": "a documented exit code",
    "protocol.branches": "one block's probabilities, whose rows bench/worker.py's trace counts",
    "fock.trace_distance": "the reference the stacked distances are compared against in tests",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """``(name, is_method)`` of every checked name defined in a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield item.name, True
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and not _is_dunder(target.id):
                yield target.id, False


def _reads(path: Path) -> tuple[set, set]:
    """``(names, attributes)`` the code of a file reads: loaded and imported
    names (f-string expressions included) and attributes loaded from a
    module the file binds by ``import`` (``np.trace``), then the other
    loaded attributes."""
    tree = ast.parse(path.read_text())
    modules = {(alias.asname or alias.name).split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            on_module = isinstance(node.value, ast.Name) and node.value.id in modules
            (names if on_module else attributes).add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
    return names, attributes


def _unused(folders) -> list[str]:
    """``module.name`` of every checked name that no code under ``folders``
    reads."""
    module_level, methods = set(), set()
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path == PACKAGE / "__init__.py" or any(
                    p.startswith(".") for p in path.relative_to(ROOT).parts):
                continue
            names, attributes = _reads(path)
            module_level |= names if path.is_relative_to(SRC) else names | attributes
            methods |= attributes
    return [f"{module.stem}.{name}"
            for module in sorted(PACKAGE.glob("*.py"))
            for name, is_method in _definitions(ast.parse(module.read_text()))
            if name not in (methods if is_method else module_level)]


def test_every_defined_name_is_used():
    unused = _unused(("src", "tests", "bench"))
    assert not unused, f"defined but never used: {unused}"


def test_every_defined_name_is_used_by_the_package():
    unused = _unused(("src",))
    only_outside = [n for n in unused if n not in SRC_ORACLES]
    now_inside = [n for n in SRC_ORACLES if n not in unused]
    assert not only_outside + now_inside, \
        f"used only outside src/: {only_outside}; oracle now used in src/: {now_inside}"


def test_every_exported_name_exists():
    """Each name in the ``__all__`` of the package and of each of its
    modules is an attribute of that module, so ``import *`` finds it."""
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "sqkdsim" if path.stem == "__init__" else f"sqkdsim.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{export}" for export in getattr(module, "__all__", ())
                    if not hasattr(module, export)]
    assert not missing, f"exported but not defined: {missing}"

"""The exact core names no float type of its own.

Every array the core makes takes its dtype from the arrays it is given, so
a caller decides the precision once (``tests/test_precision.py`` runs the
core in extended precision).  A scan of the syntax trees: none of the
functions below names ``float64`` or ``complex128``, and each calls
``np.bincount`` only without weights, since ``bincount`` casts its weights
to float64; weighted sums go through ``np.add.at`` into zeros of the
weights' dtype.  Unweighted counts, of rows per cell or rounds per cell,
stay integers and may use ``bincount``.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sqkdsim"

CORE = {
    "fock": ("_norm2", "_evolve"),
    "protocol": ("_split", "_branch_stack", "_outcome_sums", "_probe_states"),
    "robustness": ("_conditions",),
}
FIXED_TYPES = {"float64", "complex128"}


def _functions():
    for module, names in CORE.items():
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        found = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for name in names:
            yield f"{module}.{name}", found[name]


def _violations(function: ast.FunctionDef) -> tuple[list, list]:
    """The fixed float types a function names, and the lines of its weighted
    ``bincount`` calls."""
    named, weighted = set(), []
    for node in ast.walk(function):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "bincount"
                and (len(node.args) > 1 or any(k.arg == "weights" for k in node.keywords))):
            weighted.append(node.lineno)
    return sorted(named & FIXED_TYPES), weighted


@pytest.mark.parametrize("name, function", list(_functions()))
def test_core_function_takes_its_dtype_from_its_inputs(name, function):
    assert _violations(function) == ([], []), name


def test_the_scan_sees_fixed_types_and_weighted_counts():
    tree = ast.parse("def f(x, w):\n"
                     "    y = np.zeros(3, dtype=np.float64) + complex128(1)\n"
                     "    np.bincount(x, minlength=3)\n"
                     "    return np.bincount(x, w), np.bincount(x, weights=w)\n")
    assert _violations(tree.body[0]) == (["complex128", "float64"], [4, 4])

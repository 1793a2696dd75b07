"""Source hygiene of the package, checked with the stdlib ``ast`` module.

Every name a module imports is read somewhere in it (or re-exported through
``__all__``), and no module uses an ``assert`` statement: ``python -O``
strips those, so the package's guards must raise named errors instead.

The engine's hot loop (``autodiff.py`` and ``optim.py``, run for every node
of every Adam step) calls neither ``np.where`` nor the ``np.all`` /
``np.any`` wrappers.  Measured with numpy 2.4 on a 2-vCPU x86 host:
``np.where(mask, a, 0)`` over a (60, 8, 1, 56) float32 activation takes
190 us, ``np.maximum(a, 0)`` 20 us with the same bits; ``np.all(np.isfinite(x))``
costs 6.7 us on an 8-element array, ``np.isfinite(x).all()`` 3.6 us.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "anchorinv"
MODULES = sorted(PACKAGE.glob("*.py"))
HOT_LOOP_MODULES = [PACKAGE / "autodiff.py", PACKAGE / "optim.py"]
HOT_LOOP_BANNED = {"where", "all", "any"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> line of the import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(tree: ast.Module) -> list[tuple[str, int]]:
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= _exported_names(tree)
    return sorted((name, line) for name, line in _imported_names(tree).items()
                  if name not in read)


def assert_lines(tree: ast.Module) -> list[int]:
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def slow_numpy_calls(tree: ast.Module) -> list[int]:
    """Lines that call ``np.where``, ``np.all`` or ``np.any``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                  and node.func.attr in HOT_LOOP_BANNED)


def test_package_modules_found():
    assert PACKAGE / "__init__.py" in MODULES
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(_parse(path))
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = assert_lines(_parse(path))
    assert not lines, f"{path.name}: assert statements at lines {lines}"


@pytest.mark.parametrize("path", HOT_LOOP_MODULES, ids=lambda p: p.name)
def test_hot_loop_avoids_slow_numpy_calls(path):
    lines = slow_numpy_calls(_parse(path))
    assert not lines, f"{path.name}: np.where / np.all / np.any at lines {lines}"


def test_scanner_flags_what_it_should():
    tree = ast.parse("import os\nimport numpy as np\nfrom typing import Sequence, Any\n"
                     "from . import helper\n__all__ = ['helper']\nx: Any = np.zeros(1)\n")
    assert unused_imports(tree) == [("Sequence", 3), ("os", 1)]
    assert assert_lines(ast.parse("def f(x):\n    assert x > 0\n    return x\n")) == [2]
    assert slow_numpy_calls(ast.parse("a = np.where(m, x, 0)\nb = x.all()\nc = np.any(x)\n"
                                      "d = np.all(np.isfinite(x))\ne = where(x)\n")) == [1, 3, 4]

"""Source hygiene of the package, checked with the stdlib ``ast`` module.

Every name a module imports is read somewhere in it (or re-exported through
``__all__``), every name a module lists in ``__all__`` is bound in it, so an
export left behind by a deletion fails here, and no module uses an
``assert`` statement: ``python -O`` strips those, so the package's guards
must raise named errors instead.

No top-level definition of the package is test-only: each one is named
outside its own body, in a package module other than ``__init__.py``, a
demo or ``perfbench/``, as a name, an attribute or a string (``perfbench``
wraps engine primitives by their names), where ``__all__`` lists do not
count.  What only the tests need lives in ``tests/oracles.py``.

The engine's hot loop (``autodiff.py`` and ``optim.py``, run for every node
of every Adam step) calls neither ``np.where``, the ``np.all`` / ``np.any``
wrappers, ``np.prod`` nor ``np.linalg.norm``.  Measured with numpy 2.4 on a
2-vCPU x86 host: ``np.where(mask, a, 0)`` over a (60, 8, 1, 56) float32
activation takes 190 us, ``np.maximum(a, 0)`` 20 us with the same bits;
``np.all(np.isfinite(x))`` costs 6.7 us on an 8-element array,
``np.isfinite(x).all()`` 3.6 us; ``int(np.prod((60, 104)))`` 4.3 us,
``math.prod((60, 104))`` 0.09 us with the same value;
``np.linalg.norm(a, axis=1)`` of a (60, 104) float32 matrix 11.6 us,
``np.sqrt((a * a).sum(axis=1))``, the same bits, 10.1 us.

Whether a primitive records a graph has one switch, each tensor's
``requires_grad``: no module names a global grad mode (a name that
``GRAD_MODE`` matches, as the grad-mode scopes and queries of other engines
do), every tensor the package builds rests without the flag (no module
passes ``requires_grad=True``), and only ``optim.py``, whose ``minimize``
trains the tensors it is handed, assigns the flag ``True``.

No VJP keeps a parent tensor alive: a function nested in an ``autodiff.py``
primitive names no parameter of that primitive annotated ``Tensor`` (or
``Sequence[Tensor]``, ``Tensor | None``).  ``backward`` hands it its
parents' gradient targets and it keeps only what it reads, so an
intermediate output no VJP reads is freed once the forward pass drops it.

The cosine classifier's math is written once, in the engine: no module but
``autodiff.py`` calls ``np.exp`` or ``np.linalg.norm``, so the classifier's
scores, TEEN's calibration and the ``closest`` anchor ranking all run its
``cosine_similarity_matrix`` and ``softmax_with_temperature``.

The ``_im2col`` block budget ``_IM2COL_BLOCK_BYTES`` is read in one place,
``autodiff._block_samples``, which every blocked conv and the rule by which
``ConvBackbone.conv_input`` picks the columns ask for their block size.

JSON text is parsed in two places: ``serialization.load_json``, the entry
point of the typed reader, and ``read_container``, for a container's binary
header.  No other function calls ``json.loads`` or ``json.load``, so a new
JSON input cannot skip ``read_json``.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "anchorinv"
MODULES = sorted(PACKAGE.glob("*.py"))
# where a package definition may be named: every module but __init__.py,
# the demos and the benchmark
CALLERS = ([path for path in MODULES if path.name != "__init__.py"]
           + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")))
HOT_LOOP_MODULES = [PACKAGE / "autodiff.py", PACKAGE / "optim.py"]
HOT_LOOP_BANNED = {"where", "all", "any", "prod"}
HOT_LOOP_BANNED_LINALG = {"norm"}
# the cosine classifier's math, which only the engine writes
ENGINE_MATH, ENGINE_MATH_LINALG = {"exp"}, {"norm"}
GRAD_MODE = re.compile(r"(?i)(no|enable)_?grad|grad_(enabled|mode)")
# the one module that may turn a tensor's requires_grad on
FLAG_SETTER = PACKAGE / "optim.py"
ENGINE = PACKAGE / "autodiff.py"
BLOCK_BUDGET = "_IM2COL_BLOCK_BYTES"
BLOCK_HELPER = "_block_samples"
# the only functions that may parse JSON text: (module, top-level function)
JSON_PARSERS = {("serialization.py", "load_json"), ("serialization.py", "read_container")}


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


def _bound_names(tree: ast.Module) -> set[str]:
    """Names the module body binds: defs, classes, assignments and imports."""
    out = set(_imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return out


def unbound_exports(tree: ast.Module) -> list[str]:
    """Names listed in ``__all__`` that the module never binds."""
    return sorted(_exported_names(tree) - _bound_names(tree))


def _mentioned(node: ast.AST) -> set[str]:
    """Names, attributes and string constants under ``node``."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def unnamed_definitions(package: list[ast.Module], callers: list[ast.Module]) -> list[str]:
    """Top-level defs and classes of the ``package`` modules that no
    ``callers`` module names outside their own body and ``__all__``."""
    defined, mentioned = set(), set()
    for tree in callers:
        for node in tree.body:
            if (isinstance(node, ast.Assign) and any(_is_name(t, "__all__")
                                                     for t in node.targets)):
                continue
            names = _mentioned(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(node.name)
            mentioned |= names
    for tree in package:
        defined |= {node.name for node in tree.body if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    return sorted(defined - mentioned)


def assert_lines(tree: ast.Module) -> list[int]:
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def _is_name(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def numpy_calls(tree: ast.Module, names: set[str], linalg_names: set[str]) -> list[int]:
    """Lines that call ``np.<name>`` for a name in ``names`` or
    ``np.linalg.<name>`` for one in ``linalg_names``."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner, attr = node.func.value, node.func.attr
        if (_is_name(owner, "np") and attr in names) or (
                isinstance(owner, ast.Attribute) and owner.attr == "linalg"
                and _is_name(owner.value, "np") and attr in linalg_names):
            lines.append(node.lineno)
    return sorted(lines)


def _is_true(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is True


def grad_switch_lines(tree: ast.Module, may_set_flag: bool = False) -> list[int]:
    """Lines that name a global grad mode, pass ``requires_grad=True`` or,
    unless ``may_set_flag``, assign ``True`` to a ``.requires_grad``."""
    lines = []
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef))
                else None)
        if (name is not None and GRAD_MODE.search(name)) or (
                isinstance(node, ast.keyword) and node.arg == "requires_grad"
                and _is_true(node.value)) or (
                not may_set_flag and isinstance(node, ast.Assign) and _is_true(node.value)
                and any(isinstance(t, ast.Attribute) and t.attr == "requires_grad"
                        for t in node.targets)):
            lines.append(node.lineno)
    return sorted(lines)


def _names_tensor(annotation: ast.AST | None) -> bool:
    """Whether an annotation, quoted or not, names ``Tensor``."""
    return annotation is not None and re.search(r"\bTensor\b", ast.unparse(annotation)) is not None


def captured_tensor_lines(tree: ast.Module) -> list[int]:
    """Lines where a function or lambda nested in a top-level function names
    a parameter of that function annotated with ``Tensor``."""
    lines = set()
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        args = fn.args
        tensors = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                   if _names_tensor(a.annotation)}
        for inner in ast.walk(fn):
            if inner is not fn and isinstance(inner, (ast.FunctionDef, ast.Lambda)):
                lines |= {n.lineno for n in ast.walk(inner)
                          if isinstance(n, ast.Name) and n.id in tensors}
    return sorted(lines)


def block_budget_reads(tree: ast.Module) -> list[int]:
    """Lines outside a ``_block_samples`` function that read
    ``_IM2COL_BLOCK_BYTES``, by name or as an attribute."""
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == BLOCK_HELPER
              for node in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree) if id(node) not in inside and (
        (isinstance(node, ast.Name) and node.id == BLOCK_BUDGET
         and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Attribute) and node.attr == BLOCK_BUDGET)))


def json_loads_calls(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing top-level definition, or "" at module level, line) of each
    call of ``json.loads``, ``json.load`` or a bare ``loads``."""
    calls = []
    for top in tree.body:
        name = getattr(top, "name", "")
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and (
                    _is_name(node.func, "loads") or (isinstance(node.func, ast.Attribute)
                                                     and node.func.attr in ("load", "loads")
                                                     and _is_name(node.func.value, "json"))):
                calls.append((name, node.lineno))
    return calls


def test_package_modules_found():
    assert PACKAGE / "__init__.py" in MODULES
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(_parse(path))
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_bound(path):
    unbound = unbound_exports(_parse(path))
    assert not unbound, f"{path.name}: __all__ lists unbound names {unbound}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = assert_lines(_parse(path))
    assert not lines, f"{path.name}: assert statements at lines {lines}"


@pytest.mark.parametrize("path", HOT_LOOP_MODULES, ids=lambda p: p.name)
def test_hot_loop_avoids_slow_numpy_calls(path):
    lines = numpy_calls(_parse(path), HOT_LOOP_BANNED, HOT_LOOP_BANNED_LINALG)
    assert not lines, (f"{path.name}: np.where / np.all / np.any / np.prod / np.linalg.norm "
                       f"at lines {lines}")


@pytest.mark.parametrize("path", [p for p in MODULES if p != ENGINE], ids=lambda p: p.name)
def test_only_the_engine_writes_the_cosine_softmax_math(path):
    lines = numpy_calls(_parse(path), ENGINE_MATH, ENGINE_MATH_LINALG)
    assert not lines, f"{path.name}: np.exp / np.linalg.norm outside autodiff.py at lines {lines}"


def test_only_the_block_helper_reads_the_block_budget():
    helpers = [node.name for node in ast.walk(_parse(PACKAGE / "autodiff.py"))
               if isinstance(node, ast.FunctionDef) and node.name == BLOCK_HELPER]
    assert helpers == [BLOCK_HELPER]
    reads = {path.name: lines for path in MODULES if (lines := block_budget_reads(_parse(path)))}
    assert not reads, f"{BLOCK_BUDGET} read outside {BLOCK_HELPER}: {reads}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_tensors_rest_frozen_and_only_minimize_trains(path):
    lines = grad_switch_lines(_parse(path), may_set_flag=path == FLAG_SETTER)
    assert not lines, (f"{path.name}: a grad mode, requires_grad=True or an assigned "
                       f"requires_grad = True at lines {lines}")


def test_no_vjp_keeps_a_parent_tensor():
    lines = captured_tensor_lines(_parse(ENGINE))
    assert not lines, f"autodiff.py: a nested function names a Tensor parameter at lines {lines}"


def test_only_the_reader_parses_json():
    calls = [(path.name, name, line) for path in MODULES
             for name, line in json_loads_calls(_parse(path))
             if (path.name, name) not in JSON_PARSERS]
    assert not calls, f"JSON parsed outside load_json and read_container: {calls}"


def test_no_definition_is_test_only():
    package = [_parse(path) for path in MODULES if path.name != "__init__.py"]
    unused = unnamed_definitions(package, [_parse(path) for path in CALLERS])
    assert not unused, f"defined in src/anchorinv but named only by tests: {unused}"


def test_scanner_flags_what_it_should():
    tree = ast.parse("import os\nimport numpy as np\nfrom typing import Sequence, Any\n"
                     "from . import helper\n__all__ = ['helper']\nx: Any = np.zeros(1)\n")
    assert unused_imports(tree) == [("Sequence", 3), ("os", 1)]
    assert unbound_exports(tree) == []
    assert unbound_exports(ast.parse(
        "from .m import a\nb = 1\nc: int = 2\nd, (e, f) = 3, (4, 5)\n"
        "def g():\n    h = 6\nclass K:\n    pass\n"
        "__all__ = ['a', 'b', 'c', 'd', 'f', 'g', 'h', 'K', 'gone']\n")) == ["gone", "h"]
    assert assert_lines(ast.parse("def f(x):\n    assert x > 0\n    return x\n")) == [2]
    module = ast.parse("__all__ = ['dead', 'alive', 'wrapped', 'loop', 'K']\n"
                       "def dead():\n    return 'dead'\n"
                       "def alive():\n    return helper()\n"
                       "def loop(n):\n    return loop(n - 1)\n"
                       "def helper():\n    return 1\n"
                       "def wrapped():\n    pass\n"
                       "class K:\n    pass\n")
    caller = ast.parse("import m\nm.alive()\nx: 'K' = None\nENGINE = ('wrapped',)\n")
    assert unnamed_definitions([module], [module, caller]) == ["dead", "loop"]
    hot_loop = (HOT_LOOP_BANNED, HOT_LOOP_BANNED_LINALG)
    assert numpy_calls(ast.parse("a = np.where(m, x, 0)\nb = x.all()\nc = np.any(x)\n"
                                 "d = np.all(np.isfinite(x))\ne = where(x)\n"
                                 "f = int(np.prod(shape))\ng = math.prod(shape)\n"
                                 "h = x.prod()\n"), *hot_loop) == [1, 3, 4, 6]
    assert numpy_calls(ast.parse("n = np.linalg.norm(a, axis=1)\nm = linalg.norm(a)\n"
                                 "q = np.linalg.qr(a)\nr = np.sqrt((a * a).sum(axis=1))\n"
                                 "s = np.norm(a)\n"), *hot_loop) == [1]
    assert numpy_calls(ast.parse("e = np.exp(z)\nn = np.linalg.norm(a, axis=1)\n"
                                 "f = exp(z)\ng = math.exp(1.0)\nh = x.exp()\n"
                                 "k = np.expm1(z)\nm = la.norm(a)\nw = np.where(m)\n"
                                 "q = np.maximum(np.linalg.norm(v), 1e-12)\n"),
                       ENGINE_MATH, ENGINE_MATH_LINALG) == [1, 2, 9]
    switches = ast.parse("from torch import enable_grad\n"
                         "w = Tensor(x, requires_grad=True)\n"
                         "p.requires_grad = True\n"
                         "a.requires_grad = b.requires_grad = True\n"
                         "with ad.nograd():\n    pass\n"
                         "on = ad.set_grad_enabled(False)\n"
                         "v = Tensor(x, requires_grad=False)\n"
                         "t.requires_grad = flag\n"
                         "q.requires_grad = False\n"
                         "_GRAD_MODE = True\n"
                         "def grad_mode():\n    pass\n"
                         "known_grad = requires_grad(n)\n")
    assert grad_switch_lines(switches) == [1, 2, 3, 4, 5, 7, 11, 12]
    assert grad_switch_lines(switches, may_set_flag=True) == [1, 2, 5, 7, 11, 12]
    assert captured_tensor_lines(ast.parse(
        "def relu(a: Tensor) -> Tensor:\n"
        "    mask = a.data > 0\n"
        "    def backward_fn(g, ta):\n        _accumulate(ta, g * mask)\n"
        "    return _node(a.data, (a,), backward_fn)\n"
        "def mul(a: Tensor, b: 'Tensor', s: float):\n"
        "    def backward_fn(g):\n        _accumulate(a, g * b.data * s)\n"
        "    return _node(a.data, (a, b), lambda g: b)\n"
        "def stack(rows: Sequence[Tensor], bias: Tensor | None = None, *, w: Tensor):\n"
        "    def backward_fn(g):\n        return rows, w\n"
        "    def shape_of(x):\n        return bias.shape\n"
        "    return rows\n")) == [8, 9, 12, 14]
    assert json_loads_calls(ast.parse(
        "import json\nfrom json import loads\ncfg = json.loads(text)\n"
        "def load_json(path):\n    return json.loads(path.read_text())\n"
        "class Report:\n    def read(self, s):\n        return loads(s)\n"
        "def dump(obj):\n    return json.dumps(obj), ujson.loads(s), self.loads(s)\n"
        "def read(fh):\n    return json.load(fh)\n")) == [
        ("", 3), ("load_json", 5), ("Report", 8), ("read", 12)]
    assert block_budget_reads(ast.parse(
        "_IM2COL_BLOCK_BYTES = 16\n"
        "def _block_samples(b):\n    return _IM2COL_BLOCK_BYTES // b\n"
        "def conv(b):\n    return max(1, _IM2COL_BLOCK_BYTES // b)\n"
        "n = ad._IM2COL_BLOCK_BYTES\n")) == [5, 6]

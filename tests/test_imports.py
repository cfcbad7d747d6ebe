"""Static checks on ``src/fsolink``: no module imports a name it never
uses, no module-level private name goes unread by every module, and no
function takes a parameter its body never reads.

A name counts as used when the module reads it anywhere, including inside
a string annotation such as ``"LinkGeometry"``. ``__init__.py`` is checked
like every other module; ``__future__`` imports are directives. A private
name is a ``_``-prefixed (not dunder) function, class or constant defined
at module level; it is read when some module loads it by name or as an
attribute (``modem._decide``). A parameter (``self`` and ``cls`` aside) is
read when its function's body, nested functions included, loads its name.
The public names that only tests reach are pinned to a fixed list.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fsolink"
MODULES = sorted(SRC.glob("*.py"))
BENCH = SRC.parents[1] / "perfbench"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import statement in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> set[str]:
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for annotation in _annotations(tree):
        if annotation is None:
            continue
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return [
        f"line {line}: {name}"
        for name, line in _imported_names(tree).items()
        if name not in used
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level function, class and constant names -> line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [
                name.id
                for target in node.targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name)
            ]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            names[name] = node.lineno
    return names


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _read_names(trees) -> set[str]:
    """Names the modules load by name or as an attribute (``modem._decide``)."""
    read = set()
    for tree in trees:
        read |= _used_names(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return read


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module line N: name`` for each private name no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = _read_names(trees.values())
    return [
        f"{module} line {line}: {name}"
        for module, tree in trees.items()
        for name, line in _definitions(tree).items()
        if _private(name) and name not in read
    ]


def test_every_private_name_is_read():
    sources = {path.name: path.read_text() for path in MODULES}
    assert _unread_private_names(sources) == []


def test_checker_finds_an_unread_private_name():
    sources = {
        "a.py": (
            "_TABLE = (0, 1, 3, 2)\n"
            "_LIMIT: int = 4\n"
            "_old, _kept = 1, 2\n"
            "def _helper():\n"
            "    return 1\n"
            "class _Unused:\n"
            "    pass\n"
            "def _orphan(n):\n"
            "    _local = n\n"
            "    return _local\n"
            "def public(x: '_Hint') -> int:\n"
            "    return _TABLE[x]\n"
        ),
        "b.py": (
            "from . import a\n"
            "class _Hint:\n"
            "    pass\n"
            "def g():\n"
            "    return a._helper() + a._LIMIT\n"
        ),
    }
    assert _unread_private_names(sources) == [
        "a.py line 3: _old", "a.py line 3: _kept", "a.py line 6: _Unused",
        "a.py line 8: _orphan",
    ]


def test_checker_sees_string_annotations_and_unused_names():
    source = (
        "import csv\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .atmosphere import LinkGeometry\n"
        "from scipy.special import erf, erfc\n"
        "def f(g: 'LinkGeometry') -> float:\n"
        "    return erfc(1.0)\n"
    )
    assert _unused_imports(source) == ["line 1: csv", "line 5: erf"]


def _unread_parameters(source: str) -> list[str]:
    """``line N: function(parameter)`` for each parameter its body never reads."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = set().union(*(_used_names(statement) for statement in body))
        name = getattr(node, "name", "lambda")
        unread += [
            f"line {node.lineno}: {name}({param.arg})"
            for param in params
            if param.arg not in ("self", "cls", *read)
        ]
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _unread_parameters(path.read_text()) == []


def test_checker_finds_an_unread_parameter():
    source = (
        "def modulate(bits, config, *rest, flag=False, **extra):\n"
        "    def inner(x):\n"
        "        return bits[x] if flag else rest\n"
        "    return inner\n"
        "class A:\n"
        "    def method(self, value):\n"
        "        self.value = 1\n"
        "    @classmethod\n"
        "    def make(cls, data):\n"
        "        return cls(data)\n"
        "key = lambda item, unused: item[0]\n"
    )
    assert _unread_parameters(source) == [
        "line 1: modulate(config)", "line 1: modulate(extra)",
        "line 6: method(value)", "line 11: lambda(unused)",
    ]


def test_test_only_public_names():
    # Public names that no module of the package loads and no benchmark file
    # names: the detector-model oracles of test_pat.py (the noiseless
    # quadrant response and the displacement estimator) and the multi-sample
    # SNR estimator of acceptance criterion 03. A new library path that only
    # tests reach changes this list, so it is added on purpose or not at all.
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    loaded = _read_names(trees.values())
    bench = "\n".join(path.read_text() for path in sorted(BENCH.glob("*.py")))
    unread = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _definitions(tree)
        if not name.startswith("_") and name not in loaded
        and not re.search(rf"\b{name}\b", bench)
    ]
    assert sorted(unread) == ["pat.estimate_displacement", "pat.multisample_snr", "pat.qd_response"]

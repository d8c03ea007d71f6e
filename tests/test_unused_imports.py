"""No module of the package, its tests or its demos imports a name it never
reads, and the package defines no private name it never uses.

A top-level import counts as used if the module reads the name it binds
anywhere (as a name or as the root of an attribute chain) or lists it in
``__all__``.  ``from __future__`` imports are skipped, and so is a name whose
line carries ``# noqa: F401`` (an import kept for code outside the module).

A module-level private name of ``src/copos`` (a ``_``-prefixed function,
class or assigned name, dunders aside) counts as used if some module of the
package loads it as a name, reads it as an attribute or imports it with
``from ... import``; a retired helper fails here even if tests still call it.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "copos").glob("*.py"))
MODULES = sorted([*SRC, *(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names a module's top-level imports bind and the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}  # bound name -> the line that imports it
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                # import a.b binds a; import a.b as c and from a import b as c bind c
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_rules():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from json import dumps, loads  # noqa: F401\n"
              "from math import sqrt as root, pi\n"
              "__all__ = ['pi']\n"
              "def f():\n"
              "    return os.sep\n")
    assert unused_imports(source) == ["line 3: np", "line 5: root"]


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private names of the given modules that none of them uses."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unused += [f"{module}: {name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in used]
    return unused


def test_no_unused_private_name():
    assert unused_private_names({p.name: p.read_text(encoding="utf-8") for p in SRC}) == []


def test_unused_private_name_rules():
    sources = {"a.py": ("_LIMIT = 3\n"
                        "_dead, _used = 1, 2\n"
                        "__version__ = '1'\n"
                        "def _helper():\n"
                        "    _local = _used\n"
                        "    return _local\n"
                        "class _Gone:\n"
                        "    pass\n"),
               "b.py": ("from .a import _helper\n"
                        "import a\n"
                        "print(a._LIMIT)\n")}
    assert unused_private_names(sources) == ["a.py: _dead", "a.py: _Gone"]
